"""Command-line front end.

``hrislink sweep``  runs a Monte Carlo sweep over transmit power or the
power-split fraction and writes one CSV row per sweep point.

``hrislink check``  prints the identifiability report, cost estimate, and
control-link load for a receiver pair and exits nonzero when the
configuration violates the pair's sub-frame requirement.
"""

from __future__ import annotations

import argparse
import sys

from .harness import format_float, parse_pair, records_to_csv, run_sweep
from .identifiability import Sizes, feedback_bits, pair_subframes, receiver_spec
from .rx_common import IdentifiabilityError
from .scenario import SCHEMES, ScenarioConfig


def _load_config(args) -> ScenarioConfig:
    cfg = ScenarioConfig.from_file(args.config) if args.config else ScenarioConfig()
    if args.scheme and args.scheme != cfg.scheme:
        cfg = cfg.replace(scheme=args.scheme)
    return cfg


def _add_shared_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value configuration file")
    parser.add_argument("--pair", required=True,
                        help="surface-BS receiver pair, e.g. kronf-bals or bals-h")
    parser.add_argument("--scheme", choices=SCHEMES,
                        help="override the coding scheme from the configuration")


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    pair = parse_pair(args.pair)
    points = [float(p) for p in args.points.split(",") if p.strip()]
    records = run_sweep(cfg, pair, args.sweep, points,
                        trials=args.trials, base_seed=args.seed, workers=args.workers)
    text = records_to_csv(records)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)
    return 0


def _cmd_check(args) -> int:
    cfg = _load_config(args)
    pair = parse_pair(args.pair)
    sizes = Sizes.of(cfg)
    specs = [receiver_spec(receiver, entity, cfg.scheme) for receiver, entity in zip(pair, ("hris", "bs"))]
    need = pair_subframes(cfg, pair)
    print(f"pair {pair[0]}-{pair[1]}  scheme {cfg.scheme}  k={cfg.k}")
    print(f"{'receiver':<10}{'entity':<8}{'min_k':>6}  {'ok':<4}{'flops':>14}")
    for spec in specs:
        threshold = spec.threshold(sizes)
        flops = format_float(float(spec.flops(sizes))) + ("/iter" if spec.iterative else "")
        print(f"{spec.name:<10}{spec.entity:<8}{threshold:>6}  {'yes' if cfg.k >= threshold else 'NO':<4}{flops:>14}")
    scenario = specs[1].scenario
    print(f"feedback bits (scenario {scenario}): {feedback_bits(cfg, scenario)}")
    print(f"identifiable: {'yes' if cfg.k >= need else 'NO'} (needs k >= {need})")
    return 0 if cfg.k >= need else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hrislink",
        description="Link-level simulation of semi-blind receivers for a hybrid reflecting/sensing RIS",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a Monte Carlo sweep and emit CSV")
    _add_shared_flags(sweep)
    sweep.add_argument("--sweep", choices=("pt", "rho"), required=True,
                       help="sweep transmit power (dBm) or the reflected fraction")
    sweep.add_argument("--points", required=True, help="comma-separated sweep values")
    sweep.add_argument("--trials", type=int, default=500)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--workers", type=int, default=1,
                       help="worker processes for the trials (1: run them in this process)")
    sweep.add_argument("--out", default="-", help="output CSV path ('-' for stdout)")
    sweep.set_defaults(func=_cmd_sweep)

    check = sub.add_parser("check", help="print identifiability, cost, and feedback accounting")
    _add_shared_flags(check)
    check.set_defaults(func=_cmd_check)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (IdentifiabilityError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
