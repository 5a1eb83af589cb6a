#!/usr/bin/env python3
"""Benchmark of hrislink's Monte Carlo sweeps.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports ``hrislink`` from its
``src`` directory, with BLAS pinned to one thread before numpy is loaded.
With ``--trace 0`` it repeats rounds of the workload's ``run_sweep`` calls
for about ``S`` seconds and reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced serial rounds and reports
the per-layer metrics.  Both modes first check noiseless recovery for every
pair, then check the sweep records for properties the estimators must have.
The last line of standard output is one JSON object; the exit code is 1 when
any check fails.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import checks
import speed
import tracing
from workloads import ALL_PAIRS, WORKLOADS, derive_seed, pair_label

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 9        # fresh processes timed for setup_s; the median is reported
MIN_TRACED_ROUNDS = 2   # untraced/traced round pairs, at least
CENSUS_TRIALS = 3       # traced trials per pair for receivers a workload never calls
PROBE_TIMEOUT_S = 120


def load_hrislink():
    """Pin BLAS to one thread, then import hrislink from this checkout's sources."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import hrislink

    where = Path(hrislink.__file__).resolve().parent
    if where != SRC / "hrislink":
        raise ImportError(f"hrislink was imported from {where}, not from {SRC / 'hrislink'}")
    return hrislink


def pair_config(hl, workload, scheme: str):
    return hl.ScenarioConfig(**workload.config, scheme=scheme)


def first_point_config(hl, workload, scheme: str):
    cfg, value = pair_config(hl, workload, scheme), workload.points[0]
    return cfg.replace(pt_dbm=value) if workload.sweep_var == "pt" else cfg.replace(rho=value)


def warm_up(hl, workload, seed: int) -> None:
    """One untimed trial per pair, so imports and lazy set-up are done before timing."""
    for i, (scheme, hris, bs) in enumerate(workload.pairs):
        cfg = first_point_config(hl, workload, scheme)
        hl.run_trial(cfg, (hris, bs), derive_seed(seed, workload.name, "warm-up", i))


def check_noiseless(hl, workload, seed: int) -> list[str]:
    problems = []
    for i, pair in enumerate(workload.pairs):
        cfg = first_point_config(hl, workload, pair[0]).replace(noise_dbm=-math.inf)
        outcome = hl.run_trial(cfg, pair[1:], derive_seed(seed, workload.name, "noiseless", i))
        problems += checks.noiseless_recovery(outcome, pair_label(pair))
    return problems


def run_round(hl, workload, seed: int, round_index: int, workers: int, tracer=None,
              timings: list | None = None, reference=None) -> dict:
    """One run_sweep call per pair; each pair and round gets its own base seed.

    When ``timings`` is given, one (pair, call seconds, reference seconds) row is appended
    per call; the reference time is the mean of the reference job just before and just after.
    """
    records = {}
    before = reference.seconds() if timings is not None else None
    for i, pair in enumerate(workload.pairs):
        cfg = pair_config(hl, workload, pair[0])
        with tracer.span(tracing.SWEEP) if tracer else nullcontext():
            start = time.perf_counter()
            records[pair] = hl.run_sweep(cfg, pair[1:], workload.sweep_var, list(workload.points),
                                         trials=workload.trials,
                                         base_seed=derive_seed(seed, workload.name, round_index, i),
                                         workers=workers)
            seconds = time.perf_counter() - start
        if timings is not None:
            after = reference.seconds()
            timings.append((pair, seconds, (before + after) / 2))
            before = after
    return records


def check_round(workload, records: dict) -> list[str]:
    problems = []
    for pair, recs in records.items():
        label = pair_label(pair)
        incomplete = checks.complete_records(recs, pair, workload.points, workload.trials, label)
        problems += incomplete
        if not incomplete:
            problems += checks.power_scaling(recs, pair, label)
            problems += checks.nmse_h_trend(recs, pair, label)
    return problems


def check_repeats(rounds: list[dict], what: str) -> list[str]:
    problems = []
    for r, records in enumerate(rounds[1:], start=1):
        for pair, recs in records.items():
            problems += checks.same_records(recs, rounds[0][pair], f"{pair_label(pair)} {what} {r}")
    return problems


def failures(records: dict) -> int:
    return sum(rec.failures for recs in records.values() for rec in recs)


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_setup(workload, seed: int) -> float:
    """Median wall time from starting a fresh process to the end of its warm-up."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        ) as probe:
            line = probe.stdout.readline()
            ready = time.perf_counter()
            probe.communicate(timeout=PROBE_TIMEOUT_S)
        if probe.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited with code {probe.returncode} before warm-up ended")
        times.append(ready - start)
    return statistics.median(times)


def reference_seconds(timings: list) -> float:
    """The summed time of the calls at the reference speed: each call's time divided by the
    reference job's time beside it, in units of the job's nominal time."""
    return speed.NOMINAL_S * sum(seconds / reference for _, seconds, reference in timings)


def stop_rounds(durations: list[float], minimum: int, deadline: float) -> bool:
    """Stop once the minimum is met and another typical round would pass the deadline."""
    return len(durations) >= minimum and time.perf_counter() + statistics.median(durations) > deadline


def timed_run(hl, workload, seed: int, seconds: int) -> tuple[dict, list[str], dict]:
    problems = check_noiseless(hl, workload, seed)
    reference = speed.ReferenceJob()
    rounds, durations, timings = [], [], []
    deadline = time.perf_counter() + seconds
    while not stop_rounds(durations, workload.rounds, deadline):
        start = time.perf_counter()
        rounds.append(run_round(hl, workload, seed, len(rounds), workers=1,
                                timings=timings, reference=reference))
        durations.append(time.perf_counter() - start)

    for records in rounds:
        problems += check_round(workload, records)
    if workload.pool_check:
        pooled = run_round(hl, workload, seed, 0, workers=workload.pool_check)
        for pair, recs in pooled.items():
            problems += checks.same_records(recs, rounds[0][pair], f"{pair_label(pair)} with "
                                            f"workers={workload.pool_check} against workers=1")

    records = [(pair, rec) for r in rounds[:workload.rounds] for pair, recs in r.items() for rec in recs]
    metrics = {
        # Trials per second at the reference speed: the machine's own speed drifts between
        # levels up to 1.7x apart, and the reference job beside each call takes that out.
        "trials_per_s": {"value": len(rounds) * workload.trials_per_round / reference_seconds(timings),
                         "unit": "trials/s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        "nmse_g_geomean": {"value": geomean(rec.nmse_g for _, rec in records), "unit": "1"},
        "nmse_h_geomean": {"value": geomean(rec.nmse_h for _, rec in records), "unit": "1"},
    }
    counts = {"attempted": len(rounds) * workload.trials_per_round,
              "failed": sum(failures(r) for r in rounds)}
    call_seconds = sum(seconds for _, seconds, _ in timings)
    detail = {"round_seconds": durations, "trials_per_round": workload.trials_per_round,
              "wall_trials_per_s": len(rounds) * workload.trials_per_round / call_seconds,
              "calls": [[pair_label(pair), seconds, ref] for pair, seconds, ref in timings]}
    return {**counts, "metrics": metrics}, problems, detail


def census(hl, workload, seed: int, reached: set) -> tuple[tracing.Tracer, list[str]]:
    """Trace a few trials of pairs that call the receivers the workload never reaches."""
    tracer = tracing.Tracer()
    names = []
    missing = set(tracing.RECEIVERS) - reached
    with tracer:
        for scheme, hris, bs in ALL_PAIRS:
            uses = {layer for layer, (receiver, entity) in tracing.RECEIVERS.items()
                    if receiver == {"hris": hris, "bs": bs}[entity]}
            if not uses & missing:
                continue
            missing -= uses
            names.append(pair_label((scheme, hris, bs)))
            cfg = first_point_config(hl, workload, scheme)
            for i in range(CENSUS_TRIALS):
                hl.run_trial(cfg, (hris, bs), derive_seed(seed, workload.name, "census", hris, bs, i))
    return tracer, names


def traced_run(hl, workload, seed: int, seconds: int) -> tuple[dict, list[str], dict]:
    problems = check_noiseless(hl, workload, seed)
    tracer = tracing.Tracer()
    plain_rounds, traced_rounds, plain_s, traced_s = [], [], [], []
    deadline = time.perf_counter() + seconds
    while not stop_rounds([p + t for p, t in zip(plain_s, traced_s)], MIN_TRACED_ROUNDS, deadline):
        start = time.perf_counter()
        plain_rounds.append(run_round(hl, workload, seed, 0, workers=1))
        plain_s.append(time.perf_counter() - start)
        with tracer:
            start = time.perf_counter()
            traced_rounds.append(run_round(hl, workload, seed, 0, workers=1, tracer=tracer))
            traced_s.append(time.perf_counter() - start)

    problems += check_round(workload, plain_rounds[0])
    problems += check_repeats(plain_rounds + traced_rounds, "repeat")
    problems += checks.span_nesting(tracer.spans)

    reached = {span[0] for span in tracer.spans}
    census_tracer, census_pairs = census(hl, workload, seed, reached)
    problems += checks.span_nesting(census_tracer.spans)

    rounds = len(traced_rounds)
    metrics = tracing.layer_metrics(tracer.spans, rounds * workload.trials_per_round,
                                    rounds * len(workload.pairs) * len(workload.points),
                                    census_tracer.spans)
    spans_per_trial = len(tracer.spans) / (rounds * workload.trials_per_round)
    metrics["trace.overhead_ms_per_trial"] = {"value": 1e3 * tracing.span_cost() * spans_per_trial,
                                              "unit": "ms/trial"}
    round_difference = statistics.median(t - p for p, t in zip(plain_s, traced_s))

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{workload.name}-seed{seed}.spans.jsonl"
    tracer.write(spans_path)
    counts = {"attempted": 2 * rounds * workload.trials_per_round,
              "failed": sum(failures(r) for r in plain_rounds + traced_rounds)}
    detail = {"untraced_round_seconds": plain_s, "traced_round_seconds": traced_s,
              "traced_minus_untraced_ms_per_trial": 1e3 * round_difference / workload.trials_per_round,
              "spans_per_trial": spans_per_trial,
              "census_pairs": census_pairs, "spans_file": str(spans_path.relative_to(ROOT))}
    return {**counts, "metrics": metrics}, problems, detail


def stamp(hl) -> dict:
    """Machine and library facts that every run's output carries."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "hrislink": hl.__version__,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="import and warm up, print 'ready' and exit (used to time set-up)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        warm_up(load_hrislink(), workload, args.seed)
        print("ready", flush=True)
        return 0

    setup_s = None if args.trace else measure_setup(workload, args.seed)
    hl = load_hrislink()
    warm_up(hl, workload, args.seed)
    run = traced_run if args.trace else timed_run
    result, problems, detail = run(hl, workload, args.seed, args.seconds)
    if setup_s is not None:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}

    result = {"correct": not problems, **result}
    OUT.mkdir(exist_ok=True)
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "stamp": stamp(hl), "problems": problems, "detail": detail,
              "result": result}
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    print(f"stamp: {json.dumps(record['stamp'])}", file=sys.stderr)
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for name, metric in sorted(result["metrics"].items()):
        print(f"{name:48s} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
