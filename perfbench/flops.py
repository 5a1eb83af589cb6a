#!/usr/bin/env python3
"""The paper's flop model against measured receiver time.

    python3 perfbench/flops.py [--trials N] [--seed S]

Runs N traced trials of each of the 12 receiver pairs at the default
configuration, serially with BLAS pinned to one thread, and prints one
markdown row per (scheme, entity, receiver): ``flops_estimate`` at the
measured mean iteration count, the measured milliseconds per call, and the
rank of each, so the rows where the model's ordering disagrees with the
measured one stand out.
"""

from __future__ import annotations

import argparse
import os
import sys

import run
import tracing
from workloads import ALL_PAIRS, derive_seed

def measure(hl, trials: int, seed: int) -> dict:
    """(scheme, entity, receiver) -> calls, seconds, iterations summed over every pair using it."""
    rows: dict[tuple, dict] = {}
    for scheme, hris, bs in ALL_PAIRS:
        cfg = hl.ScenarioConfig(scheme=scheme)
        with tracing.Tracer() as tracer:
            for i in range(trials):
                hl.run_trial(cfg, (hris, bs), derive_seed(seed, "flops", scheme, hris, bs, i))
        for layer, t in tracing.layer_totals(tracer.spans).items():
            if layer in tracing.RECEIVERS:
                receiver, entity = tracing.RECEIVERS[layer]
                row = rows.setdefault((scheme, entity, receiver), {"calls": 0, "seconds": 0.0, "iterations": 0})
                for key in row:
                    row[key] += t[key]
    return rows


def ranks(values: list[float]) -> list[int]:
    order = sorted(range(len(values)), key=values.__getitem__)
    out = [0] * len(values)
    for rank, i in enumerate(order, start=1):
        out[i] = rank
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trials", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    hl = run.load_hrislink()
    cfg = hl.ScenarioConfig()
    rows = measure(hl, args.trials, args.seed)

    keys = sorted(rows)
    iters = [rows[k]["iterations"] / rows[k]["calls"] for k in keys]
    flops = [hl.flops_estimate(cfg, receiver, entity, scheme, iterations=max(it, 1.0))
             for (scheme, entity, receiver), it in zip(keys, iters)]
    ms = [1e3 * rows[k]["seconds"] / rows[k]["calls"] for k in keys]
    print(f"{args.trials} trials per pair, default configuration, BLAS threads "
          f"{os.environ['OPENBLAS_NUM_THREADS']}\n")
    print("| scheme | entity | receiver | iterations/call | flop model | ms/call | model rank | measured rank |")
    print("|---|---|---|---:|---:|---:|---:|---:|")
    for (scheme, entity, receiver), it, f, m, rf, rm in zip(keys, iters, flops, ms, ranks(flops), ranks(ms)):
        print(f"| {scheme} | {entity} | {receiver} | {it:.1f} | {f:.3g} | {m:.2f} | {rf} | {rm}"
              f"{' (differs)' if rf != rm else ''} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
