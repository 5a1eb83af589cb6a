#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Shows that every property check passes on genuine sweep records and rejects
a corrupted copy of them, and that the count metrics of the traced run
(``*.calls_per_trial``, ``*.iters_per_call``) repeat exactly between two
traced runs of the same seed.  Exits 1 on the first surprise.
"""

from __future__ import annotations

import dataclasses
import json
import math
import subprocess
import sys

import checks
import run
from workloads import SMALL

failures = []


def expect(problems: list[str], should_fail: bool, what: str) -> None:
    if bool(problems) != should_fail:
        failures.append(f"{what}: expected {'a rejection' if should_fail else 'a pass'}, got {problems}")
    else:
        print(f"ok  {'rejects' if should_fail else 'accepts'}  {what}")


def corrupt(records, index: int, **changes) -> list:
    out = list(records)
    out[index] = dataclasses.replace(out[index], **changes)
    return out


def record_checks(hl) -> None:
    trials = 4
    cases = (
        (("tstc", "kronf", "h"), "rho", [0.1, 0.5, 0.9]),
        (("krstc", "bals", "bals"), "pt", [10.0, 20.0, 30.0]),
    )
    for pair, sweep_var, points in cases:
        cfg = hl.ScenarioConfig(**SMALL, scheme=pair[0])
        recs = hl.run_sweep(cfg, pair[1:], sweep_var, points, trials=trials, base_seed=7)
        label = f"{pair} over {sweep_var}"

        def complete(rs):
            return checks.complete_records(rs, pair, points, trials, label)

        expect(complete(recs), False, f"complete records, {label}")
        expect(checks.power_scaling(recs, pair, label), False, f"power scaling, {label}")
        expect(checks.nmse_h_trend(recs, pair, label), False, f"nmse_h trend, {label}")
        expect(checks.same_records(recs, recs, label), False, f"identical records, {label}")

        expect(complete(corrupt(recs, 1, trials=trials - 1)), True, f"a short trial count, {label}")
        expect(complete(corrupt(recs, 2, failures=1)), True, f"a failed trial, {label}")
        expect(complete(corrupt(recs, 0, nmse_theta=math.nan)), True, f"a NaN metric, {label}")
        expect(complete(corrupt(recs, 2, nmse_h=math.inf)), True, f"an infinite metric, {label}")
        expect(complete(corrupt(recs, 1, ser_bs=1.5)), True, f"an SER above 1, {label}")
        expect(complete(recs[:2]), True, f"a missing point, {label}")
        bad_iters = 0.0 if pair[2] == "bals" else 1.0
        expect(complete(corrupt(recs, 0, iters_bs=bad_iters)), True, f"iters_bs={bad_iters}, {label}")
        expect(checks.power_scaling(corrupt(recs, 1, nmse_g=recs[1].nmse_g * 1.05), pair, label),
               True, f"nmse_g perturbed by 5%, {label}")
        expect(checks.nmse_h_trend(corrupt(recs, 2, nmse_h=recs[1].nmse_h * 1.01), pair, label),
               True, f"nmse_h rising with {sweep_var}, {label}")
        expect(checks.same_records(corrupt(recs, 0, nmse_g=math.nextafter(recs[0].nmse_g, math.inf)), recs, label),
               True, f"records off in the last digit, {label}")
        if pair[2] == "h":
            expect(checks.power_scaling(corrupt(recs, 0, nmse_h=recs[0].nmse_h * 1.25), pair, label),
                   True, f"nmse_h perturbed by 25%, {label}")

    cfg = hl.ScenarioConfig(**SMALL, noise_dbm=-math.inf)
    outcome = hl.run_trial(cfg, ("kronf", "kronf"), 3)
    expect(checks.noiseless_recovery(outcome, "noiseless"), False, "noiseless recovery")
    expect(checks.noiseless_recovery(dataclasses.replace(outcome, nmse_h=1e-9), "noiseless"),
           True, "a noiseless nmse_h of 1e-9")
    expect(checks.noiseless_recovery(dataclasses.replace(outcome, ser_hris=1 / 6), "noiseless"),
           True, "a noiseless symbol error")
    expect(checks.noiseless_recovery(dataclasses.replace(outcome, failed=True), "noiseless"),
           True, "a failed noiseless trial")

    good = [["harness.run_trial", 0.0, 1.0, -1, 0, 0], ["tensor_ops.pinv", 0.2, 0.5, 0, 0, 0]]
    expect(checks.span_nesting(good), False, "nested spans")
    bad = [["harness.run_trial", 0.0, 1.0, -1, 0, 0], ["tensor_ops.pinv", 0.2, 1.5, 0, 0, 0]]
    expect(checks.span_nesting(bad), True, "a child span longer than its parent")


def traced_counts(seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "small-rho", "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        failures.append(f"traced run exited with {proc.returncode}: {proc.stderr[-2000:]}")
        return {}
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items()
            if name.endswith((".calls_per_trial", ".iters_per_call"))}


def count_repeats() -> None:
    first, second = traced_counts(5), traced_counts(5)
    if first and first == second:
        print(f"ok  {len(first)} count metrics repeat exactly between two traced runs")
    elif first and second:
        diff = {k: (first[k], second.get(k)) for k in first if first[k] != second.get(k)}
        failures.append(f"count metrics differ between two traced runs: {diff}")


def main() -> int:
    record_checks(run.load_hrislink())
    count_repeats()
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
