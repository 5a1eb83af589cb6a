"""Run perfbench in a parent and a change checkout, in alternating order, and write ``BENCH_<n>.json``.

For every seed it runs the benchmark command of the change checkout's
``BENCHMARK.json`` (``python3 perfbench/run.py``) with ``--workload W --seed S
--seconds T --trace 0`` in both checkouts, ``T`` being that file's
``run_seconds``, one run at a time: odd seeds run the
parent first, even seeds the change first.  Each run's last line of standard
output is its result.  A pair keeps, per side, ``correct``, ``failed``,
``attempted``, the exit code and every end-to-end metric that ``BENCHMARK.json``
names; the ``summary`` of a workload gives, per metric, both medians and
quartiles, their ratio, the parent's quartile spread over its median and how
many pairs the change won (:func:`summarize`).  The file is rewritten after
every pair, so a run cut short keeps the pairs it finished::

    python tests/bench_pairs.py --parent ../parent --change . --workload closed-form-pt \\
        --seeds 1901-1910 --out BENCH_19.json

Running it again with the same ``--out`` adds or replaces that workload and
keeps the other keys of the file, such as hand-written ``notes``.  pytest does
not collect this file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
from pathlib import Path


def summarize(pairs: list[dict], metric: str, better: str) -> dict:
    """Medians, inclusive quartiles, ratio, parent spread and wins of ``metric`` over the pairs that have it.

    ``better`` is ``"higher"`` or ``"lower"``; a tie is a win for neither side.
    With fewer than two such pairs there are no quartiles, and only their
    count is returned, as ``{"complete_pairs": n}``.
    """
    both = [(p["parent"][metric], p["change"][metric]) for p in pairs
            if metric in p["parent"] and metric in p["change"]]
    if len(both) < 2:
        return {"complete_pairs": len(both)}
    parent, change = [p for p, _ in both], [c for _, c in both]
    sign = 1.0 if better == "higher" else -1.0
    parent_q, change_q = (statistics.quantiles(v, n=4, method="inclusive") for v in (parent, change))
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    return {
        "parent_median": parent_median,
        "change_median": change_median,
        "ratio": change_median / parent_median,
        "parent_quartiles": [parent_q[0], parent_q[2]],
        "change_quartiles": [change_q[0], change_q[2]],
        "parent_iqr_rel": (parent_q[2] - parent_q[0]) / parent_median,
        "change_wins": f"{sum(sign * (c - p) > 0 for p, c in both)} of {len(both)}",
        "max_rel_diff": max(abs(c - p) / abs(p) for p, c in both),
    }


def run_side(command: list[str], checkout: Path, workload: str, seed: int, seconds: int,
             metrics: list[str]) -> tuple[dict, dict]:
    """One benchmark run in ``checkout``: its pair entry and the machine stamp it printed."""
    proc = subprocess.run([*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", "0"], cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    entry = {key: result[key] for key in ("correct", "failed", "attempted") if key in result}
    entry["exit"] = proc.returncode
    entry.update({name: result["metrics"][name]["value"] for name in metrics
                  if name in result.get("metrics", {})})
    stamp = next((json.loads(line.removeprefix("stamp: ")) for line in proc.stderr.splitlines()
                  if line.startswith("stamp: ")), {})
    return entry, stamp


def parse_seeds(text: str) -> list[int]:
    """``"1901-1905,1910"`` -> ``[1901, ..., 1905, 1910]``."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1901-1910 or 1901,1903")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    out = json.loads(args.out.read_text()) if args.out.exists() else {}
    out["command"] = " ".join(bench["command"]) + f" --workload W --seed S --seconds {seconds} --trace 0"
    out["order"] = "odd seeds ran the parent first, even seeds the change first"
    out.setdefault("seeds", {})[args.workload] = args.seeds
    pairs = []
    for seed in parse_seeds(args.seeds):
        sides = ("parent", "change") if seed % 2 else ("change", "parent")
        pair = {"seed": seed}
        for side in sides:
            pair[side], out["machine"] = run_side(bench["command"], getattr(args, side), args.workload, seed,
                                                  seconds, list(metrics))
        pairs.append(pair)
        print(json.dumps(pair), flush=True)
        out.setdefault("workloads", {})[args.workload] = {
            "pairs": pairs,
            "summary": {name: summarize(pairs, name, better) for name, better in metrics.items()},
        }
        args.out.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
