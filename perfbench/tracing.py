"""Span tracing around hrislink's layer entry points, from outside the package.

:class:`Tracer` replaces each entry point by a timing wrapper under the
module attribute its caller looks up (``hrislink.harness.build_coding``,
``hrislink.hris_rx.pinv``, ...), so the real ``run_trial`` path is timed
without changing the package.  Spans are kept in memory as
``[name, start, end, parent, trial, iterations]`` rows and written out by
the caller when the run ends.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from contextlib import contextmanager

TRIAL = "harness.run_trial"
SWEEP = "harness.run_sweep"
SCORING = "harness.scoring"

# (module, attribute its caller looks up, layer name)
ENTRY_POINTS = (
    ("hrislink.harness", "run_trial", TRIAL),
    ("hrislink.harness", "draw_channels", "scenario.draw_channels"),
    ("hrislink.harness", "gen_symbols", "coding.gen_symbols"),
    ("hrislink.harness", "build_coding", "coding.build_coding"),
    ("hrislink.harness", "synth_yrc", "synthesis.synth_yrc"),
    ("hrislink.harness", "synth_ybs", "synthesis.synth_ybs"),
    ("hrislink.harness", "nmse", SCORING),
    ("hrislink.harness", "ser", SCORING),
    ("hrislink.harness", "combined_channel", SCORING),
    ("hrislink.hris_rx", "hris_bals", "hris_rx.hris_bals"),
    ("hrislink.hris_rx", "hris_kronf", "hris_rx.hris_kronf"),
    ("hrislink.hris_rx", "hris_krf", "hris_rx.hris_krf"),
    ("hrislink.hris_rx", "composite_code_matrix", "hris_rx.composite_code_matrix"),
    ("hrislink.hris_rx", "require_full_rank", "rx_common.require_full_rank"),
    ("hrislink.hris_rx", "pinv", "tensor_ops.pinv"),
    ("hrislink.hris_rx", "rank1_approx", "tensor_ops.rank1_approx"),
    ("hrislink.bs_rx", "bs_bals", "bs_rx.bs_bals"),
    ("hrislink.bs_rx", "bs_kronf", "bs_rx.bs_kronf"),
    ("hrislink.bs_rx", "bs_channel_only", "bs_rx.bs_channel_only"),
    ("hrislink.bs_rx", "require_full_rank", "rx_common.require_full_rank"),
    ("hrislink.bs_rx", "pinv", "tensor_ops.pinv"),
    ("hrislink.bs_rx", "rank1_approx", "tensor_ops.rank1_approx"),
)

# Receiver layer -> (receiver name in a pair, entity it runs at)
RECEIVERS = {
    "hris_rx.hris_bals": ("bals", "hris"), "hris_rx.hris_kronf": ("kronf", "hris"),
    "hris_rx.hris_krf": ("krf", "hris"), "bs_rx.bs_bals": ("bals", "bs"),
    "bs_rx.bs_kronf": ("kronf", "bs"), "bs_rx.bs_channel_only": ("h", "bs"),
}
ITERATIVE = ("hris_rx.hris_bals", "bs_rx.bs_bals")

# Layers reported per trial: (layer, also report calls per trial).
PER_TRIAL = (
    ("coding.build_coding", True),
    ("hris_rx.composite_code_matrix", False),
    ("rx_common.require_full_rank", True),
    ("synthesis.synth_yrc", False),
    ("synthesis.synth_ybs", False),
    ("tensor_ops.pinv", True),
    ("tensor_ops.rank1_approx", False),
    (SCORING, False),
    ("scenario.draw_channels", False),
    ("coding.gen_symbols", False),
)


class Tracer:
    """Patches the entry points while active; records one span per call."""

    def __init__(self):
        self.spans: list[list] = []
        self.trial = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self):
        for module_name, attr, layer in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, layer))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    @contextmanager
    def span(self, layer: str):
        """A span around a block of the benchmark's own code."""
        row = self._open(layer)
        try:
            yield row
        finally:
            self._close(row)

    def _open(self, layer: str) -> list:
        if layer == TRIAL:
            self.trial += 1
        parent = self._stack[-1] if self._stack else -1
        row = [layer, time.perf_counter(), 0.0, parent, self.trial, 0]
        self._stack.append(len(self.spans))
        self.spans.append(row)
        return row

    def _close(self, row: list) -> None:
        row[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, layer: str):
        def traced(*args, **kwargs):
            row = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(row)
            if layer in ITERATIVE:
                row[5] = result.iterations
            return result
        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, trial, iterations."""
        with open(path, "w") as out:
            for name, start, end, parent, trial, iters in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                      "trial": trial, "iterations": iters}) + "\n")


def span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one traced call adds to a bare call, measured on a no-op function.

    Multiplied by the spans per trial this gives the tracing overhead per
    trial.  Timing a traced round against an untraced one measures the same
    thing, but on a machine whose speed drifts by tens of percent between
    seconds the difference of two rounds is mostly that drift.
    """
    def noop():
        return None

    tracer = Tracer()
    traced = tracer._wrap(noop, "calibration")
    samples = []
    for _ in range(repeats):
        tracer.spans.clear()
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter()
        for _ in range(calls):
            traced()
        end = time.perf_counter()
        samples.append(((end - bare) - (bare - start)) / calls)
    return statistics.median(samples)


def layer_totals(spans) -> dict:
    """Per layer: calls, busy seconds, iterations, and self seconds (minus direct children)."""
    totals: dict[str, dict] = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, start, end, _, _, iters) in enumerate(spans):
        t = totals.setdefault(name, {"calls": 0, "seconds": 0.0, "self_seconds": 0.0, "iterations": 0})
        t["calls"] += 1
        t["seconds"] += end - start
        t["self_seconds"] += end - start - child_time[i]
        t["iterations"] += iters
    return totals


def layer_metrics(spans, trials: int, points: int, census_spans=None) -> dict:
    """Per-layer metrics of a traced run that attempted ``trials`` trials over ``points`` sweep points.

    Receiver rows (``ms_per_call``, ``iters_per_call``) for receivers the
    traced sweep never called come from ``census_spans`` instead.
    """
    totals = layer_totals(spans)
    census = layer_totals(census_spans or [])
    empty = {"calls": 0, "seconds": 0.0, "self_seconds": 0.0, "iterations": 0}
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for layer, with_calls in PER_TRIAL:
        t = totals.get(layer, empty)
        put(f"{layer}.ms_per_trial", 1e3 * t["seconds"] / trials, "ms/trial")
        if with_calls:
            put(f"{layer}.calls_per_trial", t["calls"] / trials, "calls/trial")
    for layer in RECEIVERS:
        t = totals.get(layer) or census.get(layer, empty)
        put(f"{layer}.ms_per_call", 1e3 * t["seconds"] / max(t["calls"], 1), "ms/call")
        if layer in ITERATIVE:
            put(f"{layer}.iters_per_call", t["iterations"] / max(t["calls"], 1), "iters/call")
    put(f"{TRIAL}.self_ms_per_trial", 1e3 * totals.get(TRIAL, empty)["self_seconds"] / trials, "ms/trial")
    put(f"{SWEEP}.self_ms_per_point", 1e3 * totals.get(SWEEP, empty)["self_seconds"] / points, "ms/point")
    return metrics
