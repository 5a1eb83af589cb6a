"""Property checks the benchmark runs on the program's own output.

Each check tests a property the estimators must have, not a stored copy of
earlier numbers, and returns a list of problems (empty when it holds).
Records are ``hrislink.MetricsRecord`` objects or anything with the same
attributes; trial outcomes are ``hrislink.TrialOutcome`` objects.
"""

from __future__ import annotations

import math

# Noiseless trials must recover the channels to round-off.
EXACT_NMSE = 1e-10

# Relative spread allowed in the power-scaling products (max/min - 1).
# The surface estimates are linear least squares up to the rank-1 split and
# the anchor normalization, so ``nmse_g * power`` is constant to first order
# in the noise.  The second-order term is smaller by about the relative
# error itself, sqrt(NMSE): measured spreads reach 1.7 * sqrt(max nmse_g)
# per trial (2.8% at -10 dBm on als-pt, 0.25% on small-rho).
SCALING_SQRT_FACTOR = 5.0
# ``nmse_h * rho`` of the channel-only BS receiver also carries the error of
# the fed-back surface estimates; its measured spread reached 5.7% on one of
# 4000 small-rho trials.
H_SCALING_RTOL = 0.15

METRICS = ("nmse_g", "nmse_h", "nmse_theta", "ser_hris", "ser_bs", "iters_hris", "iters_bs")


def noiseless_recovery(outcome, label: str) -> list[str]:
    """A noiseless trial recovers both channels exactly and decodes every symbol."""
    if outcome.failed:
        return [f"{label}: noiseless trial failed: {outcome.failure_reason}"]
    problems = []
    for name in ("nmse_g", "nmse_h"):
        value = getattr(outcome, name)
        if not value < EXACT_NMSE:
            problems.append(f"{label}: noiseless {name} = {value!r}, expected < {EXACT_NMSE}")
    for name in ("ser_hris", "ser_bs"):
        value = getattr(outcome, name)
        if value != 0:
            problems.append(f"{label}: noiseless {name} = {value!r}, expected 0")
    return problems


def complete_records(records, pair: tuple, points, trials: int, label: str) -> list[str]:
    """One record per point, each with all trials run and none failed, finite metrics, valid SERs
    and iteration counts."""
    _, hris, bs = pair
    values = [rec.value for rec in records]
    if values != [float(p) for p in points]:
        return [f"{label}: records cover points {values}, expected {list(points)}"]
    problems = []
    for rec in records:
        where = f"{label} at {rec.sweep_var}={rec.value:g}"
        if rec.trials != trials:
            problems.append(f"{where}: {rec.trials} trials, expected {trials}")
        if rec.failures != 0:
            problems.append(f"{where}: {rec.failures} of {rec.trials} trials failed")
        for name in METRICS:
            if not math.isfinite(getattr(rec, name)):
                problems.append(f"{where}: {name} is not finite")
        for name in ("ser_hris", "ser_bs"):
            if not 0.0 <= getattr(rec, name) <= 1.0:
                problems.append(f"{where}: {name} = {getattr(rec, name)!r} outside [0, 1]")
        for name, receiver in (("iters_hris", hris), ("iters_bs", bs)):
            iters = getattr(rec, name)
            if receiver == "bals" and not iters >= 1:
                problems.append(f"{where}: {name} = {iters!r}, an ALS receiver runs at least once")
            if receiver != "bals" and iters != 0:
                problems.append(f"{where}: {name} = {iters!r}, a closed-form receiver does not iterate")
    return problems


def _spread(products: list[float]) -> float:
    lo, hi = min(products), max(products)
    return hi / lo - 1.0 if lo > 0 else math.inf


def power_scaling(records, pair: tuple, label: str) -> list[str]:
    """NMSE scales inversely with the power the estimating entity receives.

    Draws are paired across points, so ``nmse_g * Pt`` is constant over a
    ``pt`` sweep and ``nmse_g * (1 - rho)`` over a ``rho`` sweep.  On a
    ``rho`` sweep the channel-only BS receiver also gives a constant
    ``nmse_h * rho``.
    """
    sweep_var = records[0].sweep_var
    g_rtol = SCALING_SQRT_FACTOR * math.sqrt(max(rec.nmse_g for rec in records))
    products = []
    if sweep_var == "pt":
        products.append(("nmse_g * Pt", [rec.nmse_g * 10.0 ** (rec.value / 10.0) for rec in records], g_rtol))
    else:
        products.append(("nmse_g * (1 - rho)", [rec.nmse_g * (1.0 - rec.value) for rec in records], g_rtol))
        if pair[2] == "h":
            products.append(("nmse_h * rho", [rec.nmse_h * rec.value for rec in records], H_SCALING_RTOL))
    problems = []
    for what, values, rtol in products:
        spread = _spread(values)
        if not spread <= rtol:
            problems.append(f"{label}: {what} varies by {spread:.3%} over the {sweep_var} sweep "
                            f"(allowed {rtol:.3%}): {values}")
    return problems


def nmse_h_trend(records, pair: tuple, label: str) -> list[str]:
    """The BS-side NMSE does not increase as transmit power or reflected share grows.

    On a ``rho`` sweep the BS ``kronf`` receiver is exempt.  It runs at its
    identifiability threshold, and on a draw that leaves its composite
    regressor near-singular the error fed back from the surface, which grows
    with ``rho``, can outweigh the BS noise, which shrinks with it.  Seen on
    ``small-rho`` seed 310, tstc ``bals-kronf``: mean nmse_h 2.60 at rho 0.5,
    2.66 at rho 0.9.  On ``pt`` sweeps both errors fall with power.
    """
    if records[0].sweep_var == "rho" and pair[2] == "kronf":
        return []
    problems = []
    for prev, rec in zip(records, records[1:]):
        if not rec.nmse_h <= prev.nmse_h:
            problems.append(f"{label}: nmse_h rises from {prev.nmse_h!r} at {prev.value:g} "
                            f"to {rec.nmse_h!r} at {rec.value:g}")
    return problems


def _record_key(rec) -> tuple:
    return (rec.sweep_var, rec.value, rec.trials, rec.failures) + tuple(getattr(rec, m) for m in METRICS)


def same_records(got, want, label: str) -> list[str]:
    """Two sweeps of the same inputs give identical records."""
    if [_record_key(r) for r in got] != [_record_key(r) for r in want]:
        return [f"{label}: records differ from the reference sweep of the same inputs"]
    return []


def span_nesting(spans) -> list[str]:
    """Every span lies inside its parent, so no child is longer than its parent.

    ``spans`` holds ``(name, start, end, parent, trial, iterations)`` rows;
    ``parent`` is the index of the enclosing span or -1.
    """
    problems = []
    for name, start, end, parent, _, _ in spans:
        if end < start:
            problems.append(f"span {name} ends before it starts")
        if parent >= 0:
            pname, pstart, pend = spans[parent][:3]
            if start < pstart or end > pend:
                problems.append(f"span {name} ({end - start:.6f} s) is not inside its parent "
                                f"{pname} ({pend - pstart:.6f} s)")
    return problems
