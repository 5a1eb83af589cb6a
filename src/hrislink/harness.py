"""Monte Carlo engine: metrics, single trials, sweeps, and CSV emission.

A trial draws channels, symbols, and noise from one seeded generator,
synthesizes both received tensors, runs the configured surface/BS receiver
pair, and scores channel NMSEs, the combined-channel NMSE, and symbol error
rates.  The BS receiver gets the surface's channel estimate, and in scenario 2
(``ReceiverSpec.scenario``) its symbol estimate too, as fed-back arrays.
Trial ``i`` of a sweep point uses the seed ``splitmix64(base ^ i)``, so trials
are reproducible and independent, and sweeps can be parallelized or re-batched
without changing the aggregate.  A sweep runs trial-major: it draws each trial
once and evaluates it at every point, synthesizing once per coding.  What the
configuration fixes (coding, constellation, receiver entry facts) is cached
where it is derived.

Transmit power scales the noiseless received signal: a point's signal is
``sqrt(Pt)`` times the synthesis of the unit-energy symbols, plus the
trial's noise.  Receivers therefore estimate the power-bearing effective
UT-side channel.  NMSE is scale-invariant, so all reported channel errors
equal the physical-domain ones.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import repeat

import numpy as np

from . import bs_rx, hris_rx
from .coding import build_coding, gen_symbols, qam_constellation
from .identifiability import ReceiverSpec, check_identifiability, receiver_spec
from .rx_common import (AmbiguityError, EstimateReport, IdentifiabilityError, NonFiniteError,
                        RankDeficiencyError)
from .scenario import ScenarioConfig, draw_channels, draw_noise
from .synthesis import synth_ybs, synth_yrc
from .tensor_ops import frobenius

_METRICS = ("nmse_g", "nmse_h", "nmse_theta", "ser_hris", "ser_bs", "iters_hris", "iters_bs")
CSV_HEADER = ",".join(("sweep_var", "value", *_METRICS, "trials", "failures"))

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One splitmix64 step; used to derive independent per-trial seeds."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def trial_seed(base_seed: int, index: int) -> int:
    return splitmix64((base_seed ^ index) & _MASK64)


def nmse(est: np.ndarray, truth: np.ndarray) -> float | np.ndarray:
    """Normalized squared error ``|est - truth|_F^2 / |truth|_F^2``, of each matrix of a stack along leading axes."""
    est = np.asarray(est)
    truth = np.asarray(truth)
    if est.shape != truth.shape:
        raise ValueError(f"shape mismatch: {est.shape} vs {truth.shape}")
    # float(norm(x) ** 2) bit for bit: a float squares with pow, as float_power does
    denom = np.float_power(frobenius(truth), 2)
    if not np.all(denom):
        raise ValueError("NMSE is undefined for an all-zero reference")
    return np.float_power(frobenius(est - truth), 2) / denom


def combined_channel(ut_ris: np.ndarray, ris_bs: np.ndarray) -> np.ndarray:
    """Khatri-Rao cascade of the links (or stacks), ``(l*m, n)``, bit for bit ``khatri_rao(ut_ris.T, ris_bs)``."""
    g, h = np.asarray(ut_ris), np.asarray(ris_bs)
    if min(g.ndim, h.ndim) < 2 or g.shape[:-2] != h.shape[:-2] or g.shape[-2] != h.shape[-1]:
        raise ValueError(f"links of shapes {g.shape} and {h.shape} do not cascade")
    return (g.swapaxes(-1, -2)[..., :, None, :] * h[..., None, :, :]).reshape(*g.shape[:-2], -1, g.shape[-2])


def ser(x_hat: np.ndarray, x_true: np.ndarray, order: int) -> float | np.ndarray:
    """Symbol error rate of hard minimum-distance decisions.

    The entire first column is excluded (it carries the anchors for both
    coding schemes).  Distance ties resolve to the lowest constellation
    index, which makes the rate deterministic.  Stacks broadcast over leading
    axes, one rate per matrix, and the sent indices are decided once per ``x_true`` matrix.
    """
    x_hat = np.asarray(x_hat)
    x_true = np.asarray(x_true)
    if x_hat.shape[-2:] != x_true.shape[-2:]:
        raise ValueError(f"shape mismatch: {x_hat.shape} vs {x_true.shape}")
    points = qam_constellation(order)
    decided, sent = (np.argmin(np.abs(x[..., 1:, None] - points), axis=-1) for x in (x_hat, x_true))
    return np.mean(decided != sent, axis=(-2, -1))[()]


def parse_pair(text: str) -> tuple[str, str]:
    parts = text.lower().split("-")
    if len(parts) != 2:
        raise ValueError(f"receiver pair must look like 'kronf-bals', got {text!r}")
    return parts[0], parts[1]


@dataclass
class TrialOutcome:
    """Raw per-trial metrics; ``failed`` marks aborted trials."""

    nmse_g: float = math.nan
    nmse_h: float = math.nan
    nmse_theta: float = math.nan
    ser_hris: float = math.nan
    ser_bs: float = math.nan
    iters_hris: int = 0
    iters_bs: int = 0
    failed: bool = False
    failure_reason: str = ""


@dataclass
class MetricsRecord:
    """One aggregated sweep point; failed trials are excluded from the means."""

    sweep_var: str
    value: float
    nmse_g: float
    nmse_h: float
    nmse_theta: float
    ser_hris: float
    ser_bs: float
    iters_hris: float
    iters_bs: float
    trials: int
    failures: int
    stderr: dict = field(default_factory=dict)


# The most (trial, point) slices in one stack: at the default sizes 32 ran fastest, and
# 64-slice stacks page-faulted on their larger temporaries.
STACK_SLICES = 32


def _receive(spec: ReceiverSpec, inits: list, y: np.ndarray, coding, reasons: list, members, *fed) -> tuple:
    """Run the receiver ``spec`` names (looked up at call time) on the slices ``members`` stacked in ``y`` and ``fed``.

    A closed-form receiver takes the whole stack; an ALS one, or any when the stack aborts, runs slice by slice,
    which gives each slice exactly its outcome alone.  Aborts go into ``reasons``; returns the members that ran,
    their stacked estimates and their iterations."""
    fn = getattr(hris_rx if spec.entity == "hris" else bs_rx, spec.fn)

    def attempt(index, init=None):
        args = (y[index], *(a[index] for a in fed), coding)
        try:
            return fn(*args, init_seed=init) if spec.iterative else fn(*args)
        except (AmbiguityError, NonFiniteError, RankDeficiencyError) as exc:
            return exc

    whole = None if spec.iterative or not len(members) else attempt(slice(None))
    if isinstance(whole, EstimateReport):   # C order, as np.stack gives below: no slice's layout hangs on others
        return members, np.ascontiguousarray(whole.channel), whole.symbols, [0] * len(members)
    reports = [attempt(k, init) for k, init in enumerate(inits)]
    for i, rep in zip(members, reports):
        if isinstance(rep, Exception):
            reasons[i] = str(rep)
    ran = [k for k, rep in enumerate(reports) if not isinstance(rep, Exception)]
    if not ran:
        return members[:0], None, None, []
    return (members[ran], np.stack([reports[k].channel for k in ran]), np.stack([reports[k].symbols for k in ran]),
            [reports[k].iterations for k in ran])


def run_trial(cfg: ScenarioConfig, pair: tuple[str, str], seed: int) -> TrialOutcome:
    """Run one full pipeline trial with a dedicated seeded generator: :func:`run_points` at one point."""
    return run_points([cfg], pair, [seed])[0][0]


def run_points(configs: list[ScenarioConfig], pair: tuple[str, str], seeds: list[int]) -> list[list[TrialOutcome]]:
    """The trials ``seeds`` at each of ``configs``, which may differ only in ``pt_dbm`` and ``rho``, seed-major.

    Draw order is fixed (channels, symbols, receiver init seeds, sensed noise, reflected noise) so a
    (config, seed) pair fully reproduces the trial, drawn once and synthesized once per coding.  The
    (trial, point) slices that share a coding go through the receivers and scoring as one stack, each
    with exactly the outcome it gets alone.  A scoring reference channel that is all zero or whose energy
    underflows, and zero-anchor, rank-deficiency and non-finite-input aborts are reported as failed
    outcomes, not exceptions.  When only the BS receiver aborts, the outcome keeps the surface metrics.
    """
    cfg = configs[0]
    hris_spec = receiver_spec(pair[0], "hris", cfg.scheme)
    bs_spec = receiver_spec(pair[1], "bs", cfg.scheme)
    # The draws read the link gains, shapes, QAM order and noise power, which no sweep
    # point changes, so every point sees exactly the draws that run_trial makes at it.
    draws = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        draws.append((draw_channels(cfg, rng), gen_symbols(cfg, rng), int(rng.integers(0, 2**63)),
                      int(rng.integers(0, 2**63)), draw_noise((cfg.nc, cfg.t, cfg.k), cfg.noise_watts, rng),
                      draw_noise((cfg.m, cfg.t, cfg.k), cfg.noise_watts, rng)))
    channels, symbols, hris_inits, bs_inits, noise_rc, noise_bs = zip(*draws)
    ut, ris, truth = (np.stack(arrays) for arrays in ([ch.ut_ris for ch in channels], [ch.ris_bs for ch in channels],
                                                      symbols))
    by_coding = {}
    for p, point_cfg in enumerate(configs):
        by_coding.setdefault(build_coding(point_cfg), []).append(p)
    outcomes = [[None] * len(configs) for _ in seeds]
    for coding, points in by_coding.items():
        # slice i is trial i // len(points) at configs[points[i % len(points)]]
        trial, col = np.divmod(np.arange(len(seeds) * len(points)), len(points))
        amplitude = np.sqrt([configs[points[q]].pt_watts for q in col])
        effective_ut = amplitude[:, None, None] * ut[trial]
        combined = combined_channel(effective_ut, ris[trial])
        defined = np.logical_and.reduce([np.float_power(frobenius(ref), 2) > 0
                                         for ref in (effective_ut, ris[trial], combined)])
        scores = {name: np.full(len(trial), 0 if name.startswith("iters") else math.nan) for name in _METRICS}
        reasons = [None if ok else "reference channel is all zero or underflows; its NMSE is undefined"
                   for ok in defined]
        clean = [np.stack([synth(configs[points[0]], ch, coding, x) for ch, x in zip(channels, symbols)])
                 for synth in (synth_yrc, synth_ybs)]
        y_rc, y_bs = (amplitude[:, None, None, None] * signal[trial] + np.stack(noise)[trial]
                      for signal, noise in zip(clean, (noise_rc, noise_bs)))

        live, g_hat, x_hris, iters = _receive(hris_spec, [hris_inits[j] for j in trial[defined]], y_rc[defined],
                                              coding, reasons, np.flatnonzero(defined))
        if len(live):
            scores["nmse_g"][live] = nmse(g_hat, effective_ut[live])
            scores["ser_hris"][live], scores["iters_hris"][live] = ser(x_hris, truth[trial[live]], cfg.qam_order), iters
            fed = (g_hat, x_hris) if bs_spec.scenario == 2 else (g_hat,)
            done, h_hat, x_bs, iters = _receive(bs_spec, [bs_inits[j] for j in trial[live]], y_bs[live], coding,
                                                reasons, live, *fed)
            if len(done):
                scores["nmse_h"][done], scores["iters_bs"][done] = nmse(h_hat, ris[trial[done]]), iters
                scores["nmse_theta"][done] = nmse(combined_channel(g_hat[np.searchsorted(live, done)], h_hat),
                                                  combined[done])
                scores["ser_bs"][done] = ser(x_bs, truth[trial[done]], cfg.qam_order)   # h reuses the fed-back ones
        for i, (j, q) in enumerate(zip(trial, col)):      # a metric not scored keeps its default, math.nan or 0
            scored = {name: column[i].item() for name, column in scores.items() if not math.isnan(column[i])}
            outcomes[j][points[q]] = TrialOutcome(**scored, failed=reasons[i] is not None,
                                                  failure_reason=reasons[i] or "")
    return outcomes


def aggregate(outcomes: list[TrialOutcome], sweep_var: str, value: float) -> MetricsRecord:
    """Average a batch of trials into one record (order-independent)."""
    good = [o for o in outcomes if not o.failed]
    # One row per metric, reduced along its contiguous last axis: pairwise, as a 1-D array sums.
    table = np.array([[getattr(o, name) for o in good] for name in _METRICS], dtype=float)
    means = table.mean(axis=1) if good else np.full(len(_METRICS), math.nan)
    errors = (table.std(ddof=1, axis=1) / math.sqrt(len(good)) if len(good) > 1
              else np.zeros(len(_METRICS)) if good else means)
    return MetricsRecord(sweep_var=sweep_var, value=float(value), **dict(zip(_METRICS, means.tolist())),
                         trials=len(outcomes), failures=len(outcomes) - len(good),
                         stderr=dict(zip(_METRICS, errors.tolist())))


def _point_config(cfg: ScenarioConfig, sweep_var: str, value: float) -> ScenarioConfig:
    if sweep_var == "pt":
        return replace(cfg, pt_dbm=float(value))
    if sweep_var == "rho":
        return replace(cfg, rho=float(value))
    raise ValueError(f"sweep variable must be 'pt' or 'rho', got {sweep_var!r}")


def run_sweep(
    cfg: ScenarioConfig,
    pair: tuple[str, str],
    sweep_var: str,
    points: list[float],
    trials: int = 500,
    base_seed: int = 0,
    workers: int = 1,
) -> list[MetricsRecord]:
    """One aggregated record per sweep point, averaged over ``trials`` runs.

    Trial ``i`` reuses the same derived seed at every sweep point, which
    pairs the random draws across points and sharpens trend comparisons;
    :func:`run_points` draws each trial once and evaluates it at every point.
    """
    if not points:
        raise ValueError("sweep needs at least one point")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    configs = [_point_config(cfg, sweep_var, value) for value in points]
    report = check_identifiability(cfg, pair)       # a sweep point changes neither the sizes nor the scheme
    if not report.satisfied:
        raise IdentifiabilityError(f"pair {pair[0]}-{pair[1]} needs k >= {report.min_k}, config has k={cfg.k}")
    seeds = [trial_seed(base_seed, i) for i in range(trials)]
    # One contiguous chunk of seeds per worker, in stacks of at most STACK_SLICES (trial, point) slices.
    size = min(math.ceil(trials / workers), max(1, STACK_SLICES // len(configs)))
    batches = [seeds[i:i + size] for i in range(0, trials, size)]
    if workers > 1:
        # map keeps the trial order
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_batch = list(pool.map(run_points, repeat(configs), repeat(pair), batches,
                                      chunksize=math.ceil(len(batches) / workers)))
    else:
        per_batch = [run_points(configs, pair, batch) for batch in batches]
    per_trial = [outcomes for batch in per_batch for outcomes in batch]
    return [aggregate(list(outcomes), sweep_var, value) for value, outcomes in zip(points, zip(*per_trial))]


def format_float(x: float) -> str:
    return f"{x:.9g}"


def records_to_csv(records: list[MetricsRecord]) -> str:
    """Render sweep records as CSV text with the documented header."""
    lines = [CSV_HEADER]
    for rec in records:
        floats = [format_float(getattr(rec, name)) for name in ("value", *_METRICS)]
        lines.append(",".join([rec.sweep_var, *floats, str(rec.trials), str(rec.failures)]))
    return "\n".join(lines) + "\n"
