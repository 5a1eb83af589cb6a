"""Monte Carlo engine: metrics, single trials, sweeps, and CSV emission.

A trial draws channels, symbols, and noise from one seeded generator,
synthesizes both received tensors, runs the configured surface/BS receiver
pair, and scores channel NMSEs, the combined-channel NMSE, and symbol error
rates.  Trial ``i`` of a sweep point uses the seed ``splitmix64(base ^ i)``,
so trials are reproducible and independent, and sweeps can be parallelized
or re-batched without changing the aggregate.  A sweep runs trial-major: it
draws each trial once and evaluates it at every point, synthesizing once per
coding.  What the configuration fixes (coding, constellation, receiver entry
facts) is cached where it is derived.

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

CSV_HEADER = "sweep_var,value,nmse_g,nmse_h,nmse_theta,ser_hris,ser_bs,iters_hris,iters_bs,trials,failures"

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


def nmse(est: np.ndarray, truth: np.ndarray) -> float:
    """Normalized squared error ``|est - truth|_F^2 / |truth|_F^2``."""
    est = np.asarray(est)
    truth = np.asarray(truth)
    if est.shape != truth.shape:
        raise ValueError(f"shape mismatch: {est.shape} vs {truth.shape}")
    denom = float(np.linalg.norm(truth) ** 2)
    if denom == 0:
        raise ValueError("NMSE is undefined for an all-zero reference")
    return float(np.linalg.norm(est - truth) ** 2) / denom


def combined_channel(ut_ris: np.ndarray, ris_bs: np.ndarray) -> np.ndarray:
    """Khatri-Rao cascade of the two links, ``(l*m, n)``, bit for bit ``scipy.linalg.khatri_rao(ut_ris.T, ris_bs)``."""
    g, h = np.asarray(ut_ris), np.asarray(ris_bs)
    if g.ndim != 2 or h.ndim != 2 or g.shape[0] != h.shape[1]:
        raise ValueError(f"links of shapes {g.shape} and {h.shape} do not cascade")
    return (g.T[:, None, :] * h[None]).reshape(g.shape[1] * h.shape[0], h.shape[1])


def ser(x_hat: np.ndarray, x_true: np.ndarray, order: int) -> float:
    """Symbol error rate of hard minimum-distance decisions.

    The entire first column is excluded (it carries the anchors for both
    coding schemes).  Distance ties resolve to the lowest constellation
    index, which makes the rate deterministic.
    """
    x_hat = np.asarray(x_hat)
    x_true = np.asarray(x_true)
    if x_hat.shape != x_true.shape:
        raise ValueError(f"shape mismatch: {x_hat.shape} vs {x_true.shape}")
    points = qam_constellation(order)
    decided = np.argmin(np.abs(x_hat[:, 1:, None] - points[None, None, :]), axis=2)
    sent = np.argmin(np.abs(x_true[:, 1:, None] - points[None, None, :]), axis=2)
    return float(np.mean(decided != sent))


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


def _run_receiver(spec: ReceiverSpec, init_seed: int, *args) -> EstimateReport:
    """Run the receiver ``spec`` names, looked up in its module at call time."""
    fn = getattr(hris_rx if spec.entity == "hris" else bs_rx, spec.fn)
    return fn(*args, init_seed=init_seed) if spec.iterative else fn(*args)


def run_trial(cfg: ScenarioConfig, pair: tuple[str, str], seed: int) -> TrialOutcome:
    """Run one full pipeline trial with a dedicated seeded generator: :func:`run_points` at one point."""
    return run_points([cfg], pair, seed)[0]


def run_points(configs: list[ScenarioConfig], pair: tuple[str, str], seed: int) -> list[TrialOutcome]:
    """Trial ``seed`` at each of ``configs``, which may differ only in ``pt_dbm`` and ``rho``.

    Draw order is fixed (channels, symbols, receiver init seeds, sensed
    noise, reflected noise) so a (config, seed) pair fully reproduces the
    trial.  A scoring reference channel that is all zero or whose energy
    underflows, and zero-anchor, rank-deficiency and non-finite-input aborts
    are reported as failed outcomes, not exceptions.  When only the BS
    receiver aborts, the outcome keeps the surface metrics.
    """
    cfg = configs[0]
    hris_spec = receiver_spec(pair[0], "hris", cfg.scheme)
    bs_spec = receiver_spec(pair[1], "bs", cfg.scheme)
    # The draws read the link gains, shapes, QAM order and noise power, which no sweep
    # point changes, so every point sees exactly the draws that run_trial makes at it.
    rng = np.random.default_rng(seed)
    channels = draw_channels(cfg, rng)
    symbols = gen_symbols(cfg, rng)
    hris_init = int(rng.integers(0, 2**63))
    bs_init = int(rng.integers(0, 2**63))
    noise_rc = draw_noise((cfg.nc, cfg.t, cfg.k), cfg.noise_watts, rng)
    noise_bs = draw_noise((cfg.m, cfg.t, cfg.k), cfg.noise_watts, rng)

    noiseless = {}   # coding -> both received tensors at unit amplitude, without noise
    outcomes = []
    for point in configs:
        amplitude = math.sqrt(point.pt_watts)
        effective_ut = amplitude * channels.ut_ris
        combined = combined_channel(effective_ut, channels.ris_bs)
        if not all(np.linalg.norm(ref) ** 2 > 0 for ref in (effective_ut, channels.ris_bs, combined)):
            outcomes.append(TrialOutcome(
                failed=True, failure_reason="reference channel is all zero or underflows; its NMSE is undefined"))
            continue
        coding = build_coding(point)
        if coding not in noiseless:
            noiseless[coding] = (synth_yrc(point, channels, coding, symbols),
                                 synth_ybs(point, channels, coding, symbols))
        clean_rc, clean_bs = noiseless[coding]

        surface = {}
        try:
            hris_rep = _run_receiver(hris_spec, hris_init, amplitude * clean_rc + noise_rc, coding)
            surface = dict(nmse_g=nmse(hris_rep.channel, effective_ut),
                           ser_hris=ser(hris_rep.symbols, symbols, point.qam_order), iters_hris=hris_rep.iterations)
            payload = bs_rx.ControlLinkPayload(hris_rep.channel, hris_rep.symbols if bs_spec.scenario == 2 else None)
            bs_rep = _run_receiver(bs_spec, bs_init, amplitude * clean_bs + noise_bs, payload, coding)
        except (AmbiguityError, NonFiniteError, RankDeficiencyError) as exc:   # a BS abort keeps `surface`
            outcomes.append(TrialOutcome(**surface, failed=True, failure_reason=str(exc)))
            continue
        outcomes.append(TrialOutcome(
            **surface,
            nmse_h=nmse(bs_rep.channel, channels.ris_bs),
            nmse_theta=nmse(combined_channel(hris_rep.channel, bs_rep.channel), combined),
            # The channel-only BS receiver reuses the fed-back symbol decisions.
            ser_bs=ser(bs_rep.symbols, symbols, point.qam_order),
            iters_bs=bs_rep.iterations,
        ))
    return outcomes


_METRICS = ("nmse_g", "nmse_h", "nmse_theta", "ser_hris", "ser_bs", "iters_hris", "iters_bs")


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
    for point_cfg in configs:
        report = check_identifiability(point_cfg, pair)
        if not report.satisfied:
            raise IdentifiabilityError(
                f"pair {pair[0]}-{pair[1]} needs k >= {report.min_k}, config has k={point_cfg.k}"
            )
    seeds = [trial_seed(base_seed, i) for i in range(trials)]
    if workers > 1:
        # One contiguous chunk of seeds per worker; map keeps the trial order.
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_trial = list(pool.map(run_points, repeat(configs), repeat(pair), seeds,
                                      chunksize=math.ceil(trials / workers)))
    else:
        per_trial = [run_points(configs, pair, s) for s in seeds]
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
