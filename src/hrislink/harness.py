"""Monte Carlo engine: metrics, single trials, sweeps, and CSV emission.

A trial draws channels, symbols, and noise from one seeded generator,
synthesizes both received tensors, runs the configured surface/BS receiver
pair, and scores channel NMSEs, the combined-channel NMSE, and symbol error
rates.  Trial ``i`` of a sweep point uses the seed ``splitmix64(base ^ i)``,
so trials are reproducible and independent, and sweeps can be parallelized
or re-batched without changing the aggregate.

Transmit power enters by scaling the unit-energy symbol matrix with
``sqrt(Pt)``; receivers then estimate the power-bearing effective UT-side
channel.  NMSE is scale-invariant, so all reported channel errors equal the
physical-domain ones.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from . import bs_rx, hris_rx
from .coding import build_coding, gen_symbols, qam_constellation
from .identifiability import ReceiverSpec, check_identifiability, receiver_spec
from .rx_common import (AmbiguityError, EstimateReport, IdentifiabilityError, NonFiniteError,
                        RankDeficiencyError)
from .scenario import ScenarioConfig, draw_channels
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
    """Khatri-Rao structured cascade of the two links, shape ``(l*m, n)``."""
    return scipy.linalg.khatri_rao(np.asarray(ut_ris).T, np.asarray(ris_bs))


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
    """Run one full pipeline trial with a dedicated seeded generator.

    Draw order is fixed (channels, symbols, receiver init seeds, sensed
    noise, reflected noise) so a (config, seed) pair fully reproduces the
    trial.  A scoring reference channel that is all zero or whose energy
    underflows, and zero-anchor, rank-deficiency and non-finite-input aborts
    are reported as failed outcomes, not exceptions.
    """
    hris_spec = receiver_spec(pair[0], "hris", cfg.scheme)
    bs_spec = receiver_spec(pair[1], "bs", cfg.scheme)
    rng = np.random.default_rng(seed)
    channels = draw_channels(cfg, rng)
    amplitude = math.sqrt(cfg.pt_watts)
    effective_ut = amplitude * channels.ut_ris
    combined = combined_channel(effective_ut, channels.ris_bs)
    if not all(np.linalg.norm(ref) ** 2 > 0 for ref in (effective_ut, channels.ris_bs, combined)):
        return TrialOutcome(failed=True,
                            failure_reason="reference channel is all zero or underflows; its NMSE is undefined")
    symbols = gen_symbols(cfg, rng)
    hris_init = int(rng.integers(0, 2**63))
    bs_init = int(rng.integers(0, 2**63))

    sent = amplitude * symbols
    coding = build_coding(cfg)
    y_rc = synth_yrc(cfg, channels, coding, sent, rng)
    y_bs = synth_ybs(cfg, channels, coding, sent, rng)

    try:
        hris_rep = _run_receiver(hris_spec, hris_init, y_rc, coding)
        payload = bs_rx.ControlLinkPayload(hris_rep.channel, hris_rep.symbols if bs_spec.scenario == 2 else None)
        bs_rep = _run_receiver(bs_spec, bs_init, y_bs, payload, coding)
    except (AmbiguityError, NonFiniteError, RankDeficiencyError) as exc:
        return TrialOutcome(failed=True, failure_reason=str(exc))

    ser_hris = ser(hris_rep.symbols, symbols, cfg.qam_order)
    # The channel-only BS receiver reuses the fed-back symbol decisions.
    ser_bs = ser(bs_rep.symbols, symbols, cfg.qam_order)
    return TrialOutcome(
        nmse_g=nmse(hris_rep.channel, effective_ut),
        nmse_h=nmse(bs_rep.channel, channels.ris_bs),
        nmse_theta=nmse(combined_channel(hris_rep.channel, bs_rep.channel), combined),
        ser_hris=ser_hris,
        ser_bs=ser_bs,
        iters_hris=hris_rep.iterations,
        iters_bs=bs_rep.iterations,
    )


_METRICS = ("nmse_g", "nmse_h", "nmse_theta", "ser_hris", "ser_bs", "iters_hris", "iters_bs")


def aggregate(outcomes: list[TrialOutcome], sweep_var: str, value: float) -> MetricsRecord:
    """Average a batch of trials into one record (order-independent)."""
    good = [o for o in outcomes if not o.failed]
    means, errors = {}, {}
    for name in _METRICS:
        if good:
            samples = np.array([getattr(o, name) for o in good], dtype=float)
            means[name] = float(samples.mean())
            errors[name] = float(samples.std(ddof=1) / math.sqrt(len(samples))) if len(samples) > 1 else 0.0
        else:
            means[name] = math.nan
            errors[name] = math.nan
    return MetricsRecord(sweep_var=sweep_var, value=float(value), **means, trials=len(outcomes),
                         failures=len(outcomes) - len(good), stderr=errors)


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
    pairs the random draws across points and sharpens trend comparisons.
    """
    if not points:
        raise ValueError("sweep needs at least one point")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    records = []
    seeds = [trial_seed(base_seed, i) for i in range(trials)]
    # Worker processes start on the first submitted trial and serve every point.
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        for value in points:
            point_cfg = _point_config(cfg, sweep_var, value)
            report = check_identifiability(point_cfg, pair)
            if not report.satisfied:
                raise IdentifiabilityError(
                    f"pair {pair[0]}-{pair[1]} needs k >= {report.min_k}, config has k={point_cfg.k}"
                )
            if pool is not None:
                outcomes = list(pool.map(run_trial, [point_cfg] * trials, [pair] * trials, seeds))
            else:
                outcomes = [run_trial(point_cfg, pair, s) for s in seeds]
            records.append(aggregate(outcomes, sweep_var, value))
    return records


def format_float(x: float) -> str:
    return f"{x:.9g}"


def records_to_csv(records: list[MetricsRecord]) -> str:
    """Render sweep records as CSV text with the documented header."""
    lines = [CSV_HEADER]
    for rec in records:
        floats = [format_float(getattr(rec, name)) for name in ("value", *_METRICS)]
        lines.append(",".join([rec.sweep_var, *floats, str(rec.trials), str(rec.failures)]))
    return "\n".join(lines) + "\n"
