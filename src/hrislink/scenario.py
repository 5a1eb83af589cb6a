"""System configuration, link-budget statistics, and random realizations.

A :class:`ScenarioConfig` is the single source of truth for a run: array
sizes, the reflect/sense power split, geometry, and power levels.  Channel
entries are i.i.d. circular complex Gaussian with per-entry variance set by
the distance-dependent path loss of the corresponding link (Rayleigh fading).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SCHEMES = ("tstc", "krstc")


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) * 1e-3


def _finite_watts(dbm: float) -> bool:
    try:
        return math.isfinite(dbm_to_watts(dbm))
    except OverflowError:
        return False


@dataclass(frozen=True)
class ScenarioConfig:
    """All dimensions and link parameters for one simulated scenario.

    Dimensions: ``m`` BS antennas, ``n`` surface elements, ``nc`` RF chains
    behind the surface, ``l`` UT antennas, ``r`` data streams, ``t`` symbol
    periods per sub-frame, ``k`` sub-frames.  ``rho`` is the fraction of the
    impinging power that is reflected (the remaining ``1 - rho`` is sensed).
    """

    m: int = 8
    n: int = 32
    nc: int = 2
    l: int = 2
    r: int = 2
    t: int = 4
    k: int = 64
    rho: float = 0.9
    d_ut: float = 40.0       # UT-to-surface distance (m)
    d_bs: float = 10.0       # surface-to-BS distance (m)
    pl_exp_ut: float = 2.5   # path-loss exponent, UT-to-surface link
    pl_exp_bs: float = 2.0   # path-loss exponent, surface-to-BS link
    pl0_db: float = -20.0    # reference path loss at d0 (dB)
    d0: float = 1.0          # reference distance (m)
    noise_dbm: float = -90.0
    pt_dbm: float = 30.0
    qam_order: int = 64
    scheme: str = "tstc"
    eta: int = 16            # feedback resolution, bits per channel coefficient

    def __post_init__(self):
        for name in ("m", "n", "nc", "l", "r", "t", "k", "eta"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if self.k & (self.k - 1):
            raise ValueError(f"Sylvester Hadamard construction needs k to be a power of two, got {self.k}")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must lie in [0, 1], got {self.rho}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.scheme == "krstc" and self.r != self.l:
            raise ValueError("krstc has no stream multiplexing: r must equal l")
        for name in ("d_ut", "d_bs", "d0"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"distance {name} must be finite and positive, got {value}")
        links_off = self.pl0_db == -math.inf  # all-zero channels, allowed like noise_dbm=-inf
        if not (math.isfinite(self.pl0_db) or links_off):
            raise ValueError(f"pl0_db must be finite or -inf, got {self.pl0_db}")
        for name in ("pl_exp_ut", "pl_exp_bs"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"path-loss exponent {name} must be finite, got {value}")
        try:
            gains = link_gains(self)
        except ArithmeticError:  # overflow, or a distance ratio that underflows to zero
            gains = (math.nan,)
        if not all(math.isfinite(gain) and (gain > 0 or links_off) for gain in gains):
            raise ValueError(f"path loss must give finite nonzero link gains, got {gains}")
        root = math.isqrt(self.qam_order)
        if root * root != self.qam_order or root < 2:
            raise ValueError(f"qam_order must be a square constellation size, got {self.qam_order}")
        if not (_finite_watts(self.pt_dbm) and self.pt_watts > 0):
            raise ValueError(f"pt_dbm must give a finite positive transmit power, got {self.pt_dbm}")
        if not _finite_watts(self.noise_dbm):  # -inf (no noise) is allowed
            raise ValueError(f"noise_dbm must give a finite noise power, got {self.noise_dbm}")

    @property
    def noise_watts(self) -> float:
        return dbm_to_watts(self.noise_dbm)

    @property
    def pt_watts(self) -> float:
        return dbm_to_watts(self.pt_dbm)

    @property
    def streams(self) -> int:
        """Symbol-matrix row count: ``r`` for tstc, ``l`` for krstc."""
        return self.r if self.scheme == "tstc" else self.l

    def replace(self, **changes) -> "ScenarioConfig":
        return dataclasses.replace(self, **changes)

    @classmethod
    def from_file(cls, path) -> "ScenarioConfig":
        """Parse flat ``key = value`` lines; ``#`` starts a comment.  Errors raise ``ValueError`` at ``path[:line]``."""
        fields = {f.name: f.type for f in dataclasses.fields(cls)}    # type names: annotations are postponed
        kwargs = {}
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in fields:
                raise ValueError(f"{path}:{lineno}: unknown configuration key {key!r}")
            if key in kwargs:
                raise ValueError(f"{path}:{lineno}: configuration key {key!r} is repeated")
            try:
                kwargs[key] = _parse_value(value, fields[key])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
        try:
            return cls(**kwargs)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc


def _parse_value(text: str, name: str) -> object:
    if name == "int":
        return int(text)
    if name == "float":
        return float(text)
    return text


@dataclass(frozen=True)
class ChannelRealization:
    """One coherence block: UT-to-surface and surface-to-BS channel matrices."""

    ut_ris: np.ndarray   # (n, l)
    ris_bs: np.ndarray   # (m, n)


def path_loss(d: float, alpha: float, cfg: ScenarioConfig) -> float:
    """Linear power gain ``PL0 * (d / d0) ** (-alpha)``."""
    if not d > 0:
        raise ValueError(f"distance must be positive, got {d}")
    return db_to_linear(cfg.pl0_db) * (d / cfg.d0) ** (-alpha)


def link_gains(cfg: ScenarioConfig) -> tuple[float, float]:
    """Per-entry channel variances of the UT-side and BS-side links."""
    return (
        path_loss(cfg.d_ut, cfg.pl_exp_ut, cfg),
        path_loss(cfg.d_bs, cfg.pl_exp_bs, cfg),
    )


def complex_gaussian(rng: np.random.Generator, shape, power: float) -> np.ndarray:
    """i.i.d. circular complex Gaussian entries with per-entry power ``power``."""
    scale = math.sqrt(power / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def draw_channels(cfg: ScenarioConfig, rng: np.random.Generator) -> ChannelRealization:
    """Draw one Rayleigh-fading realization of both links."""
    gain_ut, gain_bs = link_gains(cfg)
    return ChannelRealization(
        ut_ris=complex_gaussian(rng, (cfg.n, cfg.l), gain_ut),
        ris_bs=complex_gaussian(rng, (cfg.m, cfg.n), gain_bs),
    )


def draw_noise(shape, power: float, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. circular complex Gaussian noise of per-entry power ``power``; zero power draws nothing."""
    if not 0 <= power < math.inf:
        raise ValueError(f"noise power must be nonnegative and finite, got {power}")
    if power == 0:
        return np.zeros(shape, dtype=complex)
    return complex_gaussian(rng, shape, power)
