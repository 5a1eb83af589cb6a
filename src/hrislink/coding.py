"""Transmit coding and surface phase-shift construction.

The sensing phase-shift tensor and the reflecting phase-shift matrix are
sampled from a ``k*nc``-dimensional DFT matrix so that all per-sub-frame
slices keep full rank.  Transmit coding truncates a Sylvester Hadamard
matrix: a tensor code of shape ``(l, r, k)`` for the tstc scheme, a ``(k, l)``
code matrix for krstc.  Amplitudes carry the power split: every sensing
entry has magnitude ``sqrt((1-rho)/nc)`` and every reflecting entry
``sqrt(rho)``, so per element the reflected and sensed powers add to one.

:func:`build_coding` shares one read-only :class:`CodingSet` per coding
configuration, with the sub-frame-major stacks every regressor and the
synthesis multiply against: built once per coding, not per trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg import dft, hadamard

from .scenario import ScenarioConfig


# Distinct codings (or constellation orders) kept by build_coding, the receivers'
# per-coding caches and qam_constellation; a sweep over pt or over trials needs one.
CODINGS_KEPT = 8


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class CodingSet:
    """Everything the transmitter and surface agree on for one block.

    ``sensing`` has shape ``(nc, n, k)``, ``reflect`` ``(k, n)``.  ``code``
    is the ``(l, r, k)`` mixing tensor for tstc (includes the ``1/sqrt(l)``
    combiner normalization) or the ``(k, l)`` code matrix for krstc.

    ``phi`` stacks the slices ``phi_k`` as ``(k, nc, n)``, ``mix`` the mixing
    matrices ``mix_k`` as ``(k, l, w)`` for ``w`` streams (``diag(code[k])`` for krstc).

    The arrays are read-only copies of the ones passed in, so the stacks and
    anything derived from them can never go stale; equality and hashing are
    by identity.
    """

    scheme: str
    sensing: np.ndarray
    reflect: np.ndarray
    code: np.ndarray
    phi: np.ndarray = field(init=False, repr=False)
    mix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("sensing", "reflect", "code"):
            object.__setattr__(self, name, _read_only(np.array(getattr(self, name))))
        code = self.code
        mix = (code.transpose(2, 0, 1).copy() if self.scheme == "tstc"
               else np.where(np.eye(code.shape[1], dtype=bool), code[:, None, :], 0.0))
        object.__setattr__(self, "phi", _read_only(self.sensing.transpose(2, 0, 1).copy()))
        object.__setattr__(self, "mix", _read_only(mix))

    @property
    def subframes(self) -> int:
        return self.sensing.shape[2]

    @property
    def elements(self) -> int:
        return self.sensing.shape[1]


def design_phase_shifts(cfg: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """Build the sensing tensor and reflecting matrix from one DFT matrix.

    Fiber ``(ic, j, :)`` of the sensing tensor is the ``ic``-th length-``k``
    block of DFT column ``j``; reflecting column ``j`` is the first ``k``
    entries of DFT column ``j*nc``.  Needs ``k >= n`` for the reflecting
    columns to exist, which also gives the sensing fibers their ``k*nc >= n``.
    """
    nc, n, k, rho = cfg.nc, cfg.n, cfg.k, cfg.rho
    if k < n:
        raise ValueError(f"reflecting design samples DFT column (n-1)*nc, which needs k >= n; got k={k}, n={n}")
    d = dft(k * nc)
    phi = np.empty((nc, n, k), dtype=complex)
    for ic in range(nc):
        phi[ic] = d[ic * k : (ic + 1) * k, :n].T
    psi = d[:k, np.arange(n) * nc].copy()
    phi *= math.sqrt((1.0 - rho) / nc)
    psi *= math.sqrt(rho)
    return phi, psi


def design_tstc(cfg: ScenarioConfig) -> np.ndarray:
    """Tensor code: slice ``k`` reshapes row ``k`` of a truncated Hadamard matrix.

    The mode-3 unfolding of ``sqrt(l) * code`` equals the first ``r*l``
    columns of the ``k``-dimensional Hadamard matrix.
    """
    l, r, k = cfg.l, cfg.r, cfg.k
    if k < r * l:
        raise ValueError(f"tstc code truncation needs k >= r*l, got {k} < {r * l}")
    had = hadamard(k).astype(float)
    return had[:, : r * l].reshape(k, r, l).transpose(2, 1, 0) / math.sqrt(l)


def design_krstc(cfg: ScenarioConfig) -> np.ndarray:
    """Code matrix: first ``l`` columns of the ``k``-dimensional Hadamard matrix."""
    l, k = cfg.l, cfg.k
    if k < l:
        raise ValueError(f"krstc code truncation needs k >= l, got {k} < {l}")
    return hadamard(k)[:, :l].astype(float)


def build_coding(cfg: ScenarioConfig) -> CodingSet:
    """The coding set for the configured scheme.

    Configs that agree on ``scheme``, ``nc``, ``n``, ``k``, ``rho``, ``l``
    and ``r`` get the same read-only object (the most recent few are kept);
    copy an array before changing it.
    """
    return _coding(cfg.scheme, cfg.nc, cfg.n, cfg.k, cfg.rho, cfg.l, cfg.r)


@lru_cache(maxsize=CODINGS_KEPT)
def _coding(scheme: str, nc: int, n: int, k: int, rho: float, l: int, r: int) -> CodingSet:
    cfg = ScenarioConfig(n=n, nc=nc, k=k, rho=rho, l=l, r=r, scheme=scheme)
    phi, psi = design_phase_shifts(cfg)
    code = design_tstc(cfg) if scheme == "tstc" else design_krstc(cfg)
    return CodingSet(scheme=scheme, sensing=phi, reflect=psi, code=code)


@lru_cache(maxsize=CODINGS_KEPT)
def qam_constellation(order: int) -> np.ndarray:
    """Unit-average-energy square QAM constellation points: one shared read-only array per order.

    Points are laid out on the Gray-coded square grid and scaled so the mean
    symbol energy is exactly one.
    """
    side = math.isqrt(order)
    if side * side != order or side < 2:
        raise ValueError(f"order must be a square constellation size, got {order}")
    levels = 2.0 * np.arange(side) - (side - 1)
    points = (levels[:, None] + 1j * levels[None, :]).reshape(-1)
    return _read_only(points / math.sqrt(2.0 * (order - 1) / 3.0))


def gen_symbols(cfg: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw a symbol matrix of i.i.d. uniform QAM entries and impose anchors.

    Anchors overwrite the drawn symbols: entry ``(0, 0)`` is set to 1 for
    tstc; the whole first column is set to ones for krstc.  The anchor
    entries are excluded from error-rate accounting downstream.
    """
    points = qam_constellation(cfg.qam_order)
    rows = cfg.streams
    x = points[rng.integers(0, points.size, size=(rows, cfg.t))]
    if cfg.scheme == "tstc":
        x[0, 0] = 1.0
    else:
        x[:, 0] = 1.0
    return x
