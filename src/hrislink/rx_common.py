"""Shared receiver plumbing: failure modes, reports, the entry check, the
shared ALS iteration, the rank-checked product with a pseudo-inverse, and
the anchor normalization."""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .coding import CODINGS_KEPT, CodingSet
from .identifiability import ENTITY_NAMES, RECEIVERS, ReceiverSpec, Sizes, spectral_rank
from .tensor_ops import apply_pinv, lstsq_normal, unfold

# The ALS stop rule (CP-ALS, Kolda & Bader 2009, section 3.4): at most
# MAX_ITERATIONS iterations, ending early once the squared residual changes by
# at most REL_TOL relative to the previous one, or falls to RESIDUAL_FLOOR
# times the signal energy (the fit is then at machine precision).
MAX_ITERATIONS = 200
REL_TOL = 1e-6
RESIDUAL_FLOOR = 1e-26

# Gram certificates (tensor_ops.apply_pinv) below this prove full rank without an SVD and bound the
# normal-equation error of the product by about eps * 1e8; the comment at identifiability.RANK_TOL relates the cuts.
GRAM_CERTIFICATE_MAX = 1e4


class IdentifiabilityError(ValueError):
    """The configuration cannot support a unique estimate for this receiver."""


class RankDeficiencyError(RuntimeError):
    """A design/regression matrix lost the rank the estimator relies on."""


class AmbiguityError(RuntimeError):
    """The anchor entry used to fix the scaling ambiguity is (numerically) zero."""


class NonFiniteError(RuntimeError):
    """A received tensor or a fed-back estimate holds NaN or infinite entries."""


@dataclass
class EstimateReport:
    """Output of one receiver run.

    ``channel`` is the matrix estimated at the running entity (UT-side at the
    surface, BS-side at the BS); ``symbols`` the estimated symbol matrix.
    ``residuals`` traces the squared Frobenius reconstruction error per ALS
    iteration (empty for closed-form receivers).  ``ambiguity``
    records the scaling removed: a complex scalar, or one scalar per stream
    for the krstc surface receivers.  ``fallbacks`` counts the ALS
    least-squares solves that took the SVD path instead of the Cholesky one
    (always 0 for closed-form receivers).
    """

    channel: np.ndarray
    symbols: np.ndarray
    residuals: list = field(default_factory=list)
    ambiguity: object = None
    fallbacks: int = 0

    @property
    def iterations(self) -> int:
        """ALS iterations run: one residual each, 0 for closed-form receivers."""
        return len(self.residuals)


def init_symbols(rows: int, cols: int, seed: int) -> np.ndarray:
    """Unit-variance circular complex Gaussian start for the ALS iterations."""
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def check_received(y: np.ndarray, coding: CodingSet, fn: str) -> Sizes:
    """Validate the tensor received by the receiver function ``fn``; return the problem sizes.

    ``y`` is ``(nc, t, k)`` at the surface or ``(m, t, k)`` at the BS.  Raises
    ``ValueError`` for a scheme the receiver does not serve or shapes that
    disagree with the coding, :class:`NonFiniteError` on NaN/inf entries,
    and :class:`IdentifiabilityError` below the sub-frame threshold.  Its entry, sizes and threshold are cached per shape.
    """
    spec, sizes, need = _entry_facts(fn, coding.scheme, coding.sensing.shape, coding.mix.shape, y.shape)
    if not np.isfinite(y).all():
        raise NonFiniteError(f"received tensor at the {ENTITY_NAMES[spec.entity]} has non-finite entries")
    if sizes.k < need:
        raise IdentifiabilityError(f"{spec.name} at the {ENTITY_NAMES[spec.entity]} ({sizes.scheme}) "
                                   f"needs at least {need} sub-frames, got {sizes.k}")
    return sizes


@lru_cache(maxsize=CODINGS_KEPT * len(RECEIVERS))
def _entry_facts(fn, scheme, sensing_shape, mix_shape, shape) -> tuple[ReceiverSpec, Sizes, int]:
    spec = next(spec for spec in RECEIVERS if spec.fn == fn)
    if scheme not in spec.schemes:
        raise ValueError(f"{fn} does not apply to the {scheme} scheme")
    (nc, n, k), (_, l, w), (rows, t, y_k) = sensing_shape, mix_shape, shape
    if k != y_k or (spec.entity == "hris" and nc != rows):
        raise ValueError(f"coding built for (nc, k)={nc, k}, signal has shape {shape}")
    sizes = Sizes(scheme, n, nc, l, w, t, k, rows if spec.entity == "bs" else None)
    return spec, sizes, spec.threshold(sizes)


def run_als(y: np.ndarray, x0: np.ndarray, channel_step: Callable,
            symbol_regressor: Callable) -> EstimateReport:
    """Alternate least-squares steps until the residual stagnates or hits the floor.

    ``channel_step(x)`` returns the channel estimate from the symbols ``x``
    and whether its solve fell back to the SVD.  The symbol step solves
    ``symbol_regressor(channel) @ x = unfold(y, 2).T``; its squared
    Frobenius misfit is the residual of the iteration.
    """
    y2t = unfold(y, 2).T
    floor = RESIDUAL_FLOOR * float(np.vdot(y, y).real)
    x_hat = x0
    residuals: list[float] = []
    fallbacks = 0
    for _ in range(MAX_ITERATIONS):
        channel, channel_fallback = channel_step(x_hat)
        regressor = symbol_regressor(channel)
        x_hat, symbol_fallback = lstsq_normal(regressor, y2t)
        resid = float(np.linalg.norm(y2t - regressor @ x_hat) ** 2)
        residuals.append(resid)
        fallbacks += channel_fallback + symbol_fallback
        if resid <= floor:
            break
        if len(residuals) >= 2:
            prev = residuals[-2]
            if prev > 0 and abs(resid - prev) <= REL_TOL * prev:
                break
    return EstimateReport(channel, x_hat, residuals, fallbacks=fallbacks)


def require_full_rank(lhs: np.ndarray, mat: np.ndarray, need: int, what: str) -> np.ndarray:
    """``lhs @ pinv(mat)``, where ``mat`` must have numerical rank ``need``.

    Raises :class:`RankDeficiencyError` otherwise.  A full rank certified by
    :func:`~hrislink.tensor_ops.apply_pinv` needs no SVD: a certificate below
    ``GRAM_CERTIFICATE_MAX`` keeps ``sigma_min / sigma_max`` above ``1e-4``,
    far above the ``RANK_TOL`` cut, so the SVD rule would count full rank too.
    Every other matrix has its rank read off its singular values.
    """
    if need == min(mat.shape) > 0:
        product, certificate = apply_pinv(lhs, mat)
        if certificate < GRAM_CERTIFICATE_MAX:
            return product
    rank = spectral_rank(np.linalg.svd(mat, compute_uv=False))
    if rank < need:
        raise RankDeficiencyError(f"{what} has numerical rank {rank}, need {need}")
    return lhs @ np.linalg.pinv(mat)


def normalize_anchor(report: EstimateReport, per_stream: bool) -> EstimateReport:
    """Divide the symbols by their anchors and absorb the anchors into the channel.

    The anchor is the (0, 0) symbol, or with ``per_stream`` the first symbol
    of every stream.  A vanishing anchor raises :class:`AmbiguityError` so the
    trial counts as a decoding failure instead of corrupting the metrics.
    """
    x = report.symbols
    scale = float(np.linalg.norm(x)) / math.sqrt(x.size)
    rows = x.shape[0] if per_stream else 1
    anchors = x[:rows, 0]
    for i, value in enumerate(anchors):
        if not np.isfinite(value) or abs(value) <= 1e-12 * scale:
            where = f"stream {i} " if per_stream else ""
            raise AmbiguityError(f"{where}symbol anchor is numerically zero ({complex(value)!r})")
    fixed = x / anchors[:, None]
    fixed[:rows, 0] = 1.0  # anchors are known a priori; avoid the division ulp
    return replace(report, channel=report.channel * anchors, symbols=fixed,
                   ambiguity=anchors if per_stream else complex(anchors[0]))
