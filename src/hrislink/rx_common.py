"""Shared receiver plumbing: failure modes, reports, the one entry check of every receiver input, the one ALS
loop (:func:`run_als`: from the caller's start, both steps on the caller's one Kronecker problem ``F @ Z = Y``,
alike at the surface and the BS: the channel step contracted by :func:`channel_step` from the normal equations
:func:`als_tables` rearranges, its SVD fallback on :func:`channel_problem`, the symbol step on :func:`symbol_problem`,
both read off ``F^T``; stop rule), the full-rank solve of a caller's normal equations, and the anchor normalization.
Every solve goes through :func:`~hrislink.tensor_ops.solve_gram`, which holds the one full-column-rank rule."""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .coding import CODINGS_KEPT, CodingSet
from .identifiability import ENTITY_NAMES, RECEIVERS, ReceiverSpec, Sizes
from .tensor_ops import frobenius, solve_gram, unfold

# The ALS stop rule (CP-ALS, Kolda & Bader 2009, section 3.4): at most
# MAX_ITERATIONS iterations, ending early once the squared residual changes by
# at most REL_TOL relative to the previous one, or falls to RESIDUAL_FLOOR
# times the signal energy (the fit is then at machine precision).
MAX_ITERATIONS = 200
REL_TOL = 1e-6
RESIDUAL_FLOOR = 1e-26


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
    iteration (empty for closed-form receivers).  ``fallbacks`` counts the ALS
    least-squares solves that took the SVD path instead of the Cholesky one
    (always 0 for closed-form receivers).
    """

    channel: np.ndarray
    symbols: np.ndarray
    residuals: list = field(default_factory=list)
    fallbacks: int = 0

    @property
    def iterations(self) -> int:
        """ALS iterations run: one residual each, 0 for closed-form receivers."""
        return len(self.residuals)


def init_symbols(rows: int, cols: int, seed: int) -> np.ndarray:
    """Unit-variance circular complex Gaussian ALS start: always ``hris_bals``', and ``bs_bals``' where it has
    no closed-form one."""
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def check_received(y: np.ndarray, coding: CodingSet, fn: str, *fed: np.ndarray) -> Sizes:
    """Validate the tensor received by the receiver function ``fn`` and the arrays ``fed`` back to it; return the sizes.

    ``y`` is ``(nc, t, k)`` at the surface or ``(m, t, k)`` at the BS, ``fed`` the BS's ``(n, l)`` channel and, if
    passed, ``(streams, t)`` symbols, stacked alike.  Raises ``ValueError`` for a scheme the receiver does not serve,
    fewer than three axes or shapes that disagree with the coding, :class:`NonFiniteError` on NaN/inf entries, and,
    before ``fed``, :class:`IdentifiabilityError` below the sub-frame threshold.  Its entry facts are cached per shape.
    """
    if np.ndim(y) < 3:
        raise ValueError(f"{fn} takes a received (rows, t, k) tensor or a stack of them, got shape {np.shape(y)}")
    spec, sizes, need = _entry_facts(fn, coding.scheme, coding.sensing.shape, coding.mix.shape, y.shape[-3:])
    if not np.isfinite(y).all():
        raise NonFiniteError(f"received tensor at the {ENTITY_NAMES[spec.entity]} has non-finite entries")
    if sizes.k < need:
        raise IdentifiabilityError(f"{spec.name} at the {ENTITY_NAMES[spec.entity]} ({sizes.scheme}) "
                                   f"needs at least {need} sub-frames, got {sizes.k}")
    for name, value, rows, cols in zip(("ut_channel", "symbols"), fed, (sizes.n, sizes.w), (sizes.l, sizes.t)):
        if np.shape(value) != (shape := y.shape[:-3] + (rows, cols)):
            raise ValueError(f"fed-back {name} must be {shape}, got {np.shape(value)}")
        if not np.isfinite(value).all():
            raise NonFiniteError(f"fed-back {name} has non-finite entries")
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


def run_als(y: np.ndarray, gram: np.ndarray, cross: np.ndarray, f_t: np.ndarray, target: np.ndarray, lead: int,
            shape: tuple[int, int], start: np.ndarray) -> EstimateReport:
    """Bilinear ALS from the caller's ``(w, t)`` symbols ``start`` until the residual stagnates or hits the floor.

    Both steps read the caller's one Kronecker problem ``F @ Z = target``, ``f_t = F^T``.  The channel step solves
    the normal equations :func:`channel_step` contracts from :func:`als_tables`' rearrangement of its ``gram`` and
    ``cross``, with :func:`channel_problem` as the SVD fallback; the channel is ``solution.reshape(shape).T``.  The
    symbol step solves the normal equations of ``symbol_problem(f_t, lead, solution) @ x = unfold(y, 2).T``, formed
    here; its squared Frobenius misfit is the residual of the iteration.
    """
    gram_table, cross_table = als_tables(gram, cross, lead, *start.shape)
    y2t = unfold(y, 2).T
    floor = RESIDUAL_FLOOR * float(np.vdot(y, y).real)
    x_hat = start
    residuals: list[float] = []
    fallbacks = 0
    for _ in range(MAX_ITERATIONS):
        solution, channel_rank = solve_gram(*channel_step(gram_table, cross_table, x_hat),
                                            lambda: channel_problem(f_t, target, lead, x_hat))
        regressor = symbol_problem(f_t, lead, solution)
        regressor_h = regressor.conj().T
        x_hat, symbol_rank = solve_gram(regressor_h @ regressor, regressor_h @ y2t, lambda: (regressor, y2t))
        resid = float(np.linalg.norm(y2t - regressor @ x_hat) ** 2)
        residuals.append(resid)
        fallbacks += (channel_rank is not None) + (symbol_rank is not None)
        if resid <= floor:
            break
        if len(residuals) >= 2:
            prev = residuals[-2]
            if prev > 0 and abs(resid - prev) <= REL_TOL * prev:
                break
    return EstimateReport(solution.reshape(shape).T, x_hat, residuals, fallbacks=fallbacks)


def als_tables(gram: np.ndarray, cross: np.ndarray, lead: int, w: int, t: int) -> tuple[np.ndarray, np.ndarray]:
    """A Kronecker-form Gram ``[(a, s, i), (b, s', j)]`` and cross ``[(a, s, i), (tau, r)]``, with ``a`` below
    ``lead`` and ``s`` below ``w``, rearranged into the ALS channel step's ``(w*w, (lead*n)**2)`` Gram table
    ``[(s, s'), (a, i, b, j)]`` and ``(w*t, lead*n*m)`` cross table ``[(s, tau), (a, i, r)]``."""
    n, m = len(gram) // (lead * w), cross.shape[1] // t
    return (gram.reshape(lead, w, n, lead, w, n).transpose(1, 4, 0, 2, 3, 5).reshape(w * w, -1),
            cross.reshape(lead, w, n, t, m).transpose(1, 3, 0, 2, 4).reshape(w * t, -1))


def channel_step(gram_table: np.ndarray, cross: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The channel step's normal equations at the symbols ``x``: with ``P = conj(x) x^T``, the Gram
    ``P.ravel() @ gram_table`` and the right-hand side ``conj(x).ravel() @ cross``."""
    size, x_conj = math.isqrt(gram_table.shape[1]), x.conj()
    return ((x_conj @ x.T).reshape(-1) @ gram_table).reshape(size, size), (x_conj.reshape(-1) @ cross).reshape(size, -1)


def channel_problem(f_t: np.ndarray, target: np.ndarray, lead: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ALS channel step's least-squares problem at the symbols ``x``, read off the Kronecker problem
    ``F @ Z = target`` whose normal equations :func:`als_tables` rearranges: ``f_t = F^T`` of shape
    ``(lead*w*n, K)`` with rows ``(a, s, i)``, contracted with ``x`` over ``s`` into the ``(K*t, lead*n)`` regressor
    with rows ``(K, tau)``, and ``target`` of ``K`` rows ``(tau, r)`` as ``K*t`` rows."""
    w, t = x.shape
    a = np.tensordot(x, f_t.reshape(lead, w, -1, f_t.shape[1]), axes=(0, 1))       # [tau, a, i, K]
    return a.transpose(3, 0, 1, 2).reshape(len(target) * t, -1), target.reshape(len(target) * t, -1)


def symbol_problem(f_t: np.ndarray, lead: int, c: np.ndarray) -> np.ndarray:
    """The ALS symbol step's regressor at the channel step's ``(lead*n, m)`` solution ``c``, read off the same
    ``f_t = F^T`` as :func:`channel_problem`: ``sum_{a,i} F[K, (a, s, i)] c[(a, i), r]`` at ``[(K, r), s]``, the
    ``(K*m, w)`` regressor of the symbols against ``unfold(y, 2).T``."""
    n = len(c) // lead
    f = f_t.reshape(lead, -1, n, f_t.shape[1]).swapaxes(-1, -2)        # [a, s, K, i]
    regressor = f[0] @ c[:n]                                          # [s, K, r], summed over a
    for a in range(1, lead):
        regressor += f[a] @ c[a * n:(a + 1) * n]
    return regressor.transpose(1, 2, 0).reshape(-1, len(regressor))


def require_full_rank(gram: np.ndarray, rhs: np.ndarray, problem: Callable, what: str) -> np.ndarray:
    """:func:`~hrislink.tensor_ops.solve_gram` of ``gram @ x = rhs``, the normal equations of ``problem() = (a, b)``.

    A certified Cholesky solve proves that ``a`` has full column rank, the Gram's order; below it, the rank the
    SVD fallback read off ``a``'s singular values raises :class:`RankDeficiencyError`.
    """
    x, rank = solve_gram(gram, rhs, problem)
    if rank is not None and rank < len(gram):
        raise RankDeficiencyError(f"{what} has numerical rank {rank}, need {len(gram)}")
    return x


def normalize_anchor(report: EstimateReport, per_stream: bool) -> EstimateReport:
    """Divide the symbols by their anchors and absorb the anchors into the channel.

    The anchor is the (0, 0) symbol, or with ``per_stream`` the first symbol
    of every stream.  A vanishing anchor raises :class:`AmbiguityError` so the
    trial counts as a decoding failure instead of corrupting the metrics.  Stacked estimates go in one pass.
    """
    x = report.symbols
    scale = frobenius(x) / math.sqrt(x.shape[-2] * x.shape[-1])
    rows = x.shape[-2] if per_stream else 1
    anchors = x[..., :rows, 0]
    # hypot rounds as abs() of one complex entry does, which numpy's array abs does not always match
    vanishing = np.argwhere(~np.isfinite(anchors) | (np.hypot(anchors.real, anchors.imag) <= 1e-12 * scale[..., None]))
    if len(vanishing):
        value, stream = anchors[tuple(vanishing[0])], vanishing[0][-1]
        where = f"stream {stream} " if per_stream else ""
        raise AmbiguityError(f"{where}symbol anchor is numerically zero ({complex(value)!r})")
    fixed = x / anchors[..., None]
    fixed[..., :rows, 0] = 1.0  # anchors are known a priori; avoid the division ulp
    return replace(report, channel=report.channel * anchors[..., None, :], symbols=fixed)
