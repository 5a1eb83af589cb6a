"""Independent signal-model oracles used across test modules.

These rebuild the received tensors through the decoupled tensor forms
(mode-n products of identity-core or phase tensors, contracted slice-wise)
and through raw scalar sums, without touching the slice-wise synthesis code
they are checked against.  The tensor operations that only the tests
need (:func:`vec`, :func:`fold`, :func:`unvec`, :func:`mode_n_product`, :func:`modewise_contraction`)
live here, following the unfolding conventions of ``hrislink.tensor_ops``.
:func:`comparison_certificate` recomputes, from the Gram alone, the
inverse-free bound that ``hrislink.tensor_ops.solve_gram`` decides on, and
:func:`gram_certificate` the exact certificate it bounds.  :func:`rank_bounds`
checks the block-rank upper bounds that the sub-frame thresholds rest on
against a concrete realization of the receivers' regressors.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from hrislink import bs_rx, hris_rx
from hrislink.coding import CodingSet
from hrislink.rx_common import channel_problem
from hrislink.scenario import ChannelRealization, ScenarioConfig, draw_noise
from hrislink.synthesis import reflect_blocks
from hrislink.tensor_ops import numerical_rank, spectral_rank


def gram_certificate(gram: np.ndarray) -> float:
    """``sqrt(tr(gram)) |U^{-1}|_F`` for the Cholesky factor ``gram = U^H U``, ``inf`` if it fails.

    For ``gram = a^H a`` it bounds ``sigma_max / sigma_min`` of ``a`` from above.
    """
    potrf, trtri = scipy.linalg.lapack.get_lapack_funcs(("potrf", "trtri"), (gram,))
    factor, info = potrf(gram)
    u_inv, info_inv = trtri(factor)
    if info or info_inv:
        return math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        return math.sqrt(gram.trace().real) * float(np.linalg.norm(u_inv))


def comparison_certificate(gram: np.ndarray) -> float:
    """``|U|_F |M(U)^{-1} e|_2`` for the Cholesky factor ``gram = U^H U``, ``inf`` if it fails.

    ``M(U)`` is the comparison matrix, ``|u_ii|`` on the diagonal and ``-|u_ij|``
    above it, and ``e`` is all ones.  Since ``|U^{-1}| <= M(U)^{-1}`` entrywise,
    it is at least :func:`gram_certificate`, and equal to it for a diagonal Gram.
    """
    potrf, = scipy.linalg.lapack.get_lapack_funcs(("potrf",), (gram,))
    factor, info = potrf(gram)
    if info:
        return math.inf
    magnitude = np.abs(factor)
    comparison = np.diag(np.diag(magnitude)) - np.triu(magnitude, 1)
    row_sums = scipy.linalg.solve_triangular(comparison, np.ones(len(gram)), check_finite=False)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.linalg.norm(factor)) * float(np.linalg.norm(row_sums))


def fold(m: np.ndarray, mode: int, dims: tuple[int, int, int]) -> np.ndarray:
    """Inverse of ``hrislink.tensor_ops.unfold`` for the given target ``dims``."""
    m = np.asarray(m)
    i1, i2, i3 = dims
    expected = {1: (i1, i3 * i2), 2: (i2, i3 * i1), 3: (i3, i2 * i1)}
    if mode not in expected:
        raise ValueError(f"mode must be 1, 2 or 3, got {mode}")
    if m.shape != expected[mode]:
        raise ValueError(
            f"mode-{mode} unfolding of a {dims} tensor has shape "
            f"{expected[mode]}, got {m.shape}"
        )
    if mode == 1:
        return m.reshape(i1, i3, i2).transpose(0, 2, 1)
    if mode == 2:
        return m.reshape(i2, i3, i1).transpose(2, 0, 1)
    return m.reshape(i3, i2, i1).transpose(2, 1, 0)


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a 1-D vector."""
    return np.asarray(m).reshape(-1, order="F")


def unvec(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vec`; ``v`` must hold exactly ``rows*cols`` entries."""
    v = np.asarray(v).reshape(-1)
    if v.size != rows * cols:
        raise ValueError(f"cannot unvec {v.size} entries into {rows}x{cols}")
    return v.reshape((rows, cols), order="F")


def mode_n_product(t: np.ndarray, m: np.ndarray, mode: int) -> np.ndarray:
    """Multiply ``m`` into ``t`` along ``mode``.

    Satisfies ``unfold(result, mode) == m @ unfold(t, mode)``.
    """
    t = np.asarray(t)
    m = np.atleast_2d(np.asarray(m))
    if t.ndim != 3:
        raise ValueError(f"expected a third-order tensor, got ndim={t.ndim}")
    if mode not in (1, 2, 3):
        raise ValueError(f"mode must be 1, 2 or 3, got {mode}")
    if m.shape[1] != t.shape[mode - 1]:
        raise ValueError(
            f"matrix has {m.shape[1]} columns but tensor mode {mode} "
            f"has size {t.shape[mode - 1]}"
        )
    if mode == 1:
        return np.einsum("ai,ijk->ajk", m, t)
    if mode == 2:
        return np.einsum("aj,ijk->iak", m, t)
    return np.einsum("ak,ijk->ija", m, t)


def modewise_contraction(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Slice-wise matrix product of two tensors sharing their third dimension.

    Frontal slice ``k`` of the result is ``a[:, :, k] @ b[:, :, k]``; requires
    ``a.shape[1] == b.shape[0]`` and ``a.shape[2] == b.shape[2]``.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 3 or b.ndim != 3:
        raise ValueError("modewise_contraction expects two third-order tensors")
    if a.shape[2] != b.shape[2]:
        raise ValueError(
            f"third dimensions differ: {a.shape[2]} vs {b.shape[2]}"
        )
    if a.shape[1] != b.shape[0]:
        raise ValueError(
            f"slice shapes do not chain: {a.shape[:2]} x {b.shape[:2]}"
        )
    return np.einsum("ilk,ljk->ijk", a, b)


def identity_tensor(n: int) -> np.ndarray:
    t = np.zeros((n, n, n))
    for i in range(n):
        t[i, i, i] = 1.0
    return t


def coded_symbol_tensor(coding, symbols) -> np.ndarray:
    """Coded symbols as a tensor of shape (l, t, k)."""
    if coding.scheme == "tstc":
        return mode_n_product(coding.code, symbols.T, 2)
    core = identity_tensor(coding.mix.shape[1]).astype(complex)
    return mode_n_product(mode_n_product(core, symbols.T, 2), coding.code, 3)


def sensed_tensor_form(channels, coding, symbols) -> np.ndarray:
    """Noiseless sensed tensor via the decoupled tensor model."""
    effective = mode_n_product(coding.sensing, channels.ut_ris.T, 2)   # (nc, l, k)
    return modewise_contraction(effective, coded_symbol_tensor(coding, symbols))


def reflected_tensor_form(channels, coding, symbols) -> np.ndarray:
    """Noiseless reflected tensor via the identity-core cascade model."""
    n = coding.elements
    cascade = identity_tensor(n).astype(complex)
    cascade = mode_n_product(cascade, channels.ris_bs, 1)
    cascade = mode_n_product(cascade, channels.ut_ris.T, 2)
    cascade = mode_n_product(cascade, coding.reflect, 3)               # (m, l, k)
    return modewise_contraction(cascade, coded_symbol_tensor(coding, symbols))


def sensed_scalar(channels, coding, symbols, ic: int, it: int, ik: int) -> complex:
    """Raw quadruple-sum for one sensed entry."""
    g = channels.ut_ris
    total = 0.0 + 0.0j
    n_el, l = g.shape
    streams = symbols.shape[0]
    for n in range(n_el):
        for il in range(l):
            for ir in range(streams):
                mix = coding.mix[ik][il, ir]
                total += coding.sensing[ic, n, ik] * g[n, il] * mix * symbols[ir, it]
    return total


def reflected_scalar(channels, coding, symbols, im: int, it: int, ik: int) -> complex:
    """Raw quintuple-sum for one reflected entry."""
    g, h = channels.ut_ris, channels.ris_bs
    total = 0.0 + 0.0j
    n_el, l = g.shape
    streams = symbols.shape[0]
    for n in range(n_el):
        for il in range(l):
            for ir in range(streams):
                mix = coding.mix[ik][il, ir]
                total += h[im, n] * coding.reflect[ik, n] * g[n, il] * mix * symbols[ir, it]
    return total


def with_noise(y: np.ndarray, cfg, rng: np.random.Generator) -> np.ndarray:
    """``y`` plus noise of the config's power, drawn from ``rng`` as a trial draws it."""
    return y + draw_noise(y.shape, cfg.noise_watts, rng)


def sensed_channel_regressor(coding: CodingSet, symbols: np.ndarray) -> np.ndarray:
    """The surface ALS channel step's regressor at ``symbols``, read off the composite problem as ``hris_bals``'
    SVD fallback reads it: rows ``(k, c, tau)``, columns ``vec(G)``."""
    f = hris_rx.composite_code_matrix(coding)
    return channel_problem(lambda: (f, np.zeros((len(f), symbols.shape[1]))), coding.mix.shape[1], symbols)[0]


def reflected_channel_regressor(blocks: np.ndarray, symbols: np.ndarray) -> np.ndarray:
    """The BS ALS channel step's regressor at ``symbols``, read off the Kronecker problem of a slice's ``(n, k, w)``
    blocks as ``bs_bals``' SVD fallback reads it: ``(B_k X)^T`` stacked over ``k``, rows ``(k, tau)``."""
    y = np.zeros((1, symbols.shape[1], blocks.shape[1]))      # only the regressor is read
    return channel_problem(bs_rx.kronecker_problem(y, blocks)[2], 1, symbols)[0]


@dataclass
class RankReport:
    """Observed block ranks of one realization against their upper bounds."""

    kappa_g: int
    kappa_h: int
    kappa_x: int
    zeta_x: int          # largest rank of a sensed symbol-step block
    zeta_x_bound: int
    xi_x: int            # largest rank of a reflected symbol-step block
    xi_x_bound: int
    xi_h: int            # largest rank of a BS channel-step block
    xi_h_bound: int
    fg_bar_rank: int     # rank of the assembled surface channel-step matrix
    fg_bar_bound: int
    ok: bool


def rank_bounds(cfg: ScenarioConfig, realization: ChannelRealization,
                coding: CodingSet, symbols: np.ndarray) -> RankReport:
    """Evaluate the per-block rank bounds on a concrete realization."""
    g, h = realization.ut_ris, realization.ris_bs
    kappa_g = numerical_rank(g)
    kappa_h = numerical_rank(h)
    kappa_x = numerical_rank(symbols)
    width = coding.streams

    def max_block_rank(stack):
        return max(spectral_rank(s) for s in np.linalg.svd(stack, compute_uv=False))

    zeta_x = max_block_rank(hris_rx.symbol_code_matrix(coding, g).reshape(cfg.k, cfg.nc, -1))
    blocks = reflect_blocks(coding, g)
    xi_x = max_block_rank(bs_rx.symbol_code_matrix(blocks, h).reshape(cfg.k, cfg.m, -1))
    xi_h = max_block_rank(reflected_channel_regressor(blocks, symbols).reshape(cfg.k, cfg.t, -1))   # (B_k X)^T
    fg_bar_rank = numerical_rank(sensed_channel_regressor(coding, symbols))

    # kappa_g <= l, so the width bound only binds for tstc.
    zeta_bound = min(cfg.nc, kappa_g, width)
    xi_x_bound = min(kappa_h, kappa_g, width)
    xi_h_bound = min(kappa_g, kappa_x)
    fg_bar_bound = min(cfg.k * cfg.nc * kappa_x, cfg.l * cfg.n)

    ok = zeta_x <= zeta_bound and xi_x <= xi_x_bound and xi_h <= xi_h_bound and fg_bar_rank <= fg_bar_bound
    return RankReport(kappa_g, kappa_h, kappa_x,
                      zeta_x, zeta_bound, xi_x, xi_x_bound, xi_h, xi_h_bound,
                      fg_bar_rank, fg_bar_bound, ok)
