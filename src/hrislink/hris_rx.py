"""Semi-blind joint channel/symbol estimation at the sensing surface.

Three receivers operate on the sensed tensor ``(nc, t, k)``:

* :func:`hris_bals` alternates two exact least-squares steps (channel step
  on the vectorized mode-3 unfolding, symbol step on the transposed mode-2
  unfolding) until the reconstruction residual stagnates;
* :func:`hris_kronf` (tstc) recovers the Kronecker-structured composite of
  channel and symbols in one least-squares solve, then splits it with a
  rank-1 factorization after a block rearrangement;
* :func:`hris_krf` (krstc) does the same for the column-wise Khatri-Rao
  structured composite, with one rank-1 problem per stream.

The closed-form receivers share one rank-checked pseudo-inverse of the
composite regressor per coding set (:func:`composite_pinv`).

Every receiver ends by removing the scaling ambiguity against the anchor
symbols, unless ``remove_scaling=False`` (useful to inspect the raw,
mutually compensating estimates).
"""

from __future__ import annotations

import math

import numpy as np

from .coding import CodingSet
from .rx_common import (
    BalsOptions,
    EstimateReport,
    check_received,
    init_symbols,
    normalize_anchor,
    require_full_rank,
    run_als,
)
from .tensor_ops import pinv, rank1_approx, unfold, unvec, vec


def channel_code_matrix(coding: CodingSet) -> np.ndarray:
    """Static regressor of the channel step: stacked ``kron(mix_k.T, phi_k)`` blocks."""
    return np.vstack([
        np.kron(coding.mix_matrix(k).T, coding.sensing[:, :, k])
        for k in range(coding.subframes)
    ])


def symbol_code_matrix(coding: CodingSet, channel: np.ndarray) -> np.ndarray:
    """Regressor of the symbol step: stacked ``phi_k @ channel @ mix_k`` blocks."""
    return np.vstack([
        coding.sensing[:, :, k] @ channel @ coding.mix_matrix(k)
        for k in range(coding.subframes)
    ])


def composite_code_matrix(coding: CodingSet) -> np.ndarray:
    """Regressor of the one-shot composite estimate.

    Block ``k`` is ``kron(vec(mix_k.T).T, phi_k)`` for tstc or
    ``kron(code_row_k.T, phi_k)`` for krstc, so the column count is
    ``l*r*n`` vs ``l*n``.
    """
    blocks = []
    for k in range(coding.subframes):
        if coding.scheme == "tstc":
            vk = vec(coding.mix_matrix(k).T)
        else:
            vk = coding.code[k]
        blocks.append(np.kron(vk[None, :], coding.sensing[:, :, k]))
    return np.vstack(blocks)


def composite_pinv(coding: CodingSet) -> np.ndarray:
    """Pseudo-inverse of the full-column-rank composite regressor, once per coding set.

    Raises :class:`RankDeficiencyError` on every call for a coding whose
    composite regressor is rank deficient.
    """
    def build(coding):
        fxg = composite_code_matrix(coding)
        return require_full_rank(fxg, fxg.shape[1], "composite code matrix")
    return coding.cached("hris_composite_pinv", build)


def hris_bals(
    y_rc: np.ndarray,
    coding: CodingSet,
    opts: BalsOptions | None = None,
    remove_scaling: bool = True,
) -> EstimateReport:
    """Alternating least-squares estimation of the UT-side channel and symbols."""
    opts = opts or BalsOptions()
    d = check_received(y_rc, coding, "hris_bals")
    y2t = unfold(y_rc, 2).T                 # (k*nc, t): stacked sensed slices
    y_vec = vec(unfold(y_rc, 3).T)          # (k*t*nc,): stacked vec'd slices

    def step(x_hat):
        channel_step = np.vstack([
            np.kron((coding.mix_matrix(kk) @ x_hat).T, coding.sensing[:, :, kk])
            for kk in range(d.k)
        ])
        g_hat = unvec(pinv(channel_step) @ y_vec, d.n, d.l)
        fx = symbol_code_matrix(coding, g_hat)
        x_hat = pinv(fx) @ y2t
        return g_hat, x_hat, float(np.linalg.norm(y2t - fx @ x_hat) ** 2)

    report = run_als(step, init_symbols(d.w, d.t, opts.init_seed), y_rc, opts)
    return remove_ambiguity_hris(report, coding.scheme) if remove_scaling else report


def hris_kronf(y_rc: np.ndarray, coding: CodingSet, remove_scaling: bool = True) -> EstimateReport:
    """Closed-form tstc receiver via Kronecker factorization of the composite."""
    d = check_received(y_rc, coding, "hris_kronf")
    n, l, r, t = d.n, d.l, d.w, d.t
    # vec of the composite solves (pinv(fxg) x I_t) @ vec(mode-2 unfolding).
    composite = unvec(vec(unfold(y_rc, 2) @ composite_pinv(coding).T), n * t, l * r)
    rearranged = composite.reshape(n, t, l, r).transpose(3, 1, 2, 0).reshape(r * t, l * n)
    u, sigma, v = rank1_approx(rearranged)
    g_hat = unvec(math.sqrt(sigma) * v.conj(), n, l)
    x_hat = unvec(math.sqrt(sigma) * u, t, r).T
    report = EstimateReport(g_hat, x_hat)
    return remove_ambiguity_hris(report, coding.scheme) if remove_scaling else report


def hris_krf(y_rc: np.ndarray, coding: CodingSet, remove_scaling: bool = True) -> EstimateReport:
    """Closed-form krstc receiver via per-stream Khatri-Rao factorization."""
    d = check_received(y_rc, coding, "hris_krf")
    n, l, t = d.n, d.l, d.t
    composite = unvec(vec(unfold(y_rc, 2) @ composite_pinv(coding).T), n * t, l)
    g_hat = np.empty((n, l), dtype=complex)
    x_hat = np.empty((l, t), dtype=complex)
    for col in range(l):
        u, sigma, v = rank1_approx(unvec(composite[:, col], t, n))
        g_hat[:, col] = math.sqrt(sigma) * v.conj()
        x_hat[col] = math.sqrt(sigma) * u
    report = EstimateReport(g_hat, x_hat)
    return remove_ambiguity_hris(report, coding.scheme) if remove_scaling else report


def remove_ambiguity_hris(report: EstimateReport, scheme: str) -> EstimateReport:
    """Normalize estimates against the anchor symbols.

    tstc: divide the symbols by the (0, 0) anchor and absorb it into the
    channel.  krstc: same per stream, using the all-ones first column.
    """
    return normalize_anchor(report, per_stream=scheme == "krstc")
