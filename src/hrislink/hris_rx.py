"""Semi-blind joint channel/symbol estimation at the sensing surface.

Three receivers operate on the sensed tensor ``(nc, t, k)``:

* :func:`hris_bals` alternates two exact least-squares steps (channel step
  on the vectorized mode-3 unfolding, symbol step on the transposed mode-2
  unfolding), each a normal-equation solve, until the reconstruction
  residual stagnates; the channel step forms its Gram from the Kronecker
  structure and builds its explicit regressor only for the SVD fallback;
* :func:`hris_kronf` (tstc) recovers the Kronecker-structured composite of
  channel and symbols in one least-squares solve, then splits it with a
  rank-1 factorization after a block rearrangement;
* :func:`hris_krf` (krstc) does the same for the column-wise Khatri-Rao
  structured composite, with one rank-1 problem per stream.

Each regressor is one batched product over the coding set's sub-frame
stacks.  The closed-form receivers share one rank-checked pseudo-inverse of
the composite regressor per coding set (:func:`composite_pinv`).

Every receiver ends by removing the scaling ambiguity against the anchor
symbols (one scalar for tstc, one per stream for krstc), unless
``remove_scaling=False`` (useful to inspect the raw, mutually compensating
estimates).
"""

from __future__ import annotations

import math

import numpy as np

from .coding import CodingSet
from .rx_common import (
    EstimateReport,
    check_received,
    init_symbols,
    normalize_anchor,
    require_full_rank,
    run_als,
)
from .tensor_ops import rank1_approx, solve_gram, unfold, unvec, vec
from .tensor_ops import pinv  # noqa: F401 -- perfbench/tracing.py wraps hris_rx.pinv by name


def _stacked_kron(left: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """``kron(left_k, phi_k)`` stacked over ``k``: ``(k*a*nc, b*n)`` from ``left`` of shape ``(k, a, b)``."""
    (k, a, b), (_, nc, n) = left.shape, phi.shape
    return (left[:, :, None, :, None] * phi[:, None, :, None, :]).reshape(k * a * nc, b * n)


def channel_code_matrix(coding: CodingSet, symbols: np.ndarray) -> np.ndarray:
    """Channel-step regressor: ``kron((mix_k @ X).T, phi_k)`` stacked over ``k``.

    Applied to ``vec(G)`` it gives the stacked ``vec(phi_k @ G @ mix_k @ X)``.
    """
    return _stacked_kron((coding.mix @ symbols).transpose(0, 2, 1), coding.phi)


def symbol_code_matrix(coding: CodingSet, channel: np.ndarray) -> np.ndarray:
    """Symbol-step regressor: ``phi_k @ G @ mix_k`` stacked over ``k``, shape ``(k*nc, w)``."""
    return ((coding.phi @ channel) @ coding.mix).reshape(-1, coding.streams)


def composite_code_matrix(coding: CodingSet) -> np.ndarray:
    """Composite regressor: ``kron(w_k.T, phi_k)`` stacked over ``k``.

    ``w_k`` is ``vec(mix_k.T)`` for tstc (``l*r*n`` columns) or code row
    ``k`` for krstc (``l*n`` columns).
    """
    weights = coding.mix.reshape(coding.subframes, -1) if coding.scheme == "tstc" else coding.code
    return _stacked_kron(weights[:, None, :], coding.phi)


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
    init_seed: int = 0,
    remove_scaling: bool = True,
) -> EstimateReport:
    """Alternating least-squares estimation of the UT-side channel and symbols."""
    d = check_received(y_rc, coding, "hris_bals")
    n, l, t, k = d.n, d.l, d.t, d.k
    phi_h = coding.phi.reshape(-1, n).conj().T                      # Phi^H, (n, k*nc)
    # phi_k^H Y_k side by side, (n, k*t), fixed within the call
    phi_h_y = (coding.phi.conj().transpose(0, 2, 1) @ y_rc.transpose(2, 0, 1)).transpose(1, 0, 2).reshape(n, -1)

    def channel_step(x_hat):
        # The regressor stacks kron(M_k^T, phi_k), M_k = mix_k X: its Gram is
        # sum_k kron(conj(M_k) M_k^T, phi_k^H phi_k), its right-hand side vec(sum_k phi_k^H Y_k M_k^H)
        m_k = (coding.mix.reshape(-1, d.w) @ x_hat).reshape(k, l, t)
        a_k = m_k.conj() @ m_k.transpose(0, 2, 1)                   # (k, l, l)
        weighted = (a_k[:, None, :, :, None] * coding.phi[:, :, None, None, :]).reshape(-1, l * l * n)
        gram = (phi_h @ weighted).reshape(n, l, l, n).transpose(1, 0, 2, 3).reshape(l * n, l * n)
        rhs = vec(phi_h_y @ m_k.conj().transpose(0, 2, 1).reshape(k * t, l))
        g_vec, fell_back = solve_gram(gram, rhs, lambda: (channel_code_matrix(coding, x_hat), vec(unfold(y_rc, 3).T)))
        return unvec(g_vec, n, l), fell_back

    report = run_als(y_rc, init_symbols(d.w, d.t, init_seed), channel_step,
                     lambda g_hat: symbol_code_matrix(coding, g_hat))
    return normalize_anchor(report, per_stream=coding.scheme == "krstc") if remove_scaling else report


def hris_kronf(y_rc: np.ndarray, coding: CodingSet, remove_scaling: bool = True) -> EstimateReport:
    """Closed-form tstc receiver via Kronecker factorization of the composite."""
    d = check_received(y_rc, coding, "hris_kronf")
    n, l, r, t = d.n, d.l, d.w, d.t
    composite = unfold(y_rc, 2) @ composite_pinv(coding).T
    rearranged = composite.reshape(t, l, r, n).transpose(2, 0, 1, 3).reshape(r * t, l * n)
    u, sigma, v = rank1_approx(rearranged)
    g_hat = (math.sqrt(sigma) * v.conj()).reshape(l, n).T
    x_hat = (math.sqrt(sigma) * u).reshape(r, t)
    report = EstimateReport(g_hat, x_hat)
    return normalize_anchor(report, per_stream=False) if remove_scaling else report


def hris_krf(y_rc: np.ndarray, coding: CodingSet, remove_scaling: bool = True) -> EstimateReport:
    """Closed-form krstc receiver via per-stream Khatri-Rao factorization."""
    d = check_received(y_rc, coding, "hris_krf")
    n, l, t = d.n, d.l, d.t
    composite = (unfold(y_rc, 2) @ composite_pinv(coding).T).reshape(t, l, n)
    g_hat = np.empty((n, l), dtype=complex)
    x_hat = np.empty((l, t), dtype=complex)
    for col in range(l):
        u, sigma, v = rank1_approx(composite[:, col])
        g_hat[:, col] = math.sqrt(sigma) * v.conj()
        x_hat[col] = math.sqrt(sigma) * u
    report = EstimateReport(g_hat, x_hat)
    return normalize_anchor(report, per_stream=True) if remove_scaling else report
