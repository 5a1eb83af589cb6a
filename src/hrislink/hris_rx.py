"""Semi-blind joint channel/symbol estimation at the sensing surface.

Three receivers operate on the sensed tensor ``(nc, t, k)``:

* :func:`hris_bals` runs the shared ALS loop
  (:func:`~hrislink.rx_common.run_als`) on ``vec(G)`` (the vectorized
  mode-3 unfolding) and the symbols (the transposed mode-2 unfolding).  It
  supplies the channel step's ``(w*w, (l*n)**2)`` Gram table, kept per
  coding set (:func:`channel_gram_table`), a ``(w*t, l*n)`` cross table
  with the received signal, built once per call (256 KB and 8 KB at the
  default sizes), the explicit regressor for the SVD fallback and the
  symbol regressor;
* :func:`hris_kronf` (tstc) recovers the Kronecker-structured composite of
  channel and symbols in one least-squares solve, then splits it with a
  rank-1 factorization after a block rearrangement;
* :func:`hris_krf` (krstc) does the same for the column-wise Khatri-Rao
  structured composite, with one rank-1 problem per stream.

Both closed-form receivers also take stacks ``(s, nc, t, k)``, slice for slice exact.

Each regressor is one batched product over the coding set's sub-frame
stacks.  The closed-form receivers share one rank-checked pseudo-inverse of
the composite regressor per coding set (:func:`composite_pinv`).

Every receiver ends by removing the scaling ambiguity against the anchor
symbols (one scalar for tstc, one per stream for krstc).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.linalg import pinv  # noqa: F401 -- perfbench/tracing.py wraps hris_rx.pinv by name

from .coding import CODINGS_KEPT, CodingSet
from .rx_common import (
    EstimateReport,
    check_received,
    init_symbols,
    normalize_anchor,
    require_full_rank,
    run_als,
)
from .tensor_ops import rank1_approx, unfold, vec


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
    """Symbol-step regressor: ``phi_k @ G @ mix_k`` stacked over ``k``, shape ``(k*nc, w)``.

    The stacked ``phi_k @ G`` is one product of ``(k*nc, n)`` and ``(n, l)``.
    """
    k, nc, n = coding.phi.shape
    return ((coding.phi.reshape(-1, n) @ channel).reshape(k, nc, -1) @ coding.mix).reshape(-1, coding.streams)


def composite_code_matrix(coding: CodingSet) -> np.ndarray:
    """Composite regressor: ``kron(w_k.T, phi_k)`` stacked over ``k``.

    ``w_k`` is ``vec(mix_k.T)`` for tstc (``l*r*n`` columns) or code row
    ``k`` for krstc (``l*n`` columns).
    """
    weights = coding.mix.reshape(coding.subframes, -1) if coding.scheme == "tstc" else coding.code
    return _stacked_kron(weights[:, None, :], coding.phi)


@lru_cache(maxsize=CODINGS_KEPT)
def composite_pinv(coding: CodingSet) -> np.ndarray:
    """Pseudo-inverse of the full-column-rank composite regressor, once per coding set.

    The result is read-only and shared; the last ``CODINGS_KEPT`` codings keep
    theirs.  A coding whose composite regressor is rank deficient raises
    :class:`RankDeficiencyError` on every call.
    """
    fxg = composite_code_matrix(coding)
    fxg_h = fxg.conj().T
    inverse = require_full_rank(fxg_h @ fxg, fxg_h, lambda: (fxg, np.eye(len(fxg), dtype=fxg.dtype)),
                                "composite code matrix")
    inverse.flags.writeable = False
    return inverse


@lru_cache(maxsize=CODINGS_KEPT)
def channel_gram_table(coding: CodingSet) -> np.ndarray:
    """The table ``T`` that gives the channel-step Gram as ``(conj(X) @ X.T).ravel() @ T``, once per coding set.

    With ``M_k = mix_k @ X`` the Gram ``sum_k kron(conj(M_k) M_k^T, phi_k^H phi_k)``
    is ``sum_{s,s'} (conj(X) X^T)[s, s'] T_{ss'}``, where row ``(s, s')`` of ``T``
    holds ``T_{ss'} = sum_k kron(conj(mix_k[:, s]) mix_k[:, s']^T, phi_k^H phi_k)``.
    ``T`` is ``(w*w, (l*n)**2)``: ``16 w^2 l^2 n^2`` bytes, 256 KB at the default
    sizes.  The result is read-only and shared; the last ``CODINGS_KEPT`` codings keep theirs.
    """
    (k, l, w), n = coding.mix.shape, coding.elements
    mix_t = coding.mix.transpose(0, 2, 1)                           # mix_k^T, (k, w, l)
    outer = (mix_t.conj()[:, :, None, :, None] * mix_t[:, None, :, None, :]).reshape(k, -1)  # (k, (s, s', a, b))
    phi_gram = (coding.phi.conj().transpose(0, 2, 1) @ coding.phi).reshape(k, -1)             # (k, (i, j))
    table = (outer.T @ phi_gram).reshape(w, w, l, l, n, n).transpose(0, 1, 2, 4, 3, 5).reshape(w * w, -1)
    table.flags.writeable = False
    return table


def hris_bals(y_rc: np.ndarray, coding: CodingSet, init_seed: int = 0) -> EstimateReport:
    """Alternating least-squares estimation of the UT-side channel and symbols."""
    d = check_received(y_rc, coding, "hris_bals")
    n, l, w, t, k = d.n, d.l, d.w, d.t, d.k
    # The right-hand side vec(sum_k phi_k^H Y_k M_k^H) is conj(X).ravel() @ cross, from a table
    # fixed within the call: cross[(s, tau), (a, i)] = sum_k conj(mix_k[a, s]) (phi_k^H Y_k)[i, tau], (w*t, l*n)
    phi_h_y = coding.phi.conj().transpose(0, 2, 1) @ y_rc.transpose(2, 0, 1)          # (k, n, t)
    cross = (coding.mix.conj().reshape(k, -1).T @ phi_h_y.reshape(k, -1)).reshape(l, w, n, t)
    cross = cross.transpose(1, 3, 0, 2).reshape(w * t, l * n)
    # the solution is vec(G), so G = solution.reshape(l, n).T
    report = run_als(y_rc, channel_gram_table(coding), cross, (l, n),
                     lambda x_hat: (channel_code_matrix(coding, x_hat), vec(unfold(y_rc, 3).T)),
                     lambda g_hat: symbol_code_matrix(coding, g_hat), init_symbols(w, t, init_seed))
    return normalize_anchor(report, per_stream=coding.scheme == "krstc")


def hris_kronf(y_rc: np.ndarray, coding: CodingSet) -> EstimateReport:
    """Closed-form tstc receiver via Kronecker factorization of the composite; ``y_rc`` may be a stack."""
    d = check_received(y_rc, coding, "hris_kronf")
    n, l, r, t, lead = d.n, d.l, d.w, d.t, y_rc.shape[:-3]
    composite = unfold(y_rc, 2) @ composite_pinv(coding).T
    rearranged = np.moveaxis(composite.reshape(*lead, t, l, r, n), -2, -4).reshape(*lead, r * t, l * n)
    u, sigma, v = rank1_approx(rearranged)
    root = np.sqrt(sigma)[..., None]
    g_hat = (root * v.conj()).reshape(*lead, l, n).swapaxes(-1, -2)
    x_hat = (root * u).reshape(*lead, r, t)
    return normalize_anchor(EstimateReport(g_hat, x_hat), per_stream=False)


def hris_krf(y_rc: np.ndarray, coding: CodingSet) -> EstimateReport:
    """Closed-form krstc receiver via per-stream Khatri-Rao factorization; ``y_rc`` may be a stack."""
    d = check_received(y_rc, coding, "hris_krf")
    n, l, t, lead = d.n, d.l, d.t, y_rc.shape[:-3]
    composite = (unfold(y_rc, 2) @ composite_pinv(coding).T).reshape(*lead, t, l, n)
    u, sigma, v = rank1_approx(np.moveaxis(composite, -2, -3))      # one (t, n) split per stream
    root = np.sqrt(sigma)[..., None]
    return normalize_anchor(EstimateReport((root * v.conj()).swapaxes(-1, -2), root * u), per_stream=True)
