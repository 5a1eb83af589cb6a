"""Semi-blind joint channel/symbol estimation at the sensing surface.

All three receivers fit the sensed tensor ``(nc, t, k)``, ``Y_k = phi_k G mix_k X``, through one least-squares
problem per coding set (:func:`composite_problem`), ``F @ Z = unfold(y, 2).T`` with ``Z[(a, s, i), tau] =
G[i, a] X[s, tau]`` and the composite regressor ``F``, ``kron(vec(mix_k^T)^T, phi_k)`` stacked over ``k``
(:func:`composite_code_matrix`).  It is kept as ``F^H`` and its Gram, 256 KB at the default sizes:

* :func:`hris_kronf` (tstc) and :func:`hris_krf` (krstc) solve it on the columns that carry weight, all of them for
  tstc and ``a == s`` for krstc (:func:`composite_pinv`), then split the composite with one rank-1 factorization,
  or one per stream for krstc; both also take stacks ``(s, nc, t, k)``, slice for slice exact;
* :func:`hris_bals` hands the Gram, the cross ``F^H unfold(y, 2).T`` and the problem itself to the shared ALS
  loop (:func:`~hrislink.rx_common.run_als`), which rearranges them into its channel step on ``vec(G)`` as it does
  the BS's, and reads that step's SVD fallback off ``F`` (:func:`~hrislink.rx_common.channel_problem`); the
  symbol step solves on its own regressor (:func:`symbol_code_matrix`).

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
from .tensor_ops import rank1_approx, unfold


def symbol_code_matrix(coding: CodingSet, channel: np.ndarray) -> np.ndarray:
    """Symbol-step regressor: ``phi_k @ G @ mix_k`` stacked over ``k``, shape ``(k*nc, w)``.

    The stacked ``phi_k @ G`` is one product of ``(k*nc, n)`` and ``(n, l)``.
    """
    k, nc, n = coding.phi.shape
    return ((coding.phi.reshape(-1, n) @ channel).reshape(k, nc, -1) @ coding.mix).reshape(-1, coding.streams)


def composite_code_matrix(coding: CodingSet) -> np.ndarray:
    """Composite regressor ``F``: ``kron(vec(mix_k.T).T, phi_k)`` stacked over ``k``, ``(k*nc, l*w*n)`` with
    columns ``(a, s, i)``; only the ``a == s`` columns, ``kron(code[k], phi_k)``, carry weight for krstc."""
    mix = coding.mix.reshape(coding.subframes, 1, -1, 1)
    return (mix * coding.phi[:, :, None, :]).reshape(-1, mix.shape[2] * coding.elements)


@lru_cache(maxsize=CODINGS_KEPT)
def composite_problem(coding: CodingSet) -> tuple[np.ndarray, np.ndarray]:
    """The surface's one least-squares problem, ``F`` of :func:`composite_code_matrix`, as ``(F^H F, F^H)``.

    The Gram is ``sum_k conj(mix_k[a, s]) mix_k[b, s'] (phi_k^H phi_k)[i, j]`` at ``[(a, s, i), (b, s', j)]``,
    ``16 (l w n)^2`` bytes, 256 KB at the default sizes.  Both are read-only and shared; the last
    ``CODINGS_KEPT`` codings keep theirs.
    """
    f = composite_code_matrix(coding)
    f_h = f.conj().T
    gram = f_h @ f
    gram.flags.writeable = f_h.flags.writeable = False
    return gram, f_h


@lru_cache(maxsize=CODINGS_KEPT)
def composite_pinv(coding: CodingSet) -> np.ndarray:
    """Pseudo-inverse of ``F`` on its columns that carry weight, solved from :func:`composite_problem`'s Gram.

    Those are the ``(a, s)`` entries some ``mix_k`` holds: all of them for tstc, ``a == s`` for krstc.  The
    result is read-only and shared; the last ``CODINGS_KEPT`` codings keep theirs.  A coding whose weighted
    columns are rank deficient raises :class:`RankDeficiencyError` on every call.
    """
    gram, f_h = composite_problem(coding)
    cols = np.flatnonzero(np.repeat(coding.mix.any(axis=0).ravel(), coding.elements))
    f_h = f_h[cols]
    inverse = require_full_rank(gram[np.ix_(cols, cols)], f_h, lambda: (
        f_h.conj().T, np.eye(f_h.shape[1], dtype=f_h.dtype)), "composite code matrix")
    inverse.flags.writeable = False
    return inverse


def hris_bals(y_rc: np.ndarray, coding: CodingSet, init_seed: int = 0) -> EstimateReport:
    """Alternating least-squares estimation of the UT-side channel and symbols."""
    d = check_received(y_rc, coding, "hris_bals")
    gram, f_h = composite_problem(coding)
    y2t = unfold(y_rc, 2).T
    # the solution is vec(G), so G = solution.reshape(l, n).T
    report = run_als(y_rc, gram, f_h @ y2t, d.l, (d.l, d.n), lambda: (f_h.conj().T, y2t),
                     lambda g_hat: symbol_code_matrix(coding, g_hat), init_symbols(d.w, d.t, init_seed))
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
