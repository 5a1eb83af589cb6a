"""Semi-blind estimation at the BS, given the fed-back surface estimates.

The BS knows the reflecting phase shifts and the transmit code, and receives
the estimated UT-side channel over the control link (scenario 1) or both
that channel and the decoded symbols (scenario 2).  Receivers:

* :func:`bs_bals`: alternating least-squares over the BS-side channel
  (mode-1 unfolding) and the symbols (transposed mode-2 unfolding), each
  a normal-equation solve.  Two tables built once per call from the blocks
  below give the channel step's Gram and right-hand side: a ``(w*w, n*n)``
  Gram table and a ``(w*t, n*m)`` cross table with the received signal
  (64 KB and 32 KB at the default sizes), contracted per iteration with
  ``conj(X) X^T`` and ``conj(X)``.  The explicit regressor is built only for the
  SVD fallback;
* :func:`bs_kronf`: one least-squares solve for the Kronecker-structured
  composite of symbols and BS-side channel, then a rank-1 split;
* :func:`bs_channel_only`: the scenario-2 shortcut, a single least-squares
  solve for the BS-side channel with symbols known.

Every regressor, for both coding schemes, is built from one stack of the
blocks ``diag(psi_k) @ G @ mix_k`` (times ``X``, times ``H``, or vectorized).

Both closed-form solves apply the pseudo-inverse straight to the received
unfolding and run no SVD when a Cholesky factor ``U`` of the small Gram
certifies full rank (:func:`~hrislink.rx_common.require_full_rank`):
``sqrt(tr(a^H a)) |U^{-1}|_F`` bounds ``sigma_max / sigma_min``, so the SVD
rank rule would agree.

The scaling ambiguity at the BS is a single complex scalar for both coding
schemes; it is removed against the (0, 0) anchor of the symbol estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import pinv  # noqa: F401 -- perfbench/tracing.py wraps bs_rx.pinv by name

from .coding import CodingSet
from .identifiability import Sizes
from .rx_common import (
    EstimateReport,
    NonFiniteError,
    check_received,
    init_symbols,
    normalize_anchor,
    require_full_rank,
    run_als,
)
from .tensor_ops import rank1_approx, solve_gram, unfold


@dataclass(frozen=True)
class ControlLinkPayload:
    """What the surface controller feeds back to the BS.

    Scenario 1 carries only the UT-side channel estimate; scenario 2
    additionally carries the symbol estimate, already anchored.
    """

    ut_channel: np.ndarray
    symbols: np.ndarray | None = None

    @property
    def scenario(self) -> int:
        return 1 if self.symbols is None else 2


def _check_inputs(y_bs: np.ndarray, payload: ControlLinkPayload, coding: CodingSet, fn: str) -> Sizes:
    """:func:`check_received`, then the fed-back ``(n, l)`` channel and, if sent, ``(streams, t)`` symbols.

    A wrong shape raises ``ValueError``, a non-finite entry :class:`NonFiniteError`.
    """
    d = check_received(y_bs, coding, fn)
    for name, shape in (("ut_channel", (d.n, d.l)), ("symbols", (d.w, d.t))):
        value = getattr(payload, name)
        if value is not None and np.shape(value) != shape:
            raise ValueError(f"fed-back {name} must be {shape}, got {np.shape(value)}")
        if value is not None and not np.isfinite(value).all():
            raise NonFiniteError(f"fed-back {name} has non-finite entries")
    return d


def _reflect_blocks(coding: CodingSet, ut_channel: np.ndarray) -> np.ndarray:
    """Effective source matrices ``diag(psi_k) @ G @ mix_k``, stacked: ``(k, n, streams)``."""
    return coding.reflect[:, :, None] * (ut_channel @ coding.mix)


def channel_code_matrix(coding: CodingSet, ut_channel: np.ndarray, symbols: np.ndarray) -> np.ndarray:
    """Channel-step regressor: the blocks ``diag(psi_k) @ G @ mix_k @ X`` side by side, ``(n, k*t)``."""
    blocks = _reflect_blocks(coding, ut_channel) @ symbols          # (k, n, t)
    return blocks.transpose(1, 0, 2).reshape(coding.elements, -1)


def symbol_code_matrix(coding: CodingSet, ut_channel: np.ndarray, bs_channel: np.ndarray) -> np.ndarray:
    """Symbol-step regressor: the blocks ``H @ diag(psi_k) @ G @ mix_k`` stacked, ``(k*m, streams)``."""
    return (bs_channel @ _reflect_blocks(coding, ut_channel)).reshape(-1, coding.streams)


def bs_bals(y_bs: np.ndarray, payload: ControlLinkPayload, coding: CodingSet, init_seed: int = 0) -> EstimateReport:
    """Alternating least-squares estimation of the BS-side channel and symbols."""
    d = _check_inputs(y_bs, payload, coding, "bs_bals")
    n, w, t, k, m = d.n, d.w, d.t, d.k, d.m
    g = payload.ut_channel
    blocks = _reflect_blocks(coding, g)                              # B_k, (k, n, w)
    b_cat = blocks.transpose(1, 0, 2).reshape(n, -1)                # [B_1 ... B_K], (n, k*w)
    b_kw = blocks.transpose(1, 2, 0).reshape(-1, k)                 # b_kw[(i, s), k] = B_k[i, s], (n*w, k)
    b_conj = b_kw.conj()
    # The channel step solves h_hat C = y1, C = [B_1 X ... B_K X], as C^T h_hat^T = y1^T.  With
    # P = conj(X X^H) = conj(X) X^T, its Gram conj(C C^H) is P.ravel() @ gram_table and its
    # right-hand side conj(C) y1^T is conj(X).ravel() @ cross, from two tables fixed within the call:
    #   gram_table[(s, s'), (i, j)] = sum_k conj(B_k[i, s]) B_k[j, s'],  (w*w, n*n)
    #   cross[(s, tau), (i, r)]     = sum_k conj(B_k[i, s]) Y_k[r, tau], (w*t, n*m)
    gram_table = (b_conj @ b_kw.T).reshape(n, w, n, w).transpose(1, 3, 0, 2).reshape(w * w, n * n)
    cross = (b_conj @ y_bs.reshape(m * t, k).T).reshape(n, w, m, t).transpose(1, 3, 0, 2).reshape(w * t, n * m)

    def channel_step(x_hat):
        x_conj = x_hat.conj()
        gram = ((x_conj @ x_hat.T).reshape(-1) @ gram_table).reshape(n, n)
        rhs = (x_conj.reshape(-1) @ cross).reshape(n, m)
        h_t, fell_back = solve_gram(gram, rhs, lambda: (channel_code_matrix(coding, g, x_hat).T, unfold(y_bs, 1).T))
        return h_t.T, fell_back

    # the symbol regressor stacks H B_k over k, from the one product H [B_1 ... B_K]
    report = run_als(y_bs, init_symbols(w, t, init_seed), channel_step,
                     lambda h_hat: (h_hat @ b_cat).reshape(m, k, w).transpose(1, 0, 2).reshape(-1, w))
    return normalize_anchor(report, per_stream=False)


def bs_kronf(y_bs: np.ndarray, payload: ControlLinkPayload, coding: CodingSet) -> EstimateReport:
    """Closed-form estimation via Kronecker factorization of the composite.

    Column ``k`` of the composite right factor is ``vec(diag(psi_k) @ G @ mix_k)``.
    """
    d = _check_inputs(y_bs, payload, coding, "bs_kronf")
    m, t, n, streams = d.m, d.t, d.n, d.w
    blocks = _reflect_blocks(coding, payload.ut_channel)           # (k, n, streams)
    right = blocks.transpose(0, 2, 1).reshape(d.k, -1).T            # (streams*n, k)
    composite = require_full_rank(unfold(y_bs, 3).T, right, streams * n, "composite right factor")  # (t*m, streams*n)
    rearranged = composite.reshape(t, m, streams, n).transpose(3, 1, 2, 0).reshape(n * m, streams * t)
    u, sigma, v = rank1_approx(rearranged)
    h_hat = (math.sqrt(sigma) * u).reshape(n, m).T
    x_hat = (math.sqrt(sigma) * v.conj()).reshape(streams, t)
    return normalize_anchor(EstimateReport(h_hat, x_hat), per_stream=False)


def bs_channel_only(y_bs: np.ndarray, payload: ControlLinkPayload, coding: CodingSet) -> EstimateReport:
    """Single least-squares solve for the BS-side channel (scenario 2).

    Uses the fed-back channel and symbol estimates as-is; any residual
    scaling they carry is inherited, so no anchor normalization is applied.
    """
    if payload.symbols is None:
        raise ValueError("the channel-only receiver needs a scenario-2 payload with symbols")
    n = _check_inputs(y_bs, payload, coding, "bs_channel_only").n
    channel_step = channel_code_matrix(coding, payload.ut_channel, payload.symbols)
    h_hat = require_full_rank(unfold(y_bs, 1), channel_step, n, "channel-step regressor")
    return EstimateReport(h_hat, np.array(payload.symbols, copy=True))
