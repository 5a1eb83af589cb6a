"""Semi-blind estimation at the BS, given the fed-back surface estimates.

The BS knows the reflecting phase shifts and the transmit code, and receives
the estimated UT-side channel over the control link (scenario 1) or both
that channel and the decoded symbols (scenario 2).  Receivers:

* :func:`bs_bals`: alternating least-squares over the BS-side channel
  (mode-1 unfolding) and the symbols (transposed mode-2 unfolding), each
  a normal-equation solve; the channel step forms its Gram from the blocks
  below, built once per call, and its explicit regressor only for the SVD
  fallback;
* :func:`bs_kronf`: one least-squares solve for the Kronecker-structured
  composite of symbols and BS-side channel, then a rank-1 split;
* :func:`bs_channel_only`: the scenario-2 shortcut, a single least-squares
  solve for the BS-side channel with symbols known.

Every regressor, for both coding schemes, is built from one stack of the
blocks ``diag(psi_k) @ G @ mix_k`` (times ``X``, times ``H``, or vectorized).

The scaling ambiguity at the BS is a single complex scalar for both coding
schemes; it is removed against the (0, 0) anchor of the symbol estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
from .tensor_ops import rank1_approx, solve_gram, unfold
from .tensor_ops import pinv  # noqa: F401 -- perfbench/tracing.py wraps bs_rx.pinv by name


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


def bs_bals(
    y_bs: np.ndarray,
    payload: ControlLinkPayload,
    coding: CodingSet,
    init_seed: int = 0,
    remove_scaling: bool = True,
) -> EstimateReport:
    """Alternating least-squares estimation of the BS-side channel and symbols."""
    d = check_received(y_bs, coding, "bs_bals")
    g = payload.ut_channel
    blocks = _reflect_blocks(coding, g)                              # B_k, (k, n, w)
    b_cat = blocks.transpose(1, 0, 2).reshape(d.n, -1)              # [B_1 ... B_K], (n, k*w)
    b_conj = b_cat.conj()
    y_cat = y_bs.transpose(1, 2, 0).reshape(d.t, -1)                # [Y_1^T ... Y_K^T], (t, k*m)

    def channel_step(x_hat):
        # h_hat C = y1, C = [B_1 X ... B_K X], solved as C^T h_hat^T = y1^T: the Gram is
        # conj(C C^H) = sum_k conj(B_k) conj(X X^H) B_k^T, the right-hand side sum_k conj(B_k X) Y_k^T
        x_conj = x_hat.conj()
        gram = (b_conj.reshape(-1, d.w) @ (x_conj @ x_hat.T)).reshape(d.n, -1) @ b_cat.T
        rhs = b_conj @ (x_conj @ y_cat).reshape(d.w, d.k, d.m).transpose(1, 0, 2).reshape(-1, d.m)
        h_t, fell_back = solve_gram(gram, rhs, lambda: (channel_code_matrix(coding, g, x_hat).T, unfold(y_bs, 1).T))
        return h_t.T, fell_back

    report = run_als(y_bs, init_symbols(d.w, d.t, init_seed), channel_step,
                     lambda h_hat: (h_hat @ blocks).reshape(-1, d.w))
    return normalize_anchor(report, per_stream=False) if remove_scaling else report


def bs_kronf(
    y_bs: np.ndarray,
    payload: ControlLinkPayload,
    coding: CodingSet,
    remove_scaling: bool = True,
) -> EstimateReport:
    """Closed-form estimation via Kronecker factorization of the composite.

    Column ``k`` of the composite right factor is ``vec(diag(psi_k) @ G @ mix_k)``.
    """
    d = check_received(y_bs, coding, "bs_kronf")
    m, t, n, streams = d.m, d.t, d.n, d.w
    blocks = _reflect_blocks(coding, payload.ut_channel)           # (k, n, streams)
    right = blocks.transpose(0, 2, 1).reshape(d.k, -1).T            # (streams*n, k)
    inverse = require_full_rank(right, streams * n, "composite right factor")
    composite = unfold(y_bs, 3).T @ inverse                         # (t*m, streams*n)
    rearranged = composite.reshape(t, m, streams, n).transpose(3, 1, 2, 0).reshape(n * m, streams * t)
    u, sigma, v = rank1_approx(rearranged)
    h_hat = (math.sqrt(sigma) * u).reshape(n, m).T
    x_hat = (math.sqrt(sigma) * v.conj()).reshape(streams, t)
    report = EstimateReport(h_hat, x_hat)
    return normalize_anchor(report, per_stream=False) if remove_scaling else report


def bs_channel_only(y_bs: np.ndarray, payload: ControlLinkPayload, coding: CodingSet) -> EstimateReport:
    """Single least-squares solve for the BS-side channel (scenario 2).

    Uses the fed-back channel and symbol estimates as-is; any residual
    scaling they carry is inherited, so no anchor normalization is applied.
    """
    if payload.symbols is None:
        raise ValueError("the channel-only receiver needs a scenario-2 payload with symbols")
    n = check_received(y_bs, coding, "bs_channel_only").n
    channel_step = channel_code_matrix(coding, payload.ut_channel, payload.symbols)
    h_hat = unfold(y_bs, 1) @ require_full_rank(channel_step, n, "channel-step regressor")
    return EstimateReport(h_hat, np.array(payload.symbols, copy=True))
