"""Semi-blind estimation at the BS, given the fed-back surface estimates.

The BS knows the reflecting phase shifts and the transmit code, and receives
the estimated UT-side channel over the control link (scenario 1) or both
that channel and the decoded symbols (scenario 2).  Receivers:

* :func:`bs_bals`: the shared ALS loop
  (:func:`~hrislink.rx_common.run_als`) over the BS-side channel (mode-1
  unfolding) and the symbols (transposed mode-2 unfolding).  It supplies
  two tables built once per call from the blocks below, a ``(w*w, n*n)``
  Gram table and a ``(w*t, n*m)`` cross table with the received signal
  (64 KB and 32 KB at the default sizes), the explicit regressor for the
  SVD fallback and the symbol regressor;
* :func:`bs_kronf`: one least-squares solve for the Kronecker-structured
  composite of symbols and BS-side channel, then a rank-1 split;
* :func:`bs_channel_only`: the scenario-2 shortcut, a single least-squares
  solve for the BS-side channel with symbols known.

Every regressor, for both coding schemes, is built from the blocks
``diag(psi_k) @ G @ mix_k`` that the synthesis uses
(:func:`~hrislink.synthesis.reflect_blocks`, one flat product), times ``X``,
times ``H``, or vectorized.

Both closed-form solves are least-squares solves against the received
unfolding (:func:`~hrislink.rx_common.require_full_rank`) and, like the ALS
steps, run no SVD when the Gram certificate of
:func:`~hrislink.tensor_ops.solve_gram` proves full rank.  Both also take
stacks ``(s, m, t, k)``, with the payload stacked alike, slice for slice exact.

The scaling ambiguity at the BS is a single complex scalar for both coding
schemes; it is removed against the (0, 0) anchor of the symbol estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import pinv  # noqa: F401 -- perfbench/tracing.py wraps bs_rx.pinv by name

from .coding import CodingSet
from .identifiability import Sizes
from .rx_common import (
    EstimateReport,
    NonFiniteError,
    check_received,
    normalize_anchor,
    require_full_rank,
    run_als,
)
from .synthesis import reflect_blocks
from .tensor_ops import rank1_approx, unfold


@dataclass(frozen=True)
class ControlLinkPayload:
    """What the surface controller feeds back to the BS.

    Scenario 1 carries only the UT-side channel estimate; scenario 2
    additionally carries the symbol estimate, already anchored.
    """

    ut_channel: np.ndarray
    symbols: np.ndarray | None = None


def _check_inputs(y_bs: np.ndarray, payload: ControlLinkPayload, coding: CodingSet, fn: str) -> Sizes:
    """:func:`check_received`, then the fed-back ``(n, l)`` channel and, if sent, ``(streams, t)`` symbols.

    A wrong shape raises ``ValueError``, a non-finite entry :class:`NonFiniteError`.
    """
    d = check_received(y_bs, coding, fn)
    for name, shape in (("ut_channel", y_bs.shape[:-3] + (d.n, d.l)), ("symbols", y_bs.shape[:-3] + (d.w, d.t))):
        value = getattr(payload, name)
        if value is not None and np.shape(value) != shape:
            raise ValueError(f"fed-back {name} must be {shape}, got {np.shape(value)}")
        if value is not None and not np.isfinite(value).all():
            raise NonFiniteError(f"fed-back {name} has non-finite entries")
    return d


def channel_code_matrix(coding: CodingSet, ut_channel: np.ndarray, symbols: np.ndarray) -> np.ndarray:
    """Channel-step regressor: the blocks ``diag(psi_k) @ G @ mix_k @ X`` side by side, ``(n, k*t)``, or stacks."""
    lead = symbols.shape[:-2]
    blocks = reflect_blocks(coding, ut_channel).reshape(*lead, -1, coding.streams)
    return (blocks @ symbols).reshape(*lead, coding.elements, -1)


def symbol_code_matrix(coding: CodingSet, ut_channel: np.ndarray, bs_channel: np.ndarray) -> np.ndarray:
    """Symbol-step regressor: the blocks ``H @ diag(psi_k) @ G @ mix_k`` stacked, ``(k*m, streams)``."""
    h_blocks = bs_channel @ reflect_blocks(coding, ut_channel).reshape(coding.elements, -1)   # [H B_1 ... H B_K]
    return h_blocks.reshape(len(bs_channel), coding.subframes, -1).transpose(1, 0, 2).reshape(-1, coding.streams)


def bs_bals(y_bs: np.ndarray, payload: ControlLinkPayload, coding: CodingSet, init_seed: int = 0) -> EstimateReport:
    """Alternating least-squares estimation of the BS-side channel and symbols."""
    d = _check_inputs(y_bs, payload, coding, "bs_bals")
    n, w, t, k, m = d.n, d.w, d.t, d.k, d.m
    g = payload.ut_channel
    blocks = reflect_blocks(coding, g)                               # B_k[i, s] at [i, k, s], (n, k, w)
    b_cat = blocks.reshape(n, -1)                                   # [B_1 ... B_K], (n, k*w)
    b_kw = blocks.transpose(0, 2, 1).reshape(-1, k)                 # b_kw[(i, s), k] = B_k[i, s], (n*w, k)
    b_conj = b_kw.conj()
    # The channel step solves h_hat C = y1, C = [B_1 X ... B_K X], as C^T h_hat^T = y1^T.  With
    # P = conj(X X^H) = conj(X) X^T, its Gram conj(C C^H) is P.ravel() @ gram_table and its
    # right-hand side conj(C) y1^T is conj(X).ravel() @ cross, from two tables fixed within the call:
    #   gram_table[(s, s'), (i, j)] = sum_k conj(B_k[i, s]) B_k[j, s'],  (w*w, n*n)
    #   cross[(s, tau), (i, r)]     = sum_k conj(B_k[i, s]) Y_k[r, tau], (w*t, n*m)
    gram_table = (b_conj @ b_kw.T).reshape(n, w, n, w).transpose(1, 3, 0, 2).reshape(w * w, n * n)
    cross = (b_conj @ y_bs.reshape(m * t, k).T).reshape(n, w, m, t).transpose(1, 3, 0, 2).reshape(w * t, n * m)
    # the solution is h_hat^T, (n, m); the symbol regressor stacks H B_k over k, from the one product H [B_1 ... B_K]
    report = run_als(y_bs, gram_table, cross, (n, m),
                     lambda x_hat: (channel_code_matrix(coding, g, x_hat).T, unfold(y_bs, 1).T),
                     lambda h_hat: (h_hat @ b_cat).reshape(m, k, w).transpose(1, 0, 2).reshape(-1, w), init_seed)
    return normalize_anchor(report, per_stream=False)


def bs_kronf(y_bs: np.ndarray, payload: ControlLinkPayload, coding: CodingSet) -> EstimateReport:
    """Closed-form estimation via Kronecker factorization of the composite.

    Column ``k`` of the composite right factor is ``vec(diag(psi_k) @ G @ mix_k)``.
    """
    d = _check_inputs(y_bs, payload, coding, "bs_kronf")
    m, t, n, streams, lead = d.m, d.t, d.n, d.w, y_bs.shape[:-3]
    blocks = reflect_blocks(coding, payload.ut_channel)            # (n, k, streams)
    right = np.moveaxis(blocks, -1, -3).reshape(*lead, -1, d.k)     # (streams*n, k)
    composite = require_full_rank(right.swapaxes(-1, -2), unfold(y_bs, 3), streams * n,
                                  "composite right factor").swapaxes(-1, -2)  # (t*m, streams*n)
    rearranged = composite.reshape(*lead, t, m, streams, n).swapaxes(-1, -4).reshape(*lead, n * m, streams * t)
    u, sigma, v = rank1_approx(rearranged)
    root = np.sqrt(sigma)[..., None]
    h_hat = (root * u).reshape(*lead, n, m).swapaxes(-1, -2)
    x_hat = (root * v.conj()).reshape(*lead, streams, t)
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
    h_hat = require_full_rank(channel_step.swapaxes(-1, -2), unfold(y_bs, 1).swapaxes(-1, -2), n,
                              "channel-step regressor").swapaxes(-1, -2)
    return EstimateReport(h_hat, np.array(payload.symbols, copy=True))
