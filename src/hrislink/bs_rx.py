"""Semi-blind estimation at the BS, given the fed-back surface estimates.

The BS knows the reflecting phase shifts and the transmit code, and receives the estimated UT-side
channel over the control link (scenario 1) or both that channel and the decoded symbols (scenario 2).
Each receiver takes the fed-back arrays it reads: ``bals`` and ``kronf`` the channel, ``h`` both.
With the blocks ``B_k = diag(psi_k) @ G @ mix_k`` of the synthesis (:func:`~hrislink.synthesis.reflect_blocks`),
the model ``Y_k = H B_k X`` is one least-squares problem per slice,
``right.T @ Z.T = unfold(y, 3)`` for ``Z = kron(X^T, H)`` and ``right[:, k] = vec(B_k)``.
All three receivers read its normal equations (:func:`kronecker_problem`), a
``(w*n, w*n)`` Gram and a ``(w*n, t*m)`` cross, 64 KB and 32 KB at the default sizes:

* :func:`bs_kronf` solves them for ``Z``, then splits it with a rank-1 factorization;
* :func:`bs_bals` runs the shared ALS loop (:func:`~hrislink.rx_common.run_als`) over the BS-side
  channel and the symbols on the two rearranged (:func:`als_tables`), from the symbols of
  :func:`bs_kronf`'s solve of them where ``k`` reaches its threshold, not a random draw;
* :func:`bs_channel_only`, the scenario-2 shortcut, takes one channel step of that
  loop (:func:`~hrislink.rx_common.channel_step`) at the fed-back symbols.

The explicit regressors (:func:`channel_code_matrix`, :func:`symbol_code_matrix`) read the same blocks,
for the ALS symbol step and the SVD fallbacks only.
The closed-form receivers solve through :func:`~hrislink.rx_common.require_full_rank` and also
take stacks ``(s, m, t, k)``, the fed-back arrays stacked alike, one slice's normal equations at a time.

The scaling ambiguity at the BS is a single complex scalar for both coding
schemes; it is removed against the (0, 0) anchor of the symbol estimate.
"""

from __future__ import annotations

import contextlib
from collections.abc import Callable

import numpy as np
from numpy.linalg import pinv  # noqa: F401 -- perfbench/tracing.py wraps bs_rx.pinv by name

from .coding import CodingSet
from .identifiability import Sizes, receiver_spec
from .rx_common import (AmbiguityError, EstimateReport, NonFiniteError, RankDeficiencyError, channel_step,
                        check_received, init_symbols, normalize_anchor, require_full_rank, run_als)
from .synthesis import reflect_blocks
from .tensor_ops import rank1_approx, unfold


def _check_inputs(y_bs: np.ndarray, coding: CodingSet, fn: str, *fed: np.ndarray) -> Sizes:
    """:func:`check_received`, then the fed-back ``(n, l)`` channel and, if passed, ``(streams, t)`` symbols.

    A wrong shape raises ``ValueError``, a non-finite entry :class:`NonFiniteError`.
    """
    d = check_received(y_bs, coding, fn)
    lead = y_bs.shape[:-3]
    for name, shape, value in zip(("ut_channel", "symbols"), (lead + (d.n, d.l), lead + (d.w, d.t)), fed):
        if np.shape(value) != shape:
            raise ValueError(f"fed-back {name} must be {shape}, got {np.shape(value)}")
        if not np.isfinite(value).all():
            raise NonFiniteError(f"fed-back {name} has non-finite entries")
    return d


def channel_code_matrix(blocks: np.ndarray, symbols: np.ndarray) -> np.ndarray:
    """Channel-step regressor from a slice's ``(n, k, w)`` blocks: ``B_k @ X`` side by side, ``(n, k*t)``."""
    return (blocks.reshape(-1, blocks.shape[2]) @ symbols).reshape(len(blocks), -1)


def symbol_code_matrix(blocks: np.ndarray, bs_channel: np.ndarray) -> np.ndarray:
    """Symbol-step regressor from a slice's ``(n, k, w)`` blocks: ``H @ B_k`` stacked, ``(k*m, w)``, from the one
    product ``H [B_1 ... B_K]``."""
    n, k, w = blocks.shape
    return (bs_channel @ blocks.reshape(n, -1)).reshape(-1, k, w).transpose(1, 0, 2).reshape(-1, w)


def kronecker_problem(y: np.ndarray, blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray, Callable]:
    """The normal equations of ``right.T @ Z.T = unfold(y, 3)`` and its ``(a, b)``, from a slice's ``(n, k, w)`` blocks.

    With rows ``(s, i)`` of ``right``, the Gram ``conj(right) @ right.T`` is ``sum_k conj(B_k[i, s]) B_k[j, s']``
    at ``[(s, i), (s', j)]`` and the cross ``conj(right) @ unfold(y, 3)`` is ``sum_k conj(B_k[i, s]) Y_k[r, tau]``
    at ``[(s, i), (tau, r)]``."""
    right, y3 = blocks.transpose(2, 0, 1).reshape(-1, blocks.shape[1]), unfold(y, 3)     # (w*n, k), (k, t*m)
    right_conj = right.conj()
    return right_conj @ right.T, right_conj @ y3, lambda: (right.T, y3)


def als_tables(gram: np.ndarray, cross: np.ndarray, d: Sizes) -> tuple[np.ndarray, np.ndarray]:
    """:func:`kronecker_problem`'s Gram and cross rearranged into the ALS channel step's ``(w*w, n*n)`` Gram
    table, ``[(s, s'), (i, j)]``, and ``(w*t, n*m)`` cross table, ``[(s, tau), (i, r)]``."""
    w, n, t, m = d.w, d.n, d.t, d.m
    return (gram.reshape(w, n, w, n).swapaxes(1, 2).reshape(w * w, n * n),
            cross.reshape(w, n, t, m).swapaxes(1, 2).reshape(w * t, n * m))


def _slice_by_slice(solve: Callable, y_bs: np.ndarray, *stacked: np.ndarray) -> np.ndarray:
    """``solve(y, *parts)`` per ``(m, t, k)`` slice of ``y_bs``, with the matching slices of ``stacked``; restacked."""
    lead = y_bs.shape[:-3]
    out = np.stack([solve(*s) for s in zip(*(a.reshape(-1, *a.shape[len(lead):]) for a in (y_bs, *stacked)))])
    return out.reshape(*lead, *out.shape[1:])


def _composite(gram: np.ndarray, cross: np.ndarray, problem: Callable, d: Sizes) -> np.ndarray:
    """The solution ``Z^T`` of :func:`kronecker_problem`, ``(w*n, t*m)``; :class:`RankDeficiencyError` without one."""
    return require_full_rank(gram, cross, problem, d.w * d.n, "composite right factor")


def _kronecker_split(composite: np.ndarray, d: Sizes) -> EstimateReport:
    """The anchored rank-1 split of ``Z = kron(X^T, H)`` from :func:`_composite`'s solutions ``(..., w*n, t*m)``."""
    m, t, n, w, lead = d.m, d.t, d.n, d.w, composite.shape[:-2]
    rearranged = composite.swapaxes(-1, -2).reshape(*lead, t, m, w, n).swapaxes(-1, -4).reshape(*lead, n * m, w * t)
    u, sigma, v = rank1_approx(rearranged)
    root = np.sqrt(sigma)[..., None]
    h_hat = (root * u).reshape(*lead, n, m).swapaxes(-1, -2)
    return normalize_anchor(EstimateReport(h_hat, (root * v.conj()).reshape(*lead, w, t)), per_stream=False)


def bs_bals(y_bs: np.ndarray, ut_channel: np.ndarray, coding: CodingSet, init_seed: int = 0) -> EstimateReport:
    """Alternating least-squares estimation of the BS-side channel and symbols, from :func:`bs_kronf`'s anchored
    symbols on the call's own Kronecker problem where ``k`` reaches its threshold and it solves, else from
    ``init_symbols(w, t, init_seed)``."""
    d = _check_inputs(y_bs, coding, "bs_bals", ut_channel)
    blocks = reflect_blocks(coding, ut_channel)                      # B_k[i, s] at [i, k, s], (n, k, w)
    gram, cross, problem = kronecker_problem(y_bs, blocks)
    start = None
    if d.k >= receiver_spec("kronf", "bs", d.scheme).threshold(d):
        with contextlib.suppress(RankDeficiencyError, AmbiguityError):
            start = _kronecker_split(_composite(gram, cross, problem, d), d).symbols
    # the solution is h_hat^T, (n, m)
    report = run_als(y_bs, *als_tables(gram, cross, d), (d.n, d.m),
                     lambda x_hat: (channel_code_matrix(blocks, x_hat).T, unfold(y_bs, 1).T),
                     lambda h_hat: symbol_code_matrix(blocks, h_hat),
                     init_symbols(d.w, d.t, init_seed) if start is None else start)
    return normalize_anchor(report, per_stream=False)


def bs_kronf(y_bs: np.ndarray, ut_channel: np.ndarray, coding: CodingSet) -> EstimateReport:
    """Closed-form estimation: the composite ``kron(X^T, H)`` from :func:`kronecker_problem`, then a rank-1 split."""
    d = _check_inputs(y_bs, coding, "bs_kronf", ut_channel)
    return _kronecker_split(_slice_by_slice(lambda y, blocks: _composite(*kronecker_problem(y, blocks), d),
                                            y_bs, reflect_blocks(coding, ut_channel)), d)


def bs_channel_only(y_bs: np.ndarray, ut_channel: np.ndarray, symbols: np.ndarray, coding: CodingSet) -> EstimateReport:
    """One ALS channel step at the fed-back symbols (scenario 2), kept as they are: the channel inherits
    any scaling the fed-back estimates carry, so no anchor normalization is applied."""
    d = _check_inputs(y_bs, coding, "bs_channel_only", ut_channel, symbols)

    def step(y, blocks, x):
        return require_full_rank(*channel_step(*als_tables(*kronecker_problem(y, blocks)[:2], d), x), lambda: (
            channel_code_matrix(blocks, x).T, unfold(y, 1).T), d.n, "channel-step regressor").T

    h_hat = _slice_by_slice(step, y_bs, reflect_blocks(coding, ut_channel), symbols)
    return EstimateReport(h_hat, np.array(symbols, copy=True))
