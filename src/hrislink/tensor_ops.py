"""Dense complex matrix/tensor primitives shared by all receivers.

Third-order tensors are plain numpy arrays of shape ``(I1, I2, I3)``.  The
frontal slice ``k`` is ``t[:, :, k]`` and every vectorisation is column-major
(``order="F"``), so the three unfoldings are cheap reshapes of the same
linear layout.

Unfolding conventions, for ``t`` of shape ``(I1, I2, I3)``:

* mode 1: frontal slices side by side, shape ``(I1, I3*I2)``;
* mode 2: transposed frontal slices side by side, shape ``(I2, I3*I1)``;
* mode 3: ``vec`` of each frontal slice stacked as rows, shape ``(I3, I2*I1)``.

Every least-squares solve goes through the normal equations its caller
forms (:func:`solve_gram`): a Cholesky factor ``U`` of the small Gram ``a^H a``
solves them once an O(n^2) bound, from one triangular solve, on the
certificate ``|U|_F |U^{-1}|_F >= sigma_max / sigma_min`` is below
``GRAM_CERTIFICATE_MAX``, which proves full column rank under the rank rule
(``RANK_TOL``, :func:`numerical_rank`).  Any other Gram takes the SVD
fallback on the explicit regressor, which only then is built.  The rank-1
split (:func:`rank1_approx`) takes the top eigenpair of the small Gram.

All functions are pure and never mutate their inputs.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import lru_cache

import numpy as np
import scipy.linalg


def unfold(t: np.ndarray, mode: int) -> np.ndarray:
    """Matricize a third-order tensor along ``mode`` (1, 2 or 3); leading axes index a stack of tensors."""
    t = np.asarray(t)
    if t.ndim < 3:
        raise ValueError(f"expected a third-order tensor, got ndim={t.ndim}")
    *lead, i1, i2, i3 = t.shape
    if mode == 1:
        return t.swapaxes(-1, -2).reshape(*lead, i1, i3 * i2)
    if mode == 2:
        return np.moveaxis(t, -3, -1).reshape(*lead, i2, i3 * i1)
    if mode == 3:
        return t.swapaxes(-1, -3).reshape(*lead, i3, i2 * i1)
    raise ValueError(f"mode must be 1, 2 or 3, got {mode}")


def frobenius(x: np.ndarray) -> np.ndarray:
    """``numpy.linalg.norm`` of each matrix along the last two axes, bit for bit: one ``dot`` each over the
    real and imaginary parts in memory order, which a stacked ``(1, N) @ (N, 1)`` matmul runs slice by slice."""
    x = np.asarray(x)
    if abs(x.strides[-1]) > abs(x.strides[-2]):     # column-major slices are summed down their columns
        x = x.swapaxes(-1, -2)
    flat = x.reshape(*x.shape[:-2], 1, x.shape[-2] * x.shape[-1])
    return np.sqrt((flat.real @ flat.real.swapaxes(-1, -2) + flat.imag @ flat.imag.swapaxes(-1, -2))[..., 0, 0])


# The one full-column-rank rule: singular values at or below RANK_TOL times the largest count as zero.  A solve
# whose bound |U|_F |M(U)^{-1} e|_2 >= |U|_F |U^{-1}|_F >= sigma_max / sigma_min is below GRAM_CERTIFICATE_MAX
# has sigma_min / sigma_max > 1e-4, 1e6 times above that cut, so it has full rank without an SVD, and its
# normal-equation error is about eps * 1e8 at most.  The bound is at least the Gram's column count, so Grams of
# 1e4 or more columns always take the SVD, where the rule counts the singular values.
RANK_TOL = 1e-10
GRAM_CERTIFICATE_MAX = 1e4


def numerical_rank(mat: np.ndarray) -> int:
    """Count singular values above ``RANK_TOL * sigma_max``."""
    return spectral_rank(np.linalg.svd(np.atleast_2d(mat), compute_uv=False))


def spectral_rank(s: np.ndarray) -> int:
    """:func:`numerical_rank` read off descending singular values ``s``."""
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.count_nonzero(s > RANK_TOL * s[0]))


@lru_cache(maxsize=64)
def gram_kit(gram_dtype: np.dtype, rhs_dtype: np.dtype, size: int) -> tuple:
    """What :func:`solve_gram` needs besides the Gram, made once per kind of solve since it costs as much as a
    small solve: LAPACK ``potrf`` and ``potrs`` for these dtypes, the real BLAS ``trsv`` and ``nrm2``, the signs
    that turn ``|U|`` into the comparison matrix (``+1`` on the diagonal, ``-1`` elsewhere) and the all-ones
    vector ``e``, both read-only."""
    gram, rhs = np.empty(0, gram_dtype), np.empty(0, rhs_dtype)
    signs, ones = np.asfortranarray(2.0 * np.eye(size) - 1.0), np.ones(size)
    signs.flags.writeable = ones.flags.writeable = False
    return (*scipy.linalg.lapack.get_lapack_funcs(("potrf", "potrs"), (gram, rhs)),
            *scipy.linalg.blas.get_blas_funcs(("trsv", "nrm2"), (gram.real,)), signs, ones)


def solve_gram(gram: np.ndarray, rhs: np.ndarray, problem: Callable) -> tuple[np.ndarray, bool]:
    """Solve the normal equations ``gram @ x = rhs``, and whether it fell back to the SVD.

    ``gram`` and ``rhs`` are ``a^H a`` and ``a^H b`` of the least-squares problem
    ``a @ x = b``, however the caller formed them.  ``potrf`` factors
    ``gram = U^H U`` and ``potrs`` solves from the factor once the bound
    ``|U|_F |M(U)^{-1} e|_2`` is below ``GRAM_CERTIFICATE_MAX``: the comparison
    matrix ``M(U)`` (``|u_ii|`` on the diagonal, ``-|u_ij|`` above it) has
    ``M(U)^{-1} >= |U^{-1}|`` entrywise (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., Thm 8.12), so with ``e`` all ones the bound
    is at least the certificate ``|U|_F |U^{-1}|_F``, and one ``trsv`` gives it.
    When the factorization fails, the bound is not below the cap (NaN and inf
    included), or the solution is not finite, it calls ``problem()`` for the
    explicit ``(a, b)`` and returns ``numpy.linalg.pinv(a) @ b``.
    """
    potrf, potrs, trsv, nrm2, signs, ones = gram_kit(gram.dtype, rhs.dtype, len(gram))
    factor, info = potrf(gram)
    if info == 0:
        comparison = np.abs(factor)
        comparison *= signs
        # U has a's singular values, so |U|_F >= sigma_max and |U^{-1}|_F >= 1 / sigma_min.  M(U)^{-1} >= 0 has
        # row sums M(U)^{-1} e of nonnegative terms, at least its rows' 2-norms
        if nrm2(comparison.ravel(order="K")) * nrm2(trsv(comparison, ones)) < GRAM_CERTIFICATE_MAX:
            x, info = potrs(factor, rhs)
            if info == 0 and np.isfinite(x).all():
                return x, False
    a, b = problem()
    return np.linalg.pinv(a) @ b, True


def rank1_approx(m: np.ndarray) -> tuple[np.ndarray, float | np.ndarray, np.ndarray]:
    """Best rank-1 approximation ``sigma * u @ v.conj().T`` in Frobenius norm.

    Returns unit-norm ``u`` and ``v`` and ``sigma > 0``.  The top eigenvector
    of the Gram on the smaller side gives one singular vector, ``v`` say, and
    the other is ``m v / sigma``.  ``m`` is first scaled by a power of two near
    its largest entry, which is exact and keeps the Gram from under- or overflowing
    even for subnormal input; a ``sigma`` beyond the float range is ``inf``.
    The unit-modulus freedom of the singular pair is fixed by rotating the
    largest-magnitude entry of ``u`` to be real-positive, so results are deterministic.
    A stack of matrices along leading axes is split by one stacked ``eigh``, each slice exactly as alone.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.size == 0:
        raise ValueError("rank1_approx expects a nonempty matrix")
    peak = np.abs(m).max(axis=(-2, -1))
    if not peak.all():
        raise ValueError("rank-1 approximation of an all-zero matrix is undefined")
    exponent = np.maximum(np.frexp(peak)[1], -1021)  # 2**1021 is finite; subnormals need no more
    m = m * np.ldexp(1.0, -exponent)[..., None, None]
    tall = m.shape[-2] >= m.shape[-1]
    a = m if tall else m.conj().swapaxes(-1, -2)    # the orientation whose Gram is the small one
    right = np.linalg.eigh(a.conj().swapaxes(-1, -2) @ a)[1][..., -1]
    left = (a @ right[..., None])[..., 0]
    sigma = frobenius(left[..., None])
    left /= sigma[..., None]
    u, v = (left, right) if tall else (right, left)
    peak_u = np.take_along_axis(u, np.argmax(np.abs(u), axis=-1)[..., None], axis=-1)
    phase = (peak_u / np.hypot(peak_u.real, peak_u.imag)).conj()   # hypot rounds as abs() of one entry does
    return u * phase, np.ldexp(sigma, exponent), v * phase
