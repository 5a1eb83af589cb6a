"""Dense complex matrix/tensor primitives shared by all receivers.

Third-order tensors are plain numpy arrays of shape ``(I1, I2, I3)``.  The
frontal slice ``k`` is ``t[:, :, k]`` and every vectorisation is column-major
(``order="F"``), so ``vec``/``unvec`` and the three unfoldings are cheap
reshapes of the same linear layout.

Unfolding conventions, for ``t`` of shape ``(I1, I2, I3)``:

* mode 1: frontal slices side by side, shape ``(I1, I3*I2)``;
* mode 2: transposed frontal slices side by side, shape ``(I2, I3*I1)``;
* mode 3: ``vec`` of each frontal slice stacked as rows, shape ``(I3, I2*I1)``.

Least-squares solves go through the normal equations (:func:`solve_gram`),
which need the explicit regressor only for their SVD fallback.  A product
``lhs @ pinv(m)`` with a full-rank ``m`` comes from a Cholesky factor ``U`` of
the small Gram (:func:`apply_pinv`), with the certificate
``sqrt(tr(a^H a)) |U^{-1}|_F >= sigma_max / sigma_min``; a small certificate
shows that an SVD would count full rank too.  The rank-1 split
(:func:`rank1_approx`) takes the top eigenpair of the small Gram.

All functions are pure and never mutate their inputs.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np
import scipy.linalg


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a 1-D vector."""
    return np.asarray(m).reshape(-1, order="F")


def unvec(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vec`; ``v`` must hold exactly ``rows*cols`` entries."""
    v = np.asarray(v).reshape(-1)
    if v.size != rows * cols:
        raise ValueError(f"cannot unvec {v.size} entries into {rows}x{cols}")
    return v.reshape((rows, cols), order="F")


def unfold(t: np.ndarray, mode: int) -> np.ndarray:
    """Matricize a third-order tensor along ``mode`` (1, 2 or 3)."""
    t = np.asarray(t)
    if t.ndim != 3:
        raise ValueError(f"expected a third-order tensor, got ndim={t.ndim}")
    i1, i2, i3 = t.shape
    if mode == 1:
        return t.transpose(0, 2, 1).reshape(i1, i3 * i2)
    if mode == 2:
        return t.transpose(1, 2, 0).reshape(i2, i3 * i1)
    if mode == 3:
        return t.transpose(2, 1, 0).reshape(i3, i2 * i1)
    raise ValueError(f"mode must be 1, 2 or 3, got {mode}")


def apply_pinv(lhs: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, float]:
    """``lhs @ pinv(m)`` for a full-rank ``m``, from a Cholesky factor of its small Gram, and a rank certificate.

    With ``a`` the tall orientation of ``m`` (itself or ``m^H``), ``potrf``
    factors ``a^H a = U^H U`` and ``trtri`` inverts ``U``; the product is
    ``((lhs @ U^{-1}) @ U^{-H}) @ a^H`` for a tall ``m`` and
    ``((lhs @ a) @ U^{-1}) @ U^{-H}`` for a wide one, so no pseudo-inverse is
    formed.  The certificate ``sqrt(tr(a^H a)) |U^{-1}|_F`` bounds
    ``sigma_max / sigma_min``; it is infinite when LAPACK reports a failure or
    the product is not finite, and the product then means nothing.
    """
    m = np.asarray(m)
    wide = m.shape[0] < m.shape[1]
    a = m.conj().T if wide else m
    gram = a.conj().T @ a
    potrf, trtri = scipy.linalg.lapack.get_lapack_funcs(("potrf", "trtri"), (gram,))
    factor, info = potrf(gram)
    u_inv, info_inv = trtri(factor)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow voids the certificate
        if wide:
            product = ((lhs @ a) @ u_inv) @ u_inv.conj().T
        else:
            product = ((lhs @ u_inv) @ u_inv.conj().T) @ a.conj().T
        # tr(a^H a) = sigma_1^2 + ... >= sigma_max^2 and |U^{-1}|_F >= |U^{-1}|_2 = 1 / sigma_min
        certificate = math.sqrt(gram.trace().real) * float(np.linalg.norm(u_inv))
    if info or info_inv or not np.isfinite(product).all():
        certificate = math.inf
    return product, certificate


# Reciprocal condition estimate of the Gram matrix below which :func:`solve_gram`
# falls back to the SVD pseudo-inverse; identifiability.RANK_TOL relates it to the rank cut.
GRAM_RCOND_FLOOR = 1e-10


def solve_gram(gram: np.ndarray, rhs: np.ndarray, problem: Callable) -> tuple[np.ndarray, bool]:
    """Solve the normal equations ``gram @ x = rhs``, and whether it fell back to the SVD.

    ``gram`` and ``rhs`` are ``a^H a`` and ``a^H b`` of the least-squares problem
    ``a @ x = b``, however the caller formed them; a Cholesky factor solves it.
    When the factorization fails, the Gram's reciprocal condition estimate is
    below ``GRAM_RCOND_FLOOR``, or the solution is not finite, it calls
    ``problem()`` for the explicit ``(a, b)`` and returns ``numpy.linalg.pinv(a) @ b``.
    """
    potrf, pocon, potrs = scipy.linalg.lapack.get_lapack_funcs(("potrf", "pocon", "potrs"), (gram,))
    factor, info = potrf(gram)
    if info == 0:
        rcond, info = pocon(factor, np.abs(gram).sum(axis=0).max())
        if info == 0 and rcond >= GRAM_RCOND_FLOOR:
            x, info = potrs(factor, rhs)
            if info == 0 and np.isfinite(x).all():
                return x, False
    a, b = problem()
    return np.linalg.pinv(a) @ b, True


def lstsq_normal(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, bool]:
    """Least-squares solution of ``a @ x = b`` through :func:`solve_gram` of ``a^H a``."""
    ah = a.conj().T
    return solve_gram(ah @ a, ah @ b, lambda: (a, b))


def rank1_approx(m: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """Best rank-1 approximation ``sigma * u @ v.conj().T`` in Frobenius norm.

    Returns unit-norm ``u`` and ``v`` and ``sigma > 0``.  The top eigenvector
    of the Gram on the smaller side gives one singular vector, ``v`` say, and
    the other is ``m v / sigma``.  ``m`` is first scaled by a power of two near
    its largest entry, which is exact and keeps the Gram from under- or overflowing
    even for subnormal input; a ``sigma`` beyond the float range is ``inf``.
    The unit-modulus freedom of the singular pair is fixed by rotating the
    largest-magnitude entry of ``u`` to be real-positive, so results are deterministic.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.size == 0:
        raise ValueError("rank1_approx expects a nonempty matrix")
    if not np.any(m):
        raise ValueError("rank-1 approximation of an all-zero matrix is undefined")
    exponent = max(int(np.frexp(np.abs(m).max())[1]), -1021)  # 2**1021 is finite; subnormals need no more
    m = m * math.ldexp(1.0, -exponent)
    tall = m.shape[0] >= m.shape[1]
    a = m if tall else m.conj().T                   # the orientation whose Gram is the small one
    right = np.linalg.eigh(a.conj().T @ a)[1][:, -1]
    left = a @ right
    sigma = float(np.linalg.norm(left))
    left /= sigma
    u, v = (left, right) if tall else (right, left)
    idx = int(np.argmax(np.abs(u)))
    phase = u[idx] / abs(u[idx])
    return u * phase.conj(), float(np.ldexp(sigma, exponent)), v * phase.conj()
