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
which need the explicit regressor only for their SVD fallback.  A full-rank
pseudo-inverse comes from a Householder QR (:func:`qr_pinv`) with the
certificate ``|R|_F |R^{-1}|_F >= sigma_max / sigma_min``; QR is backward
stable, so a small certificate shows that an SVD would count full rank too.

All functions are pure and never mutate their inputs.
"""

from __future__ import annotations

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


def pinv(m: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudo-inverse.

    Singular values below ``max(rows, cols) * machine_eps * sigma_max`` are
    treated as zero, the truncation of ``numpy.linalg.pinv``.  An all-zero
    input yields the (transposed-shape) zero matrix.
    """
    return pinv_with_spectrum(m)[0]


def pinv_with_spectrum(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`pinv` of ``m`` and the singular values of the one SVD that forms it.

    The singular values come in descending order, so a rank check can read
    them instead of running a second SVD.  The arithmetic is that of
    ``numpy.linalg.pinv``.
    """
    m = np.asarray(m)
    u, s, vh = np.linalg.svd(m.conj(), full_matrices=False)
    large = s > max(m.shape) * np.finfo(np.float64).eps * s.max(initial=0.0)
    s_inv = np.divide(1.0, s, where=large, out=np.zeros_like(s))
    return vh.T @ (s_inv[:, None] * u.T), s


def qr_pinv(m: np.ndarray) -> tuple[np.ndarray, float]:
    """Pseudo-inverse of a full-rank ``m`` from a Householder QR, and its condition certificate.

    The tall orientation of ``m`` (itself or ``m^H``) is ``Q R``, with
    pseudo-inverse ``R^{-1} Q^H``.  The certificate ``|R|_F |R^{-1}|_F``
    bounds ``sigma_max / sigma_min``; it is infinite for an exactly singular
    ``R`` or a non-finite inverse.
    """
    m = np.asarray(m)
    wide = m.shape[0] < m.shape[1]
    a = m.conj().T if wide else m
    geqrf, ungqr, trtrs = scipy.linalg.lapack.get_lapack_funcs(
        ("geqrf", "ungqr" if np.iscomplexobj(a) else "orgqr", "trtrs"), (a,))
    qr, tau, _, info = geqrf(a)
    q, _, info_q = ungqr(qr, tau)
    # trtrs reads only the upper triangle, R; the reflectors below it are ignored
    inverse, info_r = trtrs(qr[:a.shape[1]], q.conj().T)
    solved = not (info or info_q or info_r) and np.isfinite(inverse).all()
    # |m|_F = |R|_F and |R^{-1} Q^H|_F = |R^{-1}|_F, as Q has orthonormal columns
    certificate = float(np.linalg.norm(m) * np.linalg.norm(inverse)) if solved else np.inf
    return (inverse.conj().T if wide else inverse), certificate


# Reciprocal condition estimate of the Gram matrix below which :func:`solve_gram`
# falls back to the SVD pseudo-inverse; identifiability.RANK_TOL relates it to the rank cut.
GRAM_RCOND_FLOOR = 1e-10


def solve_gram(gram: np.ndarray, rhs: np.ndarray, problem: Callable) -> tuple[np.ndarray, bool]:
    """Solve the normal equations ``gram @ x = rhs``, and whether it fell back to the SVD.

    ``gram`` and ``rhs`` are ``a^H a`` and ``a^H b`` of the least-squares problem
    ``a @ x = b``, however the caller formed them; a Cholesky factor solves it.
    When the factorization fails, the Gram's reciprocal condition estimate is
    below ``GRAM_RCOND_FLOOR``, or the solution is not finite, it calls
    ``problem()`` for the explicit ``(a, b)`` and returns ``pinv(a) @ b``.
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
    return pinv(a) @ b, True


def lstsq_normal(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, bool]:
    """Least-squares solution of ``a @ x = b`` through :func:`solve_gram` of ``a^H a``."""
    ah = a.conj().T
    return solve_gram(ah @ a, ah @ b, lambda: (a, b))


def rank1_approx(m: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """Best rank-1 approximation ``sigma * u @ v.conj().T`` in Frobenius norm.

    Returns unit-norm ``u`` and ``v`` and ``sigma > 0``.  The unit-modulus
    freedom of the singular pair is fixed by rotating the largest-magnitude
    entry of ``u`` to be real-positive, so results are deterministic.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.size == 0:
        raise ValueError("rank1_approx expects a nonempty matrix")
    if not np.any(m):
        raise ValueError("rank-1 approximation of an all-zero matrix is undefined")
    u_full, s, vh = np.linalg.svd(m, full_matrices=False)
    u = u_full[:, 0]
    v = vh[0].conj()
    idx = int(np.argmax(np.abs(u)))
    phase = u[idx] / abs(u[idx])
    return u * phase.conj(), float(s[0]), v * phase.conj()
