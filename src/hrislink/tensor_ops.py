"""Dense complex matrix/tensor primitives shared by all receivers.

Third-order tensors are plain numpy arrays of shape ``(I1, I2, I3)``.  The
frontal slice ``k`` is ``t[:, :, k]`` and every vectorisation is column-major
(``order="F"``), so ``vec``/``unvec`` and the three unfoldings are cheap
reshapes of the same linear layout.

Unfolding conventions, for ``t`` of shape ``(I1, I2, I3)``:

* mode 1: frontal slices side by side, shape ``(I1, I3*I2)``;
* mode 2: transposed frontal slices side by side, shape ``(I2, I3*I1)``;
* mode 3: ``vec`` of each frontal slice stacked as rows, shape ``(I3, I2*I1)``.

All functions are pure and never mutate their inputs.
"""

from __future__ import annotations

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


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, shape ``(Ia*Ib, Ja*Jb)``."""
    return np.kron(np.asarray(a), np.asarray(b))


def khatri_rao(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-wise Kronecker product; inputs must share their column count."""
    a = np.atleast_2d(np.asarray(a))
    b = np.atleast_2d(np.asarray(b))
    if a.shape[1] != b.shape[1]:
        raise ValueError(
            f"khatri_rao needs equal column counts, got {a.shape[1]} and {b.shape[1]}"
        )
    return scipy.linalg.khatri_rao(a, b)


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


def fold(m: np.ndarray, mode: int, dims: tuple[int, int, int]) -> np.ndarray:
    """Inverse of :func:`unfold` for the given target ``dims``."""
    m = np.asarray(m)
    i1, i2, i3 = dims
    expected = {1: (i1, i3 * i2), 2: (i2, i3 * i1), 3: (i3, i2 * i1)}
    if mode not in expected:
        raise ValueError(f"mode must be 1, 2 or 3, got {mode}")
    if m.shape != expected[mode]:
        raise ValueError(
            f"mode-{mode} unfolding of a {dims} tensor has shape "
            f"{expected[mode]}, got {m.shape}"
        )
    if mode == 1:
        return m.reshape(i1, i3, i2).transpose(0, 2, 1)
    if mode == 2:
        return m.reshape(i2, i3, i1).transpose(2, 0, 1)
    return m.reshape(i3, i2, i1).transpose(2, 1, 0)


def mode_n_product(t: np.ndarray, m: np.ndarray, mode: int) -> np.ndarray:
    """Multiply ``m`` into ``t`` along ``mode``.

    Satisfies ``unfold(result, mode) == m @ unfold(t, mode)``.
    """
    t = np.asarray(t)
    m = np.atleast_2d(np.asarray(m))
    if t.ndim != 3:
        raise ValueError(f"expected a third-order tensor, got ndim={t.ndim}")
    if mode not in (1, 2, 3):
        raise ValueError(f"mode must be 1, 2 or 3, got {mode}")
    if m.shape[1] != t.shape[mode - 1]:
        raise ValueError(
            f"matrix has {m.shape[1]} columns but tensor mode {mode} "
            f"has size {t.shape[mode - 1]}"
        )
    if mode == 1:
        return np.einsum("ai,ijk->ajk", m, t)
    if mode == 2:
        return np.einsum("aj,ijk->iak", m, t)
    return np.einsum("ak,ijk->ija", m, t)


def modewise_contraction(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Slice-wise matrix product of two tensors sharing their third dimension.

    Frontal slice ``k`` of the result is ``a[:, :, k] @ b[:, :, k]``; requires
    ``a.shape[1] == b.shape[0]`` and ``a.shape[2] == b.shape[2]``.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 3 or b.ndim != 3:
        raise ValueError("modewise_contraction expects two third-order tensors")
    if a.shape[2] != b.shape[2]:
        raise ValueError(
            f"third dimensions differ: {a.shape[2]} vs {b.shape[2]}"
        )
    if a.shape[1] != b.shape[0]:
        raise ValueError(
            f"slice shapes do not chain: {a.shape[:2]} x {b.shape[:2]}"
        )
    return np.einsum("ilk,ljk->ijk", a, b)


def pinv(m: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Moore-Penrose pseudo-inverse.

    Singular values below ``tol * sigma_max`` are treated as zero; the default
    ``tol`` is ``max(rows, cols) * machine_eps``, the usual rank-revealing
    threshold.  An all-zero input yields the (transposed-shape) zero matrix.
    """
    return pinv_with_spectrum(m, tol)[0]


def pinv_with_spectrum(m: np.ndarray, tol: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """:func:`pinv` of ``m`` and the singular values of the one SVD that forms it.

    The singular values come in descending order, so a rank check can read
    them instead of running a second SVD.  The arithmetic is that of
    ``numpy.linalg.pinv``.
    """
    m = np.asarray(m)
    if tol is None:
        tol = max(m.shape) * np.finfo(np.float64).eps
    u, s, vh = np.linalg.svd(m.conj(), full_matrices=False)
    large = s > tol * s.max(initial=0.0)
    s_inv = np.divide(1.0, s, where=large, out=np.zeros_like(s))
    return vh.T @ (s_inv[:, None] * u.T), s


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
