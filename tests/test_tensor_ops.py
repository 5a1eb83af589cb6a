"""Algebraic identities and round trips for the tensor/matrix primitives.

Expected values are computed by independent enumeration (explicit index
loops, power iteration) rather than by the functions under test.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import khatri_rao

from hrislink.coding import build_coding
from hrislink.rx_common import RankDeficiencyError, require_full_rank
from hrislink.scenario import ScenarioConfig
from hrislink.tensor_ops import GRAM_CERTIFICATE_MAX, RANK_TOL, rank1_approx, solve_gram, unfold

from oracle_models import (comparison_certificate, fold, gram_certificate, mode_n_product, modewise_contraction,
                           sensed_channel_regressor, spectral_rank, unvec, vec)


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# ---------------------------------------------------------------- unfold/fold

def test_unfold_single_entry():
    t = np.zeros((2, 3, 4), dtype=complex)
    t[0, 0, 0] = 2.5 - 1j
    m1 = unfold(t, 1)
    assert m1.shape == (2, 12)
    assert m1[0, 0] == 2.5 - 1j
    assert np.count_nonzero(m1) == 1


def test_unfold_2x2x2_by_enumeration():
    rng = np.random.default_rng(7)
    t = crandn(rng, 2, 2, 2)
    # mode-3 rows are the column-major vec of each frontal slice
    expected = np.array([
        [t[0, 0, 0], t[1, 0, 0], t[0, 1, 0], t[1, 1, 0]],
        [t[0, 0, 1], t[1, 0, 1], t[0, 1, 1], t[1, 1, 1]],
    ])
    assert np.array_equal(unfold(t, 3), expected)
    # mode-1 concatenates frontal slices, mode-2 their transposes
    assert np.array_equal(unfold(t, 1), np.hstack([t[:, :, 0], t[:, :, 1]]))
    assert np.array_equal(unfold(t, 2), np.hstack([t[:, :, 0].T, t[:, :, 1].T]))


@pytest.mark.parametrize("mode", [1, 2, 3])
@pytest.mark.parametrize("shape", [(3, 4, 2), (1, 1, 1), (5, 2, 7), (2, 6, 3)])
def test_fold_unfold_round_trip(mode, shape):
    rng = np.random.default_rng(mode)
    t = crandn(rng, *shape)
    assert np.array_equal(fold(unfold(t, mode), mode, shape), t)


def test_fold_zero_matrix():
    assert np.array_equal(fold(np.zeros((4, 6)), 2, (3, 4, 2)), np.zeros((3, 4, 2)))


def test_fold_mode2_enumeration():
    rng = np.random.default_rng(11)
    t = crandn(rng, 2, 3, 2)
    m2 = np.hstack([t[:, :, 0].T, t[:, :, 1].T])
    assert np.array_equal(fold(m2, 2, (2, 3, 2)), t)


def test_unfold_fold_errors():
    t = np.zeros((2, 2, 2))
    with pytest.raises(ValueError):
        unfold(t, 4)
    with pytest.raises(ValueError, match="^expected a third-order tensor, got ndim=2$"):
        unfold(np.zeros((2, 2)), 1)
    with pytest.raises(ValueError):
        fold(np.zeros((2, 5)), 1, (2, 2, 2))


# ----------------------------------------------------------------------- kron

def test_kron_identity_block_diagonal():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = np.kron(np.eye(2), a)
    assert np.array_equal(out[:2, :2], a)
    assert np.array_equal(out[2:, 2:], a)
    assert np.all(out[:2, 2:] == 0) and np.all(out[2:, :2] == 0)


def test_kron_scalar():
    a = np.array([[1.0 + 1j, 2.0], [0.0, -1j]])
    assert np.allclose(np.kron(np.array([[2.0 - 1j]]), a), (2.0 - 1j) * a)


def test_kron_mixed_product():
    rng = np.random.default_rng(3)
    for _ in range(100):
        a, b, c, d = (crandn(rng, 2, 2) for _ in range(4))
        lhs = np.kron(a @ b, c @ d)
        rhs = np.kron(a, c) @ np.kron(b, d)
        assert np.linalg.norm(lhs - rhs) < 1e-12 * max(1.0, np.linalg.norm(rhs))


# ----------------------------------------------------- scipy.linalg.khatri_rao

def test_khatri_rao_single_columns():
    rng = np.random.default_rng(5)
    a = crandn(rng, 3, 1)
    b = crandn(rng, 2, 1)
    assert np.allclose(khatri_rao(a, b), np.kron(a, b))


def test_khatri_rao_identity_columns():
    out = khatri_rao(np.eye(2), np.eye(2))
    expected = np.zeros((4, 2))
    expected[0, 0] = 1.0
    expected[3, 1] = 1.0
    assert np.array_equal(out, expected)


def test_khatri_rao_reduction_matrix():
    # A (.) B == (A x B) Xi with Xi selecting the matching-column positions
    rng = np.random.default_rng(9)
    for _ in range(100):
        a = crandn(rng, 2, 3)
        b = crandn(rng, 4, 3)
        p = a.shape[1]
        xi = np.zeros((p * p, p))
        for j in range(p):
            xi[j * p + j, j] = 1.0
        assert np.linalg.norm(khatri_rao(a, b) - np.kron(a, b) @ xi) < 1e-12


def test_khatri_rao_column_mismatch():
    with pytest.raises(ValueError):
        khatri_rao(np.ones((2, 2)), np.ones((2, 3)))


# ------------------------------------------------------------------ vec/unvec

def test_vec_identity():
    assert np.array_equal(vec(np.eye(2)), np.array([1.0, 0.0, 0.0, 1.0]))


def test_vec_three_factor_identity():
    rng = np.random.default_rng(13)
    for _ in range(100):
        a = crandn(rng, 2, 3)
        b = crandn(rng, 3, 3)
        c = crandn(rng, 3, 2)
        lhs = vec(a @ b @ c)
        rhs = np.kron(c.T, a) @ vec(b)
        assert np.linalg.norm(lhs - rhs) < 1e-12 * np.linalg.norm(rhs)


def test_vec_diagonal_middle_factor():
    rng = np.random.default_rng(17)
    for _ in range(100):
        a = crandn(rng, 2, 3)
        d = np.diag(crandn(rng, 3))
        c = crandn(rng, 3, 2)
        lhs = vec(a @ d @ c)
        rhs = khatri_rao(c.T, a) @ np.diag(d)
        assert np.linalg.norm(lhs - rhs) < 1e-12 * np.linalg.norm(rhs)


def test_diag_swap_identity():
    rng = np.random.default_rng(19)
    for _ in range(100):
        a = crandn(rng, 4)
        b = crandn(rng, 4)
        assert np.allclose(np.diag(a) @ b, np.diag(b) @ a)


def test_kron_of_vectors_is_vec_of_outer():
    rng = np.random.default_rng(23)
    for _ in range(100):
        a = crandn(rng, 3)
        b = crandn(rng, 2)
        assert np.allclose(np.kron(a, b), vec(np.outer(b, a)))


def test_unvec_round_trip_and_errors():
    rng = np.random.default_rng(29)
    m = crandn(rng, 3, 5)
    assert np.array_equal(unvec(vec(m), 3, 5), m)
    with pytest.raises(ValueError):
        unvec(np.ones(7), 2, 3)


# ------------------------------------------------------------- mode-n product

def test_mode_n_product_identity_and_zero():
    rng = np.random.default_rng(31)
    t = crandn(rng, 3, 4, 2)
    assert np.allclose(mode_n_product(t, np.eye(3), 1), t)
    assert np.allclose(mode_n_product(t, np.zeros((5, 4)), 2), 0)


def test_mode_1_product_slice_by_slice():
    rng = np.random.default_rng(37)
    t = crandn(rng, 3, 4, 2)
    m = crandn(rng, 5, 3)
    out = mode_n_product(t, m, 1)
    for k in range(2):
        assert np.allclose(out[:, :, k], m @ t[:, :, k])


@pytest.mark.parametrize("mode", [1, 2, 3])
def test_mode_n_product_unfolding_identity(mode):
    rng = np.random.default_rng(41 + mode)
    t = crandn(rng, 3, 4, 2)
    m = crandn(rng, 5, t.shape[mode - 1])
    out = mode_n_product(t, m, mode)
    assert np.linalg.norm(unfold(out, mode) - m @ unfold(t, mode)) < 1e-12


def test_mode_n_product_dimension_error():
    with pytest.raises(ValueError):
        mode_n_product(np.zeros((2, 3, 4)), np.zeros((5, 2)), 2)


# ------------------------------------------------------- modewise contraction

def test_contraction_identity_slices():
    rng = np.random.default_rng(43)
    a = crandn(rng, 2, 3, 4)
    b = np.stack([np.eye(3)] * 4, axis=2)
    assert np.allclose(modewise_contraction(a, b), a)


def test_contraction_single_slice_is_matrix_product():
    rng = np.random.default_rng(47)
    a = crandn(rng, 2, 3, 1)
    b = crandn(rng, 3, 4, 1)
    out = modewise_contraction(a, b)
    assert np.allclose(out[:, :, 0], a[:, :, 0] @ b[:, :, 0])


def test_contraction_enumeration():
    rng = np.random.default_rng(53)
    a = crandn(rng, 2, 3, 2)
    b = crandn(rng, 3, 4, 2)
    out = modewise_contraction(a, b)
    for k in range(2):
        for i in range(2):
            for j in range(4):
                expected = sum(a[i, l, k] * b[l, j, k] for l in range(3))
                assert abs(out[i, j, k] - expected) < 1e-12


def test_contraction_shape_errors():
    with pytest.raises(ValueError):
        modewise_contraction(np.zeros((2, 3, 2)), np.zeros((4, 4, 2)))
    with pytest.raises(ValueError):
        modewise_contraction(np.zeros((2, 3, 2)), np.zeros((3, 4, 3)))


# ---------------------------------------------------- certified least-squares solve

def tall_orientation(a):
    """``a`` itself, or ``a.T`` when ``a`` is wide: the receivers pass the tall orientation to :func:`solve_gram`."""
    return a.T if a.shape[0] < a.shape[1] else a


def certified_solve(a, b):
    """``pinv(a) @ b`` from :func:`solve_gram` of a tall ``a``, and whether it fell back to the SVD: the
    least-squares solve of ``a @ x = b`` through its normal equations, as the ALS symbol step forms them."""
    x, rank = gram_solve(a, b)
    return x, rank is not None


def gram_solve(a, b):
    """:func:`solve_gram` of ``a @ x = b`` with the normal equations formed here: the solution and the rank its
    SVD path read, ``None`` on the Cholesky path."""
    return solve_gram(a.conj().T @ a, a.conj().T @ b, lambda: (a, b))


def assert_truncated_least_squares(a, b, x, rank):
    """``x`` and ``rank`` are the least-squares solution of ``a @ x = b`` truncated at the rank rule and its rank,
    by LAPACK's ``gelsd`` and :func:`oracle_models.spectral_rank`; an all-zero ``a`` gives exactly zero."""
    assert rank == spectral_rank(np.linalg.svd(a, compute_uv=False))
    want = scipy.linalg.lstsq(a, b, cond=RANK_TOL)[0]
    assert x.shape == want.shape
    if not a.any():
        assert rank == 0 and np.array_equal(x, np.zeros_like(want))
    else:
        assert np.linalg.norm(x - want) <= 1e-13 * np.linalg.norm(want)


def full_rank_solve(a, b, what):
    """:func:`require_full_rank` of ``a @ x = b``, with the normal equations ``a^H a``, ``a^H b`` formed here."""
    ah = a.conj().T
    return require_full_rank(ah @ a, ah @ b, lambda: (a, b), what)


def certified_pinv(a):
    """The pseudo-inverse of ``a`` from :func:`solve_gram` on its tall orientation, and whether it fell back."""
    tall = tall_orientation(a)
    inverse, fell_back = certified_solve(tall, np.eye(len(tall), dtype=a.dtype))
    return (inverse if tall is a else inverse.T), fell_back


def test_pinv_identity_and_zero():
    inverse, fell_back = certified_pinv(np.eye(4))
    assert not fell_back and np.allclose(inverse, np.eye(4)) and gram_certificate(np.eye(4)) == 4.0
    assert certified_pinv(np.zeros((2, 3)))[1] and gram_certificate(np.zeros((2, 2))) == np.inf


def test_solve_gram_matches_numpy_and_bounds_the_condition_number():
    rng = np.random.default_rng(71)
    for a in (crandn(rng, 9, 4), crandn(rng, 4, 9), crandn(rng, 6, 6), rng.standard_normal((9, 4))):
        inverse, fell_back = certified_pinv(a)
        assert not fell_back and inverse.dtype == a.dtype
        assert np.max(np.abs(inverse - np.linalg.pinv(a))) < 1e-12 * np.max(np.abs(inverse))
        tall = tall_orientation(a)
        certificate = gram_certificate(tall.conj().T @ tall)
        assert np.linalg.cond(a) <= certificate <= np.sqrt(min(a.shape)) * np.linalg.cond(a) * (1 + 1e-12)
        rhs = crandn(rng, len(tall), 3)
        product, fell_back = certified_solve(tall, rhs)
        want = np.linalg.pinv(tall) @ rhs
        assert not fell_back
        assert np.max(np.abs(product - want)) < 1e-12 * np.max(np.abs(want))
    # three problems, the middle one with cond 1e6, so only it takes the SVD path:
    # require_full_rank decides and solves each exactly as solve_gram does
    a = np.stack([crandn(rng, 9, 4), with_singular_values(rng, 9, np.array([1.0, 1e-2, 1e-4, 1e-6])),
                  crandn(rng, 9, 4)])
    b = crandn(rng, 3, 9, 2)
    for i in range(3):
        alone, fell_back = certified_solve(a[i], b[i])
        assert fell_back == (i == 1)
        assert np.array_equal(full_rank_solve(a[i], b[i], "a"), alone)
    a[1, :, 3] = a[1, :, 0]
    with pytest.raises(RankDeficiencyError, match="a has numerical rank 3, need 4"):
        full_rank_solve(a[1], b[1], "a")


@pytest.mark.parametrize("a", [np.zeros((5, 3)), np.zeros((3, 5), dtype=complex),
                               np.outer(np.arange(1.0, 5.0), np.ones(4))])
def test_solve_gram_never_certifies_a_singular_matrix(a):
    assert certified_pinv(a)[1]


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 24), cols=st.integers(1, 24), lhs_rows=st.integers(1, 4),
       log_ratio=st.floats(-13.0, 0.0), log_scale=st.floats(-150.0, 150.0), seed=st.integers(0, 2**32 - 1))
def test_certified_product_is_full_rank_and_within_the_normal_equation_bound(rows, cols, lhs_rows, log_ratio,
                                                                             log_scale, seed):
    # sigma_min / sigma_max is 10**log_ratio, log-uniform over [1e-13, 1]; about a third of the draws certify
    rng = np.random.default_rng(seed)
    size = min(rows, cols)
    middle = np.sort(10.0 ** rng.uniform(log_ratio, 0.0, max(size - 2, 0)))[::-1]
    s = np.r_[1.0, middle, 10.0 ** log_ratio][:size] * 10.0 ** log_scale
    a = tall_orientation(with_singular_values(rng, rows, s) @ np.linalg.qr(crandn(rng, cols, size))[0].conj().T)
    rhs = crandn(rng, len(a), lhs_rows)
    product, fell_back = certified_solve(a, rhs)
    gram = a.conj().T @ a
    certificate = gram_certificate(gram)
    if certificate < np.inf:
        # the inverse-free bound the kernel checks first is never below the certificate it stands for
        assert comparison_certificate(gram) >= certificate * (1 - 1e-12)
    if not fell_back:
        # the kernel accepted the solve, so the certificate recomputed from the Gram must be below the cut
        assert certificate < GRAM_CERTIFICATE_MAX * (1 + 1e-12)
        spectrum = np.linalg.svd(a, compute_uv=False)
        assert spectral_rank(spectrum) == size
        assert spectrum[0] / spectrum[-1] <= certificate * (1 + 1e-6)
        # the normal equations' forward error, on the scale |rhs| |pinv(a)| of the solution's rounding
        bound = 10 * np.finfo(float).eps * certificate**2 * np.linalg.norm(rhs) / spectrum[-1]
        assert np.linalg.norm(product - np.linalg.pinv(a) @ rhs) <= bound


def diagonal_gram(case):
    """A diagonal Gram: drawn with a spread of 1e4, or a surface ALS channel-step Gram, diagonal to 1e-15."""
    rng = np.random.default_rng(103)
    if case == "real":
        return np.diag(10.0 ** rng.uniform(-4.0, 0.0, 12))
    if case == "complex":
        return np.diag(10.0 ** rng.uniform(-4.0, 0.0, 12)).astype(complex)
    sizes, scheme = case.split()
    small = {"m": 4, "n": 8, "nc": 2, "l": 2, "r": 2, "t": 4, "k": 16} if sizes == "small" else {}
    cfg = ScenarioConfig(**small, scheme=scheme)
    a = sensed_channel_regressor(build_coding(cfg), crandn(rng, cfg.streams, cfg.t))
    gram = a.conj().T @ a
    assert np.max(np.abs(gram - np.diag(np.diag(gram)))) <= 1e-14 * np.max(np.abs(gram))
    return gram


@pytest.mark.parametrize("case", ["real", "complex", "default tstc", "default krstc", "small tstc", "small krstc"])
def test_comparison_bound_is_the_certificate_of_a_diagonal_gram(case):
    gram = diagonal_gram(case)
    assert comparison_certificate(gram) == pytest.approx(gram_certificate(gram), rel=1e-12)


def test_solve_gram_decides_on_the_bound_alone():
    rng = np.random.default_rng(107)
    for a, bound_decides in ((with_singular_values(rng, 30, np.logspace(0.0, -1.0, 20)), True),
                             (np.triu(np.ones((20, 20))), False)):
        b = crandn(rng, len(a), 2)
        x, fell_back = certified_solve(a, b)
        assert fell_back != bound_decides
        assert np.linalg.norm(x - np.linalg.pinv(a) @ b) <= 1e-10 * np.linalg.norm(x)
    # the all-ones upper triangle is its own Cholesky factor: its inverse is bidiagonal (certificate
    # sqrt(210 * 39) = 90.5), but M(U)^{-1} has entries 2^(j-i-1), so the bound sends it to the SVD
    gram = np.triu(np.ones((20, 20))).T @ np.triu(np.ones((20, 20)))
    assert comparison_certificate(gram) >= GRAM_CERTIFICATE_MAX > 100 > gram_certificate(gram)


def test_pinv_left_inverse_full_column_rank():
    rng = np.random.default_rng(59)
    a = crandn(rng, 6, 3)
    assert np.linalg.norm(certified_pinv(a)[0] @ a - np.eye(3)) < 1e-10


def test_pinv_moore_penrose_conditions():
    rng = np.random.default_rng(61)
    a = crandn(rng, 5, 3)
    ap = certified_pinv(a)[0]
    scale = np.linalg.norm(a)
    assert np.linalg.norm(a @ ap @ a - a) < 1e-12 * scale
    assert np.linalg.norm(ap @ a @ ap - ap) < 1e-12 * np.linalg.norm(ap)
    assert np.linalg.norm((a @ ap).conj().T - a @ ap) < 1e-12
    assert np.linalg.norm((ap @ a).conj().T - ap @ a) < 1e-12


def test_pinv_idempotent():
    rng = np.random.default_rng(67)
    a = crandn(rng, 4, 6)
    assert np.linalg.norm(certified_pinv(certified_pinv(a)[0])[0] - a) < 1e-10 * np.linalg.norm(a)


# ------------------------------------------------------ normal-equation solve

def with_singular_values(rng, rows, s):
    """A complex ``rows x len(s)`` matrix with singular values ``s``."""
    u, _ = np.linalg.qr(crandn(rng, rows, len(s)))
    v, _ = np.linalg.qr(crandn(rng, len(s), len(s)))
    return (u * s) @ v.conj().T


@settings(max_examples=100, deadline=None)
@given(cols=st.integers(1, 12), extra_rows=st.integers(0, 40), rhs=st.integers(0, 3),
       spread=st.floats(0.0, 2.0), seed=st.integers(0, 2**32 - 1))
def test_solve_gram_matches_pinv_on_full_column_rank(cols, extra_rows, rhs, spread, seed):
    rng = np.random.default_rng(seed)
    a = with_singular_values(rng, cols + extra_rows, np.logspace(0.0, -spread, cols))
    b = crandn(rng, cols + extra_rows, rhs) if rhs else crandn(rng, cols + extra_rows)
    x, fell_back = certified_solve(a, b)
    want = np.linalg.pinv(a) @ b
    # cond(a) <= 100 keeps the certificate below the cap; at 12 columns some draws' bounds reach it
    assert_bound_decided(a.conj().T @ a, fell_back)
    assert x.shape == want.shape
    assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want)


def assert_bound_decided(gram, fell_back):
    """``solve_gram`` fell back exactly where the comparison bound is not below the cap, away from rounding at it."""
    bound = comparison_certificate(gram)
    if abs(bound - GRAM_CERTIFICATE_MAX) > 1e-9 * GRAM_CERTIFICATE_MAX:
        assert fell_back == (bound >= GRAM_CERTIFICATE_MAX)


def fallback_input(case):
    rng = np.random.default_rng(89)
    full = crandn(rng, 20, 4)
    if case == "rank deficient":
        return np.hstack([full[:, :3], full[:, :1]]), crandn(rng, 20, 2)      # rank 3 of 4
    if case == "all zero":
        return np.zeros((20, 4), dtype=complex), crandn(rng, 20, 2)
    if case == "overflowing gram":      # a^H a is beyond the float range, though a and pinv(a) are not
        return 1e160 * full, crandn(rng, 20, 2)
    # cond(a) = 1e6, so the Gram certificate is at least 1e6 > GRAM_CERTIFICATE_MAX
    return with_singular_values(rng, 20, np.array([1.0, 1e-2, 1e-4, 1e-6])), crandn(rng, 20)


@pytest.mark.parametrize("case", ["rank deficient", "all zero", "ill conditioned", "overflowing gram"])
def test_solve_gram_falls_back_to_pinv(case):
    a, b = fallback_input(case)
    with np.errstate(over="ignore", invalid="ignore"):
        x, rank = gram_solve(a, b)
    assert rank is not None
    assert_truncated_least_squares(a, b, x, rank)


def test_solve_gram_truncates_at_the_rank_rule():
    # 1e-12 is below the RANK_TOL cut, though above numpy's default pinv cut of max(20, 4) * eps = 4.4e-15,
    # whose solution would hold that direction at about 1e11 times the truncated solution's norm
    rng = np.random.default_rng(109)
    a = with_singular_values(rng, 20, np.array([1.0, 0.5, 0.1, 1e-12]))
    for b in (crandn(rng, 20), crandn(rng, 20, 2)):
        x, rank = gram_solve(a, b)
        assert rank == 3
        assert_truncated_least_squares(a, b, x, rank)


def test_an_svd_path_solve_runs_one_svd(monkeypatch):
    calls = []
    svd, pinv = np.linalg.svd, np.linalg.pinv
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: calls.append("svd") or svd(*args, **kw))
    monkeypatch.setattr(np.linalg, "pinv", lambda *args, **kw: calls.append("pinv") or pinv(*args, **kw))
    a, b = fallback_input("ill conditioned")
    full_rank_solve(a, b, "a")
    assert calls == ["svd"]
    calls.clear()
    a, b = fallback_input("rank deficient")
    assert gram_solve(a, b)[1] == 3
    assert calls == ["svd"]


def test_solve_gram_calls_problem_only_on_fallback():
    calls = []

    def problem_of(a, b):
        return lambda: calls.append(1) or (a, b)

    rng = np.random.default_rng(97)
    a, b = with_singular_values(rng, 20, np.array([1.0, 0.5, 0.2, 0.1])), crandn(rng, 20, 2)
    x, rank = solve_gram(a.conj().T @ a, a.conj().T @ b, problem_of(a, b))
    assert rank is None and not calls
    assert np.linalg.norm(x - np.linalg.pinv(a) @ b) <= 1e-10 * np.linalg.norm(x)
    for case in ("rank deficient", "all zero"):
        a, b = fallback_input(case)
        calls.clear()
        x, rank = solve_gram(a.conj().T @ a, a.conj().T @ b, problem_of(a, b))
        assert rank is not None and calls == [1]
        assert_truncated_least_squares(a, b, x, rank)


@settings(max_examples=200, deadline=None)
@given(cols=st.integers(1, 24), extra_rows=st.integers(0, 24), rhs=st.integers(1, 3),
       log_ratio=st.floats(-6.0, -2.0), seed=st.integers(0, 2**32 - 1))
def test_solve_gram_and_require_full_rank_make_one_decision(cols, extra_rows, rhs, log_ratio, seed):
    # sigma_min / sigma_max is 10**log_ratio, log-uniform over [1e-6, 1e-2]: the certificate
    # falls on both sides of GRAM_CERTIFICATE_MAX, and every draw has full numerical rank
    rng = np.random.default_rng(seed)
    middle = np.sort(10.0 ** rng.uniform(log_ratio, 0.0, max(cols - 2, 0)))[::-1]
    a = with_singular_values(rng, cols + extra_rows, np.r_[1.0, middle, 10.0 ** log_ratio][:cols])
    b = crandn(rng, cols + extra_rows, rhs)
    x, fell_back = certified_solve(a, b)
    gram = a.conj().T @ a
    assert_bound_decided(gram, fell_back)
    if not fell_back:
        # the bound is at least the exact certificate, so nothing the certificate would refuse is accepted
        assert gram_certificate(gram) < GRAM_CERTIFICATE_MAX
    svd_calls = []
    svd = np.linalg.svd
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "svd", lambda *args, **kw: svd_calls.append(1) or svd(*args, **kw))
        checked = full_rank_solve(a, b, "a")
    assert bool(svd_calls) == fell_back
    if not fell_back:
        assert np.array_equal(checked, x)


def test_solve_gram_keeps_a_complex_rhs_of_a_real_gram():
    rng = np.random.default_rng(101)
    a, b = rng.standard_normal((6, 3)), crandn(rng, 6, 2)
    x, fell_back = certified_solve(a, b)
    assert not fell_back
    assert np.linalg.norm(x - np.linalg.pinv(a) @ b) <= 1e-12 * np.linalg.norm(x)


# --------------------------------------------------------------- rank-1 split

def test_rank1_exact_input():
    rng = np.random.default_rng(71)
    x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    g = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    m = np.outer(x, g)
    u, sigma, v = rank1_approx(m)
    assert np.linalg.norm(sigma * np.outer(u, v.conj()) - m) < 1e-12 * np.linalg.norm(m)
    assert abs(np.linalg.norm(u) - 1) < 1e-12 and abs(np.linalg.norm(v) - 1) < 1e-12


def test_rank1_identity_sigma_one():
    _, sigma, _ = rank1_approx(np.eye(2))
    assert abs(sigma - 1.0) < 1e-12


def test_rank1_matches_power_iteration_oracle():
    rng = np.random.default_rng(73)
    m = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    # independent oracle: power iteration on m^H m
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    v /= np.linalg.norm(v)
    for _ in range(5000):
        u = m @ v
        u /= np.linalg.norm(u)
        v = m.conj().T @ u
        sigma_oracle = np.linalg.norm(v)
        v /= sigma_oracle
    u_hat, sigma, v_hat = rank1_approx(m)
    assert abs(sigma - sigma_oracle) < 1e-10
    err = np.linalg.norm(m - sigma * np.outer(u_hat, v_hat.conj()))
    err_oracle = np.linalg.norm(m - sigma_oracle * np.outer(u, v.conj()))
    assert err < err_oracle + 1e-10


def test_rank1_beats_random_candidates():
    rng = np.random.default_rng(79)
    m = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    u, sigma, v = rank1_approx(m)
    best = np.linalg.norm(m - sigma * np.outer(u, v.conj()))
    for _ in range(200):
        x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        # optimal scale for the sampled pair
        c = (x.conj() @ m @ y) / (np.linalg.norm(x) ** 2 * np.linalg.norm(y) ** 2)
        assert best <= np.linalg.norm(m - c * np.outer(x, y.conj())) + 1e-12


def test_rank1_zero_input_raises():
    with pytest.raises(ValueError, match="^rank-1 approximation of an all-zero matrix is undefined$"):
        rank1_approx(np.zeros((3, 3)))
    with pytest.raises(ValueError, match="^rank1_approx expects a nonempty matrix$"):
        rank1_approx(np.zeros((3, 0)))


def test_rank1_deterministic_phase():
    rng = np.random.default_rng(83)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    u1, s1, v1 = rank1_approx(m)
    u2, s2, v2 = rank1_approx(m.copy())
    assert np.array_equal(u1, u2) and s1 == s2 and np.array_equal(v1, v2)
    idx = np.argmax(np.abs(u1))
    assert abs(u1[idx].imag) < 1e-14 and u1[idx].real > 0


@pytest.mark.parametrize("m", [np.array([[1e-310]]), np.array([[5e-324]]),
                               np.array([[3e-310, -1e-310j, 0.0], [1e-311, 2e-310, 1e-310]])],
                         ids=["subnormal", "smallest", "subnormal 2x3"])
def test_rank1_of_subnormal_input(m):
    u, sigma, v = rank1_approx(m)
    u_svd, s_svd, vh_svd = np.linalg.svd(m * 2.0 ** 500 * 2.0 ** 500)    # exact
    assert sigma == pytest.approx(s_svd[0] * 2.0 ** -500 * 2.0 ** -500, rel=1e-12)
    assert abs(abs(np.vdot(u, u_svd[:, 0])) - 1) <= 1e-12
    assert abs(abs(np.vdot(v, vh_svd[0].conj())) - 1) <= 1e-12


def test_rank1_sigma_beyond_the_float_range_is_inf():
    m = np.array([[1.7e308, -0.85e308], [0.425e308j, 0.0]])
    with pytest.warns(RuntimeWarning):
        u, sigma, v = rank1_approx(m)
    u_svd, s_svd, vh_svd = np.linalg.svd(m / 4)
    assert sigma == np.inf
    assert abs(abs(np.vdot(u, u_svd[:, 0])) - 1) <= 1e-12
    assert abs(abs(np.vdot(v, vh_svd[0].conj())) - 1) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 24), cols=st.integers(1, 24), gap=st.floats(0.05, 1.0),
       log_scale=st.floats(-300.0, 300.0), seed=st.integers(0, 2**32 - 1))
def test_rank1_matches_the_top_singular_pair(rows, cols, gap, log_scale, seed):
    # sigma_2 <= (1 - gap) sigma_1; beyond about 1e+-150 the unscaled Gram would under- or overflow
    rng = np.random.default_rng(seed)
    size = min(rows, cols)
    s = np.r_[1.0, rng.uniform(0.0, 1.0 - gap, size - 1)] * 10.0 ** log_scale
    m = with_singular_values(rng, rows, s) @ np.linalg.qr(crandn(rng, cols, size))[0].conj().T
    u, sigma, v = rank1_approx(m)
    u_svd, s_svd, vh_svd = np.linalg.svd(m)
    assert abs(sigma - s_svd[0]) <= 1e-12 * s_svd[0]
    assert abs(np.linalg.norm(u) - 1) <= 1e-12 and abs(np.linalg.norm(v) - 1) <= 1e-12
    assert abs(abs(np.vdot(u, u_svd[:, 0])) - 1) <= 1e-12
    assert abs(abs(np.vdot(v, vh_svd[0].conj())) - 1) <= 1e-12
