"""Every least-squares regressor against its explicit per-sub-frame formula.

The receivers build their regressors as batched products over the coding
set's sub-frame stacks.  Here each one is rebuilt block by block with
``np.kron``/``np.diag`` from the raw code, on ``k > 1`` sub-frames and a
random symbol matrix, for both coding schemes.  The ALS channel steps never
build their regressor unless they fall back to the SVD; the normal
equations they read from their tables are checked, at every iteration,
against the explicit regressor over random feasible configurations.
"""

import contextlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import khatri_rao

from hrislink import bs_rx, hris_rx, rx_common, tensor_ops
from hrislink.bs_rx import bs_kronf
from hrislink.coding import build_coding, gen_symbols
from hrislink.hris_rx import channel_code_matrix, composite_code_matrix, symbol_code_matrix
from hrislink.identifiability import feasible_subframes
from hrislink.rx_common import RankDeficiencyError
from hrislink.scenario import ScenarioConfig, draw_channels
from hrislink.synthesis import reflect_blocks, synth_ybs, synth_yrc
from hrislink.tensor_ops import unfold, vec

from oracle_models import with_noise


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.fixture(params=["tstc", "krstc"])
def case(request):
    cfg = ScenarioConfig(m=4, n=8, nc=2, l=2, r=2, t=5, k=16, scheme=request.param)
    coding = build_coding(cfg)
    rng = np.random.default_rng(11)
    x = crandn(rng, cfg.streams, cfg.t)
    g = crandn(rng, cfg.n, cfg.l)
    h = crandn(rng, cfg.m, cfg.n)
    return cfg, coding, g, h, x


def mix(coding, k):
    """``mix_k`` from the raw code: a tstc code slice or ``diag(code[k])``."""
    return coding.code[:, :, k] if coding.scheme == "tstc" else np.diag(coding.code[k])


def assert_same(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_hris_channel_code_matrix(case):
    cfg, coding, _, _, x = case
    want = np.vstack([np.kron((mix(coding, k) @ x).T, coding.sensing[:, :, k]) for k in range(cfg.k)])
    assert_same(channel_code_matrix(coding, x), want)


def test_hris_symbol_code_matrix(case):
    cfg, coding, g, _, _ = case
    want = np.vstack([coding.sensing[:, :, k] @ g @ mix(coding, k) for k in range(cfg.k)])
    assert_same(symbol_code_matrix(coding, g), want)


def test_hris_composite_code_matrix(case):
    cfg, coding, _, _, _ = case
    weights = [vec(mix(coding, k).T) if cfg.scheme == "tstc" else coding.code[k] for k in range(cfg.k)]
    want = np.vstack([np.kron(weights[k][None, :], coding.sensing[:, :, k]) for k in range(cfg.k)])
    assert_same(composite_code_matrix(coding), want)


def test_bs_channel_code_matrix(case):
    cfg, coding, g, _, x = case
    want = np.hstack([np.diag(coding.reflect[k]) @ g @ mix(coding, k) @ x for k in range(cfg.k)])
    assert_same(bs_rx.channel_code_matrix(reflect_blocks(coding, g), x), want)


def test_bs_symbol_code_matrix(case):
    cfg, coding, g, h, _ = case
    want = np.vstack([h @ np.diag(coding.reflect[k]) @ g @ mix(coding, k) for k in range(cfg.k)])
    assert_same(bs_rx.symbol_code_matrix(reflect_blocks(coding, g), h), want)


def test_bs_kronf_right_factor(case):
    cfg, coding, g, h, x = case
    y = np.stack([h @ np.diag(coding.reflect[k]) @ g @ mix(coding, k) @ x for k in range(cfg.k)], axis=2)
    # the explicit problem behind the normal equations bs_kronf solves is right.T @ Z.T = unfold(y, 3)
    a, b = bs_rx.kronecker_problem(y, reflect_blocks(coding, g))[2]()
    assert np.array_equal(b, unfold(y, 3))
    right = a.T
    want = np.column_stack([vec(np.diag(coding.reflect[k]) @ g @ mix(coding, k)) for k in range(cfg.k)])
    assert_same(right, want)
    if cfg.scheme == "krstc":
        # The Khatri-Rao form of the krstc right factor.  With +-1 codes it holds the
        # same products, taken in the other operand order, so it agrees to rounding.
        khatri_rao_form = vec(g)[:, None] * khatri_rao(coding.code.T, coding.reflect.T)
        assert np.max(np.abs(right - khatri_rao_form)) <= 4 * np.finfo(float).eps * np.max(np.abs(right))


@st.composite
def bs_problems(draw):
    """A small config at the ``kronf`` BS threshold (the largest of the three BS ones), and a seed."""
    scheme = draw(st.sampled_from(["tstc", "krstc"]))
    l = draw(st.integers(1, 3))
    r = l if scheme == "krstc" else draw(st.integers(1, 3))
    cfg = ScenarioConfig(m=draw(st.integers(1, 3)), n=draw(st.integers(1, 6)), nc=draw(st.integers(1, 3)),
                         l=l, r=r, t=draw(st.integers(1, 4)), k=1, scheme=scheme)
    surface = "kronf" if scheme == "tstc" else "krf"
    return cfg.replace(k=feasible_subframes(cfg, (surface, "kronf"))), draw(st.integers(0, 2**32 - 1))


class Seen(Exception):
    """Raised by a recording stand-in once it has what the test needs."""


@settings(max_examples=40, deadline=None)
@given(problem=bs_problems())
def test_bs_receivers_read_one_kronecker_problem(problem):
    cfg, seed = problem
    coding = build_coding(cfg)
    rng = np.random.default_rng(seed)
    g, x, y = crandn(rng, cfg.n, cfg.l), crandn(rng, cfg.streams, cfg.t), crandn(rng, cfg.m, cfg.t, cfg.k)
    w, n, t, m = cfg.streams, cfg.n, cfg.t, cfg.m
    gram, cross, problem_of = bs_rx.kronecker_problem(y, reflect_blocks(coding, g))
    a, b = problem_of()
    # the Kronecker Gram and cross are the explicit normal equations of the right factor, bit for bit
    assert np.array_equal(gram, a.conj().T @ a) and np.array_equal(cross, a.conj().T @ b)

    seen = []
    solve = bs_rx.require_full_rank
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bs_rx, "require_full_rank", lambda *args: seen.append(args) or solve(*args))
        # the solves are recorded before they run; a rank-deficient one (some krstc sizes at this k) is beside the point
        with contextlib.suppress(RankDeficiencyError):
            bs_kronf(y, g, coding)
        with contextlib.suppress(RankDeficiencyError):
            bs_rx.bs_channel_only(y, g, x, coding)

        def stop(y_bs, gram_table, cross_table, *rest):
            seen.append((gram_table, cross_table))
            raise Seen
        patch.setattr(bs_rx, "run_als", stop)
        with pytest.raises(Seen):
            bs_rx.bs_bals(y, g, coding)
    (kronf_gram, kronf_cross, *_), (h_gram, h_rhs, *_), (start_gram, start_cross, *_), (gram_table, cross_table) = seen
    # bs_kronf, and bs_bals for its closed-form start (k is at bs_kronf's threshold), solve exactly these normal
    # equations
    assert np.array_equal(kronf_gram, gram) and np.array_equal(kronf_cross, cross)
    assert np.array_equal(start_gram, gram) and np.array_equal(start_cross, cross)
    # bs_bals' tables are their rearrangement: [(s, s'), (i, j)] from [(s, i), (s', j)], [(s, tau), (i, r)] from
    # [(s, i), (tau, r)]
    s1, s2, i, j = np.meshgrid(range(w), range(w), range(n), range(n), indexing="ij")
    assert np.array_equal(gram_table, gram[s1 * n + i, s2 * n + j].reshape(w * w, n * n))
    s1, tau, i, r = np.meshgrid(range(w), range(t), range(n), range(m), indexing="ij")
    assert np.array_equal(cross_table, cross[s1 * n + i, tau * m + r].reshape(w * t, n * m))
    # bs_channel_only's normal equations, contracted from those tables, are the explicit ones of its regressor C
    c = bs_rx.channel_code_matrix(reflect_blocks(coding, g), x).T
    assert_same(h_gram, c.conj().T @ c)
    assert_same(h_rhs, c.conj().T @ unfold(y, 1).T)


# ------------------------------------------- structured ALS normal equations

@st.composite
def feasible_problems(draw):
    """A feasible ``bals-bals`` config, with ``k`` 1, 2 or 4 times its floor, and a seed."""
    scheme = draw(st.sampled_from(["tstc", "krstc"]))
    l = draw(st.integers(1, 3))
    r = l if scheme == "krstc" else draw(st.integers(1, 3))
    cfg = ScenarioConfig(m=draw(st.integers(1, 3)), n=draw(st.integers(1, 8)), nc=draw(st.integers(1, 3)),
                         l=l, r=r, t=draw(st.integers(1, 5)), k=1, scheme=scheme)
    k = feasible_subframes(cfg, ("bals", "bals")) * draw(st.sampled_from([1, 2, 4]))
    return cfg.replace(k=k), draw(st.integers(0, 2**32 - 1))


# Configs where aliasing between the Walsh and DFT frequencies makes the
# surface channel-step Gram non-diagonal (at the defaults it is c*I).
NON_DIAGONAL = [ScenarioConfig(m=2, n=4, nc=2, l=2, r=2, t=3, k=4, scheme="tstc"),
                ScenarioConfig(m=2, n=5, nc=2, l=3, r=3, t=2, k=8, scheme="krstc")]


def channel_solves(receive, x0, als_start, start_solves=0):
    """Every channel step's ``(gram, rhs, x)`` that ``receive()``, started from ``x0``, passes to ``solve_gram``.

    The first ``start_solves`` solves compute the receiver's own start (``bs_bals``' closed form), which ``x0``
    replaces.  After them each ALS iteration calls ``solve_gram`` twice, the channel step then the
    symbol step, so the even solves are channel steps and the odd ones symbol
    steps.  ``x`` is the symbol estimate the channel step started from: ``x0``
    for the first, then the solution of the symbol step before it.
    """
    solves = []
    solve_gram = rx_common.solve_gram

    def recording_solve(gram, rhs, problem):
        solves.append((gram, rhs, None))     # recorded before it runs: a rank-deficient start solve raises
        x, fell_back = solve_gram(gram, rhs, problem)
        solves[-1] = (gram, rhs, x)
        return x, fell_back

    with als_start(x0), pytest.MonkeyPatch.context() as patch:
        patch.setattr(rx_common, "solve_gram", recording_solve)
        receive()
    channel, symbol = solves[start_solves::2], solves[start_solves + 1::2]
    assert len(channel) == len(symbol)
    return [(gram, rhs, x) for (gram, rhs, _), x in zip(channel, [x0] + [x for _, _, x in symbol])]


def assert_normal_equations(got, a, b):
    ah = a.conj().T
    for got_part, want in zip(got, (ah @ a, ah @ b)):
        assert got_part.shape == want.shape
        assert np.max(np.abs(got_part - want)) <= 1e-12 * np.max(np.abs(want))


@settings(max_examples=80, deadline=None)
@given(problem=feasible_problems())
@example(problem=(NON_DIAGONAL[0], 1))
@example(problem=(NON_DIAGONAL[1], 2))
def test_channel_steps_form_the_exact_normal_equations(problem, als_start):
    check_every_channel_step(*problem, als_start)


@pytest.mark.parametrize("cfg", NON_DIAGONAL, ids=["tstc", "krstc"])
def test_channel_step_checks_reach_later_iterations(cfg, als_start):
    # the tables behind the Grams and right-hand sides are built before the first
    # iteration and reused, so a wrong or stale table shows from the second on
    hris_steps, bs_steps = check_every_channel_step(cfg, 4, als_start)
    assert hris_steps >= 2 and bs_steps >= 2


def check_every_channel_step(cfg, seed, als_start):
    """Check each channel solve of both ``bals`` receivers on random data; return how many each made."""
    coding = build_coding(cfg)
    rng = np.random.default_rng(seed)
    x = crandn(rng, cfg.streams, cfg.t)
    g = crandn(rng, cfg.n, cfg.l)
    y_rc = crandn(rng, cfg.nc, cfg.t, cfg.k)
    y_bs = crandn(rng, cfg.m, cfg.t, cfg.k)

    hris_steps = channel_solves(lambda: hris_rx.hris_bals(y_rc, coding), x, als_start)
    for gram, rhs, x_hat in hris_steps:  # the right-hand side of vec(G) comes as one column
        assert_normal_equations((gram, rhs), channel_code_matrix(coding, x_hat), vec(unfold(y_rc, 3).T)[:, None])

    # bs_bals first solves bs_kronf's (w*n)-column problem for its start where k reaches that receiver's threshold
    bs_steps = channel_solves(lambda: bs_rx.bs_bals(y_bs, g, coding), x, als_start,
                              start_solves=int(cfg.k >= cfg.streams * cfg.n))
    for gram, rhs, x_hat in bs_steps:
        assert_normal_equations((gram, rhs), bs_rx.channel_code_matrix(reflect_blocks(coding, g), x_hat).T,
                                unfold(y_bs, 1).T)
    return len(hris_steps), len(bs_steps)


@pytest.mark.parametrize("scheme", ["tstc", "krstc"])
def test_bals_svd_fallback_gives_the_cholesky_estimate(scheme, monkeypatch):
    # with the certificate bound at zero every solve takes the SVD path on its
    # explicit problem, so a layout slip there (a C-order vec(G) at the surface, a missing
    # transpose at the BS) shows against the table-read Cholesky solves on the same input
    cfg = ScenarioConfig(m=4, n=8, nc=2, l=2, r=2, t=4, k=16, pt_dbm=20.0, scheme=scheme)
    rng = np.random.default_rng(7)
    channels, coding = draw_channels(cfg, rng), build_coding(cfg)
    sent = np.sqrt(cfg.pt_watts) * gen_symbols(cfg, rng)
    y_rc = with_noise(synth_yrc(cfg, channels, coding, sent), cfg, rng)
    y_bs = with_noise(synth_ybs(cfg, channels, coding, sent), cfg, rng)
    surface = hris_rx.hris_bals(y_rc, coding)
    cholesky = [surface, bs_rx.bs_bals(y_bs, surface.channel, coding)]
    monkeypatch.setattr(tensor_ops, "GRAM_CERTIFICATE_MAX", 0.0)
    svd = [hris_rx.hris_bals(y_rc, coding), bs_rx.bs_bals(y_bs, surface.channel, coding)]
    for chol, fell_back in zip(cholesky, svd):
        assert chol.fallbacks == 0
        assert fell_back.iterations == chol.iterations
        assert fell_back.fallbacks == 2 * fell_back.iterations
        for got, want in ((fell_back.channel, chol.channel), (fell_back.symbols, chol.symbols)):
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


@pytest.mark.parametrize("cfg", NON_DIAGONAL, ids=["tstc", "krstc"])
def test_examples_have_a_non_diagonal_surface_gram(cfg):
    x = crandn(np.random.default_rng(3), cfg.streams, cfg.t)
    a = channel_code_matrix(build_coding(cfg), x)
    gram = a.conj().T @ a
    assert np.max(np.abs(gram - np.diag(np.diag(gram)))) > 0.01 * np.max(np.abs(gram))


@pytest.mark.parametrize("scheme", ["tstc", "krstc"])
def test_bals_channel_steps_build_no_explicit_regressor(scheme, monkeypatch):
    def explicit(*args):
        raise AssertionError("the explicit channel-step regressor is built only on an SVD fallback")

    monkeypatch.setattr(hris_rx, "channel_code_matrix", explicit)
    monkeypatch.setattr(bs_rx, "channel_code_matrix", explicit)
    cfg = ScenarioConfig(m=4, n=8, nc=2, l=2, r=2, t=4, k=16, scheme=scheme)
    rng = np.random.default_rng(23)
    channels, coding = draw_channels(cfg, rng), build_coding(cfg)
    sent = np.sqrt(cfg.pt_watts) * gen_symbols(cfg, rng)
    for noise_dbm in (-math.inf, cfg.noise_dbm):
        y_rc = with_noise(synth_yrc(cfg, channels, coding, sent), cfg.replace(noise_dbm=noise_dbm), rng)
        y_bs = with_noise(synth_ybs(cfg, channels, coding, sent), cfg.replace(noise_dbm=noise_dbm), rng)
        surface = hris_rx.hris_bals(y_rc, coding)
        bs = bs_rx.bs_bals(y_bs, surface.channel, coding)
        assert surface.fallbacks == bs.fallbacks == 0
