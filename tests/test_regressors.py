"""Every least-squares regressor against its explicit per-sub-frame formula.

The receivers build their regressors as batched products over the coding
set's sub-frame stacks.  Here each one is rebuilt block by block with
``np.kron``/``np.diag`` from the raw code, on ``k > 1`` sub-frames and a
random symbol matrix, for both coding schemes.  The ALS channel steps never
build their regressor unless they fall back to the SVD; the normal
equations they read from their tables are checked, at every iteration,
against the explicit regressor over random feasible configurations.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import khatri_rao

from hrislink import bs_rx, hris_rx
from hrislink.bs_rx import ControlLinkPayload, bs_kronf
from hrislink.coding import build_coding, gen_symbols
from hrislink.hris_rx import channel_code_matrix, composite_code_matrix, symbol_code_matrix
from hrislink.identifiability import feasible_subframes
from hrislink.scenario import ScenarioConfig, draw_channels
from hrislink.synthesis import synth_ybs, synth_yrc
from hrislink.tensor_ops import unfold, vec


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
    assert_same(bs_rx.channel_code_matrix(coding, g, x), want)


def test_bs_symbol_code_matrix(case):
    cfg, coding, g, h, _ = case
    want = np.vstack([h @ np.diag(coding.reflect[k]) @ g @ mix(coding, k) for k in range(cfg.k)])
    assert_same(bs_rx.symbol_code_matrix(coding, g, h), want)


def test_bs_kronf_right_factor(case, monkeypatch):
    cfg, coding, g, h, x = case
    seen = []
    original = bs_rx.require_full_rank
    monkeypatch.setattr(bs_rx, "require_full_rank", lambda lhs, mat, *a: seen.append(mat) or original(lhs, mat, *a))
    y = np.stack([h @ np.diag(coding.reflect[k]) @ g @ mix(coding, k) @ x for k in range(cfg.k)], axis=2)
    bs_kronf(y, ControlLinkPayload(g), coding)
    (right,) = seen
    want = np.column_stack([vec(np.diag(coding.reflect[k]) @ g @ mix(coding, k)) for k in range(cfg.k)])
    assert_same(right, want)
    if cfg.scheme == "krstc":
        # The Khatri-Rao form of the krstc right factor.  With +-1 codes it holds the
        # same products, taken in the other operand order, so it agrees to rounding.
        khatri_rao_form = vec(g)[:, None] * khatri_rao(coding.code.T, coding.reflect.T)
        assert np.max(np.abs(right - khatri_rao_form)) <= 4 * np.finfo(float).eps * np.max(np.abs(right))


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


def channel_solves(module, receive, x0):
    """Every ``(gram, rhs, x)`` that ``receive()``, started from ``x0``, passes to ``solve_gram``.

    ``x`` is the symbol estimate the channel step of that solve started from.
    """
    solves, starts = [], []
    solve_gram, run_als = module.solve_gram, module.run_als

    def recording_solve(gram, rhs, problem):
        solves.append((gram, rhs))
        return solve_gram(gram, rhs, problem)

    def recording_run_als(y, x, channel_step, symbol_regressor):
        def step(x_hat):
            starts.append(x_hat)
            return channel_step(x_hat)
        return run_als(y, x, step, symbol_regressor)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, "solve_gram", recording_solve)
        patch.setattr(module, "run_als", recording_run_als)
        patch.setattr(module, "init_symbols", lambda rows, cols, seed: x0)
        receive()
    assert len(solves) == len(starts)
    return [(gram, rhs, x) for (gram, rhs), x in zip(solves, starts)]


def assert_normal_equations(got, a, b):
    ah = a.conj().T
    for got_part, want in zip(got, (ah @ a, ah @ b)):
        assert got_part.shape == want.shape
        assert np.max(np.abs(got_part - want)) <= 1e-12 * np.max(np.abs(want))


@settings(max_examples=80, deadline=None)
@given(problem=feasible_problems())
@example(problem=(NON_DIAGONAL[0], 1))
@example(problem=(NON_DIAGONAL[1], 2))
def test_channel_steps_form_the_exact_normal_equations(problem):
    check_every_channel_step(*problem)


@pytest.mark.parametrize("cfg", NON_DIAGONAL, ids=["tstc", "krstc"])
def test_channel_step_checks_reach_later_iterations(cfg):
    # the tables behind the Grams and right-hand sides are built before the first
    # iteration and reused, so a wrong or stale table shows from the second on
    hris_steps, bs_steps = check_every_channel_step(cfg, 4)
    assert hris_steps >= 2 and bs_steps >= 2


def check_every_channel_step(cfg, seed):
    """Check each channel solve of both ``bals`` receivers on random data; return how many each made."""
    coding = build_coding(cfg)
    rng = np.random.default_rng(seed)
    x = crandn(rng, cfg.streams, cfg.t)
    g = crandn(rng, cfg.n, cfg.l)
    y_rc = crandn(rng, cfg.nc, cfg.t, cfg.k)
    y_bs = crandn(rng, cfg.m, cfg.t, cfg.k)

    hris_steps = channel_solves(hris_rx, lambda: hris_rx.hris_bals(y_rc, coding), x)
    for gram, rhs, x_hat in hris_steps:
        assert_normal_equations((gram, rhs), channel_code_matrix(coding, x_hat), vec(unfold(y_rc, 3).T))

    bs_steps = channel_solves(bs_rx, lambda: bs_rx.bs_bals(y_bs, ControlLinkPayload(g), coding), x)
    for gram, rhs, x_hat in bs_steps:
        assert_normal_equations((gram, rhs), bs_rx.channel_code_matrix(coding, g, x_hat).T, unfold(y_bs, 1).T)
    return len(hris_steps), len(bs_steps)


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
        y_rc = synth_yrc(cfg.replace(noise_dbm=noise_dbm), channels, coding, sent, rng)
        y_bs = synth_ybs(cfg.replace(noise_dbm=noise_dbm), channels, coding, sent, rng)
        surface = hris_rx.hris_bals(y_rc, coding)
        bs = bs_rx.bs_bals(y_bs, ControlLinkPayload(surface.channel), coding)
        assert surface.fallbacks == bs.fallbacks == 0
