"""Every least-squares regressor against its explicit per-sub-frame formula.

The receivers build their regressors as batched products over the coding
set's sub-frame stacks.  Here each one is rebuilt block by block with
``np.kron``/``np.diag`` from the raw code, on ``k > 1`` sub-frames and a
random symbol matrix, for both coding schemes.  The ALS channel steps never
build their regressor unless they fall back to the SVD, and then read it off
their entity's Kronecker problem (``rx_common.channel_problem``); the normal
equations they read from their tables are checked, at every iteration,
against the paper-form regressor over random feasible configurations.
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
from hrislink.hris_rx import composite_code_matrix, symbol_code_matrix
from hrislink.identifiability import feasible_subframes
from hrislink.rx_common import RankDeficiencyError, channel_problem
from hrislink.scenario import ScenarioConfig, draw_channels
from hrislink.synthesis import reflect_blocks, synth_ybs, synth_yrc
from hrislink.tensor_ops import unfold

from oracle_models import vec, with_noise


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


def hris_channel_regressor(coding, x):
    """The surface channel step's regressor in paper form, ``kron((mix_k X)^T, phi_k)`` stacked over ``k``: rows
    ``(k, tau, c)``, columns ``vec(G)``."""
    return np.vstack([np.kron((mix(coding, k) @ x).T, coding.sensing[:, :, k]) for k in range(coding.subframes)])


def bs_channel_regressor(coding, g, x):
    """The BS channel step's regressor in paper form, ``(diag(psi_k) G mix_k X)^T`` stacked over ``k``: rows
    ``(k, tau)``, columns ``i``."""
    return np.hstack([np.diag(coding.reflect[k]) @ g @ mix(coding, k) @ x for k in range(coding.subframes)]).T


def assert_same(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_hris_channel_code_matrix(case):
    cfg, coding, _, _, x = case
    y = crandn(np.random.default_rng(13), cfg.nc, cfg.t, cfg.k)
    # the problem hris_bals hands its ALS loop
    a, b = channel_problem(lambda: (hris_rx.composite_problem(coding)[1].conj().T, unfold(y, 2).T), cfg.l, x)
    # rows (k, c, tau), where the paper form has (k, tau, c)
    want = hris_channel_regressor(coding, x).reshape(cfg.k, cfg.t, cfg.nc, -1).swapaxes(1, 2)
    assert_same(a, want.reshape(a.shape))
    assert np.array_equal(b, y.transpose(2, 0, 1).reshape(-1, 1))


def test_hris_symbol_code_matrix(case):
    cfg, coding, g, _, _ = case
    want = np.vstack([coding.sensing[:, :, k] @ g @ mix(coding, k) for k in range(cfg.k)])
    assert_same(symbol_code_matrix(coding, g), want)


def test_hris_composite_code_matrix(case):
    cfg, coding, _, _, _ = case
    want = np.vstack([np.kron(vec(mix(coding, k).T)[None, :], coding.sensing[:, :, k]) for k in range(cfg.k)])
    assert_same(composite_code_matrix(coding), want)


def test_bs_channel_code_matrix(case):
    cfg, coding, g, _, x = case
    y = crandn(np.random.default_rng(17), cfg.m, cfg.t, cfg.k)
    a, b = channel_problem(bs_rx.kronecker_problem(y, reflect_blocks(coding, g))[2], 1, x)
    assert_same(a, bs_channel_regressor(coding, g, x))
    # rows (k, tau), columns r
    assert np.array_equal(b, y.transpose(2, 1, 0).reshape(-1, cfg.m))


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
    """A small config at the threshold of the closed-form surface receiver and the ``kronf`` BS one (the largest
    of the three BS ones), and a seed."""
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

        def stop(y_bs, als_gram, als_cross, lead, *rest):
            seen.append((als_gram, als_cross, lead))
            raise Seen
        patch.setattr(bs_rx, "run_als", stop)
        with pytest.raises(Seen):
            bs_rx.bs_bals(y, g, coding)
    (kronf_gram, kronf_cross, *_), (h_gram, h_rhs, *_), (start_gram, start_cross, *_), (als_gram, als_cross, lead) = seen
    # bs_kronf, bs_bals for its closed-form start (k is at bs_kronf's threshold) and for its ALS loop, with one
    # leading index, read exactly these normal equations
    for got_gram, got_cross in ((kronf_gram, kronf_cross), (start_gram, start_cross), (als_gram, als_cross)):
        assert np.array_equal(got_gram, gram) and np.array_equal(got_cross, cross)
    assert lead == 1
    # bs_channel_only's normal equations, contracted from their rearrangement, are the explicit ones of its regressor C
    c = bs_channel_regressor(coding, g, x)
    assert_same(h_gram, c.conj().T @ c)
    assert_same(h_rhs, c.conj().T @ unfold(y, 1).T)


@settings(max_examples=40, deadline=None)
@given(problem=bs_problems())
def test_surface_receivers_read_one_composite_problem(problem):
    cfg, seed = problem
    coding = build_coding(cfg)
    y = crandn(np.random.default_rng(seed), cfg.nc, cfg.t, cfg.k)
    l, w, n = cfg.l, cfg.streams, cfg.n
    f = composite_code_matrix(coding)
    gram, f_h = hris_rx.composite_problem(coding)
    # the cached Gram and adjoint are the composite regressor's, bit for bit
    assert np.array_equal(f_h, f.conj().T) and np.array_equal(gram, f.conj().T @ f)
    columns = np.arange(l * w * n).reshape(l, w, n)
    if cfg.scheme == "krstc":
        # only the a == s columns carry weight, and they are kron(code[k], phi_k), bit for bit
        blocks = f.reshape(len(f), l, w, n)
        assert not blocks[:, ~np.eye(l, dtype=bool)].any()
        want = np.vstack([np.kron(coding.code[k][None, :], coding.phi[k]) for k in range(cfg.k)])
        assert np.array_equal(blocks[:, range(l), range(l)].reshape(len(f), -1), want)
        columns = columns[range(l), range(l)]
    weighted = columns.reshape(-1)

    seen = []
    solve = hris_rx.require_full_rank
    hris_rx.composite_pinv.cache_clear()        # so the composite solve runs here
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hris_rx, "require_full_rank", lambda *args: seen.append(args) or solve(*args))
        # the solve is recorded before it runs; a rank-deficient one (some sizes at this k) is beside the point
        with contextlib.suppress(RankDeficiencyError):
            hris_rx.composite_pinv(coding)

        def stop(y_rc, als_gram, als_cross, lead, *rest):
            seen.append((als_gram, als_cross, lead))
            raise Seen
        patch.setattr(hris_rx, "run_als", stop)
        with pytest.raises(Seen):
            hris_rx.hris_bals(y, coding)
    (pinv_gram, pinv_rhs, *_), (als_gram, als_cross, lead) = seen
    # composite_pinv solves the cached Gram's weighted block against the weighted rows of F^H
    assert np.array_equal(pinv_gram, gram[np.ix_(weighted, weighted)]) and np.array_equal(pinv_rhs, f_h[weighted])
    # hris_bals hands the ALS loop that Gram, whole, and the cross F^H unfold(y, 2)^T, with l leading indices
    assert als_gram is gram and lead == l
    assert np.array_equal(als_cross, f_h @ unfold(y, 2).T)


@settings(max_examples=60, deadline=None)
@given(lead=st.integers(1, 3), w=st.integers(1, 3), n=st.integers(1, 4), t=st.integers(1, 3), m=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_als_tables_rearrange_every_entry(lead, w, n, t, m, seed):
    rng = np.random.default_rng(seed)
    size = lead * w * n
    gram, cross = crandn(rng, size, size), crandn(rng, size, t * m)
    gram_table, cross_table = rx_common.als_tables(gram, cross, lead, w, t)
    # [(s, s'), (a, i, b, j)] from [(a, s, i), (b, s', j)], and [(s, tau), (a, i, r)] from [(a, s, i), (tau, r)]
    s1, s2, a, i, b, j = np.meshgrid(range(w), range(w), range(lead), range(n), range(lead), range(n), indexing="ij")
    assert np.array_equal(gram_table, gram[(a * w + s1) * n + i, (b * w + s2) * n + j].reshape(w * w, -1))
    s1, tau, a, i, r = np.meshgrid(range(w), range(t), range(lead), range(n), range(m), indexing="ij")
    assert np.array_equal(cross_table, cross[(a * w + s1) * n + i, tau * m + r].reshape(w * t, -1))


@settings(max_examples=60, deadline=None)
@given(lead=st.integers(1, 3), w=st.integers(1, 3), n=st.integers(1, 4), t=st.integers(1, 3), m=st.integers(1, 3),
       rows=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_channel_problem_has_the_channel_step_normal_equations(lead, w, n, t, m, rows, seed):
    rng = np.random.default_rng(seed)
    f, y, x = crandn(rng, rows, lead * w * n), crandn(rng, rows, t * m), crandn(rng, w, t)
    a, b = channel_problem(lambda: (f, y), lead, x)
    # A[(K, tau), (a, i)] = sum_s F[K, (a, s, i)] X[s, tau] and B[(K, tau), r] = Y[K, (tau, r)], entry by entry
    k_, tau, a_, i = np.meshgrid(range(rows), range(t), range(lead), range(n), indexing="ij")
    want = sum(f[k_, (a_ * w + s) * n + i] * x[s, tau] for s in range(w)).reshape(rows * t, lead * n)
    assert_same(a, want)
    k_, tau, r = np.meshgrid(range(rows), range(t), range(m), indexing="ij")
    assert np.array_equal(b, y[k_, tau * m + r].reshape(rows * t, m))
    # they are the problem whose normal equations channel_step contracts from als_tables' rearrangement
    f_h = f.conj().T
    assert_normal_equations(rx_common.channel_step(*rx_common.als_tables(f_h @ f, f_h @ y, lead, w, t), x), a, b)


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
        assert_normal_equations((gram, rhs), hris_channel_regressor(coding, x_hat), vec(unfold(y_rc, 3).T)[:, None])

    # bs_bals first solves bs_kronf's (w*n)-column problem for its start where k reaches that receiver's threshold
    bs_steps = channel_solves(lambda: bs_rx.bs_bals(y_bs, g, coding), x, als_start,
                              start_solves=int(cfg.k >= cfg.streams * cfg.n))
    for gram, rhs, x_hat in bs_steps:
        assert_normal_equations((gram, rhs), bs_channel_regressor(coding, g, x_hat), unfold(y_bs, 1).T)
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
    y_rc = with_noise(synth_yrc(channels, coding, sent), cfg, rng)
    y_bs = with_noise(synth_ybs(channels, coding, sent), cfg, rng)
    surface = hris_rx.hris_bals(y_rc, coding)

    def estimates():
        return [hris_rx.hris_bals(y_rc, coding), bs_rx.bs_bals(y_bs, surface.channel, coding),
                bs_rx.bs_channel_only(y_bs, surface.channel, surface.symbols, coding)]
    cholesky = estimates()
    monkeypatch.setattr(tensor_ops, "GRAM_CERTIFICATE_MAX", 0.0)
    explicit = []
    for module in (rx_common, bs_rx):
        monkeypatch.setattr(module, "channel_problem",
                            lambda *args, read=module.channel_problem: explicit.append(1) or read(*args))
    svd = estimates()
    # every channel step, bs_channel_only's one too, solved on the problem read off its Kronecker problem
    assert len(explicit) == svd[0].iterations + svd[1].iterations + 1
    for chol, fell_back in zip(cholesky, svd):
        assert chol.fallbacks == 0
        assert fell_back.iterations == chol.iterations
        assert fell_back.fallbacks == 2 * fell_back.iterations
        for got, want in ((fell_back.channel, chol.channel), (fell_back.symbols, chol.symbols)):
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


@pytest.mark.parametrize("cfg", NON_DIAGONAL, ids=["tstc", "krstc"])
def test_examples_have_a_non_diagonal_surface_gram(cfg):
    x = crandn(np.random.default_rng(3), cfg.streams, cfg.t)
    a = hris_channel_regressor(build_coding(cfg), x)
    gram = a.conj().T @ a
    assert np.max(np.abs(gram - np.diag(np.diag(gram)))) > 0.01 * np.max(np.abs(gram))


@pytest.mark.parametrize("scheme", ["tstc", "krstc"])
def test_bals_channel_steps_build_no_explicit_regressor(scheme, monkeypatch):
    def explicit(*args):
        raise AssertionError("the explicit channel-step regressor is built only on an SVD fallback")

    monkeypatch.setattr(rx_common, "channel_problem", explicit)
    monkeypatch.setattr(bs_rx, "channel_problem", explicit)
    cfg = ScenarioConfig(m=4, n=8, nc=2, l=2, r=2, t=4, k=16, scheme=scheme)
    rng = np.random.default_rng(23)
    channels, coding = draw_channels(cfg, rng), build_coding(cfg)
    sent = np.sqrt(cfg.pt_watts) * gen_symbols(cfg, rng)
    for noise_dbm in (-math.inf, cfg.noise_dbm):
        y_rc = with_noise(synth_yrc(channels, coding, sent), cfg.replace(noise_dbm=noise_dbm), rng)
        y_bs = with_noise(synth_ybs(channels, coding, sent), cfg.replace(noise_dbm=noise_dbm), rng)
        surface = hris_rx.hris_bals(y_rc, coding)
        bs = bs_rx.bs_bals(y_bs, surface.channel, coding)
        bs_rx.bs_channel_only(y_bs, surface.channel, surface.symbols, coding)
        assert surface.fallbacks == bs.fallbacks == 0
