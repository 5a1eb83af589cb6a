"""Surface-side receivers: design matrices, recovery oracles, ambiguities."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hrislink.coding import CodingSet, build_coding, gen_symbols
from hrislink.hris_rx import (
    composite_code_matrix,
    composite_pinv,
    composite_problem,
    hris_bals,
    hris_kronf,
    hris_krf,
)
from hrislink import rx_common
from hrislink.rx_common import (MAX_ITERATIONS, AmbiguityError, EstimateReport, IdentifiabilityError,
                                RankDeficiencyError, als_tables, normalize_anchor, require_full_rank, run_als,
                                symbol_problem)
from hrislink.scenario import ScenarioConfig, draw_channels
from hrislink.synthesis import synth_yrc
from hrislink.tensor_ops import RANK_TOL, unfold

from oracle_models import numerical_rank, sensed_channel_regressor, spectral_rank, unvec, vec, with_noise


def make_case(seed=0, scheme="tstc", **kw):
    base = dict(m=4, n=8, nc=2, l=2, r=2, t=4, k=16, scheme=scheme)
    base.update(kw)
    cfg = ScenarioConfig(**base)
    rng = np.random.default_rng(seed)
    channels = draw_channels(cfg, rng)
    coding = build_coding(cfg)
    symbols = gen_symbols(cfg, rng)
    y = synth_yrc(channels, coding, symbols)
    return cfg, channels, coding, symbols, y


def weighted_composite(coding):
    """The composite regressor's columns that carry weight: all of them for tstc, those with ``a == s`` for krstc."""
    f = composite_code_matrix(coding)
    if coding.scheme == "tstc":
        return f
    l = coding.mix.shape[2]
    return f.reshape(len(f), l, l, -1)[:, range(l), range(l)].reshape(len(f), -1)


def nmse(a, b):
    return np.linalg.norm(a - b) ** 2 / np.linalg.norm(b) ** 2


# ------------------------------------------------------------ design matrices

def test_channel_code_matrix_single_subframe():
    cfg, channels, coding, symbols, _ = make_case()
    single = CodingSet("tstc", coding.sensing[:, :, :1], coding.reflect[:1],
                       coding.code[:, :, :1])
    out = sensed_channel_regressor(single, np.eye(cfg.r))
    expected = np.kron(single.code[:, :, 0], single.sensing[:, :, 0].T).T     # rows (s, c)
    # the regressor's rows are (c, tau), and here tau = s
    assert np.allclose(out, expected.reshape(cfg.r, cfg.nc, -1).swapaxes(0, 1).reshape(expected.shape))
    assert out.shape == (cfg.r * cfg.nc, cfg.l * cfg.n)


def test_symbol_code_matrix_zero_channel():
    _, _, coding, _, _ = make_case()
    # the symbol step's regressor at the channel step's solution vec(G) of an all-zero (8, 2) channel
    out = symbol_problem(composite_problem(coding)[1], 2, np.zeros((8 * 2, 1), dtype=complex))
    assert out.shape == (16 * 2, 2)
    assert np.all(out == 0)


def test_composite_code_matrix_column_counts():
    cfg_t, _, coding_t, _, _ = make_case()
    cfg_k, _, coding_k, _, _ = make_case(scheme="krstc")
    assert composite_code_matrix(coding_t).shape == (cfg_t.k * cfg_t.nc,
                                                     cfg_t.l * cfg_t.r * cfg_t.n)
    # one column per (a, s, i) for both schemes; only l*n of the krstc ones, a == s, carry weight
    assert composite_code_matrix(coding_k).shape == (cfg_k.k * cfg_k.nc,
                                                     cfg_k.l * cfg_k.l * cfg_k.n)


def test_channel_code_matrix_stacks_sensed_fit():
    # applying the channel step's regressor to vec(channel) reproduces the per-sub-frame coded channel, rows (c, tau)
    _, channels, coding, _, _ = make_case()
    fg = sensed_channel_regressor(coding, np.eye(coding.mix.shape[2]))
    out = fg @ vec(channels.ut_ris)
    k0 = coding.sensing[:, :, 0] @ channels.ut_ris @ coding.mix[0]
    assert np.allclose(out[: k0.size], k0.reshape(-1))


# ------------------------------------------------------------------- als path

@pytest.mark.parametrize("scheme", ["tstc", "krstc"])
def test_bals_exact_recovery_noiseless(scheme):
    cfg, channels, coding, symbols, y = make_case(scheme=scheme)
    rep = hris_bals(y, coding)
    assert nmse(rep.channel, channels.ut_ris) < 1e-10
    assert nmse(rep.symbols, symbols) < 1e-10


def test_bals_residual_trace_nonincreasing():
    cfg, channels, coding, symbols, _ = make_case(seed=3)
    rng = np.random.default_rng(10)
    y = with_noise(synth_yrc(channels, coding, np.sqrt(cfg.pt_watts) * symbols), cfg, rng)
    for seed in range(5):
        rep = hris_bals(y, coding, init_seed=seed)
        trace = rep.residuals
        assert all(b <= a * (1 + 1e-12) + 1e-12 for a, b in zip(trace, trace[1:]))


@pytest.mark.parametrize("scheme", ["tstc", "krstc"])
def test_bals_residual_is_the_squared_symbol_step_misfit(scheme, raw_estimates):
    cfg, channels, coding, symbols, _ = make_case(seed=3, scheme=scheme)
    y = with_noise(synth_yrc(channels, coding, np.sqrt(cfg.pt_watts) * symbols), cfg, np.random.default_rng(10))
    rep = hris_bals(y, coding)
    regressor = symbol_problem(composite_problem(coding)[1], cfg.l, vec(rep.channel)[:, None])
    misfit = unfold(y, 2).T - regressor @ rep.symbols
    assert rep.residuals[-1] == pytest.approx(np.linalg.norm(misfit) ** 2, rel=1e-12, abs=0)


def test_bals_true_init_converges_immediately(als_start):
    cfg, channels, coding, symbols, y = make_case(seed=4)

    # run one G-step/X-step pass seeded at the truth
    with als_start(symbols):
        rep = hris_bals(y, coding)
    assert rep.iterations <= 2
    assert nmse(rep.channel, channels.ut_ris) < 1e-10


@pytest.mark.parametrize("scheme", ["tstc", "krstc"])
def test_bals_solves_take_no_fallback_on_ordinary_input(scheme):
    cfg, channels, coding, symbols, y = make_case(scheme=scheme)
    noisy = with_noise(synth_yrc(channels, coding, np.sqrt(cfg.pt_watts) * symbols), cfg, np.random.default_rng(5))
    for received in (y, noisy):
        assert hris_bals(received, coding).fallbacks == 0
    closed_form = hris_kronf if scheme == "tstc" else hris_krf
    assert closed_form(noisy, coding).fallbacks == 0


def test_bals_counts_svd_fallbacks(raw_estimates):
    # an all-zero input gives an all-zero channel estimate, whose symbol-step Gram has no Cholesky factor
    rep = hris_bals(np.zeros((2, 4, 64), complex), build_coding(ScenarioConfig()))
    assert rep.fallbacks >= 1
    for estimate in (rep.channel, rep.symbols):
        assert np.isfinite(estimate).all() and not estimate.any()


@pytest.mark.parametrize("pt_dbm", [10.0, 30.0])
@pytest.mark.parametrize("scheme", ["tstc", "krstc"])
def test_bals_reaches_the_closed_form_estimate(scheme, pt_dbm):
    # With the shipped coding the composite least squares and its rank-1 split give the
    # maximum-likelihood channel, and the ALS converges to that same point: an estimator
    # that shares no code with the ALS loop pins where it ends.
    cfg = ScenarioConfig(m=4, n=8, nc=2, l=2, r=2, t=4, k=16, scheme=scheme, pt_dbm=pt_dbm)
    coding = build_coding(cfg)
    closed_form = hris_kronf if scheme == "tstc" else hris_krf
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(50):
        sent = np.sqrt(cfg.pt_watts) * gen_symbols(cfg, rng)
        y = with_noise(synth_yrc(draw_channels(cfg, rng), coding, sent), cfg, rng)
        g_cf = closed_form(y, coding).channel
        worst = max(worst, np.linalg.norm(hris_bals(y, coding).channel - g_cf) / np.linalg.norm(g_cf))
    assert worst <= 1e-9


def test_run_als_stops_at_the_iteration_cap(monkeypatch):
    # unfold(y, 2).T = [[1], [2]] against symbol regressors alternating [[1], [0]] and [[0], [1]]:
    # the residuals go 4, 1, 4, ..., never settle, and never reach the floor; tables of ones
    # give the 1x1 channel step a positive Gram, so it never falls back
    y = np.array([1.0, 2.0], dtype=complex).reshape(2, 1, 1)
    regressors = itertools.cycle([np.array([[1.0], [0.0]], dtype=complex), np.array([[0.0], [1.0]], dtype=complex)])
    monkeypatch.setattr(rx_common, "symbol_problem", lambda f_t, lead, c: next(regressors))
    ones = np.ones((1, 1), complex)
    rep = run_als(y, ones, ones, ones, ones, 1, (1, 1), ones)
    assert rep.iterations == MAX_ITERATIONS
    assert rep.residuals[:3] == pytest.approx([4.0, 1.0, 4.0])


def test_bals_identifiability_precheck():
    cfg, channels, coding, symbols, y = make_case()
    # truncating sub-frames below the threshold must be rejected up front
    need = 2  # ceil(max(r, l*n/t)/nc) = ceil(4/2)
    short = CodingSet("tstc", coding.sensing[:, :, : need - 1],
                      coding.reflect[: need - 1], coding.code[:, :, : need - 1])
    with pytest.raises(IdentifiabilityError):
        hris_bals(y[:, :, : need - 1], short)


# ------------------------------------------------------------------ kronf path

def test_kronf_exact_recovery_noiseless():
    cfg, channels, coding, symbols, y = make_case(n=4, k=32)
    rep = hris_kronf(y, coding)
    assert nmse(rep.channel, channels.ut_ris) < 1e-10
    assert nmse(rep.symbols, symbols) < 1e-10


def test_kronf_composite_is_kronecker_of_truth():
    cfg, channels, coding, symbols, y = make_case(n=4, k=32)

    fxg = composite_code_matrix(coding)
    q = unvec(vec(unfold(y, 2) @ np.linalg.pinv(fxg).T), cfg.n * cfg.t, cfg.l * cfg.r)
    assert np.max(np.abs(q - np.kron(channels.ut_ris, symbols.T))) < 1e-12


def test_kronf_rearrangement_is_rank_one():
    cfg, channels, _, symbols, _ = make_case(n=4, k=32)
    q = np.kron(channels.ut_ris, symbols.T)
    n, t, l, r = cfg.n, cfg.t, cfg.l, cfg.r
    rearranged = q.reshape(n, t, l, r).transpose(3, 1, 2, 0).reshape(r * t, l * n)
    s = np.linalg.svd(rearranged, compute_uv=False)
    assert s[1] / s[0] < 1e-12
    # and it equals the outer product of the two vectorized factors
    assert np.allclose(rearranged, np.outer(vec(symbols.T), vec(channels.ut_ris)))


def test_kronf_rejects_krstc_coding():
    _, _, coding, _, y = make_case(scheme="krstc")
    with pytest.raises(ValueError):
        hris_kronf(y, coding)


# -------------------------------------------------------------------- krf path

def test_krf_exact_recovery_noiseless():
    cfg, channels, coding, symbols, y = make_case(scheme="krstc", n=4, k=16)
    rep = hris_krf(y, coding)
    assert nmse(rep.channel, channels.ut_ris) < 1e-10
    assert nmse(rep.symbols, symbols) < 1e-10


def test_krf_columns_are_rank_one():
    cfg, channels, coding, symbols, y = make_case(scheme="krstc", n=4, k=16)

    fxg = weighted_composite(coding)
    q = unvec(vec(unfold(y, 2) @ np.linalg.pinv(fxg).T), cfg.n * cfg.t, cfg.l)
    for col in range(cfg.l):
        s = np.linalg.svd(unvec(q[:, col], cfg.t, cfg.n), compute_uv=False)
        assert s[1] / s[0] < 1e-10


def test_krf_single_antenna_matches_kronf():
    # with one antenna and one stream the two coding schemes coincide
    kw = dict(m=2, n=4, nc=2, l=1, r=1, t=4, k=8)
    cfg_t, channels, coding_t, symbols, y_t = make_case(seed=6, scheme="tstc", **kw)
    cfg_k = ScenarioConfig(scheme="krstc", **kw)
    coding_k = build_coding(cfg_k)
    assert np.allclose(coding_t.code[:, 0, :].T, coding_k.code)
    y_k = synth_yrc(channels, coding_k, symbols)
    rep_t = hris_kronf(y_t, coding_t)
    rep_k = hris_krf(y_k, coding_k)
    assert np.allclose(rep_t.channel, rep_k.channel, atol=1e-10)
    assert np.allclose(rep_t.symbols, rep_k.symbols, atol=1e-10)


# ------------------------------------------------------------------ ambiguity

def test_remove_ambiguity_anchored_input_unchanged():
    rng = np.random.default_rng(8)
    g = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    x = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    x[0, 0] = 1.0
    rep = normalize_anchor(EstimateReport(g.copy(), x.copy()), per_stream=False)
    assert np.allclose(rep.channel, g) and np.allclose(rep.symbols, x)


def test_remove_ambiguity_constructed_scalar():
    rng = np.random.default_rng(9)
    g = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    x = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    x[0, 0] = 1.0
    c = 0.3 - 1.7j
    rep = normalize_anchor(EstimateReport(g / c, c * x, [4.0, 3.0, 2.0, 1.0], fallbacks=3), per_stream=False)
    assert np.allclose(rep.channel, g)
    assert np.allclose(rep.symbols, x)
    assert rep.symbols[0, 0] == 1.0
    assert (rep.iterations, rep.residuals, rep.fallbacks) == (4, [4.0, 3.0, 2.0, 1.0], 3)


def test_remove_ambiguity_constructed_diagonal():
    rng = np.random.default_rng(10)
    g = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    x = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    x[:, 0] = 1.0
    d = np.array([2.0, -1j])
    rep = normalize_anchor(
        EstimateReport(g / d[None, :], d[:, None] * x), per_stream=True)
    assert np.all(rep.symbols[:, 0] == 1.0)
    assert np.allclose(rep.symbols, x)
    assert np.allclose(rep.channel, g)


def test_zero_anchor_raises():
    g = np.ones((2, 2), dtype=complex)
    x = np.zeros((2, 3), dtype=complex)
    with pytest.raises(AmbiguityError):
        normalize_anchor(EstimateReport(g, x), per_stream=False)


# ---------------------------------------------------------------- invariants

@pytest.mark.parametrize("scheme,receiver", [
    ("tstc", hris_bals), ("tstc", hris_kronf),
    ("krstc", hris_bals), ("krstc", hris_krf),
])
def test_compensation_law_before_removal(scheme, receiver, raw_estimates):
    cfg, channels, coding, symbols, y = make_case(scheme=scheme, n=4, k=32)
    rep = receiver(y, coding)
    for k in (0, cfg.k // 2, cfg.k - 1):
        recon = (coding.sensing[:, :, k] @ rep.channel
                 @ coding.mix[k] @ rep.symbols)
        truth = (coding.sensing[:, :, k] @ channels.ut_ris
                 @ coding.mix[k] @ symbols)
        assert np.linalg.norm(recon - truth) < 1e-10 * max(1.0, np.linalg.norm(truth))


def test_uniqueness_scalar_ratio_tstc(raw_estimates):
    cfg, channels, coding, symbols, y = make_case(n=4, k=32)
    rep = hris_kronf(y, coding)
    ratios = rep.symbols / symbols
    assert np.max(np.abs(ratios - ratios[0, 0])) < 1e-8 * abs(ratios[0, 0])
    g_ratio = rep.channel / channels.ut_ris
    assert np.max(np.abs(g_ratio - g_ratio[0, 0])) < 1e-8 * abs(g_ratio[0, 0])
    assert abs(ratios[0, 0] * g_ratio[0, 0] - 1) < 1e-8


def test_uniqueness_diagonal_ratio_krstc(raw_estimates):
    cfg, channels, coding, symbols, y = make_case(scheme="krstc", n=4, k=16)
    rep = hris_krf(y, coding)
    for stream in range(cfg.l):
        row_ratio = rep.symbols[stream] / symbols[stream]
        col_ratio = rep.channel[:, stream] / channels.ut_ris[:, stream]
        assert np.max(np.abs(row_ratio - row_ratio[0])) < 1e-8 * abs(row_ratio[0])
        assert np.max(np.abs(col_ratio - col_ratio[0])) < 1e-8 * abs(col_ratio[0])
        assert abs(row_ratio[0] * col_ratio[0] - 1) < 1e-8


# ------------------------------------------------- per-coding products, solves

@pytest.mark.parametrize("scheme", ["tstc", "krstc"])
def test_composite_pinv_cached_per_coding(scheme):
    _, _, coding, _, _ = make_case(scheme=scheme)
    cached = composite_pinv(coding)
    assert composite_pinv(coding) is cached
    assert not cached.flags.writeable
    expected = np.linalg.pinv(weighted_composite(coding))
    assert np.max(np.abs(cached - expected)) < 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("scheme", ["tstc", "krstc"])
def test_composite_problem_gives_the_channel_gram_table(scheme):
    cfg, _, coding, _, _ = make_case(scheme=scheme)
    cached = composite_problem(coding)
    assert composite_problem(coding) is cached
    gram, f_t = cached
    assert not gram.flags.writeable and not f_t.flags.writeable
    assert gram.nbytes == 16 * (cfg.streams * cfg.l * cfg.n) ** 2
    table = als_tables(gram, np.zeros((len(gram), 1)), cfg.l, cfg.streams, 1)[0]
    # the ALS channel step's Gram table, row (s, s'): sum_k kron(conj(mix_k[:, s]) mix_k[:, s']^T, phi_k^H phi_k)
    want = np.array([sum(np.kron(np.outer(coding.mix[k][:, s].conj(), coding.mix[k][:, s2]),
                                 coding.phi[k].conj().T @ coding.phi[k]) for k in range(cfg.k)).ravel()
                     for s, s2 in itertools.product(range(cfg.streams), repeat=2)])
    assert np.max(np.abs(table - want)) < 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("scheme, receiver", [("tstc", hris_kronf), ("krstc", hris_krf)])
def test_rank_deficient_coding_raises_on_every_call(scheme, receiver):
    _, _, coding, _, y = make_case(scheme=scheme)
    bad = CodingSet(scheme, np.zeros_like(coding.sensing), coding.reflect, coding.code)
    for _ in range(2):
        with pytest.raises(RankDeficiencyError, match="composite code matrix has numerical rank 0"):
            receiver(y, bad)


def full_rank_solve(a, b, what):
    """:func:`require_full_rank` of ``a @ x = b``, with the normal equations ``a^H a``, ``a^H b`` formed here."""
    ah = a.conj().T
    return require_full_rank(ah @ a, ah @ b, lambda: (a, b), what)


def full_rank_pinv(a, what):
    """``pinv(a)`` from :func:`full_rank_solve` on the tall orientation of ``a``, as the receivers pass it."""
    tall = a if a.shape[0] >= a.shape[1] else a.T
    inverse = full_rank_solve(tall, np.eye(len(tall), dtype=tall.dtype), what)
    return inverse if tall is a else inverse.T


def test_require_full_rank_returns_the_pinv():
    rng = np.random.default_rng(5)
    for shape in ((12, 5), (5, 12), (16, 16)):
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        got = full_rank_pinv(a, "test matrix")
        assert np.max(np.abs(got - np.linalg.pinv(a))) < 1e-12 * np.max(np.abs(got))


@settings(max_examples=150, deadline=None)
@given(rows=st.integers(1, 24), cols=st.integers(1, 24), log_ratio=st.floats(-13.0, -5.0),
       seed=st.integers(0, 2**32 - 1))
def test_require_full_rank_decides_as_the_svd_rule(rows, cols, log_ratio, seed):
    # singular values from 1 down to 10**log_ratio: the range straddles the RANK_TOL
    # cut, and past one column it is beyond GRAM_CERTIFICATE_MAX, so the SVD rule decides
    rng = np.random.default_rng(seed)
    size = min(rows, cols)
    middle = np.sort(10.0 ** rng.uniform(log_ratio, 0.0, max(size - 2, 0)))[::-1]
    s = np.r_[1.0, middle, 10.0 ** log_ratio][:size]
    # within a hair of the cut, two SVD drivers may round a singular value to either side
    assume(np.all(np.abs(np.log10(s) - math.log10(RANK_TOL)) > 1e-4))
    u, _ = np.linalg.qr(rng.standard_normal((rows, size)) + 1j * rng.standard_normal((rows, size)))
    v, _ = np.linalg.qr(rng.standard_normal((cols, size)) + 1j * rng.standard_normal((cols, size)))
    a = (u * s) @ v.conj().T
    spectrum = np.linalg.svd(a, compute_uv=False)
    rank = spectral_rank(spectrum)
    if rank < size:
        with pytest.raises(RankDeficiencyError, match=rf"^m has numerical rank {rank}, need {size}$"):
            full_rank_pinv(a, "m")
    else:
        got = full_rank_pinv(a, "m")
        expected = np.linalg.pinv(a)
        kappa = spectrum[0] / spectrum[-1]
        assert np.linalg.norm(got - expected) <= 1e-12 * kappa * np.linalg.norm(expected)


def test_require_full_rank_message_on_rank_deficiency():
    rng = np.random.default_rng(6)
    a = np.outer(rng.standard_normal(6), rng.standard_normal(4))  # rank one
    with pytest.raises(RankDeficiencyError, match=r"^test matrix has numerical rank 1, need 4$"):
        full_rank_pinv(a, "test matrix")
    with pytest.raises(RankDeficiencyError, match=r"^test matrix has numerical rank 0, need 2$"):
        full_rank_pinv(np.zeros((3, 2)), "test matrix")


def test_rank_threshold_sits_between_5e_11_and_2e_10():
    # singular values relative to the largest: 2e-10 counts, 5e-11 does not
    rng = np.random.default_rng(7)
    u, _ = np.linalg.qr(rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)))
    v, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    a = u @ np.diag([1.0, 2e-10, 5e-11]) @ v.conj().T      # (6, 3), so its Gram has order 3
    assert numerical_rank(a) == 2
    with pytest.raises(RankDeficiencyError, match=r"numerical rank 2, need 3"):
        full_rank_pinv(a, "test matrix")
