"""BS-side receivers: design matrices, recovery oracles, ambiguity removal."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrislink.bs_rx import (
    bs_bals,
    bs_channel_only,
    bs_kronf,
    kronecker_problem,
)
from hrislink import bs_rx, rx_common, synthesis, tensor_ops
from hrislink.coding import CodingSet, build_coding, gen_symbols
from hrislink.harness import run_trial
from hrislink.identifiability import min_subframes
from hrislink.rx_common import (
    AmbiguityError,
    EstimateReport,
    IdentifiabilityError,
    NonFiniteError,
    RankDeficiencyError,
    init_symbols,
    normalize_anchor,
    symbol_problem,
)
from hrislink.scenario import ScenarioConfig, draw_channels
from hrislink.synthesis import reflect_blocks, synth_ybs
from hrislink.tensor_ops import unfold

from oracle_models import reflected_channel_regressor, vec, with_noise


def make_case(seed=0, scheme="tstc", **kw):
    base = dict(m=4, n=8, nc=2, l=2, r=2, t=4, k=16, scheme=scheme)
    base.update(kw)
    cfg = ScenarioConfig(**base)
    rng = np.random.default_rng(seed)
    channels = draw_channels(cfg, rng)
    coding = build_coding(cfg)
    symbols = gen_symbols(cfg, rng)
    y = synth_ybs(channels, coding, symbols)
    return cfg, channels, coding, symbols, y


def nmse(a, b):
    return np.linalg.norm(a - b) ** 2 / np.linalg.norm(b) ** 2


# ------------------------------------------------------------ design matrices

def test_channel_code_matrix_single_subframe():
    cfg, channels, coding, _, _ = make_case()
    single = CodingSet("tstc", coding.sensing[:, :, :1], coding.reflect[:1],
                       coding.code[:, :, :1])
    out = reflected_channel_regressor(reflect_blocks(single, channels.ut_ris), np.eye(cfg.r))
    expected = np.diag(single.reflect[0]) @ channels.ut_ris @ single.code[:, :, 0]
    assert np.allclose(out, expected.T)


def test_design_matrices_zero_channel():
    cfg, _, coding, _, _ = make_case()
    zero = reflect_blocks(coding, np.zeros((cfg.n, cfg.l), dtype=complex))
    assert np.all(reflected_channel_regressor(zero, np.eye(cfg.r)) == 0)
    # the symbol step's regressor at the channel step's solution H^T = I
    right = kronecker_problem(np.zeros((cfg.m, cfg.t, cfg.k)), zero)[2]
    assert np.all(symbol_problem(right, 1, np.eye(cfg.n)) == 0)
    assert symbol_problem(right, 1, np.eye(cfg.n)).shape == (cfg.k * cfg.n, cfg.r)


# ------------------------------------------------------------------- als path

@pytest.mark.parametrize("scheme", ["tstc", "krstc"])
def test_bals_exact_recovery_with_true_feedback(scheme):
    cfg, channels, coding, symbols, y = make_case(scheme=scheme)
    rep = bs_bals(y, channels.ut_ris, coding)
    assert nmse(rep.channel, channels.ris_bs) < 1e-10
    assert nmse(rep.symbols, symbols) < 1e-10


def test_bals_residual_trace_nonincreasing():
    cfg, channels, coding, symbols, _ = make_case(seed=2)
    rng = np.random.default_rng(5)
    y = with_noise(synth_ybs(channels, coding, np.sqrt(cfg.pt_watts) * symbols), cfg, rng)
    g = channels.ut_ris * np.sqrt(cfg.pt_watts)
    for seed in range(5):
        rep = bs_bals(y, g, coding, init_seed=seed)
        trace = rep.residuals
        assert all(b <= a * (1 + 1e-12) + 1e-12 for a, b in zip(trace, trace[1:]))


@pytest.mark.parametrize("scheme", ["tstc", "krstc"])
def test_bals_residual_is_the_squared_symbol_step_misfit(scheme, raw_estimates):
    cfg, channels, coding, symbols, _ = make_case(seed=2, scheme=scheme)
    y = with_noise(synth_ybs(channels, coding, np.sqrt(cfg.pt_watts) * symbols), cfg, np.random.default_rng(5))
    g = channels.ut_ris * np.sqrt(cfg.pt_watts)
    rep = bs_bals(y, g, coding)
    right = kronecker_problem(y, reflect_blocks(coding, g))[2]
    misfit = unfold(y, 2).T - symbol_problem(right, 1, rep.channel.T) @ rep.symbols
    assert rep.residuals[-1] == pytest.approx(np.linalg.norm(misfit) ** 2, rel=1e-12, abs=0)


def test_bals_true_init_converges_immediately(als_start):
    cfg, channels, coding, symbols, y = make_case(seed=3)
    with als_start(symbols):
        rep = bs_bals(y, channels.ut_ris, coding)
    assert rep.iterations <= 2
    assert nmse(rep.channel, channels.ris_bs) < 1e-10


# ALS from random symbols fell into these swamps (nmse_h 1.23, 2.12 and 1.09); the closed-form start escapes them
SWAMP = ScenarioConfig(m=4, n=8, nc=2, l=2, r=2, t=4, k=16, pt_dbm=20.0, rho=0.9)


@pytest.mark.parametrize("cfg,pair,seed", [
    (SWAMP, ("kronf", "bals"), 6046953085552370257),
    (SWAMP, ("bals", "bals"), 16667854724556337530),
    (SWAMP.replace(scheme="krstc"), ("krf", "bals"), 13500701248261853990),
], ids=["A", "B", "C"])
def test_bals_escapes_the_pinned_swamps(cfg, pair, seed):
    outcome = run_trial(cfg, pair, seed)
    assert outcome.nmse_h < 0.01 and outcome.ser_bs == 0


@st.composite
def start_problems(draw):
    """Small BS sizes with ``k`` the power of two at or just below the BS ``kronf`` threshold (never below the
    ``bals`` one or the coding's floors), a seed, and whether the fed-back channel has a zero row."""
    scheme = draw(st.sampled_from(["tstc", "krstc"]))
    l = draw(st.integers(1, 3))
    r = l if scheme == "krstc" else draw(st.integers(1, 2))
    cfg = ScenarioConfig(m=draw(st.integers(1, 3)), n=draw(st.integers(1, 4)), nc=1, l=l, r=r,
                         t=draw(st.integers(1, 3)), k=1, scheme=scheme)

    def power_of_two(floor):
        return 1 << (floor - 1).bit_length()

    # the coding itself needs k >= n and k >= the composite width
    floor = max(min_subframes(cfg, "bals", "bs"), cfg.n, cfg.l * (cfg.r if scheme == "tstc" else 1))
    k = max(power_of_two(min_subframes(cfg, "kronf", "bs")) // (1 + draw(st.booleans())), power_of_two(floor))
    return cfg.replace(k=k), draw(st.integers(0, 2**32 - 2)), draw(st.booleans())


@settings(max_examples=60, deadline=None)
@given(problem=start_problems())
def test_bals_starts_from_the_closed_form_where_it_is_identifiable(problem):
    cfg, seed, zero_row = problem
    coding, rng = build_coding(cfg), np.random.default_rng(seed)
    g = rng.standard_normal((cfg.n, cfg.l)) + 1j * rng.standard_normal((cfg.n, cfg.l))
    if zero_row:                              # a zero row of g zeroes a row of every block: no closed form
        g[0] = 0
    y = rng.standard_normal((cfg.m, cfg.t, cfg.k)) + 1j * rng.standard_normal((cfg.m, cfg.t, cfg.k))
    starts, run_als = [], bs_rx.run_als

    def run(init_seed):
        try:
            rep = bs_bals(y, g, coding, init_seed=init_seed)
            return rep.channel, rep.symbols, np.array(rep.residuals)
        except AmbiguityError as exc:
            return str(exc)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bs_rx, "run_als", lambda *args: starts.append(args[-1]) or run_als(*args))
        outcomes = [run(seed), run(seed + 1)]
    try:
        closed = bs_kronf(y, g, coding).symbols
    except (IdentifiabilityError, RankDeficiencyError, AmbiguityError):
        closed = None
    assert closed is None or (cfg.k >= cfg.streams * cfg.n and not zero_row)
    if closed is not None:
        assert all(np.array_equal(start, closed) for start in starts)
        # the random start is not drawn, so the seed changes nothing
        assert type(outcomes[0]) is type(outcomes[1])
        assert outcomes[0] == outcomes[1] if isinstance(outcomes[0], str) else all(
            np.array_equal(a, b) for a, b in zip(*outcomes))
    else:
        assert all(np.array_equal(start, init_symbols(cfg.streams, cfg.t, s))
                   for start, s in zip(starts, (seed, seed + 1)))


def test_bals_counts_svd_fallbacks(raw_estimates):
    # an all-zero fed-back channel zeroes both regressors, so neither Gram has a Cholesky factor
    cfg, channels, coding, symbols, y = make_case()
    zero = np.zeros_like(channels.ut_ris)
    rep = bs_bals(y, zero, coding)
    assert rep.fallbacks >= 1
    for estimate in (rep.channel, rep.symbols):
        assert np.isfinite(estimate).all() and not estimate.any()


@pytest.mark.parametrize("scheme", ["tstc", "krstc"])
def test_svd_fallbacks_read_the_blocks_of_the_call(scheme, monkeypatch):
    # with the certificate cap at zero every solve takes the SVD path on its explicit problem, and each
    # receiver call still builds its slice's blocks and Kronecker problem once and reads every regressor off them
    cfg, channels, coding, symbols, _ = make_case(seed=2, scheme=scheme)
    y = with_noise(synth_ybs(channels, coding, np.sqrt(cfg.pt_watts) * symbols), cfg, np.random.default_rng(5))
    g = channels.ut_ris * np.sqrt(cfg.pt_watts)
    builds, problems, handed, symbol_reads, starts = [], [], [], [], []
    reflect_blocks, kronecker_problem, run_als = synthesis.reflect_blocks, bs_rx.kronecker_problem, bs_rx.run_als
    symbol_problem = rx_common.symbol_problem

    def counting(*args):
        builds.append(1)
        return reflect_blocks(*args)

    def counting_problems(*args):
        problems.append(1)
        return kronecker_problem(*args)

    def recording_als(*args):
        handed.append(args[3])
        starts.append(args[-1])
        return run_als(*args)

    def recorded(f_t, *rest):
        symbol_reads.append(f_t)
        return symbol_problem(f_t, *rest)

    monkeypatch.setattr(tensor_ops, "GRAM_CERTIFICATE_MAX", 0.0)
    monkeypatch.setattr(synthesis, "reflect_blocks", counting)
    monkeypatch.setattr(bs_rx, "reflect_blocks", counting)
    monkeypatch.setattr(bs_rx, "kronecker_problem", counting_problems)
    monkeypatch.setattr(bs_rx, "run_als", recording_als)
    monkeypatch.setattr(rx_common, "symbol_problem", recorded)
    rep = bs_bals(y, g, coding)
    assert builds == [1] and problems == [1] and rep.iterations >= 2 and rep.fallbacks == 2 * rep.iterations
    blocks = reflect_blocks(coding, g)
    # every symbol step reads its regressor off the right factor of the call's one Kronecker problem
    assert len(symbol_reads) == rep.iterations
    assert np.array_equal(handed[0], kronecker_problem(y, blocks)[2]) and all(f_t is handed[0] for f_t in symbol_reads)
    # the closed-form start, on the SVD path too, is bs_kronf's
    assert np.array_equal(starts[0], bs_kronf(y, g, coding).symbols)
    builds.clear()
    problems.clear()
    fallback_regressors = []
    read = bs_rx.channel_problem
    monkeypatch.setattr(bs_rx, "channel_problem", lambda *args: fallback_regressors.append(1) or read(*args))
    bs_channel_only(y, g, symbols, coding)
    assert builds == [1] and problems == [1] and fallback_regressors == [1]


@pytest.mark.parametrize("receiver", [bs_kronf, bs_channel_only])
def test_stacked_closed_forms_build_blocks_one_slice_at_a_time(receiver, monkeypatch):
    # a stack's blocks are never built as one stacked array: each slice's channel goes in alone
    cases = [make_case(seed=seed) for seed in range(3)]
    coding = cases[0][2]
    y, g, x = (np.stack(arrays) for arrays in zip(*((y, ch.ut_ris, x) for _, ch, _, x, y in cases)))
    fed = (g, x) if receiver is bs_channel_only else (g,)
    alone = [receiver(y[i], *(a[i] for a in fed), coding) for i in range(len(cases))]
    ranks, reflect_blocks = [], bs_rx.reflect_blocks
    monkeypatch.setattr(bs_rx, "reflect_blocks", lambda coding, g: ranks.append(g.ndim) or reflect_blocks(coding, g))
    rep = receiver(y, *fed, coding)
    assert ranks == [2] * len(cases)
    for name in ("channel", "symbols"):
        assert np.array_equal(getattr(rep, name), np.stack([getattr(r, name) for r in alone]))


def test_bals_identifiability_precheck():
    cfg, channels, coding, symbols, y = make_case(t=2, n=8)
    # bs bals needs k >= ceil(n/t) = 4; truncate below that
    short = CodingSet("tstc", coding.sensing[:, :, :3], coding.reflect[:3],
                      coding.code[:, :, :3])
    with pytest.raises(IdentifiabilityError):
        bs_bals(y[:, :, :3], channels.ut_ris, short)


# ------------------------------------------------------------------ kronf path

def test_kronf_exact_recovery_tstc():
    cfg, channels, coding, symbols, y = make_case(n=4, k=32)  # k >= r*n = 8
    rep = bs_kronf(y, channels.ut_ris, coding)
    assert nmse(rep.channel, channels.ris_bs) < 1e-10
    assert nmse(rep.symbols, symbols) < 1e-10


def test_kronf_composite_is_kronecker_of_truth():
    cfg, channels, coding, symbols, y = make_case(n=4, k=32)
    from hrislink.tensor_ops import unfold

    blocks = [np.diag(coding.reflect[k]) @ channels.ut_ris @ coding.mix[k]
              for k in range(cfg.k)]
    right = np.column_stack([vec(b) for b in blocks])
    z = unfold(y, 3).T @ np.linalg.pinv(right)
    assert np.max(np.abs(z - np.kron(symbols.T, channels.ris_bs))) < 1e-12


def test_kronf_rearrangement_is_rank_one():
    cfg, channels, _, symbols, _ = make_case(n=4, k=32)
    z = np.kron(symbols.T, channels.ris_bs)
    t, m, r, n = cfg.t, cfg.m, cfg.r, cfg.n
    rearranged = z.reshape(t, m, r, n).transpose(3, 1, 2, 0).reshape(n * m, r * t)
    s = np.linalg.svd(rearranged, compute_uv=False)
    assert s[1] / s[0] < 1e-10
    assert np.allclose(rearranged, np.outer(vec(channels.ris_bs), vec(symbols.T)))


def test_kronf_exact_recovery_krstc():
    cfg, channels, coding, symbols, y = make_case(scheme="krstc", n=4, k=16)  # k >= l*n = 8
    rep = bs_kronf(y, channels.ut_ris, coding)
    assert nmse(rep.channel, channels.ris_bs) < 1e-10


# ----------------------------------------------------------------- h-only path

def test_channel_only_exact_recovery():
    cfg, channels, coding, symbols, y = make_case(k=8)
    rep = bs_channel_only(y, channels.ut_ris, symbols, coding)
    assert nmse(rep.channel, channels.ris_bs) < 1e-10
    assert rep.iterations == 0


def test_channel_only_zero_symbols_rank_deficient():
    cfg, channels, coding, symbols, y = make_case(k=8)
    with pytest.raises(RankDeficiencyError):
        bs_channel_only(y, channels.ut_ris, np.zeros_like(symbols), coding)


def test_channel_only_equals_single_bals_channel_step():
    cfg, channels, coding, symbols, y = make_case(k=8)
    rep = bs_channel_only(y, channels.ut_ris, symbols, coding)
    from hrislink.tensor_ops import unfold
    blocks = [np.diag(coding.reflect[k]) @ channels.ut_ris @ coding.mix[k] @ symbols
              for k in range(cfg.k)]
    direct = unfold(y, 1) @ np.linalg.pinv(np.hstack(blocks))
    assert np.allclose(rep.channel, direct)


@pytest.mark.parametrize("scheme", ["tstc", "krstc"])
def test_channel_only_is_the_first_bals_channel_step_bit_for_bit(scheme, als_start, raw_estimates, monkeypatch):
    cfg, channels, coding, symbols, _ = make_case(seed=4, scheme=scheme)
    rng = np.random.default_rng(9)
    y = with_noise(synth_ybs(channels, coding, np.sqrt(cfg.pt_watts) * symbols), cfg, rng)
    g = channels.ut_ris * np.sqrt(cfg.pt_watts) * (1 + 0.1 * rng.standard_normal(channels.ut_ris.shape))
    x = symbols + 0.1 * rng.standard_normal(symbols.shape)
    monkeypatch.setattr(rx_common, "MAX_ITERATIONS", 1)
    with als_start(x):
        first = bs_bals(y, g, coding)
    assert first.iterations == 1
    assert np.array_equal(bs_channel_only(y, g, x, coding).channel, first.channel)


def test_channel_only_requires_scenario_two():
    # the fed-back symbols are a required argument: a scenario-1 call cannot reach the receiver
    cfg, channels, coding, symbols, y = make_case(k=8)
    with pytest.raises(TypeError):
        bs_channel_only(y, channels.ut_ris, coding)


# ------------------------------------------------------------- fed-back checks

BS_RECEIVERS = [bs_bals, bs_kronf, bs_channel_only]


def fed_back(receiver, ut_channel, symbols):
    """The fed-back arrays ``receiver`` reads: the channel, and for ``bs_channel_only`` the symbols too."""
    return (ut_channel, symbols) if receiver is bs_channel_only else (ut_channel,)


@pytest.mark.parametrize("receiver", BS_RECEIVERS)
def test_wrong_ut_channel_shape_rejected(receiver):
    # a (1, l) channel would broadcast against the (n, l) one the BS expects
    cfg, channels, coding, symbols, y = make_case()
    with pytest.raises(ValueError, match=r"^fed-back ut_channel must be \(8, 2\), got \(1, 2\)$"):
        receiver(y, *fed_back(receiver, np.ones((1, cfg.l)), symbols), coding)


@pytest.mark.parametrize("receiver", [bs_channel_only])
def test_wrong_symbol_shape_rejected(receiver):
    cfg, channels, coding, symbols, y = make_case()
    with pytest.raises(ValueError, match=r"^fed-back symbols must be \(2, 4\), got \(2, 2\)$"):
        receiver(y, channels.ut_ris, symbols[:, :2], coding)


@pytest.mark.parametrize("name,receiver", [("ut_channel", receiver) for receiver in BS_RECEIVERS]
                         + [("symbols", bs_channel_only)])
def test_non_finite_payload_raises(name, receiver):
    cfg, channels, coding, symbols, y = make_case()
    fed = {"ut_channel": channels.ut_ris.copy(), "symbols": symbols.copy()}
    fed[name][0, 1] = np.nan
    with pytest.raises(NonFiniteError, match=f"fed-back {name} has non-finite entries"):
        receiver(y, *fed_back(receiver, **fed), coding)


# ------------------------------------------------------------------ ambiguity

def test_remove_ambiguity_anchored_unchanged():
    rng = np.random.default_rng(11)
    h = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
    x = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    x[0, 0] = 1.0
    rep = normalize_anchor(EstimateReport(h.copy(), x.copy()), per_stream=False)
    assert np.allclose(rep.channel, h) and np.allclose(rep.symbols, x)


def test_remove_ambiguity_constructed_scalar():
    rng = np.random.default_rng(12)
    h = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
    x = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    x[0, 0] = 1.0
    beta = -0.4 + 2.2j
    rep = normalize_anchor(EstimateReport(h / beta, beta * x), per_stream=False)
    assert np.allclose(rep.channel, h) and np.allclose(rep.symbols, x)


def test_remove_ambiguity_after_kronf_pipeline(raw_estimates):
    cfg, channels, coding, symbols, y = make_case(n=4, k=32)
    raw = bs_kronf(y, channels.ut_ris, coding)
    # the raw estimates carry a mutual scalar; removal must cancel it
    fixed = normalize_anchor(raw, per_stream=False)
    assert nmse(fixed.channel, channels.ris_bs) < 1e-10
    assert nmse(fixed.symbols, symbols) < 1e-10


# ---------------------------------------------------------------- invariants

def test_reconstruction_compensation_before_removal(raw_estimates):
    cfg, channels, coding, symbols, y = make_case(n=4, k=32)
    rep = bs_kronf(y, channels.ut_ris, coding)
    for k in (0, cfg.k - 1):
        recon = (rep.channel @ np.diag(coding.reflect[k]) @ channels.ut_ris
                 @ coding.mix[k] @ rep.symbols)
        assert np.linalg.norm(recon - y[:, :, k]) < 1e-10 * max(1.0, np.linalg.norm(y[:, :, k]))


def test_scalar_ambiguity_law(raw_estimates):
    cfg, channels, coding, symbols, y = make_case(n=4, k=32)
    rep = bs_kronf(y, channels.ut_ris, coding)
    x_ratio = rep.symbols / symbols
    h_ratio = channels.ris_bs / rep.channel
    assert np.max(np.abs(x_ratio - x_ratio[0, 0])) < 1e-8 * abs(x_ratio[0, 0])
    assert np.max(np.abs(h_ratio - h_ratio[0, 0])) < 1e-8 * abs(h_ratio[0, 0])
    assert abs(x_ratio[0, 0] / h_ratio[0, 0] - 1) < 1e-8


def test_channel_only_repeats_exactly():
    cfg, channels, coding, symbols, y = make_case(k=8)
    a = bs_channel_only(y, channels.ut_ris, symbols, coding)
    b = bs_channel_only(y, channels.ut_ris, symbols, coding)
    assert np.array_equal(a.channel, b.channel)
