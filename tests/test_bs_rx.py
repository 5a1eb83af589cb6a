"""BS-side receivers: design matrices, recovery oracles, ambiguity removal."""

import math

import numpy as np
import pytest

from hrislink.bs_rx import (
    ControlLinkPayload,
    bs_bals,
    bs_channel_only,
    bs_kronf,
    channel_code_matrix,
    symbol_code_matrix,
)
from hrislink.coding import CodingSet, build_coding, gen_symbols
from hrislink.rx_common import (
    EstimateReport,
    IdentifiabilityError,
    NonFiniteError,
    RankDeficiencyError,
    normalize_anchor,
)
from hrislink.scenario import ScenarioConfig, draw_channels
from hrislink.synthesis import synth_ybs
from hrislink.tensor_ops import unfold, vec


def make_case(seed=0, scheme="tstc", **kw):
    base = dict(m=4, n=8, nc=2, l=2, r=2, t=4, k=16, scheme=scheme)
    base.update(kw)
    cfg = ScenarioConfig(**base)
    rng = np.random.default_rng(seed)
    channels = draw_channels(cfg, rng)
    coding = build_coding(cfg)
    symbols = gen_symbols(cfg, rng)
    y = synth_ybs(cfg.replace(noise_dbm=-math.inf), channels, coding, symbols, rng)
    return cfg, channels, coding, symbols, y


def nmse(a, b):
    return np.linalg.norm(a - b) ** 2 / np.linalg.norm(b) ** 2


# ------------------------------------------------------------ design matrices

def test_channel_code_matrix_single_subframe():
    cfg, channels, coding, _, _ = make_case()
    single = CodingSet("tstc", coding.sensing[:, :, :1], coding.reflect[:1],
                       coding.code[:, :, :1])
    out = channel_code_matrix(single, channels.ut_ris, np.eye(cfg.r))
    expected = np.diag(single.reflect[0]) @ channels.ut_ris @ single.code[:, :, 0]
    assert np.allclose(out, expected)


def test_design_matrices_zero_channel():
    cfg, _, coding, _, _ = make_case()
    zero = np.zeros((cfg.n, cfg.l), dtype=complex)
    assert np.all(channel_code_matrix(coding, zero, np.eye(cfg.r)) == 0)
    assert np.all(symbol_code_matrix(coding, zero, np.eye(cfg.n)) == 0)
    assert symbol_code_matrix(coding, zero, np.eye(cfg.n)).shape == (cfg.k * cfg.n, cfg.r)


# ------------------------------------------------------------------- als path

@pytest.mark.parametrize("scheme", ["tstc", "krstc"])
def test_bals_exact_recovery_with_true_feedback(scheme):
    cfg, channels, coding, symbols, y = make_case(scheme=scheme)
    payload = ControlLinkPayload(channels.ut_ris)
    rep = bs_bals(y, payload, coding)
    assert nmse(rep.channel, channels.ris_bs) < 1e-10
    assert nmse(rep.symbols, symbols) < 1e-10


def test_bals_residual_trace_nonincreasing():
    cfg, channels, coding, symbols, _ = make_case(seed=2)
    rng = np.random.default_rng(5)
    y = synth_ybs(cfg, channels, coding, np.sqrt(cfg.pt_watts) * symbols, rng)
    payload = ControlLinkPayload(channels.ut_ris * np.sqrt(cfg.pt_watts))
    for seed in range(5):
        rep = bs_bals(y, payload, coding, init_seed=seed)
        trace = rep.residuals
        assert all(b <= a * (1 + 1e-12) + 1e-12 for a, b in zip(trace, trace[1:]))


@pytest.mark.parametrize("scheme", ["tstc", "krstc"])
def test_bals_residual_is_the_squared_symbol_step_misfit(scheme, raw_estimates):
    cfg, channels, coding, symbols, _ = make_case(seed=2, scheme=scheme)
    y = synth_ybs(cfg, channels, coding, np.sqrt(cfg.pt_watts) * symbols, np.random.default_rng(5))
    payload = ControlLinkPayload(channels.ut_ris * np.sqrt(cfg.pt_watts))
    rep = bs_bals(y, payload, coding)
    misfit = unfold(y, 2).T - symbol_code_matrix(coding, payload.ut_channel, rep.channel) @ rep.symbols
    assert rep.residuals[-1] == pytest.approx(np.linalg.norm(misfit) ** 2, rel=1e-12, abs=0)


def test_bals_true_init_converges_immediately():
    cfg, channels, coding, symbols, y = make_case(seed=3)
    import hrislink.bs_rx as mod
    original = mod.init_symbols
    mod.init_symbols = lambda rows, cols, seed: symbols.copy()
    try:
        rep = bs_bals(y, ControlLinkPayload(channels.ut_ris), coding)
    finally:
        mod.init_symbols = original
    assert rep.iterations <= 2
    assert nmse(rep.channel, channels.ris_bs) < 1e-10


def test_bals_counts_svd_fallbacks(raw_estimates):
    # an all-zero fed-back channel zeroes both regressors, so neither Gram has a Cholesky factor
    cfg, channels, coding, symbols, y = make_case()
    zero = ControlLinkPayload(np.zeros_like(channels.ut_ris))
    rep = bs_bals(y, zero, coding)
    assert rep.fallbacks >= 1
    for estimate in (rep.channel, rep.symbols):
        assert np.isfinite(estimate).all() and not estimate.any()


def test_bals_identifiability_precheck():
    cfg, channels, coding, symbols, y = make_case(t=2, n=8)
    # bs bals needs k >= ceil(n/t) = 4; truncate below that
    short = CodingSet("tstc", coding.sensing[:, :, :3], coding.reflect[:3],
                      coding.code[:, :, :3])
    with pytest.raises(IdentifiabilityError):
        bs_bals(y[:, :, :3], ControlLinkPayload(channels.ut_ris), short)


# ------------------------------------------------------------------ kronf path

def test_kronf_exact_recovery_tstc():
    cfg, channels, coding, symbols, y = make_case(n=4, k=32)  # k >= r*n = 8
    rep = bs_kronf(y, ControlLinkPayload(channels.ut_ris), coding)
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
    rep = bs_kronf(y, ControlLinkPayload(channels.ut_ris), coding)
    assert nmse(rep.channel, channels.ris_bs) < 1e-10


# ----------------------------------------------------------------- h-only path

def test_channel_only_exact_recovery():
    cfg, channels, coding, symbols, y = make_case(k=8)
    payload = ControlLinkPayload(channels.ut_ris, symbols)
    rep = bs_channel_only(y, payload, coding)
    assert nmse(rep.channel, channels.ris_bs) < 1e-10
    assert rep.iterations == 0


def test_channel_only_zero_symbols_rank_deficient():
    cfg, channels, coding, symbols, y = make_case(k=8)
    payload = ControlLinkPayload(channels.ut_ris, np.zeros_like(symbols))
    with pytest.raises(RankDeficiencyError):
        bs_channel_only(y, payload, coding)


def test_channel_only_equals_single_bals_channel_step():
    cfg, channels, coding, symbols, y = make_case(k=8)
    payload = ControlLinkPayload(channels.ut_ris, symbols)
    rep = bs_channel_only(y, payload, coding)
    from hrislink.tensor_ops import unfold
    blocks = [np.diag(coding.reflect[k]) @ channels.ut_ris @ coding.mix[k] @ symbols
              for k in range(cfg.k)]
    direct = unfold(y, 1) @ np.linalg.pinv(np.hstack(blocks))
    assert np.allclose(rep.channel, direct)


def test_channel_only_requires_scenario_two():
    cfg, channels, coding, symbols, y = make_case(k=8)
    with pytest.raises(ValueError):
        bs_channel_only(y, ControlLinkPayload(channels.ut_ris), coding)
    assert ControlLinkPayload(channels.ut_ris).scenario == 1
    assert ControlLinkPayload(channels.ut_ris, symbols).scenario == 2


# --------------------------------------------------------------- payload checks

BS_RECEIVERS = [bs_bals, bs_kronf, bs_channel_only]


@pytest.mark.parametrize("receiver", BS_RECEIVERS)
def test_wrong_ut_channel_shape_rejected(receiver):
    # a (1, l) channel would broadcast against the (n, l) one the BS expects
    cfg, channels, coding, symbols, y = make_case()
    payload = ControlLinkPayload(np.ones((1, cfg.l)), symbols)
    with pytest.raises(ValueError, match=r"^fed-back ut_channel must be \(8, 2\), got \(1, 2\)$"):
        receiver(y, payload, coding)


@pytest.mark.parametrize("receiver", BS_RECEIVERS)
def test_wrong_symbol_shape_rejected(receiver):
    cfg, channels, coding, symbols, y = make_case()
    payload = ControlLinkPayload(channels.ut_ris, symbols[:, :2])
    with pytest.raises(ValueError, match=r"^fed-back symbols must be \(2, 4\), got \(2, 2\)$"):
        receiver(y, payload, coding)


@pytest.mark.parametrize("receiver", BS_RECEIVERS)
@pytest.mark.parametrize("name", ["ut_channel", "symbols"])
def test_non_finite_payload_raises(receiver, name):
    cfg, channels, coding, symbols, y = make_case()
    fed_back = {"ut_channel": channels.ut_ris.copy(), "symbols": symbols.copy()}
    fed_back[name][0, 1] = np.nan
    with pytest.raises(NonFiniteError, match=f"fed-back {name} has non-finite entries"):
        receiver(y, ControlLinkPayload(**fed_back), coding)


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
    raw = bs_kronf(y, ControlLinkPayload(channels.ut_ris), coding)
    # the raw estimates carry a mutual scalar; removal must cancel it
    fixed = normalize_anchor(raw, per_stream=False)
    assert nmse(fixed.channel, channels.ris_bs) < 1e-10
    assert nmse(fixed.symbols, symbols) < 1e-10


# ---------------------------------------------------------------- invariants

def test_reconstruction_compensation_before_removal(raw_estimates):
    cfg, channels, coding, symbols, y = make_case(n=4, k=32)
    rep = bs_kronf(y, ControlLinkPayload(channels.ut_ris), coding)
    for k in (0, cfg.k - 1):
        recon = (rep.channel @ np.diag(coding.reflect[k]) @ channels.ut_ris
                 @ coding.mix[k] @ rep.symbols)
        assert np.linalg.norm(recon - y[:, :, k]) < 1e-10 * max(1.0, np.linalg.norm(y[:, :, k]))


def test_scalar_ambiguity_law(raw_estimates):
    cfg, channels, coding, symbols, y = make_case(n=4, k=32)
    rep = bs_kronf(y, ControlLinkPayload(channels.ut_ris), coding)
    x_ratio = rep.symbols / symbols
    h_ratio = channels.ris_bs / rep.channel
    assert np.max(np.abs(x_ratio - x_ratio[0, 0])) < 1e-8 * abs(x_ratio[0, 0])
    assert np.max(np.abs(h_ratio - h_ratio[0, 0])) < 1e-8 * abs(h_ratio[0, 0])
    assert abs(x_ratio[0, 0] / h_ratio[0, 0] - 1) < 1e-8


def test_channel_only_repeats_exactly():
    cfg, channels, coding, symbols, y = make_case(k=8)
    payload = ControlLinkPayload(channels.ut_ris, symbols)
    a = bs_channel_only(y, payload, coding)
    b = bs_channel_only(y, payload, coding)
    assert np.array_equal(a.channel, b.channel)
