"""Slice-wise synthesis against the decoupled tensor and scalar oracles.

The synthesis returns the noiseless tensors; noise comes from
``scenario.draw_noise``.
"""

import math

import numpy as np
import pytest

from hrislink.coding import build_coding, gen_symbols
from hrislink.scenario import ChannelRealization, ScenarioConfig, draw_channels
from hrislink.synthesis import synth_ybs, synth_yrc

from oracle_models import (
    reflected_scalar,
    reflected_tensor_form,
    sensed_scalar,
    sensed_tensor_form,
    with_noise,
)
from test_golden import GOLDEN_SIZES


def make_case(seed=0, **kw):
    base = dict(m=4, n=8, nc=2, l=2, r=2, t=4, k=16, rho=0.6, noise_dbm=-math.inf)
    base.update(kw)
    cfg = ScenarioConfig(**base)
    rng = np.random.default_rng(seed)
    channels = draw_channels(cfg, rng)
    coding = build_coding(cfg)
    symbols = gen_symbols(cfg, rng)
    return cfg, channels, coding, symbols


def test_all_reflect_gives_zero_sensed():
    cfg, channels, coding, symbols = make_case(rho=1.0)
    assert np.all(synth_yrc(channels, coding, symbols) == 0)


def test_all_sense_gives_zero_reflected():
    cfg, channels, coding, symbols = make_case(rho=0.0)
    assert np.all(synth_ybs(channels, coding, symbols) == 0)


@pytest.mark.parametrize("scheme", ["tstc", "krstc"])
def test_sensed_matches_tensor_form(scheme):
    cfg, channels, coding, symbols = make_case(scheme=scheme)
    y = synth_yrc(channels, coding, symbols)
    oracle = sensed_tensor_form(channels, coding, symbols)
    assert np.max(np.abs(y - oracle)) < 1e-12


@pytest.mark.parametrize("scheme", ["tstc", "krstc"])
def test_reflected_matches_tensor_form(scheme):
    cfg, channels, coding, symbols = make_case(scheme=scheme)
    y = synth_ybs(channels, coding, symbols)
    oracle = reflected_tensor_form(channels, coding, symbols)
    assert np.max(np.abs(y - oracle)) < 1e-12


def test_scalar_pipeline_single_entry():
    cfg = ScenarioConfig(m=1, n=1, nc=1, l=1, r=1, t=1, k=1, rho=0.5, noise_dbm=-math.inf)
    rng = np.random.default_rng(3)
    channels = draw_channels(cfg, rng)
    coding = build_coding(cfg)
    symbols = gen_symbols(cfg, rng)
    y = synth_yrc(channels, coding, symbols)
    expected = (coding.sensing[0, 0, 0] * channels.ut_ris[0, 0]
                * coding.mix[0][0, 0] * symbols[0, 0])
    assert abs(y[0, 0, 0] - expected) < 1e-15


@pytest.mark.parametrize("scheme", ["tstc", "krstc"])
def test_scalar_sum_consistency(scheme):
    cfg, channels, coding, symbols = make_case(seed=5, scheme=scheme)
    rng = np.random.default_rng(11)
    y_rc = synth_yrc(channels, coding, symbols)
    y_bs = synth_ybs(channels, coding, symbols)
    for _ in range(5):
        ic = int(rng.integers(cfg.nc))
        im = int(rng.integers(cfg.m))
        it = int(rng.integers(cfg.t))
        ik = int(rng.integers(cfg.k))
        assert abs(y_rc[ic, it, ik] - sensed_scalar(channels, coding, symbols, ic, it, ik)) < 1e-12
        assert abs(y_bs[im, it, ik] - reflected_scalar(channels, coding, symbols, im, it, ik)) < 1e-12


def test_krstc_is_diagonal_special_case_of_tstc():
    cfg_kr, channels, coding_kr, symbols = make_case(scheme="krstc")
    y_kr = synth_ybs(channels, coding_kr, symbols)
    # same signal through the tstc path with per-sub-frame diagonal mixing
    w = np.zeros((cfg_kr.l, cfg_kr.l, cfg_kr.k))
    for k in range(cfg_kr.k):
        w[:, :, k] = np.diag(coding_kr.code[k])
    coding_w = type(coding_kr)(scheme="tstc", sensing=coding_kr.sensing,
                               reflect=coding_kr.reflect, code=w)
    y_w = synth_ybs(channels, coding_w, symbols)
    assert np.max(np.abs(y_kr - y_w)) < 1e-12
    assert np.max(np.abs(
        synth_yrc(channels, coding_kr, symbols)
        - synth_yrc(channels, coding_w, symbols))) < 1e-12


def test_energy_monotne_in_power_split():
    base = make_case(seed=9)
    channels, symbols = base[1], base[3]
    sensed, reflected = [], []
    for rho in np.linspace(0.05, 0.95, 7):
        cfg = ScenarioConfig(m=4, n=8, nc=2, l=2, r=2, t=4, k=16, rho=float(rho), noise_dbm=-math.inf)
        coding = build_coding(cfg)
        sensed.append(np.linalg.norm(synth_yrc(channels, coding, symbols)) ** 2)
        reflected.append(np.linalg.norm(synth_ybs(channels, coding, symbols)) ** 2)
    assert all(a >= b - 1e-15 for a, b in zip(sensed, sensed[1:]))
    assert all(a <= b + 1e-15 for a, b in zip(reflected, reflected[1:]))


def test_noise_is_additive_after_synthesis():
    cfg, channels, coding, symbols = make_case(seed=2)
    clean = synth_yrc(channels, coding, symbols)
    noisy = with_noise(clean, cfg.replace(noise_dbm=-90.0), np.random.default_rng(0))
    diff = noisy - clean
    assert diff.shape == clean.shape
    assert np.all(diff != 0)


def test_dimension_mismatch_rejected():
    # a wrong UT-side channel or stream count, and a BS-side channel or symbol vector without its m or t axis
    cfg, channels, coding, symbols = make_case()
    cases = ((ChannelRealization(channels.ut_ris[:, :1], channels.ris_bs), symbols,
              r"UT-side channel must be \(8, 2\), got \(8, 1\)"),
             (channels, symbols[:1], r"symbol matrix must be \(2, 4\), got \(1, 4\)"),
             (ChannelRealization(channels.ut_ris, channels.ris_bs[0]), symbols,
              r"BS-side channel must be \('m', 8\), got \(8,\)"),
             (channels, symbols[0], r"symbol matrix must be \(2, 4\), got \(4,\)"))
    for chans, x, message in cases:
        for synth in (synth_yrc, synth_ybs):
            with pytest.raises(ValueError, match=f"^{message}$"):
                synth(chans, coding, x)


@pytest.mark.parametrize("other", [dict(nc=1), dict(n=4), dict(scheme="krstc")], ids=["sensing", "reflect", "scheme"])
def test_coding_of_another_config_rejected(other):
    # the coding is the one source of n, nc, k, l and the stream count: synthesis follows the coding it is given
    cfg, channels, coding, symbols = make_case()
    foreign = build_coding(cfg.replace(**other))
    if "n" in other:    # the UT-side channel has the config's n, not the coding's
        for synth in (synth_yrc, synth_ybs):
            with pytest.raises(ValueError, match=r"^UT-side channel must be \(4, 2\), got \(8, 2\)$"):
                synth(channels, foreign, symbols)
    else:
        assert_matches_the_oracles(channels, foreign, symbols)


def test_the_arrays_fix_m_and_t():
    cfg, channels, coding, symbols = make_case()
    rng = np.random.default_rng(4)
    other = ChannelRealization(channels.ut_ris, draw_channels(cfg.replace(m=3), rng).ris_bs)
    longer = gen_symbols(cfg.replace(t=7), rng)
    for chans, x in ((other, symbols), (channels, longer), (other, longer)):
        assert_matches_the_oracles(chans, coding, x)
    assert synth_ybs(other, coding, longer).shape == (3, 7, cfg.k)


def assert_matches_the_oracles(channels, coding, symbols):
    for got, want in ((synth_yrc(channels, coding, symbols), sensed_tensor_form(channels, coding, symbols)),
                      (synth_ybs(channels, coding, symbols), reflected_tensor_form(channels, coding, symbols))):
        assert got.shape == want.shape and np.max(np.abs(got - want)) < 1e-12


# Plain einsum references (no contraction-path search) for the batched products.
_EINSUM = {
    "tstc": ("cnk,nl,lrk,rt->ctk", "mn,kn,nl,lrk,rt->mtk", lambda code: code),
    "krstc": ("cnk,nl,lk,lt->ctk", "mn,kn,nl,lk,lt->mtk", lambda code: code.T),
}


@pytest.mark.parametrize("scheme", ["tstc", "krstc"])
@pytest.mark.parametrize("sizes", [
    dict(),  # the default config
    dict(m=3, n=8, nc=3, l=3, r=2, t=5, k=16),
])
def test_batched_synthesis_matches_plain_einsum(scheme, sizes):
    sizes = dict(sizes, scheme=scheme)
    if scheme == "krstc":
        sizes["r"] = sizes.get("l", 2)
    cfg = ScenarioConfig(**sizes, noise_dbm=-math.inf)
    rng = np.random.default_rng(11)
    channels = draw_channels(cfg, rng)
    coding = build_coding(cfg)
    symbols = gen_symbols(cfg, rng)
    sensed_spec, reflected_spec, code_of = _EINSUM[scheme]
    code = code_of(coding.code)
    sensed = np.einsum(sensed_spec, coding.sensing, channels.ut_ris, code, symbols)
    reflected = np.einsum(reflected_spec, channels.ris_bs, coding.reflect, channels.ut_ris, code, symbols)
    # Some entries cancel to an exact zero in one summation order only, hence the floor.
    for got, want in ((synth_yrc(channels, coding, symbols), sensed),
                      (synth_ybs(channels, coding, symbols), reflected)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("scheme", ["tstc", "krstc"])
@pytest.mark.parametrize("sizes", [{}, GOLDEN_SIZES], ids=["default", "golden"])
def test_stacked_synthesis_equals_the_per_trial_tensors(scheme, sizes):
    cfg = ScenarioConfig(**{**sizes, "scheme": scheme})
    coding = build_coding(cfg)
    draws = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        draws.append((draw_channels(cfg, rng), gen_symbols(cfg, rng)))
    stack = ChannelRealization(*(np.stack([getattr(ch, name) for ch, _ in draws]) for name in ("ut_ris", "ris_bs")))
    symbols = np.stack([x for _, x in draws])
    for synth in (synth_yrc, synth_ybs):
        alone = np.stack([synth(ch, coding, x) for ch, x in draws])
        assert np.array_equal(synth(stack, coding, symbols), alone)
        assert np.array_equal(synth(ChannelRealization(stack.ut_ris[None], stack.ris_bs[None]), coding,
                                    symbols[None]), alone[None])


def test_stack_with_disagreeing_leading_axes_rejected():
    # the symbols' leading axes are the stack's; each channel must carry the same ones
    cfg, channels, coding, symbols = make_case()
    two = ChannelRealization(np.stack([channels.ut_ris] * 2), np.stack([channels.ris_bs] * 2))
    cases = ((two, np.stack([symbols] * 3), r"UT-side channel must be \(3, 8, 2\), got \(2, 8, 2\)"),
             (two, symbols, r"UT-side channel must be \(8, 2\), got \(2, 8, 2\)"),
             (ChannelRealization(two.ut_ris, channels.ris_bs), np.stack([symbols] * 2),
              r"BS-side channel must be \(2, 4, 8\), got \(4, 8\)"))
    for chans, x, message in cases:
        for synth in (synth_yrc, synth_ybs):
            with pytest.raises(ValueError, match=f"^{message}$"):
                synth(chans, coding, x)
