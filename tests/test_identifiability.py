"""Threshold table, rank bounds, and cost accounting."""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrislink.coding import CodingSet, build_coding, gen_symbols
from hrislink.identifiability import (
    RECEIVERS,
    Sizes,
    check_identifiability,
    feasible_subframes,
    feedback_bits,
    flops_estimate,
    min_subframes,
    rank_bounds,
)
from hrislink.rx_common import check_received
from hrislink.scenario import ChannelRealization, ScenarioConfig, draw_channels

DEFAULTS = ScenarioConfig()

# (receiver, entity, scheme) -> threshold at the documented default dimensions
TABLE_AT_DEFAULTS = [
    ("bals", "hris", "tstc", 8),
    ("kronf", "hris", "tstc", 64),
    ("bals", "bs", "tstc", 8),
    ("kronf", "bs", "tstc", 64),
    ("bals", "hris", "krstc", 8),
    ("krf", "hris", "krstc", 32),
    ("bals", "bs", "krstc", 8),
    ("kronf", "bs", "krstc", 64),
    ("h", "bs", "tstc", 8),
    ("h", "bs", "krstc", 8),
]


@pytest.mark.parametrize("receiver,entity,scheme,expected", TABLE_AT_DEFAULTS)
def test_min_subframes_default_table(receiver, entity, scheme, expected):
    assert min_subframes(DEFAULTS.replace(scheme=scheme), receiver, entity) == expected


def test_min_subframes_ceiling_arithmetic():
    # fractional interior values must round up
    cfg = ScenarioConfig(m=8, n=30, nc=2, l=2, r=2, t=4, k=64)
    assert min_subframes(cfg, "bals", "hris") == 8   # ceil(max(2, 15)/2)
    assert min_subframes(cfg, "h", "bs") == 8        # ceil(30/4)
    cfg2 = ScenarioConfig(m=8, n=32, nc=3, l=2, r=2, t=4, k=64)
    assert min_subframes(cfg2, "kronf", "hris") == 43  # ceil(128/3)


def test_min_subframes_unknown_combo():
    with pytest.raises(ValueError):
        min_subframes(DEFAULTS.replace(scheme="krstc"), "kronf", "hris")
    with pytest.raises(ValueError):
        min_subframes(DEFAULTS, "h", "hris")


def test_check_identifiability_pairs():
    rep = check_identifiability(DEFAULTS, ("kronf", "bals"))
    assert rep.min_k == 64 and rep.satisfied
    kr = DEFAULTS.replace(scheme="krstc")
    rep2 = check_identifiability(kr, ("bals", "kronf"))
    assert rep2.min_k == 64 and rep2.satisfied
    rep3 = check_identifiability(kr.replace(k=32), ("bals", "kronf"))
    assert not rep3.satisfied
    rep4 = check_identifiability(DEFAULTS.replace(k=4), ("kronf", "h"))
    assert not rep4.satisfied


def test_check_identifiability_rejects_wrong_receiver_for_scheme():
    with pytest.raises(ValueError):
        check_identifiability(DEFAULTS, ("krf", "bals"))


def test_feasible_subframes_covers_design_floors():
    cfg = ScenarioConfig(m=4, n=8, nc=2, l=2, r=2, t=4, k=16)
    # table needs only 2, but the reflect design needs k >= n = 8
    assert feasible_subframes(cfg, ("bals", "bals")) == 8
    assert feasible_subframes(cfg, ("kronf", "kronf")) == 16
    kr = cfg.replace(scheme="krstc")
    assert feasible_subframes(kr, ("krf", "bals")) == 8
    assert feasible_subframes(kr, ("krf", "kronf")) == 16


@st.composite
def feasible_configs(draw):
    """A config whose ``k`` meets the floors of every pair of its scheme."""
    scheme = draw(st.sampled_from(["tstc", "krstc"]))
    l = draw(st.integers(1, 3))
    r = l if scheme == "krstc" else draw(st.integers(1, 3))
    cfg = ScenarioConfig(m=draw(st.integers(1, 4)), n=draw(st.integers(1, 8)), nc=draw(st.integers(1, 3)),
                         l=l, r=r, t=draw(st.integers(1, 5)), k=1, scheme=scheme)
    names = {entity: [s.name for s in RECEIVERS if s.entity == entity and scheme in s.schemes]
             for entity in ("hris", "bs")}
    k = max(feasible_subframes(cfg, pair) for pair in itertools.product(names["hris"], names["bs"]))
    return cfg.replace(k=k)


@settings(max_examples=60, deadline=None)
@given(cfg=feasible_configs())
def test_sizes_from_config_match_sizes_from_coding(cfg):
    # The sweep's pre-check reads Sizes.of(cfg); each receiver reads check_received.
    coding = build_coding(cfg)
    expected = Sizes.of(cfg)
    for spec in RECEIVERS:
        if cfg.scheme not in spec.schemes:
            continue
        rows = cfg.nc if spec.entity == "hris" else cfg.m
        got = check_received(np.zeros((rows, cfg.t, cfg.k), dtype=complex), coding, spec.fn)
        assert got == (expected if spec.entity == "bs" else replace(expected, m=None)), spec.fn
        assert spec.threshold(got) == spec.threshold(expected) == min_subframes(cfg, spec.name, spec.entity)


# ----------------------------------------------------------------- rank bounds

def random_full_rank_coding(cfg, rng):
    """Unit-modulus random phase design with dense random mixing slices."""
    amp = np.sqrt((1 - cfg.rho) / cfg.nc)
    phi = amp * np.exp(2j * np.pi * rng.random((cfg.nc, cfg.n, cfg.k)))
    psi = np.sqrt(cfg.rho) * np.exp(2j * np.pi * rng.random((cfg.k, cfg.n)))
    if cfg.scheme == "tstc":
        code = rng.standard_normal((cfg.l, cfg.r, cfg.k))
        return CodingSet("tstc", phi, psi, code)
    return CodingSet("krstc", phi, psi, np.sign(rng.standard_normal((cfg.k, cfg.l))))


@pytest.mark.parametrize("scheme", ["tstc", "krstc"])
def test_rank_bounds_full_rank_realization(scheme):
    cfg = ScenarioConfig(m=4, n=8, nc=2, l=2, r=2, t=4, k=8, rho=0.5, scheme=scheme)
    rng = np.random.default_rng(0)
    channels = draw_channels(cfg, rng)
    coding = random_full_rank_coding(cfg, rng)
    symbols = gen_symbols(cfg, rng)
    rep = rank_bounds(cfg, channels, coding, symbols)
    assert rep.ok
    assert rep.kappa_g == 2
    # dense random mixing attains the bound min{nc, kappa_g, r} = 2
    assert rep.zeta_x == rep.zeta_x_bound == 2


# tstc: Hadamard mixing slices are rank one, so the observed block rank is 1.
# krstc: the mixing slices diag(code[k]) are +-1 diagonals, so it reaches the bound 2.
@pytest.mark.parametrize("scheme,zeta_x", [("tstc", 1), ("krstc", 2)])
def test_rank_bounds_hold_with_shipped_design(scheme, zeta_x):
    cfg = ScenarioConfig(m=4, n=8, nc=2, l=2, r=2, t=4, k=8, rho=0.5, scheme=scheme)
    rng = np.random.default_rng(1)
    channels = draw_channels(cfg, rng)
    coding = build_coding(cfg)
    rep = rank_bounds(cfg, channels, coding, gen_symbols(cfg, rng))
    assert rep.ok
    assert rep.zeta_x == zeta_x <= rep.zeta_x_bound


def test_rank_bounds_rank_one_channel():
    cfg = ScenarioConfig(m=4, n=8, nc=2, l=2, r=2, t=4, k=8, rho=0.5)
    rng = np.random.default_rng(2)
    u = rng.standard_normal(cfg.n) + 1j * rng.standard_normal(cfg.n)
    v = rng.standard_normal(cfg.l) + 1j * rng.standard_normal(cfg.l)
    channels = ChannelRealization(np.outer(u, v), draw_channels(cfg, rng).ris_bs)
    rep = rank_bounds(cfg, channels, random_full_rank_coding(cfg, rng), gen_symbols(cfg, rng))
    assert rep.ok
    assert rep.kappa_g == 1
    assert rep.zeta_x <= 1


def test_rank_bounds_zero_symbols():
    cfg = ScenarioConfig(m=4, n=8, nc=2, l=2, r=2, t=4, k=8, rho=0.5)
    rng = np.random.default_rng(3)
    channels = draw_channels(cfg, rng)
    rep = rank_bounds(cfg, channels, build_coding(cfg),
                      np.zeros((cfg.r, cfg.t), dtype=complex))
    assert rep.kappa_x == 0
    assert rep.fg_bar_rank == 0
    assert rep.ok


# ------------------------------------------------------------------ accounting

def test_flops_hand_computed():
    assert flops_estimate(DEFAULTS, "bals", "hris", "tstc", iterations=1) == 2_097_664
    assert flops_estimate(DEFAULTS, "kronf", "bs", "tstc") == 264_192
    assert flops_estimate(DEFAULTS, "bals", "hris", "tstc", iterations=0) == 0.0
    # kronf hris tstc: 128*(128*64*2 + 4) = 2_097_664 + 512
    assert flops_estimate(DEFAULTS, "kronf", "hris", "tstc") == 128 * (128 * 64 * 2 + 4)
    # h row: k*n^2*t = 64*1024*4
    assert flops_estimate(DEFAULTS, "h", "bs", "tstc") == 64 * 1024 * 4
    # bals bs tstc per iteration: 64*(4*8 + 1024*4) = 64*4128
    assert flops_estimate(DEFAULTS, "bals", "bs", "tstc", iterations=2) == 2 * 64 * 4128


def test_feedback_bits_hand_computed():
    assert feedback_bits(DEFAULTS, 1) == 1024
    assert feedback_bits(DEFAULTS, 2) == 1066
    kr = DEFAULTS.replace(scheme="krstc")
    assert feedback_bits(kr, 2) == 2 * 3 * 6 + 1024
    single = ScenarioConfig(m=2, n=4, nc=2, l=2, r=2, t=1, k=4, scheme="krstc")
    assert feedback_bits(single, 2) == 2 * 4 * 16  # no data beyond anchors
    eta8 = DEFAULTS.replace(eta=8)
    assert feedback_bits(eta8, 1) == 512


def test_feedback_bits_bad_scenario():
    with pytest.raises(ValueError):
        feedback_bits(DEFAULTS, 3)
