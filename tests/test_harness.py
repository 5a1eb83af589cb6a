"""Metrics, trial pipeline, sweep aggregation, and determinism."""

import math

import numpy as np
import pytest

from hrislink.coding import qam_constellation
from hrislink.harness import (
    aggregate,
    combined_channel,
    nmse,
    parse_pair,
    run_sweep,
    run_trial,
    ser,
    trial_seed,
)
from hrislink import bs_rx, harness
from hrislink.bs_rx import ControlLinkPayload, bs_bals, bs_channel_only, bs_kronf
from hrislink.coding import build_coding
from hrislink.hris_rx import hris_bals, hris_kronf, hris_krf
from hrislink.identifiability import receiver_spec
from hrislink.rx_common import IdentifiabilityError, NonFiniteError
from hrislink.scenario import ScenarioConfig

from test_acceptance import PAIRS


def small_cfg(**kw):
    base = dict(m=4, n=8, nc=2, l=2, r=2, t=4, k=16, pt_dbm=30.0)
    base.update(kw)
    return ScenarioConfig(**base)


# --------------------------------------------------------------------- metrics

def test_nmse_basics():
    rng = np.random.default_rng(0)
    truth = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    assert nmse(truth, truth) == 0.0
    assert math.isclose(nmse(np.zeros_like(truth), truth), 1.0)
    assert math.isclose(nmse(2 * truth, truth), 1.0)
    with pytest.raises(ValueError):
        nmse(truth, np.zeros_like(truth))
    with pytest.raises(ValueError):
        nmse(truth, truth[:2])


def test_combined_channel_scalar_case():
    g = np.array([[2.0 + 1j]])
    h = np.array([[3.0 - 1j]])
    out = combined_channel(g, h)
    assert out.shape == (1, 1)
    assert np.isclose(out[0, 0], (2 + 1j) * (3 - 1j))


def test_combined_channel_shape_at_defaults():
    cfg = ScenarioConfig()
    g = np.ones((cfg.n, cfg.l), dtype=complex)
    h = np.ones((cfg.m, cfg.n), dtype=complex)
    assert combined_channel(g, h).shape == (cfg.l * cfg.m, cfg.n)


def test_combined_channel_scalar_compensation():
    rng = np.random.default_rng(1)
    g = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    h = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    alpha = 0.7 - 2.1j
    direct = combined_channel(g, h)
    compensated = combined_channel(g / alpha, alpha * h)
    assert np.allclose(direct, compensated)


def test_ser_zero_and_counting():
    points = qam_constellation(64)
    rng = np.random.default_rng(2)
    x_true = points[rng.integers(0, 64, size=(2, 4))]
    assert ser(x_true, x_true, 64) == 0.0
    x_hat = x_true.copy()
    x_hat[1, 2] = points[(np.argmin(np.abs(points - x_hat[1, 2])) + 7) % 64]
    assert math.isclose(ser(x_hat, x_true, 64), 1.0 / 6.0)


def test_ser_excludes_first_column():
    points = qam_constellation(64)
    rng = np.random.default_rng(3)
    x_true = points[rng.integers(0, 64, size=(2, 4))]
    x_hat = x_true.copy()
    x_hat[:, 0] = 123.0  # corrupt anchors only
    assert ser(x_hat, x_true, 64) == 0.0


def test_ser_zero_estimate_decision_rule_oracle():
    points = qam_constellation(64)
    rng = np.random.default_rng(4)
    x_true = points[rng.integers(0, 64, size=(3, 9))]
    # oracle: the all-zero estimate decodes every entry to the tie-rule point
    tie_idx = int(np.argmin(np.abs(points)))
    true_idx = np.argmin(np.abs(x_true[:, 1:, None] - points[None, None, :]), axis=2)
    expected = float(np.mean(true_idx != tie_idx))
    assert math.isclose(ser(np.zeros_like(x_true), x_true, 64), expected)


# ---------------------------------------------------------------------- trials

def test_trial_seed_derivation_is_stable():
    assert trial_seed(0, 0) != trial_seed(0, 1)
    assert trial_seed(5, 3) == trial_seed(5, 3)
    # xor symmetry is fine; distinct trials within one base never collide
    seeds = {trial_seed(1234, i) for i in range(1000)}
    assert len(seeds) == 1000


def test_noiseless_trial_exact_recovery():
    cfg = small_cfg(noise_dbm=-math.inf)
    out = run_trial(cfg, ("kronf", "h"), seed=7)
    assert not out.failed
    assert out.nmse_g < 1e-10 and out.nmse_h < 1e-10 and out.nmse_theta < 1e-10
    assert out.ser_hris == 0.0 and out.ser_bs == 0.0


def test_trial_determinism():
    cfg = small_cfg()
    a = run_trial(cfg, ("bals", "bals"), seed=11)
    b = run_trial(cfg, ("bals", "bals"), seed=11)
    assert a == b
    c = run_trial(cfg, ("bals", "bals"), seed=12)
    assert a != c


def test_full_reflection_trial_fails():
    cfg = small_cfg(rho=1.0)
    out = run_trial(cfg, ("kronf", "bals"), seed=1)
    assert out.failed
    assert math.isnan(out.nmse_g)


def test_scenario2_reports_fed_back_ser():
    cfg = small_cfg(noise_dbm=-math.inf)
    out = run_trial(cfg, ("bals", "h"), seed=3)
    assert out.ser_bs == out.ser_hris
    assert out.iters_bs == 0


@pytest.mark.parametrize("scheme", ["tstc", "krstc"])
@pytest.mark.parametrize("bs_receiver", ["bals", "kronf", "h"])
def test_trial_feeds_back_symbols_exactly_for_scenario_two(monkeypatch, scheme, bs_receiver):
    spec = receiver_spec(bs_receiver, "bs", scheme)
    real = getattr(bs_rx, spec.fn)
    seen = []

    def record(y_bs, payload, coding, **kw):
        seen.append(payload)
        return real(y_bs, payload, coding, **kw)

    monkeypatch.setattr(bs_rx, spec.fn, record)
    surface = "kronf" if scheme == "tstc" else "krf"
    out = run_trial(small_cfg(scheme=scheme, noise_dbm=-math.inf), (surface, bs_receiver), seed=5)
    assert not out.failed
    [payload] = seen
    assert (payload.symbols is not None) == (spec.scenario == 2)
    assert payload.scenario == spec.scenario


# ---------------------------------------------------------------------- sweeps

def test_single_point_single_trial_equals_run_trial():
    cfg = small_cfg()
    records = run_sweep(cfg, ("kronf", "bals"), "pt", [30.0], trials=1, base_seed=9)
    direct = run_trial(cfg.replace(pt_dbm=30.0), ("kronf", "bals"), trial_seed(9, 0))
    assert len(records) == 1
    rec = records[0]
    assert rec.trials == 1 and rec.failures == 0
    assert math.isclose(rec.nmse_g, direct.nmse_g)
    assert math.isclose(rec.nmse_h, direct.nmse_h)
    assert rec.value == 30.0 and rec.sweep_var == "pt"


def test_sweep_rejects_unidentifiable_config():
    cfg = small_cfg(k=4)
    with pytest.raises(IdentifiabilityError):
        run_sweep(cfg, ("kronf", "bals"), "pt", [30.0], trials=1)


def test_aggregation_linearity():
    cfg = small_cfg()
    outcomes_a = [run_trial(cfg, ("kronf", "bals"), trial_seed(0, i)) for i in range(4)]
    outcomes_b = [run_trial(cfg, ("kronf", "bals"), trial_seed(0, i)) for i in range(4, 10)]
    joint = aggregate(outcomes_a + outcomes_b, "pt", 30.0)
    # recombine the two batch means with their weights
    rec_a = aggregate(outcomes_a, "pt", 30.0)
    rec_b = aggregate(outcomes_b, "pt", 30.0)
    for name in ("nmse_g", "nmse_h", "nmse_theta", "ser_hris", "ser_bs"):
        merged = (4 * getattr(rec_a, name) + 6 * getattr(rec_b, name)) / 10
        assert math.isclose(merged, getattr(joint, name), rel_tol=1e-12)


def test_failed_trials_excluded_from_means():
    from hrislink.harness import TrialOutcome

    good = TrialOutcome(nmse_g=0.5, nmse_h=0.5, nmse_theta=0.5,
                        ser_hris=0.0, ser_bs=0.0, iters_hris=3, iters_bs=4)
    bad = TrialOutcome(failed=True, failure_reason="anchor")
    rec = aggregate([good, bad], "rho", 0.9)
    assert rec.trials == 2 and rec.failures == 1
    assert rec.nmse_g == 0.5


@pytest.mark.parametrize("scheme,receiver", [
    ("tstc", hris_bals), ("tstc", hris_kronf), ("krstc", hris_krf),
    ("tstc", bs_bals), ("krstc", bs_kronf), ("tstc", bs_channel_only),
])
def test_receivers_reject_non_finite_input(scheme, receiver):
    cfg = small_cfg(scheme=scheme)
    coding = build_coding(cfg)
    if receiver.__module__.endswith("hris_rx"):
        args = (np.full((cfg.nc, cfg.t, cfg.k), np.nan, dtype=complex),)
    else:
        g = np.ones((cfg.n, cfg.l), dtype=complex)
        payload = ControlLinkPayload(g, np.ones((cfg.streams, cfg.t), dtype=complex))
        args = (np.full((cfg.m, cfg.t, cfg.k), np.nan, dtype=complex), payload)
    with pytest.raises(NonFiniteError):
        receiver(*args, coding)


def test_non_finite_signal_is_a_failed_trial(monkeypatch):
    def nan_yrc(cfg, channels, coding, symbols, rng=None):
        return np.full((cfg.nc, cfg.t, cfg.k), np.nan, dtype=complex)

    monkeypatch.setattr(harness, "synth_yrc", nan_yrc)
    out = run_trial(small_cfg(), ("kronf", "bals"), trial_seed(0, 0))
    assert out.failed and "non-finite" in out.failure_reason


@pytest.mark.parametrize("noise_dbm", [-90.0, -math.inf])
def test_zero_channel_is_a_failed_trial(noise_dbm):
    # pl0_db = -inf zeroes both links; pl0_db = -1600 dB makes the combined channel's
    # energy underflow, pt_dbm = -3150 dBm the effective UT channel's.  NMSE against
    # a reference with zero energy is undefined.
    for zeroing in (dict(pl0_db=-math.inf), dict(pl0_db=-1600.0), dict(pt_dbm=-3150.0)):
        point = zeroing.get("pt_dbm", 20.0)  # a pt sweep overrides pt_dbm
        for scheme, pairs in PAIRS.items():
            cfg = small_cfg(scheme=scheme, noise_dbm=noise_dbm, **zeroing)
            for pair in pairs:
                out = run_trial(cfg, pair, trial_seed(0, 0))
                assert out.failed and "all zero" in out.failure_reason, (zeroing, pair)
                (rec,) = run_sweep(cfg, pair, "pt", [point], trials=2)
                assert rec.trials == 2 and rec.failures == 2 and math.isnan(rec.nmse_g)


def test_parse_pair():
    assert parse_pair("kronf-bals") == ("kronf", "bals")
    assert parse_pair("BALS-H") == ("bals", "h")
    with pytest.raises(ValueError):
        parse_pair("kronf")


def test_sweep_variable_validation():
    cfg = small_cfg()
    with pytest.raises(ValueError):
        run_sweep(cfg, ("kronf", "bals"), "power", [30.0], trials=1)
    with pytest.raises(ValueError):
        run_sweep(cfg, ("kronf", "bals"), "pt", [], trials=1)


def test_power_sweep_nmse_nonincreasing():
    cfg = small_cfg(noise_dbm=-60.0)
    records = run_sweep(cfg, ("kronf", "bals"), "pt", [10.0, 25.0, 40.0],
                        trials=40, base_seed=21)
    for name in ("nmse_g", "nmse_h", "nmse_theta"):
        values = [getattr(r, name) for r in records]
        slack = [r.stderr[name] for r in records]
        for i in range(len(values) - 1):
            assert values[i + 1] <= values[i] + slack[i] + slack[i + 1]


def test_workers_pool_matches_serial():
    cfg = small_cfg()
    serial = run_sweep(cfg, ("kronf", "h"), "pt", [20.0, 30.0], trials=3, base_seed=5)
    pooled = run_sweep(cfg, ("kronf", "h"), "pt", [20.0, 30.0], trials=3, base_seed=5,
                       workers=2)
    assert serial == pooled


def test_sweep_point_with_all_failures_stays_well_formed():
    from hrislink.harness import records_to_csv

    cfg = small_cfg()
    records = run_sweep(cfg, ("kronf", "bals"), "rho", [0.5, 1.0], trials=2, base_seed=4)
    good, degenerate = records
    assert good.failures == 0
    assert degenerate.failures == 2
    assert math.isnan(degenerate.nmse_g)
    text = records_to_csv(records)
    lines = text.splitlines()
    assert len(lines) == 3
    for field in lines[2].split(",")[2:9]:
        float(field)  # nan parses


def test_csv_floats_use_nine_significant_digits():
    from hrislink.harness import format_float

    assert format_float(1.0 / 3.0) == "0.333333333"
    assert format_float(123456789.123) == "123456789"
    assert format_float(30.0) == "30"


def test_hris_receivers_statistically_equivalent():
    # iterative and closed-form surface receivers see the same data and are
    # compared through overlapping confidence intervals, not per-trial values
    cfg = small_cfg(noise_dbm=-60.0, pt_dbm=20.0)
    samples = {}
    for pair in (("bals", "h"), ("kronf", "h")):
        outs = [run_trial(cfg, pair, trial_seed(31, i)) for i in range(60)]
        samples[pair[0]] = np.array([o.nmse_g for o in outs])
    lo, hi = {}, {}
    for name, vals in samples.items():
        half = 2 * vals.std(ddof=1) / np.sqrt(vals.size)
        lo[name], hi[name] = vals.mean() - half, vals.mean() + half
    assert lo["bals"] <= hi["kronf"] and lo["kronf"] <= hi["bals"]
