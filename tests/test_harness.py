"""Metrics, trial pipeline, sweep aggregation, and determinism."""

import math
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

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
from hrislink import bs_rx, harness, hris_rx, identifiability, rx_common
from hrislink.bs_rx import bs_bals, bs_channel_only, bs_kronf
from hrislink.coding import build_coding
from hrislink.hris_rx import hris_bals, hris_kronf, hris_krf
from hrislink.identifiability import receiver_spec
from hrislink.rx_common import IdentifiabilityError, NonFiniteError, check_received
from hrislink.scenario import ScenarioConfig, draw_channels

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


@settings(max_examples=200, deadline=None)
@given(m=st.integers(1, 6), n=st.integers(1, 6), l=st.integers(1, 6),
       spread=st.integers(0, 300), seed=st.integers(0, 2**32 - 1))
def test_combined_channel_equals_scipy_khatri_rao_bit_for_bit(m, n, l, spread, seed):
    rng = np.random.default_rng(seed)

    def draw(shape):
        parts = rng.standard_normal((2, *shape)) * 10.0 ** rng.uniform(-spread, spread, (2, *shape))
        return parts[0] + 1j * parts[1]

    g, h = draw((n, l)), draw((m, n))
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        ours, theirs = combined_channel(g, h), scipy.linalg.khatri_rao(g.T, h)
    assert ours.shape == theirs.shape == (l * m, n)
    # real and imaginary parts apart, so a NaN in one part does not hide the other
    for part in (np.real, np.imag):
        assert np.array_equal(part(ours), part(theirs), equal_nan=True)


def test_combined_channel_rejects_links_that_do_not_cascade():
    with pytest.raises(ValueError):
        combined_channel(np.ones((3, 2)), np.ones((4, 5)))
    with pytest.raises(ValueError):
        combined_channel(np.ones((3, 2)), np.ones((4, 1)))


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


def run_without_an_svd(monkeypatch, scheme, pair):
    def no_svd(mat, **_):
        raise AssertionError(f"a least-squares solve fell back to the SVD on a {mat.shape} matrix")

    hris_rx.composite_pinv.cache_clear()
    monkeypatch.setattr(np.linalg, "svd", no_svd)
    monkeypatch.setattr(np.linalg, "pinv", no_svd)
    return run_trial(ScenarioConfig(scheme=scheme), pair, seed=3)


@pytest.mark.parametrize("scheme, pair", [("tstc", ("kronf", "kronf")), ("tstc", ("kronf", "h")),
                                          ("krstc", ("krf", "kronf")), ("krstc", ("krf", "h"))])
def test_closed_form_pairs_certify_full_rank_without_an_svd(monkeypatch, scheme, pair):
    out = run_without_an_svd(monkeypatch, scheme, pair)
    assert not out.failed, out.failure_reason


@pytest.mark.parametrize("scheme, pair", [("tstc", ("bals", "bals")), ("tstc", ("kronf", "bals")),
                                          ("krstc", ("bals", "bals")), ("krstc", ("krf", "bals"))])
def test_bs_bals_pairs_certify_every_solve_without_an_svd(monkeypatch, scheme, pair):
    out = run_without_an_svd(monkeypatch, scheme, pair)
    assert not out.failed, out.failure_reason
    assert out.iters_bs > 0


# Rank-deficient solves that the Gram certificate rejects keep the SVD rule's
# decision and message.  The two krstc cases sit at feasible_subframes, which
# is a floor and not a guarantee, and recover at twice as many sub-frames;
# with rho=0 nothing is reflected, so the BS solves fail at any k.
@pytest.mark.parametrize("cfg, pair, reason, recovers_at_2k", [
    (ScenarioConfig(m=2, n=5, nc=5, l=3, r=3, t=5, k=16, scheme="krstc"), ("krf", "kronf"),
     "composite right factor has numerical rank 13, need 15", True),
    (ScenarioConfig(m=4, n=5, nc=2, l=3, r=3, t=6, k=8, scheme="krstc"), ("krf", "h"),
     "composite code matrix has numerical rank 13, need 15", True),
    (ScenarioConfig(rho=0.0), ("kronf", "kronf"), "composite right factor has numerical rank 0, need 64", False),
    (ScenarioConfig(rho=0.0), ("kronf", "h"), "channel-step regressor has numerical rank 0, need 32", False),
])
def test_uncertified_solves_keep_the_svd_failure(cfg, pair, reason, recovers_at_2k):
    cfg = cfg.replace(noise_dbm=-math.inf)
    out = run_trial(cfg, pair, seed=3)
    assert out.failed and out.failure_reason == reason
    doubled = run_trial(cfg.replace(k=2 * cfg.k), pair, seed=3)
    if recovers_at_2k:
        assert not doubled.failed and doubled.nmse_g < 1e-10 and doubled.nmse_h < 1e-10
    else:
        assert doubled.failed and doubled.failure_reason == reason


@pytest.mark.parametrize("pair, reason", [
    (("kronf", "h"), "channel-step regressor has numerical rank 0, need 32"),
    (("bals", "kronf"), "composite right factor has numerical rank 0, need 64"),
])
def test_bs_failure_keeps_the_surface_metrics(pair, reason):
    # with rho=0 nothing is reflected: the BS fails, the surface still estimates
    out = run_trial(ScenarioConfig(rho=0.0), pair, 1)
    assert out.failed and out.failure_reason == reason
    assert out.nmse_g < 1e-6 and out.ser_hris == 0.0
    assert (out.iters_hris > 0) == (pair[0] == "bals")
    assert math.isnan(out.nmse_h) and math.isnan(out.nmse_theta) and math.isnan(out.ser_bs)
    assert out.iters_bs == 0
    # failed trials still leave the aggregate, whichever entity failed
    rec = aggregate([out], "rho", 0.0)
    assert rec.failures == 1 and math.isnan(rec.nmse_g) and math.isnan(rec.ser_hris)


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

    def record(y_bs, *fed, **kw):
        seen.append(fed[:-1])                   # the last positional argument is the coding
        return real(y_bs, *fed, **kw)

    monkeypatch.setattr(bs_rx, spec.fn, record)
    surface = "kronf" if scheme == "tstc" else "krf"
    out = run_trial(small_cfg(scheme=scheme, noise_dbm=-math.inf), (surface, bs_receiver), seed=5)
    assert not out.failed
    [fed] = seen
    assert len(fed) == spec.scenario


# ---------------------------------------------------------------------- sweeps

_ALL_PAIRS = [(scheme, pair) for scheme, pairs in PAIRS.items() for pair in pairs]
_POINTS = {"pt": [0.0, 10.0, 20.0, 30.0, 40.0], "rho": [0.0, 0.1, 0.5, 0.9, 1.0]}


def test_single_point_single_trial_equals_run_trial():
    for scheme, pair in _ALL_PAIRS:
        cfg = small_cfg(scheme=scheme)
        records = run_sweep(cfg, pair, "pt", [30.0], trials=1, base_seed=9)
        direct = run_trial(cfg.replace(pt_dbm=30.0), pair, trial_seed(9, 0))
        assert len(records) == 1
        rec = records[0]
        assert rec.trials == 1 and rec.failures == 0 and not direct.failed, pair
        for name in harness._METRICS:
            assert getattr(rec, name) == getattr(direct, name), (pair, name)
        assert rec.value == 30.0 and rec.sweep_var == "pt"


@settings(max_examples=30, deadline=None)
@given(scheme_pair=st.sampled_from(_ALL_PAIRS), sweep_var=st.sampled_from(sorted(_POINTS)), data=st.data(),
       base_seed=st.integers(0, 2**32))
def test_sweep_points_are_independent(scheme_pair, sweep_var, data, base_seed):
    # A trial is drawn once and evaluated at every point, in one stack with the other trials,
    # so each point must read exactly what a sweep over that point alone, or run_trial there, gives.
    scheme, pair = scheme_pair
    points = data.draw(st.lists(st.sampled_from(_POINTS[sweep_var]), min_size=1, max_size=3, unique=True))
    trials = data.draw(st.integers(1, 5))
    cfg = small_cfg(scheme=scheme, noise_dbm=-60.0)
    records = run_sweep(cfg, pair, sweep_var, points, trials=trials, base_seed=base_seed)
    for value, rec in zip(points, records):
        (alone,) = run_sweep(cfg, pair, sweep_var, [value], trials=trials, base_seed=base_seed)
        point_cfg = cfg.replace(**{"pt_dbm" if sweep_var == "pt" else "rho": value})
        direct = aggregate([run_trial(point_cfg, pair, trial_seed(base_seed, i)) for i in range(trials)],
                           sweep_var, value)
        np.testing.assert_equal(vars(rec), vars(alone))
        np.testing.assert_equal(vars(rec), vars(direct))


def test_workers_give_the_serial_records_for_every_pair():
    # 2 workers take a stack of 2 trials and one of 1, the serial sweep one stack of 3
    for scheme, pair in _ALL_PAIRS:
        cfg = small_cfg(scheme=scheme, noise_dbm=-60.0)
        serial = run_sweep(cfg, pair, "pt", [10.0, 30.0], trials=3, base_seed=13)
        pooled = run_sweep(cfg, pair, "pt", [10.0, 30.0], trials=3, base_seed=13, workers=2)
        np.testing.assert_equal([vars(r) for r in pooled], [vars(r) for r in serial])


def test_stacked_bs_solves_on_the_svd_path_keep_their_values():
    # at this seed all three BS kronf solves fail the Gram certificate and take the SVD path
    configs = [ScenarioConfig(pt_dbm=pt) for pt in (20.0, 30.0, 40.0)]
    pinv_calls = []
    pinv = np.linalg.pinv
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "pinv", lambda a, *args, **kw: pinv_calls.append(a.shape) or pinv(a, *args, **kw))
        (outcomes,) = harness.run_points(configs, ("kronf", "kronf"), [1510408641008080909])
    assert pinv_calls == [(64, 64)] * 3
    assert [o.nmse_h for o in outcomes] == [8.12444864846008, 1.2289391730352464, 0.1183192677249479]


def test_an_aborting_slice_leaves_the_rest_of_its_stack_unchanged(monkeypatch):
    # the surface feeds back an all-zero channel for slice 1 of the stack (trial 0 at 30 dBm),
    # so the stacked BS solve aborts and every slice is solved again alone
    configs = [ScenarioConfig(pt_dbm=pt) for pt in (20.0, 30.0, 40.0)]
    seeds = [trial_seed(3, i) for i in range(2)]
    pair = ("kronf", "kronf")
    clean = harness.run_points(configs, pair, seeds)
    real = hris_kronf

    def zero_slice(index):
        def surface(y_rc, coding):
            report = real(y_rc, coding)
            report.channel[index] = 0.0
            return report
        return surface

    monkeypatch.setattr(hris_rx, "hris_kronf", zero_slice(1))
    stacked = harness.run_points(configs, pair, seeds)
    monkeypatch.setattr(hris_rx, "hris_kronf", zero_slice(0))
    (alone,) = harness.run_points(configs[1:2], pair, seeds[:1])
    assert alone[0].failed and alone[0].failure_reason == "composite right factor has numerical rank 0, need 64"
    assert alone[0].nmse_g == 1.0
    assert stacked[0][1] == alone[0]
    assert stacked[0][0] == clean[0][0] and stacked[0][2] == clean[0][2] and stacked[1] == clean[1]


@pytest.mark.parametrize("scheme, pair", [("tstc", ("kronf", "kronf")), ("krstc", ("krf", "h"))])
def test_a_raising_surface_slice_leaves_the_rest_of_its_stack_unchanged(monkeypatch, scheme, pair):
    # trial 1 of a three-trial stack senses a non-finite signal, so the stacked surface receiver
    # raises and every slice runs again alone
    cfg = small_cfg(scheme=scheme, noise_dbm=-60.0)
    seeds = [trial_seed(17, i) for i in range(3)]
    clean = harness.run_points([cfg], pair, seeds)
    target = draw_channels(cfg, np.random.default_rng(seeds[1])).ut_ris
    synth_yrc, receiver = harness.synth_yrc, getattr(hris_rx, f"hris_{pair[0]}")
    calls = []

    def nan_for_target(cfg, channels, coding, symbols):
        y = synth_yrc(cfg, channels, coding, symbols)
        return np.full_like(y, np.nan) if np.array_equal(channels.ut_ris, target) else y

    monkeypatch.setattr(harness, "synth_yrc", nan_for_target)
    monkeypatch.setattr(hris_rx, f"hris_{pair[0]}",
                        lambda y_rc, coding: calls.append(y_rc.ndim) or receiver(y_rc, coding))
    stacked = harness.run_points([cfg], pair, seeds)
    assert calls == [4, 3, 3, 3]
    alone = run_trial(cfg, pair, seeds[1])
    assert alone.failed and "non-finite" in alone.failure_reason
    assert stacked[1][0] == alone
    assert stacked[0] == clean[0] and stacked[2] == clean[2] and not clean[0][0].failed


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


def aggregate_per_metric(outcomes, sweep_var, value):
    """Oracle: each metric averaged as its own 1-D array, failed trials left out."""
    good = [o for o in outcomes if not o.failed]
    means, errors = {}, {}
    for name in harness._METRICS:
        if good:
            samples = np.array([getattr(o, name) for o in good], dtype=float)
            means[name] = float(samples.mean())
            errors[name] = float(samples.std(ddof=1) / math.sqrt(len(samples))) if len(samples) > 1 else 0.0
        else:
            means[name] = math.nan
            errors[name] = math.nan
    return harness.MetricsRecord(sweep_var=sweep_var, value=float(value), **means, trials=len(outcomes),
                                 failures=len(outcomes) - len(good), stderr=errors)


def same_value(a, b):
    return a == b or (isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b))


# n_good crosses 8, where numpy's float sum switches to its unrolled pairwise loop.
@settings(max_examples=300, deadline=None)
@given(n_good=st.integers(0, 40), n_failed=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
def test_aggregate_equals_the_per_metric_reduction_bit_for_bit(n_good, n_failed, seed):
    from hrislink.harness import TrialOutcome

    rng = np.random.default_rng(seed)
    outcomes = [TrialOutcome(nmse_g=float(10.0 ** rng.uniform(-12, 2)), nmse_h=float(rng.lognormal(-5, 4)),
                             nmse_theta=float(rng.uniform()), ser_hris=float(rng.integers(0, 7) / 6),
                             ser_bs=float(rng.integers(0, 13) / 12), iters_hris=int(rng.integers(0, 201)),
                             iters_bs=int(rng.integers(0, 201)))
                for _ in range(n_good)]
    for _ in range(n_failed):
        outcomes.insert(int(rng.integers(0, len(outcomes) + 1)), TrialOutcome(failed=True, failure_reason="x"))
    got, want = aggregate(outcomes, "rho", 0.5), aggregate_per_metric(outcomes, "rho", 0.5)
    for f in fields(got):
        if f.name != "stderr":
            assert same_value(getattr(got, f.name), getattr(want, f.name)), f.name
    assert got.stderr.keys() == want.stderr.keys()
    for name in want.stderr:
        assert same_value(got.stderr[name], want.stderr[name]), name
        assert type(got.stderr[name]) is float and type(getattr(got, name)) is float


def test_check_received_repeats_its_failures_exactly():
    cfg = small_cfg()
    coding = build_coding(cfg)
    y = np.zeros((cfg.nc, cfg.t, cfg.k), dtype=complex)
    cases = [
        (ValueError, lambda: check_received(y, build_coding(cfg.replace(scheme="krstc")), "hris_kronf")),
        (ValueError, lambda: check_received(y[:, :, :8], coding, "hris_kronf")),
        (NonFiniteError, lambda: check_received(np.full_like(y, np.nan), coding, "hris_kronf")),
        (IdentifiabilityError, lambda: check_received(y[:, :, :8], build_coding(cfg.replace(k=8)), "hris_kronf")),
    ]
    for expected, call in cases:
        seen = set()
        for _ in range(3):
            with pytest.raises(expected) as info:
                call()
            seen.add((type(info.value), str(info.value)))
        assert len(seen) == 1, seen
    assert check_received(y, coding, "hris_kronf") == check_received(y, coding, "hris_kronf")


def test_thresholds_are_evaluated_once_per_receiver_and_sizes(monkeypatch):
    calls = Counter()

    def counted(spec):
        def min_k(sizes):
            calls[spec.fn, sizes] += 1
            return spec.min_k(sizes)
        return replace(spec, min_k=min_k)

    table = tuple(counted(spec) for spec in identifiability.RECEIVERS)
    monkeypatch.setattr(identifiability, "RECEIVERS", table)
    monkeypatch.setattr(rx_common, "RECEIVERS", table)
    # m=3, t=7: sizes no other test runs a receiver at, so no cache holds them yet
    for pair in (("bals", "bals"), ("kronf", "h")):
        run_sweep(small_cfg(m=3, t=7), pair, "rho", [0.1, 0.5, 0.9], trials=8)
    # bs_bals also reads bs_kronf's threshold, which decides its closed-form start
    assert {fn for fn, _ in calls} == {"hris_bals", "bs_bals", "bs_kronf", "hris_kronf", "bs_channel_only"}
    assert max(calls.values()) == 1, calls


RECEIVERS_BY_SCHEME = [
    ("tstc", hris_bals), ("tstc", hris_kronf), ("krstc", hris_krf),
    ("tstc", bs_bals), ("krstc", bs_kronf), ("tstc", bs_channel_only),
]


def fed_back(cfg, receiver):
    """All-ones fed-back arrays, as many as ``receiver`` reads: none at the surface."""
    fed = (np.ones((cfg.n, cfg.l), dtype=complex), np.ones((cfg.streams, cfg.t), dtype=complex))
    return () if receiver.__module__.endswith("hris_rx") else fed[:2 if receiver is bs_channel_only else 1]


@pytest.mark.parametrize("scheme,receiver", RECEIVERS_BY_SCHEME)
def test_receivers_reject_non_finite_input(scheme, receiver):
    cfg = small_cfg(scheme=scheme)
    rows = cfg.nc if receiver.__module__.endswith("hris_rx") else cfg.m
    with pytest.raises(NonFiniteError):
        receiver(np.full((rows, cfg.t, cfg.k), np.nan, dtype=complex), *fed_back(cfg, receiver), build_coding(cfg))


@pytest.mark.parametrize("scheme,receiver", RECEIVERS_BY_SCHEME)
def test_receivers_name_the_shape_they_take(scheme, receiver):
    cfg = small_cfg(scheme=scheme)
    want = rf"^{receiver.__name__} takes a received \(rows, t, k\) tensor or a stack of them, got shape \(2, 4\)$"
    with pytest.raises(ValueError, match=want):
        receiver(np.ones((2, cfg.t), dtype=complex), *fed_back(cfg, receiver), build_coding(cfg))


def test_non_finite_signal_is_a_failed_trial(monkeypatch):
    def nan_yrc(cfg, channels, coding, symbols):
        return np.full((cfg.nc, cfg.t, cfg.k), np.nan, dtype=complex)

    monkeypatch.setattr(harness, "synth_yrc", nan_yrc)
    out = run_trial(small_cfg(), ("kronf", "bals"), trial_seed(0, 0))
    assert out.failed and "non-finite" in out.failure_reason


def test_non_finite_feedback_is_a_failed_trial(monkeypatch):
    def nan_channel(y_rc, coding):
        report = hris_kronf(y_rc, coding)
        return replace(report, channel=np.full_like(report.channel, np.nan))

    monkeypatch.setattr(hris_rx, "hris_kronf", nan_channel)
    for bs in ("bals", "kronf", "h"):
        out = run_trial(small_cfg(), ("kronf", bs), trial_seed(0, 0))
        assert out.failed and "fed-back ut_channel has non-finite entries" in out.failure_reason, bs


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


@pytest.mark.parametrize("workers", [0, -3])
def test_sweep_rejects_fewer_than_one_worker(workers):
    with pytest.raises(ValueError, match="workers must be at least 1"):
        run_sweep(small_cfg(), ("kronf", "bals"), "pt", [30.0], trials=1, workers=workers)


def test_power_sweep_nmse_nonincreasing():
    cfg = small_cfg(noise_dbm=-60.0)
    records = run_sweep(cfg, ("kronf", "bals"), "pt", [10.0, 25.0, 40.0],
                        trials=40, base_seed=21)
    for name in ("nmse_g", "nmse_h", "nmse_theta"):
        values = [getattr(r, name) for r in records]
        slack = [r.stderr[name] for r in records]
        for i in range(len(values) - 1):
            assert values[i + 1] <= values[i] + slack[i] + slack[i + 1]


def test_workers_pool_matches_serial(monkeypatch):
    # 5 trials on 2 workers: one map for the whole sweep over stacks of 3 and 2 seeds in
    # trial order, one stack per worker, each task returning its trials at both points
    chunksizes = []

    class Pool(harness.ProcessPoolExecutor):
        def map(self, fn, *iterables, chunksize=1, **kwargs):
            chunksizes.append((chunksize, [len(seeds) for seeds in iterables[-1]]))
            return super().map(fn, *iterables, chunksize=chunksize, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", Pool)
    cfg = small_cfg()
    serial = run_sweep(cfg, ("kronf", "h"), "pt", [20.0, 30.0], trials=5, base_seed=5)
    pooled = run_sweep(cfg, ("kronf", "h"), "pt", [20.0, 30.0], trials=5, base_seed=5, workers=2)
    assert serial == pooled
    assert chunksizes == [(1, [3, 2])]


@pytest.mark.parametrize("scheme, pair", [("tstc", ("bals", "bals")), ("krstc", ("krf", "kronf"))])
def test_workers_pool_matches_serial_over_rho(scheme, pair):
    # the coding changes at every rho point, and every worker process keeps its own caches
    cfg = small_cfg(scheme=scheme)
    serial = run_sweep(cfg, pair, "rho", [0.1, 0.5, 0.9], trials=3, base_seed=11)
    pooled = run_sweep(cfg, pair, "rho", [0.1, 0.5, 0.9], trials=3, base_seed=11, workers=2)
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
