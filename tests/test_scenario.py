"""Configuration validation, path loss, and random realizations."""

import dataclasses
import math
import re

import numpy as np
import pytest

from hrislink.scenario import (
    ChannelRealization,
    ScenarioConfig,
    dbm_to_watts,
    draw_channels,
    draw_noise,
    link_gains,
    path_loss,
)


def test_defaults_match_documented_scenario():
    cfg = ScenarioConfig()
    assert (cfg.m, cfg.n, cfg.nc, cfg.l, cfg.r, cfg.t, cfg.k) == (8, 32, 2, 2, 2, 4, 64)
    assert cfg.pl0_db == -20.0 and cfg.d0 == 1.0
    assert cfg.d_ut == 40.0 and cfg.d_bs == 10.0
    assert cfg.pl_exp_ut == 2.5 and cfg.pl_exp_bs == 2.0
    assert cfg.noise_dbm == -90.0 and cfg.rho == 0.9
    assert cfg.qam_order == 64


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(k=0)
    with pytest.raises(ValueError):
        ScenarioConfig(rho=1.5)
    with pytest.raises(ValueError):
        ScenarioConfig(scheme="krstc", r=3, l=2)
    with pytest.raises(ValueError):
        ScenarioConfig(qam_order=12)
    for qam_order in (64.0, -4):
        with pytest.raises(ValueError, match=re.escape(f"qam_order must be a positive integer, got {qam_order!r}")):
            ScenarioConfig(qam_order=qam_order)
    with pytest.raises(ValueError):
        ScenarioConfig(scheme="other")
    with pytest.raises(ValueError):
        ScenarioConfig(m=True)
    with pytest.raises(ValueError):
        ScenarioConfig(k=False)
    for k in (3, 96):  # the transmit code is a Sylvester Hadamard matrix
        with pytest.raises(ValueError, match="power of two"):
            ScenarioConfig(k=k)
    for pt_dbm in (3100.0, -4000.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            ScenarioConfig(pt_dbm=pt_dbm)
    for noise_dbm in (math.nan, math.inf):
        with pytest.raises(ValueError):
            ScenarioConfig(noise_dbm=noise_dbm)
    ScenarioConfig(noise_dbm=-math.inf)  # noiseless runs stay valid
    for name in ("d_ut", "d_bs", "d0"):
        for value in (math.nan, math.inf, 0.0, -1.0):
            with pytest.raises(ValueError):
                ScenarioConfig(**{name: value})
    for name in ("pl0_db", "pl_exp_ut", "pl_exp_bs"):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError):
                ScenarioConfig(**{name: value})
    for name in ("pl_exp_ut", "pl_exp_bs"):
        with pytest.raises(ValueError):
            ScenarioConfig(**{name: -math.inf})
    for gains_out_of_range in (dict(pl0_db=4000.0), dict(pl0_db=-4000.0), dict(pl_exp_ut=400.0),
                               dict(pl_exp_bs=-400.0), dict(d_ut=1e-300, d0=1e300)):
        with pytest.raises(ValueError):
            ScenarioConfig(**gains_out_of_range)
    with pytest.raises(ValueError):
        ScenarioConfig(eta=True)


def test_dbm_to_watts():
    assert math.isclose(dbm_to_watts(30.0), 1.0)
    assert math.isclose(dbm_to_watts(-90.0), 1e-12)


def test_path_loss_reference_distance():
    cfg = ScenarioConfig()
    assert math.isclose(path_loss(1.0, 2.5, cfg), 0.01)


def test_path_loss_formula():
    cfg = ScenarioConfig()
    assert math.isclose(path_loss(10.0, 2.0, cfg), 0.01 * 10.0 ** -2)


def test_path_loss_zero_exponent():
    cfg = ScenarioConfig()
    for d in (0.5, 3.0, 123.0):
        assert math.isclose(path_loss(d, 0.0, cfg), 0.01)


def test_path_loss_rejects_nonpositive_distance():
    for distance in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            path_loss(distance, 2.0, ScenarioConfig())


def test_link_gains_follow_path_loss():
    cfg = ScenarioConfig()
    gain_ut, gain_bs = link_gains(cfg)
    assert math.isclose(gain_ut, 0.01 * 40.0 ** -2.5)
    assert math.isclose(gain_bs, 0.01 * 10.0 ** -2.0)


def test_degenerate_gain_gives_zero_channel():
    cfg = ScenarioConfig(pl0_db=-math.inf)
    ch = draw_channels(cfg, np.random.default_rng(0))
    assert np.all(ch.ut_ris == 0) and np.all(ch.ris_bs == 0)


def test_channel_variance_calibration():
    cfg = ScenarioConfig(n=500, l=200)  # 1e5 entries
    ch = draw_channels(cfg, np.random.default_rng(42))
    gain_ut, _ = link_gains(cfg)
    empirical = np.mean(np.abs(ch.ut_ris) ** 2)
    assert abs(empirical - gain_ut) < 0.02 * gain_ut


def test_channel_determinism():
    cfg = ScenarioConfig()
    a = draw_channels(cfg, np.random.default_rng(5))
    b = draw_channels(cfg, np.random.default_rng(5))
    c = draw_channels(cfg, np.random.default_rng(6))
    assert np.array_equal(a.ut_ris, b.ut_ris) and np.array_equal(a.ris_bs, b.ris_bs)
    assert not np.array_equal(a.ut_ris, c.ut_ris)


def test_add_noise_zero_power_is_identity():
    rng = np.random.default_rng(1)
    sig = rng.standard_normal((2, 3, 4)) + 0j
    out = sig + draw_noise(sig.shape, 0.0, rng)
    assert np.array_equal(out, sig)
    assert out is not sig


def test_add_noise_power_calibration():
    rng = np.random.default_rng(2)
    sig = np.zeros((100, 100, 10), dtype=complex)
    power = 3.7e-4
    out = sig + draw_noise(sig.shape, power, rng)
    assert out.shape == sig.shape
    empirical = np.mean(np.abs(out) ** 2)
    assert abs(empirical - power) < 0.02 * power


def test_add_noise_rejects_negative_power():
    # NaN and infinite powers would draw all-NaN or infinite noise
    for power in (-1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            draw_noise((3,), power, np.random.default_rng(0))


def test_config_file_round_trip(tmp_path):
    cfg = ScenarioConfig(m=4, n=8, k=16, rho=0.25, scheme="krstc", pt_dbm=12.5)
    path = tmp_path / "scenario.cfg"
    path.write_text("".join(f"{f.name} = {getattr(cfg, f.name)}\n" for f in dataclasses.fields(cfg)))
    assert ScenarioConfig.from_file(path) == cfg


def test_config_file_comments_and_unknowns(tmp_path):
    path = tmp_path / "partial.cfg"
    path.write_text("# comment line\nk = 32\nrho = 0.5  # trailing comment\n")
    cfg = ScenarioConfig.from_file(path)
    assert cfg.k == 32 and cfg.rho == 0.5 and cfg.m == 8
    bad = tmp_path / "bad.cfg"
    bad.write_text("mystery = 1\n")
    with pytest.raises(ValueError):
        ScenarioConfig.from_file(bad)


@pytest.mark.parametrize("line, key", [("k = 16.0", "k"), ("rho = half", "rho"), ("m = ", "m")])
def test_config_file_bad_value_names_file_line_and_key(tmp_path, line, key):
    path = tmp_path / "bad.cfg"
    path.write_text(f"# comment\n{line}\n")
    with pytest.raises(ValueError, match=rf"bad\.cfg:2: bad value for '{key}'"):
        ScenarioConfig.from_file(path)


def test_config_file_rejects_a_line_without_an_equals_sign(tmp_path):
    path = tmp_path / "bare.cfg"
    path.write_text("k = 16\nrho 0.5\n")
    with pytest.raises(ValueError, match=r"bare\.cfg:2: expected 'key = value', got 'rho 0\.5'$"):
        ScenarioConfig.from_file(path)


def test_config_file_rejects_a_repeated_key(tmp_path):
    path = tmp_path / "twice.cfg"
    path.write_text("k = 16\nrho = 0.5\nk = 32\n")
    with pytest.raises(ValueError, match=r"twice\.cfg:3: configuration key 'k' is repeated"):
        ScenarioConfig.from_file(path)


def test_config_file_names_the_file_for_an_invalid_configuration(tmp_path):
    path = tmp_path / "odd.cfg"
    path.write_text("k = 24\n")
    with pytest.raises(ValueError, match=r"odd\.cfg: Sylvester Hadamard construction needs k to be a power of two"):
        ScenarioConfig.from_file(path)


def test_channel_realization_shapes():
    cfg = ScenarioConfig(m=3, n=5, l=2)
    ch = draw_channels(cfg, np.random.default_rng(0))
    assert isinstance(ch, ChannelRealization)
    assert ch.ut_ris.shape == (5, 2) and ch.ris_bs.shape == (3, 5)
