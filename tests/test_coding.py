"""Phase-shift and code construction laws, symbol generation."""

import math

import numpy as np
import pytest
from scipy.linalg import dft, hadamard

from hrislink.coding import (
    CodingSet,
    build_coding,
    design_krstc,
    design_phase_shifts,
    design_tstc,
    gen_symbols,
    qam_constellation,
)
from hrislink.scenario import ScenarioConfig


def small_cfg(**kw):
    base = dict(m=4, n=8, nc=2, l=2, r=2, t=4, k=16)
    base.update(kw)
    return ScenarioConfig(**base)


# -------------------------------------------------------------- phase shifts

def test_sensing_amplitude_law():
    cfg = ScenarioConfig(m=2, n=2, nc=2, l=1, r=1, t=2, k=4, rho=0.0)
    phi, _ = design_phase_shifts(cfg)
    assert phi.shape == (2, 2, 4)
    assert np.allclose(np.abs(phi), math.sqrt(0.5))


def test_reflect_column_is_dft_prefix():
    cfg = ScenarioConfig(m=2, n=2, nc=1, l=1, r=1, t=2, k=4, rho=0.36)
    _, psi = design_phase_shifts(cfg)
    # first reflecting column samples DFT column 0: all ones before scaling
    assert np.allclose(psi[:, 0], math.sqrt(0.36) * np.ones(4))
    d = dft(4)
    assert np.allclose(psi[:, 1], math.sqrt(0.36) * d[:4, 1])


def test_power_split_extremes():
    cfg = small_cfg(rho=1.0)
    phi, psi = design_phase_shifts(cfg)
    assert np.all(phi == 0)
    assert np.allclose(np.abs(psi), 1.0)
    cfg0 = small_cfg(rho=0.0)
    phi0, psi0 = design_phase_shifts(cfg0)
    assert np.all(psi0 == 0)
    assert np.allclose(np.abs(phi0), math.sqrt(0.5))


def test_per_element_power_split_sums_to_one():
    cfg = small_cfg(rho=0.37)
    phi, psi = design_phase_shifts(cfg)
    for n in range(cfg.n):
        for k in range(cfg.k):
            total = abs(psi[k, n]) ** 2 + cfg.nc * abs(phi[0, n, k]) ** 2
            assert math.isclose(total, 1.0)


def test_phase_design_preconditions():
    # k >= n also gives the sensing fibers their k*nc >= n, so both inputs fail on it
    for n, nc in ((16, 2), (8, 4)):    # k*nc < n, and k*nc >= n > k
        with pytest.raises(ValueError, match=rf"^reflecting design samples DFT column \(n-1\)\*nc, which needs "
                                             rf"k >= n; got k=4, n={n}$"):
            design_phase_shifts(ScenarioConfig(n=n, nc=nc, k=4))


def test_full_rank_slices():
    # Sensing slices and reflecting diagonals keep full rank for every
    # sub-frame.  The tstc mixing slices are individually rank one by
    # construction (each Hadamard row reshapes to an outer product of
    # shorter sign rows); what identifiability rests on is the aggregate:
    # the stacked code unfolding has orthogonal, full-rank columns.
    cfg = small_cfg(rho=0.5)
    coding = build_coding(cfg)
    for k in range(cfg.k):
        phi_k = coding.sensing[:, :, k]
        assert np.linalg.matrix_rank(phi_k) == min(phi_k.shape)
        assert np.all(np.abs(coding.reflect[k]) > 0)
    rows = np.array([coding.code[:, :, k].reshape(-1, order="F") for k in range(cfg.k)])
    assert np.linalg.matrix_rank(rows) == cfg.l * cfg.r
    kr = build_coding(small_cfg(scheme="krstc", rho=0.5))
    for k in range(cfg.k):
        assert np.linalg.matrix_rank(kr.mix[k]) == cfg.l
    assert np.linalg.matrix_rank(kr.code) == cfg.l


# ---------------------------------------------------------------- tstc code

def test_tstc_scalar_case():
    cfg = ScenarioConfig(m=2, n=2, nc=1, l=1, r=1, t=2, k=2)
    w = design_tstc(cfg)
    assert w.shape == (1, 1, 2)
    assert set(np.unique(w)) <= {-1.0, 1.0}


def test_tstc_unfolding_is_truncated_hadamard():
    cfg = small_cfg(l=2, r=2, k=8)
    w = design_tstc(cfg)
    # mode-3 unfolding (rows = vec of slices), rescaled by sqrt(l)
    rows = np.array([w[:, :, k].reshape(-1, order="F") for k in range(8)])
    assert np.array_equal(math.sqrt(2) * rows, hadamard(8)[:, :4].astype(float))
    # column orthogonality with the 1/sqrt(l) factor folded in
    assert np.allclose(rows.T @ rows, (8 / 2) * np.eye(4))


def test_tstc_entry_magnitude():
    cfg = small_cfg()
    w = design_tstc(cfg)
    assert np.allclose(np.abs(w), 1 / math.sqrt(cfg.l))


def test_tstc_preconditions():
    with pytest.raises(ValueError):
        design_tstc(ScenarioConfig(l=1, r=1, k=3, n=2, nc=2))  # not a power of two
    with pytest.raises(ValueError):
        design_tstc(ScenarioConfig(l=2, r=2, k=2, n=2, nc=1))  # k < r*l


# --------------------------------------------------------------- krstc code

def test_krstc_single_antenna():
    cfg = ScenarioConfig(m=2, n=2, nc=1, l=1, r=1, t=2, k=4, scheme="krstc")
    lam = design_krstc(cfg)
    assert lam.shape == (4, 1)
    assert lam[0, 0] == 1.0
    assert set(np.unique(lam)) <= {-1.0, 1.0}


def test_krstc_orthogonality():
    cfg = ScenarioConfig(m=2, n=4, nc=1, l=2, r=2, t=2, k=4, scheme="krstc")
    lam = design_krstc(cfg)
    assert np.array_equal(lam.T @ lam, 4 * np.eye(2))


def test_krstc_full_hadamard():
    cfg = ScenarioConfig(m=2, n=4, nc=1, l=4, r=4, t=2, k=4, scheme="krstc")
    assert np.array_equal(design_krstc(cfg), hadamard(4).astype(float))


def test_krstc_preconditions():
    with pytest.raises(ValueError, match=r"^krstc code truncation needs k >= l, got 2 < 4$"):
        design_krstc(ScenarioConfig(l=4, r=4, k=2, n=2, nc=1, scheme="krstc"))


# -------------------------------------------------------------------- symbols

def test_qam_constellation_unit_energy():
    for order in (4, 16, 64):
        points = qam_constellation(order)
        assert points.size == order
        assert math.isclose(np.mean(np.abs(points) ** 2), 1.0)


def test_qam_constellation_is_one_shared_read_only_array():
    points = qam_constellation(64)
    assert qam_constellation(64) is points
    assert not points.flags.writeable
    with pytest.raises(ValueError):
        points[0] = 0.0
    # gen_symbols indexes a copy, so setting its anchors leaves the constellation alone
    before = points.copy()
    gen_symbols(small_cfg(scheme="krstc"), np.random.default_rng(0))
    assert np.array_equal(qam_constellation(64), before)


def test_tstc_anchor():
    cfg = small_cfg()
    x = gen_symbols(cfg, np.random.default_rng(0))
    assert x.shape == (2, 4)
    assert x[0, 0] == 1.0


def test_krstc_anchor_column():
    cfg = small_cfg(scheme="krstc")
    x = gen_symbols(cfg, np.random.default_rng(0))
    assert np.all(x[:, 0] == 1.0)


def test_symbol_energy_calibration():
    cfg = ScenarioConfig(m=2, n=2, nc=1, l=2, r=2, t=50_001, k=2)
    x = gen_symbols(cfg, np.random.default_rng(7))
    data = x[:, 1:]  # skip the column holding the anchor
    assert abs(np.mean(np.abs(data) ** 2) - 1.0) < 0.02


def test_unsupported_order_rejected():
    with pytest.raises(ValueError):
        qam_constellation(12)


def test_build_coding_dispatch():
    tstc = build_coding(small_cfg())
    assert tstc.code.ndim == 3 and tstc.scheme == "tstc"
    kr = build_coding(small_cfg(scheme="krstc"))
    assert kr.code.ndim == 2 and kr.scheme == "krstc"
    assert np.allclose(kr.mix[0], np.diag(kr.code[0]))


# ------------------------------------------------------------- shared codings

def test_build_coding_shared_across_non_coding_fields():
    coding = build_coding(small_cfg())
    for change in (dict(pt_dbm=10.0), dict(noise_dbm=-80.0), dict(m=3), dict(t=7), dict(qam_order=16)):
        assert build_coding(small_cfg(**change)) is coding
    for change in (dict(scheme="krstc"), dict(nc=1), dict(n=4), dict(k=32), dict(rho=0.5),
                   dict(l=1), dict(r=1)):
        assert build_coding(small_cfg(**change)) is not coding


def test_coding_arrays_read_only():
    for scheme in ("tstc", "krstc"):
        coding = build_coding(small_cfg(scheme=scheme))
        for array in (coding.sensing, coding.reflect, coding.code, coding.phi, coding.mix,
                      coding.mix[0], coding.mix[coding.subframes - 1]):
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 0


def test_hand_built_coding_copies_and_freezes_its_arrays():
    coding = build_coding(small_cfg())
    phi, psi, code = coding.sensing.copy(), coding.reflect.copy(), coding.code.copy()
    hand = CodingSet("tstc", phi, psi, code)
    phi[0, 0, 0] = 7.0  # the caller's array stays writable and unshared
    assert hand.sensing[0, 0, 0] == coding.sensing[0, 0, 0]
    for arr in (hand.sensing, hand.reflect, hand.code):
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 0
    # identity equality: an equal-valued set is a different key for cached products
    twin = CodingSet("tstc", hand.sensing, hand.reflect, hand.code)
    assert twin != hand and len({twin, hand}) == 2
