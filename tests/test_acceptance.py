"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance is pinned here; nothing is deferred.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.linalg import khatri_rao

import hrislink as hl
from hrislink.bs_rx import bs_bals, bs_kronf
from hrislink.coding import CodingSet, build_coding, gen_symbols
from hrislink.harness import (
    CSV_HEADER,
    run_sweep,
    run_trial,
    trial_seed,
)
from hrislink.hris_rx import hris_bals, hris_kronf, hris_krf
from hrislink.identifiability import feedback_bits, flops_estimate, min_subframes, pair_subframes
from hrislink.rx_common import IdentifiabilityError
from hrislink.scenario import ChannelRealization, ScenarioConfig, draw_channels
from hrislink.synthesis import synth_ybs, synth_yrc
from hrislink.tensor_ops import unfold

from oracle_models import (
    fold,
    rank_bounds,
    reflected_scalar,
    reflected_tensor_form,
    sensed_scalar,
    sensed_tensor_form,
    vec,
    with_noise,
)

PAIRS = {
    "tstc": [("bals", "bals"), ("bals", "kronf"), ("kronf", "bals"),
             ("kronf", "kronf"), ("bals", "h"), ("kronf", "h")],
    "krstc": [("bals", "bals"), ("bals", "kronf"), ("krf", "bals"),
              ("krf", "kronf"), ("bals", "h"), ("krf", "h")],
}


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _passline(num, t0, limit, detail=""):
    elapsed = time.time() - t0
    assert elapsed < limit, f"criterion {num} exceeded its {limit}s budget ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {num}: PASS ({elapsed:.1f}s) {detail}")


def recovery_subframes(cfg: ScenarioConfig, pair) -> int:
    """Smallest power-of-two K meeting the pair's table rows, the joint
    uniqueness conditions (composite matrix ranks), and the design floors."""
    rows = pair_subframes(cfg, pair)
    if cfg.scheme == "tstc":
        floor = max(rows, cfg.l * cfg.r * cfg.n // cfg.nc, cfg.r * cfg.n,
                    cfg.n, cfg.r * cfg.l)
    else:
        floor = max(rows, math.ceil(cfg.l * cfg.n / cfg.nc), cfg.l * cfg.n,
                    cfg.n, cfg.l)
    return 1 << max(0, (floor - 1).bit_length())


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_algebraic_identities():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    for _ in range(100):
        a = crandn(rng, 2, 3)
        b = crandn(rng, 3, 3)
        c = crandn(rng, 3, 2)
        # vec of a triple product
        r1 = np.kron(c.T, a) @ vec(b)
        assert np.linalg.norm(vec(a @ b @ c) - r1) < 1e-12 * np.linalg.norm(r1)
        # diagonal middle factor
        d = np.diag(np.diag(b))
        r2 = khatri_rao(c.T, a) @ np.diag(b)
        assert np.linalg.norm(vec(a @ d @ c) - r2) < 1e-12 * max(1.0, np.linalg.norm(r2))
        # mixed product
        m1, m2, m3, m4 = (crandn(rng, 2, 2) for _ in range(4))
        lhs = np.kron(m1 @ m2, m3 @ m4)
        rhs = np.kron(m1, m3) @ np.kron(m2, m4)
        assert np.linalg.norm(lhs - rhs) < 1e-12 * np.linalg.norm(rhs)
        # diagonal swap
        va, vb = crandn(rng, 4), crandn(rng, 4)
        assert np.linalg.norm(np.diag(va) @ vb - np.diag(vb) @ va) < 1e-12
        # vector kron as vec of an outer product
        assert np.linalg.norm(np.kron(va, vb) - vec(np.outer(vb, va))) < 1e-12
        # unfolding round trips
        t = crandn(rng, 3, 2, 4)
        for mode in (1, 2, 3):
            assert np.array_equal(fold(unfold(t, mode), mode, (3, 2, 4)), t)
        # khatri-rao as a column-selected kronecker product
        p = 3
        ka = crandn(rng, 2, p)
        kb = crandn(rng, 4, p)
        xi = np.zeros((p * p, p))
        for j in range(p):
            xi[j * p + j, j] = 1.0
        assert np.linalg.norm(khatri_rao(ka, kb) - np.kron(ka, kb) @ xi) < 1e-12
    _passline(1, t0, 10, "100 randomized instances per identity")


# ---------------------------------------------------------------- criterion 2

def _random_small_config(rng):
    scheme = "tstc" if rng.random() < 0.5 else "krstc"
    k = int(rng.choice([4, 8]))
    n = int(rng.integers(1, min(8, k) + 1))
    nc = int(rng.integers(max(1, math.ceil(n / k)), 5))
    l = int(rng.integers(1, 3))
    if scheme == "tstc":
        r = int(rng.integers(1, 3))
        while r * l > k:
            r -= 1
    else:
        r = l
    t = int(rng.integers(1, 9))
    rho = float(rng.uniform(0.05, 0.95))
    return ScenarioConfig(m=int(rng.integers(1, 9)), n=n, nc=nc, l=l, r=r, t=t,
                          k=k, rho=rho, scheme=scheme)


def test_criterion_2_model_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(7)
    for _ in range(20):
        cfg = _random_small_config(rng).replace(noise_dbm=-math.inf)
        channels = draw_channels(cfg, rng)
        coding = build_coding(cfg)
        symbols = gen_symbols(cfg, rng)
        y_rc = synth_yrc(channels, coding, symbols)
        y_bs = synth_ybs(channels, coding, symbols)
        assert np.max(np.abs(y_rc - sensed_tensor_form(channels, coding, symbols))) < 1e-12
        assert np.max(np.abs(y_bs - reflected_tensor_form(channels, coding, symbols))) < 1e-12
        for _ in range(10):
            ic = int(rng.integers(cfg.nc))
            im = int(rng.integers(cfg.m))
            it = int(rng.integers(cfg.t))
            ik = int(rng.integers(cfg.k))
            assert abs(y_rc[ic, it, ik] - sensed_scalar(channels, coding, symbols, ic, it, ik)) < 1e-12
            assert abs(y_bs[im, it, ik] - reflected_scalar(channels, coding, symbols, im, it, ik)) < 1e-12
    _passline(2, t0, 10, "20 random configs, tensor + scalar forms")


# ---------------------------------------------------------------- criterion 3

def test_criterion_3_exact_recovery_all_pairs():
    t0 = time.time()
    base = dict(m=4, n=8, nc=2, l=2, r=2, t=4, noise_dbm=-math.inf)
    for scheme, pairs in PAIRS.items():
        for pair in pairs:
            cfg = ScenarioConfig(k=16, scheme=scheme, **base)
            k = recovery_subframes(cfg, pair)
            cfg = cfg.replace(k=k)
            out = run_trial(cfg, pair, seed=trial_seed(33, 0))
            assert not out.failed, (scheme, pair)
            tag = f"{scheme} {pair[0]}-{pair[1]} (k={k})"
            assert out.nmse_g < 1e-10, tag
            assert out.nmse_h < 1e-10, tag
            assert out.ser_hris == 0.0 and out.ser_bs == 0.0, tag

    # krstc closed form at the BS: the composite estimate matches the oracle
    cfg = ScenarioConfig(k=16, scheme="krstc", **base)
    rng = np.random.default_rng(4)
    channels = draw_channels(cfg, rng)
    coding = build_coding(cfg)
    symbols = gen_symbols(cfg, rng)
    y_bs = synth_ybs(channels, coding, symbols)
    exh = khatri_rao(coding.code.T, coding.reflect.T)
    right = vec(channels.ut_ris)[:, None] * exh
    z = unfold(y_bs, 3).T @ np.linalg.pinv(right)
    assert np.max(np.abs(z - np.kron(symbols.T, channels.ris_bs))) < 1e-12
    _passline(3, t0, 60, "12 receiver pairs, noiseless")


# ---------------------------------------------------------------- criterion 4

TABLE_ROWS = [
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


def _truncated(coding, k):
    code = coding.code[:, :, :k] if coding.scheme == "tstc" else coding.code[:k]
    return CodingSet(coding.scheme, coding.sensing[:, :, :k], coding.reflect[:k], code)


def test_criterion_4_identifiability_table():
    t0 = time.time()
    defaults = ScenarioConfig()
    values = [min_subframes(defaults.replace(scheme=scheme), rx, entity)
              for rx, entity, scheme, _ in TABLE_ROWS]
    assert values == [expected for *_, expected in TABLE_ROWS]

    # four closed-form rows: reject one sub-frame below, recover at threshold
    base = dict(m=4, n=8, nc=2, l=2, r=2, t=4, noise_dbm=-math.inf)

    def fresh(scheme, k):
        cfg = ScenarioConfig(k=k, scheme=scheme, **base)
        rng = np.random.default_rng(99)
        return cfg, draw_channels(cfg, rng), build_coding(cfg), gen_symbols(cfg, rng), rng

    # surface closed-form, tstc: threshold l*r*n/nc = 16
    cfg, ch, cod, x, rng = fresh("tstc", 16)
    y = synth_yrc(ch, cod, x)
    rep = hris_kronf(y, cod)
    assert hl.nmse(rep.channel, ch.ut_ris) < 1e-10
    assert hl.nmse(rep.symbols, x) < 1e-10
    with pytest.raises(IdentifiabilityError):
        hris_kronf(y[:, :, :15], _truncated(cod, 15))

    # bs closed-form, tstc: threshold r*n = 16
    y = synth_ybs(ch, cod, x)
    rep = bs_kronf(y, ch.ut_ris, cod)
    assert hl.nmse(rep.channel, ch.ris_bs) < 1e-10
    with pytest.raises(IdentifiabilityError):
        bs_kronf(y[:, :, :15], ch.ut_ris, _truncated(cod, 15))

    # surface closed-form, krstc: threshold l*n/nc = 8
    cfg, ch, cod, x, rng = fresh("krstc", 8)
    y = synth_yrc(ch, cod, x)
    rep = hris_krf(y, cod)
    assert hl.nmse(rep.channel, ch.ut_ris) < 1e-10
    assert hl.nmse(rep.symbols, x) < 1e-10
    with pytest.raises(IdentifiabilityError):
        hris_krf(y[:, :, :7], _truncated(cod, 7))

    # bs closed-form, krstc: threshold l*n = 16
    cfg, ch, cod, x, rng = fresh("krstc", 16)
    y = synth_ybs(ch, cod, x)
    rep = bs_kronf(y, ch.ut_ris, cod)
    assert hl.nmse(rep.channel, ch.ris_bs) < 1e-10
    with pytest.raises(IdentifiabilityError):
        bs_kronf(y[:, :, :15], ch.ut_ris, _truncated(cod, 15))

    _passline(4, t0, 30, "table values + 4 threshold rows")


# ---------------------------------------------------------------- criterion 5

def test_criterion_5_rank_bounds():
    t0 = time.time()
    cfg = ScenarioConfig(m=4, n=8, nc=2, l=2, r=2, t=4, k=8, rho=0.5)
    coding = build_coding(cfg)
    rng = np.random.default_rng(515)

    def random_coding():
        amp = math.sqrt((1 - cfg.rho) / cfg.nc)
        phi = amp * np.exp(2j * np.pi * rng.random((cfg.nc, cfg.n, cfg.k)))
        psi = math.sqrt(cfg.rho) * np.exp(2j * np.pi * rng.random((cfg.k, cfg.n)))
        return CodingSet("tstc", phi, psi, rng.standard_normal((cfg.l, cfg.r, cfg.k)))

    for trial in range(100):
        channels = draw_channels(cfg, rng)
        symbols = gen_symbols(cfg, rng)
        use = coding if trial % 2 == 0 else random_coding()
        assert rank_bounds(cfg, channels, use, symbols).ok

    # constructed deficiencies
    for _ in range(25):
        u = crandn(rng, cfg.n)
        v = crandn(rng, cfg.l)
        low = ChannelRealization(np.outer(u, v), draw_channels(cfg, rng).ris_bs)
        rep = rank_bounds(cfg, low, random_coding(), gen_symbols(cfg, rng))
        assert rep.ok and rep.kappa_g == 1 and rep.zeta_x <= 1

        hlow = ChannelRealization(
            draw_channels(cfg, rng).ut_ris,
            np.outer(crandn(rng, cfg.m), crandn(rng, cfg.n)))
        rep = rank_bounds(cfg, hlow, random_coding(), gen_symbols(cfg, rng))
        assert rep.ok and rep.kappa_h == 1 and rep.xi_x <= 1

        rep = rank_bounds(cfg, draw_channels(cfg, rng), coding,
                          np.zeros((cfg.r, cfg.t), dtype=complex))
        assert rep.ok and rep.kappa_x == 0 and rep.fg_bar_rank == 0 and rep.xi_h == 0
    _passline(5, t0, 30, "100 random + 75 deficient realizations")


# ---------------------------------------------------------------- criterion 6

def test_criterion_6_bals_monotonicity_and_iteration_trend():
    t0 = time.time()
    trials = 50
    base = dict(m=4, n=8, nc=2, l=2, r=2, t=4, k=16, noise_dbm=-55.0)

    def surface_runs(scheme, pt):
        cfg = ScenarioConfig(pt_dbm=pt, scheme=scheme, **base)
        iters = []
        for i in range(trials):
            rng = np.random.default_rng(trial_seed(61, i))
            channels = draw_channels(cfg, rng)
            coding = build_coding(cfg)
            sent = math.sqrt(cfg.pt_watts) * gen_symbols(cfg, rng)
            y = with_noise(synth_yrc(channels, coding, sent), cfg, rng)
            rep = hris_bals(y, coding, init_seed=i)
            trace = rep.residuals
            assert all(b <= a * (1 + 1e-12) + 1e-12 for a, b in zip(trace, trace[1:]))
            iters.append(rep.iterations)
        return float(np.mean(iters))

    def bs_runs(scheme, pt):
        cfg = ScenarioConfig(pt_dbm=pt, scheme=scheme, **base)
        iters = []
        for i in range(trials):
            rng = np.random.default_rng(trial_seed(62, i))
            channels = draw_channels(cfg, rng)
            coding = build_coding(cfg)
            sent = math.sqrt(cfg.pt_watts) * gen_symbols(cfg, rng)
            with_noise(synth_yrc(channels, coding, sent), cfg, rng)  # keep the draw order of a full trial
            y = with_noise(synth_ybs(channels, coding, sent), cfg, rng)
            rep = bs_bals(y, math.sqrt(cfg.pt_watts) * channels.ut_ris, coding, init_seed=i)
            trace = rep.residuals
            assert all(b <= a * (1 + 1e-12) + 1e-12 for a, b in zip(trace, trace[1:]))
            iters.append(rep.iterations)
        return float(np.mean(iters))

    for scheme in ("tstc", "krstc"):
        low = surface_runs(scheme, 20.0)
        high = surface_runs(scheme, 40.0)
        assert high <= low, f"surface bals {scheme}: {high} > {low}"
        low_bs = bs_runs(scheme, 20.0)
        high_bs = bs_runs(scheme, 40.0)
        assert high_bs <= low_bs, f"bs bals {scheme}: {high_bs} > {low_bs}"
    _passline(6, t0, 300, "4 variants x 50 noisy traces, iteration trend 40 vs 20 dBm")


# ---------------------------------------------------------------- criterion 7

def _trend(values, errors, direction, slack=1.0):
    for i in range(len(values) - 1):
        allowance = slack * (errors[i] + errors[i + 1])
        if direction == "up":
            assert values[i + 1] >= values[i] - allowance, (values, errors)
        else:
            assert values[i + 1] <= values[i] + allowance, (values, errors)


def test_criterion_7_power_split_trends():
    t0 = time.time()
    cfg = ScenarioConfig(m=8, n=16, nc=2, l=2, r=2, t=4, k=32, pt_dbm=0.0)
    records = run_sweep(cfg, ("kronf", "bals"), "rho",
                        [0.1, 0.3, 0.5, 0.7, 0.9], trials=300, base_seed=17)
    nmse_g = [r.nmse_g for r in records]
    nmse_h = [r.nmse_h for r in records]
    ser_h = [r.ser_hris for r in records]
    ser_b = [r.ser_bs for r in records]
    _trend(nmse_g, [r.stderr["nmse_g"] for r in records], "up")
    _trend(nmse_h, [r.stderr["nmse_h"] for r in records], "down")
    _trend(ser_h, [r.stderr["ser_hris"] for r in records], "up")
    _trend(ser_b, [r.stderr["ser_bs"] for r in records], "down")
    assert all(r.failures == 0 for r in records)
    _passline(7, t0, 600,
              f"nmse_g {nmse_g[0]:.1e}->{nmse_g[-1]:.1e}, ser_bs {ser_b[0]:.3f}->{ser_b[-1]:.3f}")


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_positioning_claim():
    t0 = time.time()
    cfg = ScenarioConfig(pt_dbm=30.0, noise_dbm=-50.0)  # default dims/geometry, rho=0.9
    outs = [run_trial(cfg, ("kronf", "bals"), trial_seed(88, i)) for i in range(300)]
    good = [o for o in outs if not o.failed]
    assert len(good) >= 290

    def one_sided_t(diffs):
        diffs = np.asarray(diffs)
        return diffs.mean() / (diffs.std(ddof=1) / math.sqrt(diffs.size))

    ser_diff = [o.ser_bs - o.ser_hris for o in good]
    nmse_diff = [o.nmse_h - o.nmse_g for o in good]
    ser_h = float(np.mean([o.ser_hris for o in good]))
    ser_b = float(np.mean([o.ser_bs for o in good]))
    nmse_g = float(np.mean([o.nmse_g for o in good]))
    nmse_h = float(np.mean([o.nmse_h for o in good]))
    assert ser_h < ser_b and one_sided_t(ser_diff) > 3.0
    assert nmse_g < nmse_h and one_sided_t(nmse_diff) > 3.0
    _passline(8, t0, 300,
              f"ser {ser_h:.4f} < {ser_b:.4f}; nmse {nmse_g:.1e} < {nmse_h:.1e}")


# ---------------------------------------------------------------- criterion 9

def test_criterion_9_cost_accounting():
    t0 = time.time()
    defaults = ScenarioConfig()
    # five hand-computed flop counts
    assert flops_estimate(defaults, "bals", "hris", "tstc", iterations=1) == 2_097_664
    assert flops_estimate(defaults, "kronf", "bs", "tstc") == 264_192
    assert flops_estimate(defaults, "krf", "hris", "krstc") == 64 * (64 * 64 * 2 + 4)
    assert flops_estimate(defaults, "bals", "bs", "krstc", iterations=2) == 2 * 64 * (4 * 8 + 1024 * 4)
    assert flops_estimate(defaults, "h", "bs", "tstc") == 64 * 1024 * 4
    # five hand-computed feedback loads
    assert feedback_bits(defaults, 1) == 1024
    assert feedback_bits(defaults, 2) == 1066
    assert feedback_bits(defaults.replace(scheme="krstc"), 2) == 2 * 3 * 6 + 1024
    assert feedback_bits(defaults.replace(eta=8), 1) == 512
    lone = ScenarioConfig(m=2, n=4, nc=2, l=2, r=2, t=1, k=4, scheme="krstc")
    assert feedback_bits(lone, 2) == 2 * 4 * 16
    _passline(9, t0, 1, "flops and feedback bits, 5 configurations each")


# --------------------------------------------------------------- criterion 10

CFG_TEXT = """\
m = 4
n = 8
nc = 2
l = 2
r = 2
t = 4
k = 16
rho = 0.9
pt_dbm = 30.0
"""


def _cli(*args):
    return subprocess.run([sys.executable, "-m", "hrislink.cli", *args],
                          capture_output=True, text=True)


def test_criterion_10_cli_contract(tmp_path):
    t0 = time.time()
    cfg_path = tmp_path / "desk.cfg"
    cfg_path.write_text(CFG_TEXT)

    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    args = ("sweep", "--config", str(cfg_path), "--pair", "kronf-bals",
            "--sweep", "pt", "--points", "20,30", "--trials", "5", "--seed", "3")
    assert _cli(*args, "--out", str(out_a)).returncode == 0
    assert _cli(*args, "--out", str(out_b)).returncode == 0
    assert out_a.read_bytes() == out_b.read_bytes()

    lines = out_a.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 11 and fields[0] == "pt"
        [float(v) for v in fields[1:]]

    assert _cli("check", "--config", str(cfg_path), "--pair", "kronf-bals").returncode == 0
    short = tmp_path / "short.cfg"
    short.write_text(CFG_TEXT.replace("k = 16", "k = 8"))
    assert _cli("check", "--config", str(short), "--pair", "kronf-bals").returncode == 1
    _passline(10, t0, 60, "csv header, determinism, check exit codes")
