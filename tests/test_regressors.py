"""Every least-squares regressor against its explicit per-sub-frame formula.

The receivers build their regressors as batched products over the coding
set's sub-frame stacks.  Here each one is rebuilt block by block with
``np.kron``/``np.diag`` from the raw code, on ``k > 1`` sub-frames and a
random symbol matrix, for both coding schemes.
"""

import numpy as np
import pytest
from scipy.linalg import khatri_rao

from hrislink import bs_rx
from hrislink.bs_rx import ControlLinkPayload, bs_kronf
from hrislink.coding import build_coding
from hrislink.hris_rx import channel_code_matrix, composite_code_matrix, symbol_code_matrix
from hrislink.scenario import ScenarioConfig
from hrislink.tensor_ops import vec


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.fixture(params=["tstc", "krstc"])
def case(request):
    cfg = ScenarioConfig(m=4, n=8, nc=2, l=2, r=2, t=5, k=16, scheme=request.param)
    coding = build_coding(cfg)
    rng = np.random.default_rng(11)
    x = crandn(rng, cfg.streams, cfg.t)
    g = crandn(rng, cfg.n, cfg.l)
    h = crandn(rng, cfg.m, cfg.n)
    return cfg, coding, g, h, x


def mix(coding, k):
    """``mix_k`` from the raw code: a tstc code slice or ``diag(code[k])``."""
    return coding.code[:, :, k] if coding.scheme == "tstc" else np.diag(coding.code[k])


def assert_same(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_hris_channel_code_matrix(case):
    cfg, coding, _, _, x = case
    want = np.vstack([np.kron((mix(coding, k) @ x).T, coding.sensing[:, :, k]) for k in range(cfg.k)])
    assert_same(channel_code_matrix(coding, x), want)


def test_hris_symbol_code_matrix(case):
    cfg, coding, g, _, _ = case
    want = np.vstack([coding.sensing[:, :, k] @ g @ mix(coding, k) for k in range(cfg.k)])
    assert_same(symbol_code_matrix(coding, g), want)


def test_hris_composite_code_matrix(case):
    cfg, coding, _, _, _ = case
    weights = [vec(mix(coding, k).T) if cfg.scheme == "tstc" else coding.code[k] for k in range(cfg.k)]
    want = np.vstack([np.kron(weights[k][None, :], coding.sensing[:, :, k]) for k in range(cfg.k)])
    assert_same(composite_code_matrix(coding), want)


def test_bs_channel_code_matrix(case):
    cfg, coding, g, _, x = case
    want = np.hstack([np.diag(coding.reflect[k]) @ g @ mix(coding, k) @ x for k in range(cfg.k)])
    assert_same(bs_rx.channel_code_matrix(coding, g, x), want)


def test_bs_symbol_code_matrix(case):
    cfg, coding, g, h, _ = case
    want = np.vstack([h @ np.diag(coding.reflect[k]) @ g @ mix(coding, k) for k in range(cfg.k)])
    assert_same(bs_rx.symbol_code_matrix(coding, g, h), want)


def test_bs_kronf_right_factor(case, monkeypatch):
    cfg, coding, g, h, x = case
    seen = []
    original = bs_rx.require_full_rank
    monkeypatch.setattr(bs_rx, "require_full_rank", lambda mat, *a: seen.append(mat) or original(mat, *a))
    y = np.stack([h @ np.diag(coding.reflect[k]) @ g @ mix(coding, k) @ x for k in range(cfg.k)], axis=2)
    bs_kronf(y, ControlLinkPayload(g), coding)
    (right,) = seen
    want = np.column_stack([vec(np.diag(coding.reflect[k]) @ g @ mix(coding, k)) for k in range(cfg.k)])
    assert_same(right, want)
    if cfg.scheme == "krstc":
        # The Khatri-Rao form of the krstc right factor.  With +-1 codes it holds the
        # same products, taken in the other operand order, so it agrees to rounding.
        khatri_rao_form = vec(g)[:, None] * khatri_rao(coding.code.T, coding.reflect.T)
        assert np.max(np.abs(right - khatri_rao_form)) <= 4 * np.finfo(float).eps * np.max(np.abs(right))
