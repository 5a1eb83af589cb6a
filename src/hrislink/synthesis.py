"""Noiseless received-signal generation at the surface RF chains and at the BS.

Per sub-frame ``k`` the noiseless slices are

* sensed:    ``phi_k @ G @ mix_k @ X``   -> shape ``(nc, t)``
* reflected: ``H @ diag(psi_k) @ G @ mix_k @ X`` -> shape ``(m, t)``

where ``mix_k`` is the dense tstc mixing matrix or ``diag(lambda_k)`` for
krstc.  The sub-frame products are flat matrix products against the coding
set's ``phi`` and ``mix`` stacks, laid out as ``(k*nc, n)``, ``(k*l, w)``
and ``(l, k*w)``.  Both functions return the noiseless tensor of the symbol
matrix they are given.  The harness gives them the unit-energy symbols, so
transmit power scales the noiseless received signal: a point's signal is
``sqrt(Pt) * noiseless + noise``, the noise drawn by
:func:`~hrislink.scenario.draw_noise`.
"""

from __future__ import annotations

import numpy as np

from .coding import CodingSet
from .scenario import ChannelRealization, ScenarioConfig


def _check_dims(cfg: ScenarioConfig, channels: ChannelRealization, coding: CodingSet, symbols: np.ndarray) -> None:
    if channels.ut_ris.shape != (cfg.n, cfg.l):
        raise ValueError(f"UT-side channel must be {(cfg.n, cfg.l)}, got {channels.ut_ris.shape}")
    if channels.ris_bs.shape != (cfg.m, cfg.n):
        raise ValueError(f"BS-side channel must be {(cfg.m, cfg.n)}, got {channels.ris_bs.shape}")
    if coding.sensing.shape != (cfg.nc, cfg.n, cfg.k):
        raise ValueError(f"sensing tensor must be {(cfg.nc, cfg.n, cfg.k)}, got {coding.sensing.shape}")
    if coding.reflect.shape != (cfg.k, cfg.n):
        raise ValueError(f"reflect matrix must be {(cfg.k, cfg.n)}, got {coding.reflect.shape}")
    if symbols.shape != (cfg.streams, cfg.t):
        raise ValueError(f"symbol matrix must be {(cfg.streams, cfg.t)}, got {symbols.shape}")
    if coding.scheme != cfg.scheme:
        raise ValueError(f"coding built for {coding.scheme!r} but config says {cfg.scheme!r}")


def synth_yrc(cfg: ScenarioConfig, channels: ChannelRealization, coding: CodingSet, symbols: np.ndarray) -> np.ndarray:
    """Noiseless sensed signal tensor of shape ``(nc, t, k)``."""
    _check_dims(cfg, channels, coding, symbols)
    (k, nc, n), (_, l, w) = coding.phi.shape, coding.mix.shape
    phi_g = (coding.phi.reshape(k * nc, n) @ channels.ut_ris).reshape(k, nc, l)
    mix_x = (coding.mix.reshape(k * l, w) @ symbols).reshape(k, l, -1)
    return np.ascontiguousarray((phi_g @ mix_x).transpose(1, 2, 0))


def reflect_blocks(coding: CodingSet, ut_channel: np.ndarray) -> np.ndarray:
    """Blocks ``B_k = diag(psi_k) @ G @ mix_k``, ``B_k[i, s]`` at ``[i, k, s]``, ``(n, k, w)``; stacked like ``G``."""
    k, l, w = coding.mix.shape
    g_mix = (ut_channel @ coding.mix.transpose(1, 0, 2).reshape(l, k * w)).reshape(*ut_channel.shape[:-1], k, w)
    return coding.reflect.T[:, :, None] * g_mix


def synth_ybs(cfg: ScenarioConfig, channels: ChannelRealization, coding: CodingSet, symbols: np.ndarray) -> np.ndarray:
    """Noiseless reflected signal tensor of shape ``(m, t, k)``."""
    _check_dims(cfg, channels, coding, symbols)
    (k, _, w), (m, n) = coding.mix.shape, channels.ris_bs.shape
    h_blocks = channels.ris_bs @ reflect_blocks(coding, channels.ut_ris).reshape(n, k * w)   # [H B_1 ... H B_K]
    return np.ascontiguousarray((h_blocks.reshape(m * k, w) @ symbols).reshape(m, k, -1).transpose(0, 2, 1))
