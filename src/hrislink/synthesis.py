"""Received-signal generation at the surface RF chains and at the BS.

Per sub-frame ``k`` the noiseless slices are

* sensed:    ``phi_k @ G @ mix_k @ X``   -> shape ``(nc, t)``
* reflected: ``H @ diag(psi_k) @ G @ mix_k @ X`` -> shape ``(m, t)``

where ``mix_k`` is the dense tstc mixing matrix or ``diag(lambda_k)`` for
krstc.  Both are batched matrix products over the sub-frame axis, in a
fixed order, against the coding set's ``phi`` and ``mix`` stacks.
Noise of power ``cfg.noise_watts`` is added after the full noiseless
synthesis, drawn from the caller's generator; a config with
``noise_dbm=-inf`` draws nothing and gives the noiseless signal, which
doubles as an oracle.  The caller is responsible for scaling the symbol
matrix by the transmit amplitude.
"""

from __future__ import annotations

import numpy as np

from .coding import CodingSet
from .scenario import ChannelRealization, ScenarioConfig, add_noise


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


def synth_yrc(
    cfg: ScenarioConfig,
    channels: ChannelRealization,
    coding: CodingSet,
    symbols: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sensed signal tensor of shape ``(nc, t, k)``, noise included."""
    _check_dims(cfg, channels, coding, symbols)
    return _received(cfg, (coding.phi @ channels.ut_ris) @ (coding.mix @ symbols), rng)


def synth_ybs(
    cfg: ScenarioConfig,
    channels: ChannelRealization,
    coding: CodingSet,
    symbols: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Reflected signal tensor of shape ``(m, t, k)``, noise included."""
    _check_dims(cfg, channels, coding, symbols)
    cascade = channels.ris_bs @ (coding.reflect[:, :, None] * channels.ut_ris)   # (k, m, l)
    return _received(cfg, cascade @ (coding.mix @ symbols), rng)


def _received(cfg: ScenarioConfig, slices: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The ``(k, rows, t)`` slices as a ``(rows, t, k)`` tensor, plus noise."""
    return add_noise(np.ascontiguousarray(slices.transpose(1, 2, 0)), cfg.noise_watts, rng)
