"""Noiseless received-signal generation at the surface RF chains and at the BS.

Per sub-frame ``k`` the noiseless slices are

* sensed:    ``phi_k @ G @ mix_k @ X``   -> shape ``(nc, t)``
* reflected: ``H @ diag(psi_k) @ G @ mix_k @ X`` -> shape ``(m, t)``

where ``mix_k`` is the dense tstc mixing matrix or ``diag(lambda_k)`` for
krstc.  The sub-frame products are flat matrix products against the coding
set's ``phi`` and ``mix`` stacks, laid out as ``(k*nc, n)``, ``(k*l, w)``
and ``(l, k*w)``.  The coding fixes ``n``, ``nc``, ``k``, ``l`` and the stream
count, and the arrays fix ``m``, ``t`` and the stack axes, so neither function
takes a configuration.  Both return the noiseless tensor of the symbol
matrix they are given, or a stack of them: leading axes on the channels and
symbols, which must agree, run every slice through the same products, so a
slice comes out bit for bit as it does alone.  The harness gives them the
unit-energy symbols of all a call's trials at once, so transmit power scales
the noiseless received signal: a point's signal is
``sqrt(Pt) * noiseless + noise``, the noise drawn by
:func:`~hrislink.scenario.draw_noise`.
"""

from __future__ import annotations

import numpy as np

from .coding import CodingSet
from .scenario import ChannelRealization


def _check_dims(channels: ChannelRealization, coding: CodingSet, symbols: np.ndarray) -> None:
    lead, (_, n, _), (_, l, w) = np.shape(symbols)[:-2], coding.sensing.shape, coding.mix.shape
    m = np.shape(channels.ris_bs)[-2:-1] or ("m",)    # a 1-D BS-side channel has no m axis to read
    for name, value, shape in (("UT-side channel", channels.ut_ris, (n, l)),
                               ("BS-side channel", channels.ris_bs, m + (n,)),
                               ("symbol matrix", symbols, (w,) + np.shape(symbols)[-1:])):
        if np.shape(value) != lead + shape:
            raise ValueError(f"{name} must be {lead + shape}, got {np.shape(value)}")


def synth_yrc(channels: ChannelRealization, coding: CodingSet, symbols: np.ndarray) -> np.ndarray:
    """Noiseless sensed signal tensor of shape ``(nc, t, k)``, stacked like the channels and symbols."""
    _check_dims(channels, coding, symbols)
    (k, nc, n), (_, l, w), lead = coding.phi.shape, coding.mix.shape, symbols.shape[:-2]
    phi_g = (coding.phi.reshape(k * nc, n) @ channels.ut_ris).reshape(*lead, k, nc, l)
    mix_x = (coding.mix.reshape(k * l, w) @ symbols).reshape(*lead, k, l, -1)
    return np.ascontiguousarray(np.moveaxis(phi_g @ mix_x, -3, -1))


def reflect_blocks(coding: CodingSet, ut_channel: np.ndarray) -> np.ndarray:
    """Blocks ``B_k = diag(psi_k) @ G @ mix_k``, ``B_k[i, s]`` at ``[i, k, s]``, ``(n, k, w)``; stacked like ``G``."""
    k, l, w = coding.mix.shape
    g_mix = (ut_channel @ coding.mix.transpose(1, 0, 2).reshape(l, k * w)).reshape(*ut_channel.shape[:-1], k, w)
    return coding.reflect.T[:, :, None] * g_mix


def synth_ybs(channels: ChannelRealization, coding: CodingSet, symbols: np.ndarray) -> np.ndarray:
    """Noiseless reflected signal tensor of shape ``(m, t, k)``, stacked like the channels and symbols."""
    _check_dims(channels, coding, symbols)
    (k, _, w), (m, n), lead = coding.mix.shape, channels.ris_bs.shape[-2:], symbols.shape[:-2]
    h_blocks = channels.ris_bs @ reflect_blocks(coding, channels.ut_ris).reshape(*lead, n, k * w)  # [H B_1 ... H B_K]
    return np.ascontiguousarray((h_blocks.reshape(*lead, m * k, w) @ symbols).reshape(*lead, m, k, -1).swapaxes(-1, -2))
