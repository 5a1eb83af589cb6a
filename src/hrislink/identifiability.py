"""The receiver table, identifiability thresholds, and cost accounting.

``RECEIVERS`` holds one entry per surface or BS receiver; the trial
dispatch, the receivers' own threshold checks and the CLI all read it.
``min_subframes`` evaluates, per receiver/entity/scheme, the minimum number
of sub-frames that makes the receiver's least-squares steps uniquely
solvable (under the full-rank coding design); ``pair_subframes`` is the
larger of a surface/BS pair's two rows.  ``tensor_ops`` holds the rank rule
those steps are checked by.  ``flops_estimate`` and ``feedback_bits``
evaluate the per-receiver cost and control-link load formulas.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .scenario import SCHEMES, ScenarioConfig


@dataclass(frozen=True)
class Sizes:
    """Problem sizes the receiver formulas read; ``m`` is known at the BS only.

    ``w`` is the symbol-row count (``r`` for tstc, ``l`` for krstc) and ``c``
    the composite width (``l*r`` for tstc, ``l`` for krstc).
    """

    scheme: str
    n: int
    nc: int
    l: int
    w: int
    t: int
    k: int
    m: int | None = None

    @property
    def c(self) -> int:
        return self.l * self.w if self.scheme == "tstc" else self.l

    @classmethod
    def of(cls, cfg: ScenarioConfig) -> "Sizes":
        return cls(cfg.scheme, cfg.n, cfg.nc, cfg.l, cfg.streams, cfg.t, cfg.k, cfg.m)


@dataclass(frozen=True)
class ReceiverSpec:
    """One receiver: where it runs, which codings it serves, and its formulas.

    ``fn`` names the function in ``hris_rx`` (surface) or ``bs_rx`` (BS)
    that runs it; callers look it up at call time.  ``min_k`` gives the
    sub-frame threshold and ``flops`` the dominant flop count (per iteration
    when ``iterative``).  ``scenario`` is the control-link scenario a BS
    receiver needs: 2 when the decoded symbols must be fed back too.
    """

    name: str
    entity: str
    schemes: tuple[str, ...]
    fn: str
    min_k: Callable[[Sizes], Fraction]
    flops: Callable[[Sizes], int]
    iterative: bool = False
    scenario: int = 1

    @lru_cache(maxsize=64)
    def threshold(self, sizes: Sizes) -> int:
        """Minimum sub-frame count at the given sizes, evaluated once per entry and sizes."""
        return math.ceil(self.min_k(sizes))


# kronf (tstc) and krf (krstc) share their formulas through the composite width.
_HRIS_CLOSED_FORM = dict(min_k=lambda d: Fraction(d.c * d.n, d.nc),
                         flops=lambda d: d.c * d.n * (d.c * d.n * d.k * d.nc + d.t))
RECEIVERS = (
    ReceiverSpec("bals", "hris", SCHEMES, "hris_bals",
                 lambda d: max(Fraction(d.w), Fraction(d.l * d.n, d.t)) / d.nc,
                 lambda d: d.k * d.nc * (d.w**2 + d.l**2 * d.n**2 * d.t), iterative=True),
    ReceiverSpec("kronf", "hris", ("tstc",), "hris_kronf", **_HRIS_CLOSED_FORM),
    ReceiverSpec("krf", "hris", ("krstc",), "hris_krf", **_HRIS_CLOSED_FORM),
    ReceiverSpec("bals", "bs", SCHEMES, "bs_bals",
                 lambda d: max(Fraction(d.w, d.m), Fraction(d.n, d.t)),
                 lambda d: d.k * (d.w**2 * d.m + d.n**2 * d.t), iterative=True),
    ReceiverSpec("kronf", "bs", SCHEMES, "bs_kronf",
                 lambda d: Fraction(d.w * d.n),
                 lambda d: d.w * d.n * (d.w * d.n * d.k + d.t * d.m)),
    ReceiverSpec("h", "bs", SCHEMES, "bs_channel_only",
                 lambda d: Fraction(d.n, d.t),
                 lambda d: d.k * d.n**2 * d.t, scenario=2),
)
ENTITY_NAMES = {"hris": "surface", "bs": "BS"}


def receiver_spec(receiver: str, entity: str, scheme: str) -> ReceiverSpec:
    """The table entry for ``receiver`` at ``entity``; ``ValueError`` if it does not serve ``scheme``."""
    for spec in RECEIVERS:
        if spec.name == receiver and spec.entity == entity and scheme in spec.schemes:
            return spec
    raise ValueError(f"{receiver!r} is not a {ENTITY_NAMES.get(entity, entity)} receiver for {scheme}")


def min_subframes(cfg: ScenarioConfig, receiver: str, entity: str) -> int:
    return receiver_spec(receiver, entity, cfg.scheme).threshold(Sizes.of(cfg))


def pair_subframes(cfg: ScenarioConfig, pair: tuple[str, str]) -> int:
    """Sub-frame threshold of a surface/BS pair: the larger of its two rows, which must both hold."""
    return max(min_subframes(cfg, receiver, entity) for receiver, entity in zip(pair, ("hris", "bs")))


def feasible_subframes(cfg: ScenarioConfig, pair: tuple[str, str]) -> int:
    """Smallest power-of-two sub-frame count that meets a pair's necessary floors.

    Covers the pair threshold plus the construction floors of the
    coding design: the reflecting columns need ``k >= n`` and the Hadamard
    truncation needs ``k >= r*l`` (tstc) or ``k >= l`` (krstc).  The floor is
    necessary, not sufficient: the shipped coding can still be rank deficient.
    """
    floor = max(pair_subframes(cfg, pair), cfg.n, Sizes.of(cfg).c)
    return 1 << max(0, (floor - 1).bit_length())


def flops_estimate(cfg: ScenarioConfig, receiver: str, entity: str,
                   scheme: str | None = None, iterations: int = 1) -> float:
    """Dominant flop count for one receiver; iterative rows scale with ``iterations``."""
    # ``scheme`` stays because perfbench/flops.py passes it beside a default config.
    cfg = cfg.replace(scheme=scheme or cfg.scheme)
    spec = receiver_spec(receiver, entity, cfg.scheme)
    flops = spec.flops(Sizes.of(cfg))
    return float(flops * iterations if spec.iterative else flops)


def feedback_bits(cfg: ScenarioConfig, scenario: int) -> int:
    """Control-link load in bits for one coherence block.

    Scenario 1 feeds back only the quantized UT-side channel estimate;
    scenario 2 additionally feeds back the decoded data symbols (anchors
    are known and not sent), ``ceil(log2(qam_order))`` bits each.
    """
    if scenario not in (1, 2):
        raise ValueError(f"scenario must be 1 or 2, got {scenario}")
    channel_bits = cfg.l * cfg.n * cfg.eta
    if scenario == 1:
        return channel_bits
    bits_per_symbol = (cfg.qam_order - 1).bit_length()
    if cfg.scheme == "tstc":
        return (cfg.r * cfg.t - 1) * bits_per_symbol + channel_bits
    return cfg.l * (cfg.t - 1) * bits_per_symbol + channel_bits
