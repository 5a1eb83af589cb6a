"""The receiver table, identifiability thresholds, rank bounds, and cost accounting.

``RECEIVERS`` holds one entry per surface or BS receiver; the trial
dispatch, the receivers' own threshold checks and the CLI all read it.
``min_subframes`` evaluates, per receiver/entity/scheme, the minimum number
of sub-frames that makes the receiver's least-squares steps uniquely
solvable (under the full-rank coding design).  ``rank_bounds`` checks the
block-rank upper bounds those thresholds rest on against a concrete
realization.  ``flops_estimate`` and ``feedback_bits`` evaluate the
per-receiver cost and control-link load formulas.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .coding import CodingSet
from .scenario import SCHEMES, ChannelRealization, ScenarioConfig


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


@dataclass
class IdentReport:
    """Threshold check for one receiver row (or a receiver pair)."""

    receiver: str
    entity: str
    scheme: str
    min_k: int
    k: int
    satisfied: bool
    rows: list = field(default_factory=list)


def min_subframes(cfg: ScenarioConfig, receiver: str, entity: str) -> int:
    return receiver_spec(receiver, entity, cfg.scheme).threshold(Sizes.of(cfg))


def check_identifiability(cfg: ScenarioConfig, pair: tuple[str, str]) -> IdentReport:
    """Check one surface/BS receiver pair; both rows must hold simultaneously."""
    sizes = Sizes.of(cfg)
    rows = []
    for receiver, entity in zip(pair, ("hris", "bs")):
        need = receiver_spec(receiver, entity, cfg.scheme).threshold(sizes)
        rows.append(IdentReport(receiver, entity, cfg.scheme, need, cfg.k, cfg.k >= need))
    min_k = max(row.min_k for row in rows)
    return IdentReport(f"{pair[0]}-{pair[1]}", "pair", cfg.scheme, min_k, cfg.k,
                       cfg.k >= min_k, rows=rows)


def feasible_subframes(cfg: ScenarioConfig, pair: tuple[str, str]) -> int:
    """Smallest power-of-two sub-frame count that meets a pair's necessary floors.

    Covers the identifiability rows plus the construction floors of the
    coding design: the reflecting columns need ``k >= n`` and the Hadamard
    truncation needs ``k >= r*l`` (tstc) or ``k >= l`` (krstc).  The floor is
    necessary, not sufficient: the shipped coding can still be rank deficient.
    """
    report = check_identifiability(cfg, pair)
    floor = max(report.min_k, cfg.n, Sizes.of(cfg).c)
    return 1 << max(0, (floor - 1).bit_length())


# Singular values at or below this fraction of the largest one count as zero
# in every rank check: the rank bounds and the receivers' full-rank solves.
# A Gram certificate sqrt(tr(a^H a)) |U^-1|_F >= sigma_max/sigma_min (tensor_ops.apply_pinv) below
# rx_common.GRAM_CERTIFICATE_MAX = 1e4 keeps sigma_min/sigma_max above ~1e-4, 1e6 times above this
# cut.  tensor_ops.GRAM_RCOND_FLOOR = 1e-10 is on the Gram a^H a, which squares the condition: a
# solve_gram Cholesky needs sigma_min/sigma_max >~ 1e-5, so every certified Gram would pass it too.
RANK_TOL = 1e-10


def numerical_rank(mat: np.ndarray) -> int:
    """Count singular values above ``RANK_TOL * sigma_max``."""
    return spectral_rank(np.linalg.svd(np.atleast_2d(mat), compute_uv=False))


def spectral_rank(s: np.ndarray) -> int:
    """:func:`numerical_rank` read off descending singular values ``s``."""
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.count_nonzero(s > RANK_TOL * s[0]))


@dataclass
class RankReport:
    """Observed block ranks of one realization against their upper bounds."""

    kappa_g: int
    kappa_h: int
    kappa_x: int
    zeta_x: int          # largest rank of a sensed symbol-step block
    zeta_x_bound: int
    xi_x: int            # largest rank of a reflected symbol-step block
    xi_x_bound: int
    xi_h: int            # largest rank of a BS channel-step block
    xi_h_bound: int
    fg_bar_rank: int     # rank of the assembled surface channel-step matrix
    fg_bar_bound: int
    ok: bool


def rank_bounds(cfg: ScenarioConfig, realization: ChannelRealization,
                coding: CodingSet, symbols: np.ndarray) -> RankReport:
    """Evaluate the per-block rank bounds on a concrete realization."""
    g, h = realization.ut_ris, realization.ris_bs
    kappa_g = numerical_rank(g)
    kappa_h = numerical_rank(h)
    kappa_x = numerical_rank(symbols)
    width = coding.streams

    from . import bs_rx, hris_rx  # the receiver modules import this one

    def max_block_rank(stack):
        return max(spectral_rank(s) for s in np.linalg.svd(stack, compute_uv=False))

    zeta_x = max_block_rank(hris_rx.symbol_code_matrix(coding, g).reshape(cfg.k, cfg.nc, -1))
    xi_x = max_block_rank(bs_rx.symbol_code_matrix(coding, g, h).reshape(cfg.k, cfg.m, -1))
    xi_h_stack = bs_rx.channel_code_matrix(coding, g, symbols).reshape(cfg.n, cfg.k, -1).transpose(1, 0, 2)
    xi_h = max_block_rank(xi_h_stack)
    fg_bar_rank = numerical_rank(hris_rx.channel_code_matrix(coding, symbols))

    # kappa_g <= l, so the width bound only binds for tstc.
    zeta_bound = min(cfg.nc, kappa_g, width)
    xi_x_bound = min(kappa_h, kappa_g, width)
    xi_h_bound = min(kappa_g, kappa_x)
    fg_bar_bound = min(cfg.k * cfg.nc * kappa_x, cfg.l * cfg.n)

    ok = zeta_x <= zeta_bound and xi_x <= xi_x_bound and xi_h <= xi_h_bound and fg_bar_rank <= fg_bar_bound
    return RankReport(kappa_g, kappa_h, kappa_x,
                      zeta_x, zeta_bound, xi_x, xi_x_bound, xi_h, xi_h_bound,
                      fg_bar_rank, fg_bar_bound, ok)


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
    are known and not sent).
    """
    if scenario not in (1, 2):
        raise ValueError(f"scenario must be 1 or 2, got {scenario}")
    channel_bits = cfg.l * cfg.n * cfg.eta
    if scenario == 1:
        return channel_bits
    bits_per_symbol = round(math.log2(cfg.qam_order))
    if cfg.scheme == "tstc":
        return (cfg.r * cfg.t - 1) * bits_per_symbol + channel_bits
    return cfg.l * (cfg.t - 1) * bits_per_symbol + channel_bits
