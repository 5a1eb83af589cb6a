"""The benchmark's workloads and the seeds it derives for them.

A workload is a fixed set of ``run_sweep`` calls: one per receiver pair,
each over the same sweep points with ``trials`` trials per point.  One
*round* makes all of those calls once, so every round attempts the same
number of trials.  A timed run makes at least ``rounds`` rounds, each with
its own seeds, and more while time remains; the accuracy metrics come from
the first ``rounds`` rounds only, so they depend on the seed alone.

This module imports nothing from numpy or hrislink, so it can be read
before BLAS is pinned.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

DEFAULT = {}  # ScenarioConfig defaults: m=8, n=32, nc=2, l=2, r=2, t=4, k=64
SMALL = {"m": 4, "n": 8, "nc": 2, "l": 2, "r": 2, "t": 4, "k": 16, "pt_dbm": 20.0}

# (scheme, surface receiver, BS receiver) for all twelve pairs.
ALL_PAIRS = tuple(
    [("tstc", hris, bs) for hris in ("bals", "kronf") for bs in ("bals", "kronf", "h")]
    + [("krstc", hris, bs) for hris in ("bals", "krf") for bs in ("bals", "kronf", "h")]
)


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict            # ScenarioConfig overrides; the scheme comes from each pair
    pairs: tuple            # (scheme, surface receiver, BS receiver) triples
    sweep_var: str          # "pt" or "rho"
    points: tuple           # sweep values, ascending
    trials: int             # trials per point, per pair, per round
    rounds: int             # least rounds of a timed run; the accuracy metrics use these
    pool_check: int = 0     # workers for an untimed repeat of round 0 that must match it; 0: none

    @property
    def trials_per_round(self) -> int:
        return len(self.pairs) * len(self.points) * self.trials


WORKLOADS = {
    w.name: w for w in (
        # Closed-form pairs at the default size: per-configuration work and synthesis einsums dominate.
        Workload(
            name="closed-form-pt",
            config=DEFAULT,
            pairs=(("tstc", "kronf", "kronf"), ("tstc", "kronf", "h"),
                   ("krstc", "krf", "kronf"), ("krstc", "krf", "h")),
            sweep_var="pt",
            points=(20.0, 30.0, 40.0),
            trials=2,
            rounds=50,
        ),
        # ALS pairs at the default size, one low-SNR point: pinv calls inside the ALS loops dominate.
        Workload(
            name="als-pt",
            config=DEFAULT,
            pairs=(("tstc", "bals", "bals"), ("tstc", "kronf", "bals"),
                   ("krstc", "bals", "bals"), ("krstc", "krf", "bals")),
            sweep_var="pt",
            points=(-10.0, 10.0, 30.0),
            trials=4,
            rounds=9,
        ),
        # All 12 pairs on a small array over rho: per-trial Python and per-call overhead dominate.
        Workload(
            name="small-rho",
            config=SMALL,
            pairs=ALL_PAIRS,
            sweep_var="rho",
            points=(0.1, 0.5, 0.9),
            trials=4,
            rounds=28,
            pool_check=2,
        ),
    )
}


def derive_seed(*parts) -> int:
    """A 63-bit seed that depends on every part; the same parts give the same seed."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def pair_label(pair: tuple) -> str:
    scheme, hris, bs = pair
    return f"{scheme}:{hris}-{bs}"
