"""Count the receivers' least-squares solves and how well-conditioned their Grams were.

For every receiver and Gram size the census prints the number of solves,
how many of them took the SVD path, the largest Gram certificate
``sqrt(tr(a^H a)) |U^{-1}|_F`` (``U`` the Cholesky factor, ``inf`` when it
fails), an upper bound on ``sigma_max / sigma_min`` of the regressor, the
largest comparison bound ``|U|_F |M(U)^{-1} e|_2`` on that certificate, and
the ``exact_tier`` count: solves whose bound is not below ``GRAM_CERTIFICATE_MAX``
although their certificate is.  ``solve_gram`` decides on the bound alone and
sends those to the SVD path; a checkout that still has the exact tier inverts
``U`` for them and accepts them.  The certificate and the bound are recomputed
here from each Gram (``oracle_models.gram_certificate`` and ``comparison_certificate``),
so the census reads the package only through the solve functions it wraps
(``tensor_ops.solve_gram`` under both names it is looked up by, and
``rx_common.apply_pinv`` where a checkout still has it) and counts a solve
as an SVD-path solve when ``numpy.linalg.svd`` or ``numpy.linalg.pinv`` runs
after it.  The same script therefore runs on older checkouts too.

The configurations are the three ``perfbench`` workloads at their sizes and
points, the golden fixture's sizes and sweeps, the four ALS pairs at the
default size over ``pt`` at -30 and -20 dBm, and ``bals-bals`` at larger
sizes, whose ALS Grams have 256 to 512 columns (the certificate is at least
the column count, so it grows with the size).  Run it from the root of a
checkout with BLAS on one thread::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src:tests python tests/solve_census.py --rounds 10

pytest does not collect this file.
"""

import argparse
import math
import sys
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from hrislink import bs_rx, hris_rx, rx_common, tensor_ops
from hrislink.harness import run_sweep
from hrislink.identifiability import RECEIVERS
from hrislink.scenario import ScenarioConfig
from hrislink.tensor_ops import GRAM_CERTIFICATE_MAX

from oracle_models import comparison_certificate, gram_certificate
from test_acceptance import PAIRS
from test_golden import GOLDEN_SIZES, SWEEPS

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

ALS_PAIRS = WORKLOADS["als-pt"].pairs
# (scheme, n, l) with surface channel-step Grams of l*n = 256, 512 and 512 columns and BS ones of n
LARGE_SIZES = (("krstc", 64, 4), ("tstc", 256, 2), ("krstc", 256, 2))


def configurations(rounds: int):
    """``(name, ScenarioConfig, pair, sweep variable, points, trials per point, base seed)`` of every sweep."""
    for name, w in WORKLOADS.items():
        for scheme, hris, bs in w.pairs:
            yield name, ScenarioConfig(**{**w.config, "scheme": scheme}), (hris, bs), w.sweep_var, w.points, \
                w.trials * rounds, 1
    for scheme, pairs in PAIRS.items():
        for pair in pairs:
            for sweep_var, points, trials, base_seed in SWEEPS:
                yield "golden", ScenarioConfig(**{**GOLDEN_SIZES, "scheme": scheme}), pair, sweep_var, points, \
                    trials, base_seed
    for scheme, hris, bs in ALS_PAIRS:
        yield "als-low-snr", ScenarioConfig(scheme=scheme), (hris, bs), "pt", (-30.0, -20.0), 4 * rounds, 1
    for scheme, n, l in LARGE_SIZES:
        yield "als-large", ScenarioConfig(scheme=scheme, n=n, l=l, r=l, k=n), ("bals", "bals"), "pt", (30.0,), \
            rounds // 5 or 1, 1


class Census:
    """Per ``(configuration, receiver, Gram size)``: ``[solves, SVD-path solves, largest certificate, largest
    comparison bound, solves in the gap between the bound and the certificate]``."""

    def __init__(self):
        self.table = defaultdict(lambda: [0, 0, 0.0, 0.0, 0])
        self.config = None
        self.receiver = None
        self.last = None        # the key of the latest solve, or None outside a receiver
        self.svd_marked = False  # whether the latest solve already counts as an SVD-path solve

    def record(self, gram):
        if self.receiver is None:
            return
        self.last = (self.config, self.receiver, gram.shape[0])
        row = self.table[self.last]
        row[0] += 1
        certificate, bound = gram_certificate(gram), comparison_certificate(gram)
        row[2], row[3] = max(row[2], certificate), max(row[3], bound)
        row[4] += not bound < GRAM_CERTIFICATE_MAX and certificate < GRAM_CERTIFICATE_MAX
        self.svd_marked = False

    def svd_path(self):
        if self.last is not None and not self.svd_marked:
            self.table[self.last][1] += 1
            self.svd_marked = True


@contextmanager
def patched(census: Census):
    saved = []

    def patch(module, name, wrapper):
        saved.append((module, name, getattr(module, name)))
        setattr(module, name, wrapper(getattr(module, name)))

    def solve(original):
        def wrapped(gram, rhs, problem):
            census.record(gram)
            return original(gram, rhs, problem)
        return wrapped

    def product(original):
        def wrapped(lhs, m):
            tall = m.conj().T if m.shape[0] < m.shape[1] else m
            census.record(tall.conj().T @ tall)
            return original(lhs, m)
        return wrapped

    def svd_call(original):
        def wrapped(*args, **kwargs):
            census.svd_path()
            return original(*args, **kwargs)
        return wrapped

    def receiver(fn):
        def set_receiver(original):
            def wrapped(*args, **kwargs):
                census.receiver, census.last = fn, None
                try:
                    return original(*args, **kwargs)
                finally:
                    census.receiver, census.last = None, None
            return wrapped
        return set_receiver

    try:
        patch(tensor_ops, "solve_gram", solve)
        patch(rx_common, "solve_gram", solve)
        if hasattr(rx_common, "apply_pinv"):
            patch(rx_common, "apply_pinv", product)
        patch(np.linalg, "svd", svd_call)
        patch(np.linalg, "pinv", svd_call)
        for spec in RECEIVERS:
            patch(hris_rx if spec.entity == "hris" else bs_rx, spec.fn, receiver(spec.fn))
        yield census
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=10,
                        help="workload rounds per sweep; the ALS low-SNR sweep takes 4 trials per round, "
                             "the large-size one one trial per 5 rounds")
    args = parser.parse_args()
    census = Census()
    with patched(census):
        for name, cfg, pair, sweep_var, points, trials, base_seed in configurations(args.rounds):
            census.config = name
            hris_rx.composite_pinv.cache_clear()
            run_sweep(cfg, pair, sweep_var, list(points), trials=trials, base_seed=base_seed)
    print(f"{'configuration':<15} {'receiver':<16} {'gram':>5} {'solves':>8} {'svd_path':>8} {'max_certificate':>15} "
          f"{'max_bound':>10} {'exact_tier':>10}")
    for (config, receiver, size), (solves, svd, worst, worst_bound, exact) in sorted(census.table.items()):
        print(f"{config:<15} {receiver:<16} {size:>5} {solves:>8} {svd:>8} {worst:>15.4g} {worst_bound:>10.4g} "
              f"{exact:>10}")
    rows = census.table.values()
    worst, worst_bound = (max((row[i] for row in rows), default=math.nan) for i in (2, 3))
    print(f"total solves {sum(row[0] for row in rows)}, SVD path {sum(row[1] for row in rows)}, "
          f"exact tier {sum(row[4] for row in rows)}, largest certificate {worst:.4g}, "
          f"largest bound {worst_bound:.4g}")


if __name__ == "__main__":
    main()
