"""Smoke test of the solve census (``tests/solve_census.py``): the names it wraps still see every solve.

If a receiver or solve function it wraps moved, the census would count nothing and still print a table, so
its "SVD path 0" figures would hold vacuously.
"""

import numpy as np

from hrislink import hris_rx, rx_common, tensor_ops
from hrislink.harness import run_sweep
from hrislink.scenario import ScenarioConfig

from solve_census import Census, patched
from test_golden import GOLDEN_SIZES


def test_census_sees_the_solves_of_every_receiver_that_ran():
    originals = tensor_ops.solve_gram, rx_common.solve_gram, np.linalg.svd, np.linalg.pinv
    census = Census()
    hris_rx.composite_pinv.cache_clear()        # so hris_kronf's composite solve runs inside the census
    with patched(census):
        for scheme, pair in (("krstc", ("bals", "bals")), ("tstc", ("kronf", "h"))):
            census.config = "-".join(pair)
            run_sweep(ScenarioConfig(**GOLDEN_SIZES, scheme=scheme), pair, "pt", [20.0], trials=2, base_seed=1)
    ran = {(config, receiver) for config, receiver, _ in census.table}
    assert ran == {("bals-bals", "hris_bals"), ("bals-bals", "bs_bals"), ("kronf-h", "hris_kronf"),
                   ("kronf-h", "bs_channel_only")}
    # every row counts solves, and none of them took the SVD path
    assert all(solves > 0 and svd == 0 for solves, svd, *_ in census.table.values())
    assert (tensor_ops.solve_gram, rx_common.solve_gram, np.linalg.svd, np.linalg.pinv) == originals
