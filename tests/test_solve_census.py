"""Smoke test of the solve census (``tests/solve_census.py``): the names it wraps still see every solve.

If a receiver or solve function it wraps moved, the census would count nothing and still print a table, so
its "SVD path 0" figures would hold vacuously; and if the SVD path stopped calling a name it wraps, it would
count no SVD-path solve however many there were.
"""

import numpy as np

from hrislink import hris_rx, rx_common, tensor_ops
from hrislink.harness import run_sweep
from hrislink.scenario import ScenarioConfig

from solve_census import Census, patched
from test_golden import GOLDEN_SIZES

RAN = {("bals-bals", "hris_bals"), ("bals-bals", "bs_bals"), ("kronf-h", "hris_kronf"),
       ("kronf-h", "bs_channel_only")}


def census_table():
    """The census of one golden-size krstc ``bals-bals`` and one tstc ``kronf-h`` sweep, after checking that the
    wrapped names are restored."""
    originals = tensor_ops.solve_gram, rx_common.solve_gram, np.linalg.svd, np.linalg.pinv
    census = Census()
    hris_rx.composite_pinv.cache_clear()        # so hris_kronf's composite solve runs inside the census
    try:
        with patched(census):
            for scheme, pair in (("krstc", ("bals", "bals")), ("tstc", ("kronf", "h"))):
                census.config = "-".join(pair)
                run_sweep(ScenarioConfig(**GOLDEN_SIZES, scheme=scheme), pair, "pt", [20.0], trials=2, base_seed=1)
    finally:
        hris_rx.composite_pinv.cache_clear()    # drop what was solved here under a patched cap
    assert (tensor_ops.solve_gram, rx_common.solve_gram, np.linalg.svd, np.linalg.pinv) == originals
    assert {(config, receiver) for config, receiver, _ in census.table} == RAN
    return census.table


def test_census_sees_the_solves_of_every_receiver_that_ran():
    # every row counts solves, and none of them took the SVD path
    assert all(solves > 0 and svd == 0 for solves, svd, *_ in census_table().values())


def test_census_sees_every_svd_path_solve(monkeypatch):
    # with the certificate cap at zero every solve takes the SVD path, and every row counts each of them there
    monkeypatch.setattr(tensor_ops, "GRAM_CERTIFICATE_MAX", 0.0)
    assert all(solves > 0 and svd == solves for solves, svd, *_ in census_table().values())
