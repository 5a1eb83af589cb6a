"""Golden sweep: every surface/BS pair on a small array, against a frozen CSV.

``golden_sweeps.json`` holds ``records_to_csv(run_sweep(...))`` for all 12
pairs over a ``pt`` sweep and a ``rho`` sweep.  The CSV prints nine
significant digits; parsed floats must agree to ``rtol=1e-9`` and the trial
and failure counts exactly.  After a deliberate change of the numbers,
rewrite the fixture with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from hrislink import hris_rx, rx_common, tensor_ops
from hrislink.harness import CSV_HEADER, records_to_csv, run_sweep
from hrislink.scenario import ScenarioConfig
from hrislink.tensor_ops import GRAM_CERTIFICATE_MAX

from oracle_models import comparison_certificate, gram_certificate
from test_acceptance import PAIRS

FIXTURE = Path(__file__).with_name("golden_sweeps.json")

GOLDEN_SIZES = dict(m=4, n=8, nc=2, l=2, r=2, t=4, k=16, pt_dbm=20.0)

# (sweep variable, points, trials per point, base seed)
SWEEPS = (("pt", [0.0, 30.0], 3, 5), ("rho", [0.1, 0.5, 0.9], 2, 7))

CASES = [(scheme, pair, sweep) for scheme, pairs in PAIRS.items() for pair in pairs for sweep in SWEEPS]


def case_key(scheme, pair, sweep) -> str:
    return f"{scheme}/{pair[0]}-{pair[1]}/{sweep[0]}"


def sweep_csv(scheme, pair, sweep) -> str:
    sweep_var, points, trials, base_seed = sweep
    cfg = ScenarioConfig(scheme=scheme, **GOLDEN_SIZES)
    return records_to_csv(run_sweep(cfg, pair, sweep_var, points, trials=trials, base_seed=base_seed))


def _rows(csv: str) -> list[list[str]]:
    lines = csv.splitlines()
    assert lines[0] == CSV_HEADER
    return [line.split(",") for line in lines[1:]]


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(golden):
    assert golden["sizes"] == GOLDEN_SIZES
    assert sorted(golden["csv"]) == sorted(case_key(*case) for case in CASES)


@pytest.mark.parametrize("scheme,pair,sweep", CASES, ids=[case_key(*case) for case in CASES])
def test_sweep_matches_golden(golden, scheme, pair, sweep):
    got = _rows(sweep_csv(scheme, pair, sweep))
    want = _rows(golden["csv"][case_key(scheme, pair, sweep)])
    assert len(got) == len(want)
    for got_row, want_row in zip(got, want):
        assert got_row[0] == want_row[0]
        np.testing.assert_allclose([float(v) for v in got_row[1:-2]], [float(v) for v in want_row[1:-2]],
                                   rtol=1e-9, atol=0.0, equal_nan=True)
        assert got_row[-2:] == want_row[-2:], "trial and failure counts must match exactly"


def test_bound_and_certificate_agree_on_every_golden_pt_gram(monkeypatch):
    # solve_gram decides on the comparison bound, which is at least the exact certificate; on every Gram of the
    # golden pt sweeps that Cholesky factors both fall on the same side of the cap, so the golden outcomes are
    # the ones the exact certificate would give
    grams = []
    solve = tensor_ops.solve_gram

    def recording(gram, rhs, problem):
        grams.append(gram)
        return solve(gram, rhs, problem)

    for module in (tensor_ops, rx_common):      # the two names solve_gram is looked up by
        monkeypatch.setattr(module, "solve_gram", recording)
    hris_rx.composite_pinv.cache_clear()        # so each coding's composite solve runs here
    for scheme, pairs in PAIRS.items():
        for pair in pairs:
            sweep_csv(scheme, pair, SWEEPS[0])
    certificates = [(comparison_certificate(gram), gram_certificate(gram)) for gram in grams]
    factored = [(bound, exact) for bound, exact in certificates if exact < math.inf]
    assert factored
    assert all((bound < GRAM_CERTIFICATE_MAX) == (exact < GRAM_CERTIFICATE_MAX) for bound, exact in factored)


if __name__ == "__main__":
    csvs = {case_key(*case): sweep_csv(*case) for case in CASES}
    FIXTURE.write_text(json.dumps({"sizes": GOLDEN_SIZES, "csv": csvs}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(csvs)} sweeps to {FIXTURE}", file=sys.stderr)
