"""Print the sha256 of 48 sweep CSVs, one line each, to check that a change keeps them byte-identical.

The CSVs are ``records_to_csv(run_sweep(...))`` for the 12 surface/BS pairs,
at the default sizes and at the golden fixture's sizes, over two sweeps:
``pt`` at -10, 10 and 30 dBm (3 trials per point, base seed 5) and ``rho``
at 0.1, 0.5 and 0.9 (2 trials per point, base seed 7).  Run it in two
checkouts and compare the outputs with ``diff``::

    PYTHONPATH=src python tests/sweep_digest.py > digests.txt

pytest does not collect this file.
"""

import hashlib

from hrislink.harness import records_to_csv, run_sweep
from hrislink.scenario import ScenarioConfig

from test_acceptance import PAIRS
from test_golden import GOLDEN_SIZES

SIZES = {"default": {}, "golden": GOLDEN_SIZES}

# (sweep variable, points, trials per point, base seed)
SWEEPS = (("pt", [-10.0, 10.0, 30.0], 3, 5), ("rho", [0.1, 0.5, 0.9], 2, 7))


def main() -> None:
    for size_name, sizes in SIZES.items():
        for scheme, pairs in PAIRS.items():
            cfg = ScenarioConfig(**{**sizes, "scheme": scheme})
            for pair in pairs:
                for sweep_var, points, trials, base_seed in SWEEPS:
                    csv = records_to_csv(run_sweep(cfg, pair, sweep_var, points,
                                                   trials=trials, base_seed=base_seed))
                    digest = hashlib.sha256(csv.encode()).hexdigest()
                    print(f"{size_name}/{scheme}/{pair[0]}-{pair[1]}/{sweep_var} {digest}", flush=True)


if __name__ == "__main__":
    main()
