"""Print the sha256 of 48 sweep CSVs and of their full-precision records, one line each, to check that a
change keeps them byte-identical.

The CSVs are ``records_to_csv(run_sweep(...))`` for the 12 surface/BS pairs,
at the default sizes and at the golden fixture's sizes, over two sweeps:
``pt`` at -10, 10 and 30 dBm (3 trials per point, base seed 5) and ``rho``
at 0.1, 0.5 and 0.9 (2 trials per point, base seed 7).  The CSV prints 9
significant digits, which hides a change of an ulp, so each line also gives
the sha256 of every field of the same records, ``stderr`` included, with
every float as ``float.hex``.  Run it in two checkouts and compare the
outputs with ``diff``::

    PYTHONPATH=src python tests/sweep_digest.py > digests.txt

pytest does not collect this file.
"""

import dataclasses
import hashlib

from hrislink.harness import records_to_csv, run_sweep
from hrislink.scenario import ScenarioConfig

from test_acceptance import PAIRS
from test_golden import GOLDEN_SIZES

SIZES = {"default": {}, "golden": GOLDEN_SIZES}

# (sweep variable, points, trials per point, base seed)
SWEEPS = (("pt", [-10.0, 10.0, 30.0], 3, 5), ("rho", [0.1, 0.5, 0.9], 2, 7))


def exact_text(value) -> str:
    """``value`` with every float as ``float.hex``, a dict's items in key order, and anything else as ``str``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return "{" + ",".join(f"{key}:{exact_text(value[key])}" for key in sorted(value)) + "}"
    return str(value)


def records_text(records) -> str:
    """Every field of every record, in declaration order, through :func:`exact_text`: one line per record."""
    return "".join(",".join(exact_text(getattr(rec, f.name)) for f in dataclasses.fields(rec)) + "\n"
                   for rec in records)


def main() -> None:
    for size_name, sizes in SIZES.items():
        for scheme, pairs in PAIRS.items():
            cfg = ScenarioConfig(**{**sizes, "scheme": scheme})
            for pair in pairs:
                for sweep_var, points, trials, base_seed in SWEEPS:
                    records = run_sweep(cfg, pair, sweep_var, points, trials=trials, base_seed=base_seed)
                    digests = (hashlib.sha256(text.encode()).hexdigest()
                               for text in (records_to_csv(records), records_text(records)))
                    print(f"{size_name}/{scheme}/{pair[0]}-{pair[1]}/{sweep_var}", *digests, flush=True)


if __name__ == "__main__":
    main()
