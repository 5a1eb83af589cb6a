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

``--records FILE`` also writes every field of every record to ``FILE``, one
JSON line per sweep point, floats as ``float.hex``.  ``--compare A B`` runs no
sweep: it reads two such files and prints, per field (each metric, each
``stderr`` entry, ``trials``, ``failures``), the largest relative change from
``A`` to ``B`` and the line where it occurs, then the lines that differ::

    PYTHONPATH=src python tests/sweep_digest.py --records change.jsonl > digests.txt
    PYTHONPATH=src python tests/sweep_digest.py --compare parent.jsonl change.jsonl

pytest does not collect this file.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math

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


def record_line(sweep: str, rec) -> str:
    """``rec`` of the sweep named ``sweep`` as one JSON line: its point as ``line``, every other field under
    ``fields``, the ``stderr`` entries as ``stderr.<metric>``, floats as ``float.hex``."""
    fields = {f.name: getattr(rec, f.name) for f in dataclasses.fields(rec)}
    line = f"{sweep}={fields.pop('value')!r}"
    del fields["sweep_var"]                 # the sweep's name ends in it
    fields.update({f"stderr.{name}": value for name, value in fields.pop("stderr").items()})
    return json.dumps({"line": line, "fields": {name: value.hex() if isinstance(value, float) else value
                                                for name, value in fields.items()}})


def read_records(path) -> dict:
    """``{line: {field: number}}`` from a file of :func:`record_line` lines."""
    records = {}
    with open(path) as fh:
        for text in fh:
            entry = json.loads(text)
            records[entry["line"]] = {name: float.fromhex(value) if isinstance(value, str) else value
                                      for name, value in entry["fields"].items()}
    return records


def relative_change(old: float, new: float) -> float:
    """``|new - old| / |old|``; 0 for equal values, NaN against NaN included, and ``inf`` from 0 or a non-finite one."""
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    if old == 0 or not (math.isfinite(old) and math.isfinite(new)):
        return math.inf
    return abs(new - old) / abs(old)


def compare(old: dict, new: dict) -> tuple[dict, list]:
    """The largest relative change of each field over the lines of two :func:`read_records` results, as
    ``{field: (change, line)}`` (``line`` is ``None`` where nothing changed), and the lines that differ in any
    field, in value or in bits, or are in one of them only."""
    largest, differ = {}, []
    for line in sorted(old.keys() | new.keys()):
        if line not in old or line not in new:
            differ.append(line)
            continue
        for name, value in old[line].items():
            change = relative_change(value, new[line][name])
            if name not in largest or change > largest[name][0]:
                largest[name] = (change, line if change else None)
        if json.dumps(old[line]) != json.dumps(new[line]):    # also -0.0 against 0.0
            differ.append(line)
    return largest, differ


def print_comparison(old_path, new_path) -> None:
    old, new = read_records(old_path), read_records(new_path)
    largest, differ = compare(old, new)
    print(f"{'field':<20}{'largest change':>16}  line")
    for name, (change, line) in largest.items():
        print(f"{name:<20}{change:>16.2g}  {line or '-'}")
    print(f"{len(differ)} of {len(old.keys() | new.keys())} lines differ")
    for line in differ:
        print(line if line in old and line in new else f"{line} (only in {old_path if line in old else new_path})")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--records", help="also write every record to this file, one JSON line per sweep point")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two --records files, run no sweep")
    args = parser.parse_args()
    if args.compare:
        print_comparison(*args.compare)
        return
    with open(args.records, "w") if args.records else contextlib.nullcontext() as out:
        for size_name, sizes in SIZES.items():
            for scheme, pairs in PAIRS.items():
                cfg = ScenarioConfig(**{**sizes, "scheme": scheme})
                for pair in pairs:
                    for sweep_var, points, trials, base_seed in SWEEPS:
                        records = run_sweep(cfg, pair, sweep_var, points, trials=trials, base_seed=base_seed)
                        digests = (hashlib.sha256(text.encode()).hexdigest()
                                   for text in (records_to_csv(records), records_text(records)))
                        sweep = f"{size_name}/{scheme}/{pair[0]}-{pair[1]}/{sweep_var}"
                        print(sweep, *digests, flush=True)
                        if out:
                            out.writelines(record_line(sweep, rec) + "\n" for rec in records)


if __name__ == "__main__":
    main()
