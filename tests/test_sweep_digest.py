"""The drift report of ``tests/sweep_digest.py``: its record files and the largest change per field."""

import dataclasses
import math

import pytest

from hrislink.harness import MetricsRecord

import sweep_digest

SWEEP = "golden/tstc/bals-bals/pt"


def record(value):
    """A synthetic sweep point: fixed metrics, NaN among them, and their stderr a tenth of each."""
    means = dict(nmse_g=1 / 3, nmse_h=0.25, nmse_theta=math.nan, ser_hris=0.0, ser_bs=0.125, iters_hris=3.0,
                 iters_bs=7.5)
    return MetricsRecord("pt", value, **means, trials=4, failures=1,
                         stderr={name: mean / 10 for name, mean in means.items()})


def compared(tmp_path, old, new):
    paths = []
    for name, records in (("old.jsonl", old), ("new.jsonl", new)):
        paths.append(tmp_path / name)
        paths[-1].write_text("".join(sweep_digest.record_line(SWEEP, rec) + "\n" for rec in records))
    return sweep_digest.compare(*(sweep_digest.read_records(path) for path in paths))


def test_records_keep_every_field_exactly(tmp_path):
    rec = record(-10.0)
    (tmp_path / "a.jsonl").write_text(sweep_digest.record_line(SWEEP, rec) + "\n")
    (read,) = sweep_digest.read_records(tmp_path / "a.jsonl").items()
    line, fields = read
    assert line == f"{SWEEP}=-10.0"
    metrics = [f.name for f in dataclasses.fields(rec) if f.name not in ("sweep_var", "value", "stderr")]
    assert list(fields) == metrics + [f"stderr.{name}" for name in rec.stderr]
    for name, value in fields.items():
        want = rec.stderr[name.removeprefix("stderr.")] if name.startswith("stderr.") else getattr(rec, name)
        assert value == want or math.isnan(value) and math.isnan(want)
        assert type(value) is type(want)


def test_identical_records_change_nothing(tmp_path):
    records = [record(value) for value in (-10.0, 10.0)]
    largest, differ = compared(tmp_path, records, records)
    assert len(largest) == 9 + 7
    assert all(change == 0 and line is None for change, line in largest.values())
    assert differ == []


def test_a_perturbed_metric_and_stderr_entry_are_all_that_is_reported(tmp_path):
    old = [record(value) for value in (-10.0, 10.0)]
    new = [record(value) for value in (-10.0, 10.0)]
    new[1].nmse_h *= 1 + 2**-40
    new[0].stderr["ser_bs"] *= 3
    largest, differ = compared(tmp_path, old, new)
    changed = {name: (change, line) for name, (change, line) in largest.items() if change}
    assert changed == {"nmse_h": (pytest.approx(2**-40, rel=1e-6), f"{SWEEP}=10.0"),
                       "stderr.ser_bs": (pytest.approx(2.0), f"{SWEEP}=-10.0")}
    assert differ == [f"{SWEEP}=-10.0", f"{SWEEP}=10.0"]


def test_relative_change_of_zeros_and_non_finite_values():
    assert sweep_digest.relative_change(0.0, -0.0) == 0
    assert sweep_digest.relative_change(math.nan, math.nan) == 0
    assert sweep_digest.relative_change(0.0, 1e-300) == math.inf
    assert sweep_digest.relative_change(1.0, math.nan) == math.inf
    assert sweep_digest.relative_change(math.inf, 1.0) == math.inf
    assert sweep_digest.relative_change(-2.0, -3.0) == 0.5
