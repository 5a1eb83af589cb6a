"""The summary that ``tests/bench_pairs.py`` writes into ``BENCH_<n>.json``, on fixed numbers."""

import json
import sys

import pytest

import bench_pairs
from bench_pairs import parse_seeds, summarize

PARENT = [100.0, 102.0, 98.0, 101.0, 99.0]
CHANGE = [110.0, 111.0, 97.0, 112.0, 113.0]
PAIRS = [{"seed": s, "parent": {"m": p}, "change": {"m": c}} for s, p, c in zip(range(5), PARENT, CHANGE)]


def test_summary_of_a_higher_is_better_metric():
    got = summarize(PAIRS, "m", "higher")
    assert got["parent_median"] == 100.0 and got["change_median"] == 111.0
    assert got["ratio"] == pytest.approx(1.11)
    assert got["parent_quartiles"] == [99.0, 101.0]
    assert got["change_quartiles"] == [110.0, 112.0]
    assert got["parent_iqr_rel"] == pytest.approx(0.02)
    assert got["change_wins"] == "4 of 5"
    assert got["max_rel_diff"] == pytest.approx(14.0 / 99.0)


def test_summary_wins_follow_the_direction_and_ties_count_for_neither():
    assert summarize(PAIRS, "m", "lower")["change_wins"] == "1 of 5"
    tied = PAIRS + [{"seed": 5, "parent": {"m": 100.0}, "change": {"m": 100.0}}]
    assert summarize(tied, "m", "higher")["change_wins"] == "4 of 6"
    assert summarize(tied, "m", "lower")["change_wins"] == "1 of 6"


def test_summary_skips_pairs_missing_the_metric():
    crashed = PAIRS + [{"seed": 5, "parent": {"m": 1.0}, "change": {"exit": 1}}]
    assert summarize(crashed, "m", "higher") == summarize(PAIRS, "m", "higher")


def test_summary_of_fewer_than_two_complete_pairs_is_their_count():
    one = PAIRS[:1] + [{"seed": 5, "parent": {"m": 1.0}, "change": {"exit": 1}}]
    assert summarize(one, "m", "higher") == {"complete_pairs": 1}
    assert summarize([], "m", "higher") == {"complete_pairs": 0}


FAKE_RUN = """
import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
if args["--seed"] == "3" and {crash}:
    sys.exit(1)
print(json.dumps({{"correct": 1, "failed": 0, "attempted": 1,
                  "metrics": {{"m": {{"value": float(args["--seconds"]) + {offset}}}}}}}))
"""


def test_main_runs_the_benchmark_length_and_keeps_finished_pairs(tmp_path, monkeypatch):
    for side, offset in (("parent", 0.0), ("change", 1.0)):
        (tmp_path / side).mkdir()
        (tmp_path / side / "run.py").write_text(FAKE_RUN.format(crash=side == "change", offset=offset))
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(
        {"command": [sys.executable, "run.py"], "run_seconds": 7,
         "end_to_end": [{"name": "m", "better": "higher"}]}))
    out = tmp_path / "BENCH.json"
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--parent", str(tmp_path / "parent"),
                                      "--change", str(tmp_path / "change"), "--workload", "w",
                                      "--seeds", "1-3", "--out", str(out)])
    bench_pairs.main()
    got = json.loads(out.read_text())
    assert got["command"].endswith("--workload W --seed S --seconds 7 --trace 0")
    pairs = got["workloads"]["w"]["pairs"]
    assert [p["parent"]["m"] for p in pairs] == [7.0, 7.0, 7.0]
    assert [p["change"].get("m") for p in pairs] == [8.0, 8.0, None] and pairs[2]["change"]["exit"] == 1
    assert got["workloads"]["w"]["summary"]["m"]["change_wins"] == "2 of 2"


def test_seed_ranges():
    assert parse_seeds("1901-1903,1910") == [1901, 1902, 1903, 1910]
