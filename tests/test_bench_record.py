"""tools/bench_record.py's gain verdict on synthetic pairs of runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def test_ten_wins_beyond_the_parent_spread_are_a_gain():
    got = bench_record.verdict(PARENT, [value * 0.9 for value in PARENT], 0.25)
    assert (got["pairs"], got["pairs_won"], got["pairs_lost"]) == (10, 10, 0)
    assert got["median_change_pct"] == pytest.approx(-10.0)
    assert got["parent_iqr_pct"] == pytest.approx(3.5)  # q1 0.9825, q3 1.0175
    assert got["within_bound"] and got["gain"]


def test_ties_count_for_neither_side():
    got = bench_record.verdict(PARENT, list(PARENT), 0.25)
    assert (got["pairs_won"], got["pairs_lost"], got["median_change_pct"]) == (0, 0, 0.0)
    assert got["within_bound"] and not got["gain"]


def test_a_change_beyond_its_bound_is_out_of_bound():
    got = bench_record.verdict(PARENT, [value * 1.3 for value in PARENT], 0.25)
    assert (got["pairs_won"], got["pairs_lost"]) == (0, 10)
    assert got["median_change_pct"] == pytest.approx(30.0)
    assert not got["within_bound"] and not got["gain"]


def test_nine_narrow_wins_are_no_gain():
    # the change wins nine pairs in ten, but by less than the parent's q3 - q1
    change = [value - 0.01 for value in PARENT[:9]] + [PARENT[9] + 0.01]
    got = bench_record.verdict(PARENT, change, 0.25)
    assert got["pairs_won"] == 9 and got["within_bound"] and not got["gain"]


def test_each_workload_records_a_verdict_per_end_to_end_metric():
    record = {"git_commit": None, "python": "3", "numpy": "2", "nproc": 2, "mem_total_mb": 1,
              "blas": {"name": "openblas", "version": "0", "threads": 2}}
    metrics = [entry["name"] for entry in bench_record.BENCHMARK["end_to_end"]]

    def made(scale):
        return [(record, {"attempted": 3, "failed": 0, "metrics": {
            name: {"value": value * scale, "unit": "s"} for name in metrics}})
            for value in PARENT]

    runs = {"w": {"parent": made(1.0), "change": made(0.9)}}
    document = bench_record.build("t", {"parent": "a", "change": "b"}, runs, {"w": []})
    verdicts = document["workloads"]["w"]["verdicts"]
    assert set(verdicts) == set(metrics)
    assert all(v["gain"] and v["pairs_won"] == 10 for v in verdicts.values())
    # a recording without a parent and a change has no verdict
    lone = bench_record.build("t", {"a": "a"}, {"w": {"a": made(1.0)}}, {"w": []})
    assert "verdicts" not in lone["workloads"]["w"]


BENCHES = {path.name: json.loads(path.read_text(encoding="utf-8"))
           for path in sorted(ROOT.glob("BENCH_*.json"))}
RECORDED = {name: bench for name, bench in BENCHES.items()
            if any("verdicts" in workload for workload in bench["workloads"].values())}


@pytest.mark.parametrize("name", RECORDED)
def test_each_recorded_verdict_follows_from_its_runs(name):
    # files recorded before verdicts existed have none, and are not read here
    for workload in RECORDED[name]["workloads"].values():
        sides = workload["checkouts"]
        for metric in bench_record.BENCHMARK["end_to_end"]:
            runs = (sides[side]["metrics"][metric["name"]]["runs"] for side in ("parent", "change"))
            expected = bench_record.verdict(*runs, metric["bound"])
            assert workload["verdicts"][metric["name"]] == expected
