"""Each committed BENCH_*.json holds its change to its parent's end-to-end bounds.

A file records `parent` and `change` checkouts measured in alternating pairs in
one session. Only pairs inside one file are compared: two sessions measured the
same code 15% apart (ROADMAP), more than most bounds, so files are never
compared with each other.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
PAIRS = 10
SIDES = ("parent", "change")
# what must match for the two sides of a file to be comparable
ENVIRONMENT = ("python", "numpy", "blas", "blas_threads", "nproc")


def paired_files() -> dict:
    files = {}
    for path in sorted(ROOT.glob("BENCH_*.json")):
        bench = json.loads(path.read_text(encoding="utf-8"))
        if set(SIDES) <= set(bench.get("checkouts", {})):
            files[path.name] = bench
    return files


FILES = paired_files()
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def test_some_file_is_paired():
    assert FILES


@pytest.mark.parametrize("name", FILES)
def test_both_sides_ran_on_one_environment(name):
    parent, change = (FILES[name]["checkouts"][side] for side in SIDES)
    assert {key: change[key] for key in ENVIRONMENT} == {key: parent[key] for key in ENVIRONMENT}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("name", FILES)
def test_change_is_within_the_bounds_of_its_parent(name, workload):
    runs = FILES[name]["workloads"][workload]
    assert runs["pairs"] == PAIRS and len(runs["first_in_pair"]) == PAIRS
    sides = runs["checkouts"]
    for side in SIDES:
        assert sides[side]["failed"] == 0, f"{side} had failed invocations"
    for metric in BENCHMARK["end_to_end"]:
        assert metric["better"] == "lower", f"{metric['name']}: only lower-is-better is gated"
        parent, change = (sides[side]["metrics"][metric["name"]] for side in SIDES)
        assert parent["n"] == change["n"] == PAIRS
        assert len(parent["runs"]) == len(change["runs"]) == PAIRS
        limit = parent["median"] * (1.0 + metric["bound"])
        assert change["median"] <= limit, (
            f"{metric['name']}: change median {change['median']:.6g} exceeds parent median "
            f"{parent['median']:.6g} x (1 + {metric['bound']})")
