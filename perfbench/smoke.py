"""Smoke test of the benchmark itself; exits 1 on the first broken promise.

Run from the root of a checkout (takes about a minute):

    python3 perfbench/smoke.py

For every workload it runs run.py briefly untraced and traced, prints each
metric by name with its unit and sample count, and checks that the result
is correct, that every metric BENCHMARK.json names is emitted with its
unit, that the per-layer self times add up to the traced wall time, and
that guidance does no work on profile-long. It also checks that
rationale.json names only workloads and metrics BENCHMARK.json has.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def fail(message: str) -> None:
    print(f"smoke: FAIL {message}")
    raise SystemExit(1)


def run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seconds", "1",
         "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=180)
    if done.returncode != 0:
        fail(f"{workload} trace {trace}: run.py exited with {done.returncode}")
    lines = done.stdout.splitlines()
    print("\n".join(lines[:-2]))
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{workload} trace {trace}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{workload} trace {trace}: incorrect result\n{done.stdout}")
    return result["metrics"]


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    rationale = json.loads((HERE / "rationale.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]
    known = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
    if sorted(rationale["workloads"]) != sorted(workloads):
        fail(f"rationale.json workloads {sorted(rationale['workloads'])} != {sorted(workloads)}")
    for layer in rationale["layers"]:
        for name in set(layer["metrics"] + layer["should_move"]) - known:
            fail(f"rationale.json names {name}, which BENCHMARK.json lacks")

    for workload in workloads:
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            metrics = run(workload, trace)
            for metric in declared:
                got = metrics.get(metric["name"])
                if got is None or got.get("unit") != metric["unit"]:
                    fail(f"{workload} trace {trace}: {metric['name']} emitted as {got}")
            if trace:
                wall = metrics["trace.wall_p50_s"]["value"]
                if abs(metrics["trace.unattributed_s"]["value"]) > 0.01 * wall:
                    fail(f"{workload}: self times miss more than 1% of traced wall {wall}")
                calls = metrics["guidance.apply_dcag.calls"]["value"]
                if (calls == 0) != (workload == "profile-long"):
                    fail(f"{workload}: guidance.apply_dcag.calls = {calls}")
            print(f"smoke: ok {workload} trace {trace}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
