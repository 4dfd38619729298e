"""The dcag benchmark: one CLI workload, end-to-end or per-layer metrics.

Run from the root of a checkout; it measures the package under ./src:

    python3 perfbench/run.py --workload sweep-default --seed 42 --seconds 30 --trace 0

Workloads (see rationale.json for why each was chosen):

    sweep-default  dcag sweep --contour ssim=0.5
    profile-long   dcag profile --heatmap --img-tokens 1024
    attend-check   dcag attend --check --img-tokens 144 --config <delta_k 1.1, delta_v 1.15>

--trace 0 measures set-up time over fresh interpreters, then runs the
workload as a closed loop (loop.py) in child processes that never install
a trace wrapper, and reports setup_s, wall_p50_s and peak_rss_mb.
--trace 1 alternates two such untraced children with two traced ones
(tracer.py), and reports the per-layer metrics plus the tracing overhead.
Either way the run's time is split evenly over its consecutive children,
each with its own warm-up invocation: wall time differs between processes
and drifts over time by a few percent, so pooling and alternating
children steadies the medians and their difference. BLAS threads are pinned
to min(2, nproc) in every child. The last line of stdout is the result JSON;
the line before it is the run record (versions, BLAS, nproc, memory,
commit, seed, invocation counts).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from loop import WORKLOADS  # noqa: E402
from tracer import COMPUTED, TRACED  # noqa: E402

SETUP_RUNS = 15
DEADLINE_S = 170.0
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = min(2, NPROC)
SETUP_CODE = "import time\nimport dcag.cli\nprint(repr(time.monotonic()))"
UNITS = {"calls": "count", "self_s": "s",
         "attention.flops": "flop-computed", "attention.logits_bytes": "B-computed"}


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def remaining(started: float) -> float:
    left = DEADLINE_S - (time.monotonic() - started)
    if left <= 0:
        raise SystemExit("benchmark ran out of time before finishing")
    return left


def measure_setup(root: Path, env: dict, started: float) -> list[float]:
    """Seconds from spawning a fresh interpreter until `import dcag.cli` returns.

    The first spawn is not counted: it may compile the package's bytecode.
    """
    samples = []
    for index in range(SETUP_RUNS + 1):
        spawned = time.monotonic()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=root, env=env,
                              capture_output=True, text=True, check=True,
                              timeout=remaining(started))
        if index:
            samples.append(float(done.stdout) - spawned)
    return samples


def run_loop(root: Path, env: dict, args, seconds: float, trace: int, started: float) -> dict:
    cmd = [sys.executable, str(HERE / "loop.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--trace", str(trace),
           "--root", str(root)]
    done = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=remaining(started))
    if done.returncode != 0:
        raise SystemExit(f"workload loop exited with code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def pooled(loops: list[dict], key: str) -> list:
    return [value for loop in loops for value in loop[key]]


def end_to_end(setup: list[float], plain: list[dict]) -> dict:
    walls = pooled(plain, "wall_s")
    return {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "wall_p50_s": (statistics.median(walls), "s", len(walls)),
        "peak_rss_mb": (statistics.median(loop["peak_rss_mb"] for loop in plain), "MB", len(plain)),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    layers = pooled(traced, "layers")
    traced_walls = pooled(traced, "wall_s")
    n = len(layers)
    metrics = {}
    for name in [f"{label}.{kind}" for label in TRACED for kind in ("calls", "self_s")] + list(COMPUTED):
        unit = UNITS.get(name) or UNITS[name.rsplit(".", 1)[1]]
        metrics[name] = (statistics.fmean(layer[name] for layer in layers), unit, n)
    self_names = [f"{label}.self_s" for label in TRACED]
    unattributed = [wall - sum(layer[key] for key in self_names)
                    for wall, layer in zip(traced_walls, layers)]
    traced_p50 = statistics.median(traced_walls)
    metrics["cli.artifact_bytes"] = (traced[0]["artifact_bytes"] or 0, "B", 1)
    metrics["trace.wall_p50_s"] = (traced_p50, "s", n)
    metrics["trace.unattributed_s"] = (statistics.median(unattributed), "s", n)
    metrics["trace_overhead_s"] = (traced_p50 - statistics.median(pooled(plain, "wall_s")), "s", n)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")

    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "dcag" / "cli.py").is_file():
        print(f"error: {root} holds no dcag checkout (src/dcag/cli.py is missing)", file=sys.stderr)
        return 2
    env = child_env(root)

    setup = [] if args.trace else measure_setup(root, env, started)
    flags = (0, 1, 0, 1) if args.trace else (0, 0)
    loops = [run_loop(root, env, args, args.seconds / len(flags), flag, started) for flag in flags]
    plain = [loop for loop in loops if not loop["trace"]]
    if args.trace:
        metrics = per_layer(plain, [loop for loop in loops if loop["trace"]])
    else:
        metrics = end_to_end(setup, plain)

    attempted = sum(loop["attempted"] for loop in loops)
    failed = sum(loop["failed"] for loop in loops)
    # Each child checks its invocations against its first; the children must agree too.
    first = next((loop["digests"] for loop in loops if loop["digests"]), None)
    for loop in loops:
        if loop["digests"] not in (None, first):
            loop["failures"].append("artifacts differ from those of an earlier child")
            failed += loop["attempted"] - loop["failed"]
    for name, (value, unit, n) in metrics.items():
        print(f"{args.workload} {name} = {value!r} {unit} (n={n})")
    print(f"{args.workload} fail_ratio = {failed / attempted!r} ({failed}/{attempted} invocations)")
    for loop in loops:
        for failure in loop["failures"]:
            print(f"{args.workload} failure (trace {loop['trace']}): {failure}")
    print(json.dumps({"run_record": {
        "workload": args.workload,
        "argv": ["dcag", *WORKLOADS[args.workload]],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "children": [{"trace": loop["trace"], "invocations": len(loop["wall_s"]),
                      "warmup_invocations": 1} for loop in loops],
        "setup_runs": len(setup),
        "python": loops[0]["python"],
        "numpy": loops[0]["numpy"],
        "blas": loops[0]["blas"],
        "nproc": NPROC,
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20,
        "git_commit": git_commit(root),
        "computed_metrics": list(COMPUTED),
    }}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
