"""One workload as a closed loop: one client, one `dcag.cli.main` call at a time.

run.py starts this script in a fresh interpreter for each child of a run:

    python3 perfbench/loop.py --workload NAME --seed N --seconds S --trace 0|1 --root CHECKOUT

It makes one unmeasured warm-up invocation, then invokes the workload
back to back until S seconds have passed, checking each invocation's exit
code, stdout and artifacts outside the timed region. It prints one JSON
line with the per-invocation wall times, the failures, the artifact
digests, its own peak RSS and, with --trace 1, the per-layer counts.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

# The argv of each workload after "dcag"; --seed and --out are appended.
WORKLOADS = {
    "sweep-default": ["sweep", "--contour", "ssim=0.5"],
    "profile-long": ["profile", "--heatmap", "--img-tokens", "1024"],
    "attend-check": ["attend", "--check", "--img-tokens", "144", "--config", "{config}"],
}
ATTEND_CONFIG = "delta_k = 1.1\ndelta_v = 1.15\n"
ATTEND_PASSES = ("check identity: PASS", "check logit_scaling: PASS",
                 "check value_affinity: PASS")
SWEEP_IDENTITY_ROW = "1,1,0,100,1"
# Artifacts of every workload at this seed are pinned in digests.json.
PINNED_SEED = 42
DIGESTS = Path(__file__).with_name("digests.json")


def read_artifacts(outdir: Path) -> tuple[dict, int]:
    """SHA-256 digest of every file in outdir, and their total size in bytes."""
    digests, size = {}, 0
    for path in sorted(outdir.iterdir()):
        data = path.read_bytes()
        digests[path.name] = hashlib.sha256(data).hexdigest()
        size += len(data)
    return digests, size


def check(workload: str, rc, stdout: str, outdir: Path, expected):
    """(None, artifacts) when the invocation is correct, else (why not, None)."""
    if rc != 0:
        return f"exit code {rc}", None
    if workload == "attend-check":
        missing = [line for line in ATTEND_PASSES if line not in stdout.splitlines()]
        if missing:
            return f"probe output missing {missing}", None
    try:
        if workload == "sweep-default":
            rows = (outdir / "sweep.csv").read_text(encoding="utf-8").splitlines()
            if SWEEP_IDENTITY_ROW not in rows:
                return f"sweep.csv lacks the identity row {SWEEP_IDENTITY_ROW}", None
        artifacts = read_artifacts(outdir)
    except OSError as exc:
        return f"cannot read the artifacts: {exc}", None
    if expected is not None and artifacts[0] != expected:
        return "artifact digests differ from the expected ones", None
    return None, artifacts


def versions() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version"),
                     "threads": os.environ.get("OPENBLAS_NUM_THREADS")}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--root", type=Path, required=True)
    args = parser.parse_args()

    src = (args.root / "src").resolve()
    sys.path.insert(0, str(src))
    import dcag.cli

    if not Path(dcag.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"dcag imported from {dcag.cli.__file__}, not from {src}")
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    work = args.root / ".bench_build" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    config = work / "guidance.cfg"
    config.write_text(ATTEND_CONFIG, encoding="utf-8")
    outdir = work / "out"
    argv = [part.format(config=config) for part in WORKLOADS[args.workload]]
    argv += ["--seed", str(args.seed), "--out", str(outdir)]

    expected = None
    if args.seed == PINNED_SEED:
        expected = json.loads(DIGESTS.read_text(encoding="utf-8"))[args.workload]

    walls, layers, failures = [], [], []
    digests = artifact_bytes = None

    def invoke() -> float:
        nonlocal expected, digests, artifact_bytes
        shutil.rmtree(outdir, ignore_errors=True)
        if tracer is not None:
            tracer.reset()
        captured = io.StringIO()
        rc = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured):
                rc = dcag.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # an invocation that raises is a failed invocation
            rc = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        if tracer is not None:
            layers.append(tracer.snapshot())
        problem, artifacts = check(args.workload, rc, captured.getvalue(), outdir, expected)
        if problem is not None:
            failures.append(problem)
        elif digests is None:
            digests, artifact_bytes = artifacts
            expected = digests  # every later invocation must write the same bytes
        return wall

    invoke()  # warm-up, checked but not timed
    layers.clear()
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.seconds:
        walls.append(invoke())

    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "wall_s": walls,
        "attempted": len(walls) + 1,
        "failed": len(failures),
        "failures": failures[:5],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digests": digests,
        "artifact_bytes": artifact_bytes,
        "layers": layers,
        **versions(),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
