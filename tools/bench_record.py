"""Record end-to-end benchmark runs of one or more checkouts in BENCH_<label>.json.

Each checkout is a directory holding a dcag tree (src/ and perfbench/).
For every workload of BENCHMARK.json the script runs that checkout's own

    python3 perfbench/run.py --workload W --seed 42 --seconds T --trace 0

with T the benchmark's `run_seconds`, once per checkout per pair for ten
pairs, alternating which checkout runs first from one pair to the next.
It writes, next to BENCHMARK.json, the min, quartiles, median, N and unit
of each end-to-end metric per checkout, every run's value in pair order,
the failed and attempted invocation counts, and the versions, BLAS name
and thread count, nproc and commit from each run record. With checkouts named
`parent` and `change`, each workload also gets a `verdicts` entry per metric:
the pairs the change won and lost (ties count for neither), the change in the
median in %, the parent's q3 - q1 in % of its median, whether the change's
median is within the metric's bound, and whether it is a resolved gain (won at
least nine pairs in ten, by more than the parent's q3 - q1 in the median). The
file is rewritten after every run, so an interrupted recording keeps its pairs.

    python3 tools/bench_record.py --label mylabel \\
        --checkout parent=../parent --checkout change=.

A checkout without .git records a null commit; `src_sha256`, a digest of
every file under its src/, names the measured code either way. A checkout
holding a __pycache__ directory under src/ is refused with exit 2, since a
.pyc left there would shorten that side's import time (setup_s) alone.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 42
PAIRS = 10  # the fewest alternating pairs a claimed gain is judged on


def _checkout(text: str) -> tuple[str, Path]:
    name, sep, root = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"expected NAME=DIR, got {text!r}")
    return name, Path(root).resolve()


def src_digest(root: Path) -> str:
    """SHA-256 over the relative path and bytes of every file under root/src."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file():  # main refuses a src/ holding __pycache__ before this runs
            digest.update(str(path.relative_to(root)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def run_once(root: Path, workload: str) -> tuple[dict, dict]:
    """The run record and the result of one `perfbench/run.py --trace 0` run."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True)
    record, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    return record["run_record"], result


def summary(values: list[float], unit: str) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1
                      else values * 3)
    return {"unit": unit, "n": len(values), "min": min(values), "q1": q1,
            "median": median, "q3": q3, "runs": values}


def verdict(parent: list[float], change: list[float], bound: float) -> dict:
    """How a lower-is-better metric's change runs fare against the parent's, pair by pair."""
    pairs = list(zip(parent, change))
    base, median = summary(parent, ""), summary(change, "")["median"]
    median_pct = 100.0 * (median / base["median"] - 1.0)
    iqr_pct = 100.0 * (base["q3"] - base["q1"]) / base["median"]
    won = sum(c < p for p, c in pairs)
    return {"pairs": len(pairs), "pairs_won": won, "pairs_lost": sum(c > p for p, c in pairs),
            "median_change_pct": median_pct, "parent_iqr_pct": iqr_pct,
            "within_bound": median <= base["median"] * (1.0 + bound),
            "gain": 10 * won >= 9 * len(pairs) and -median_pct > iqr_pct}


def build(label: str, digests: dict, runs: dict, firsts: dict) -> dict:
    """The BENCH document so far: runs[workload][checkout] lists (run record, result)."""
    checkouts, workloads = {}, {}
    for workload, per_checkout in runs.items():
        workloads[workload] = {"pairs": PAIRS, "first_in_pair": firsts[workload],
                               "checkouts": {}}
        for name, made in per_checkout.items():
            if not made:
                continue
            record = made[0][0]
            checkouts[name] = {
                "commit": record["git_commit"], "src_sha256": digests[name],
                "python": record["python"], "numpy": record["numpy"],
                "blas": record["blas"]["name"], "blas_version": record["blas"]["version"],
                "blas_threads": record["blas"]["threads"], "nproc": record["nproc"],
                "mem_total_mb": record["mem_total_mb"],
            }
            metrics = {}
            for metric, first in made[0][1]["metrics"].items():
                values = [result["metrics"][metric]["value"] for _, result in made]
                metrics[metric] = summary(values, first["unit"])
            workloads[workload]["checkouts"][name] = {
                "metrics": metrics,
                "attempted": sum(result["attempted"] for _, result in made),
                "failed": sum(result["failed"] for _, result in made),
            }
        sides = workloads[workload]["checkouts"]
        if {"parent", "change"} <= set(sides):
            workloads[workload]["verdicts"] = {
                metric["name"]: verdict(sides["parent"]["metrics"][metric["name"]]["runs"],
                                        sides["change"]["metrics"][metric["name"]]["runs"],
                                        metric["bound"])
                for metric in BENCHMARK["end_to_end"]}
    return {
        "label": label,
        "command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0",
        "seed": SEED,
        "seconds": BENCHMARK["run_seconds"],
        "checkouts": checkouts,
        "workloads": workloads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    parser.add_argument("--checkout", action="append", required=True, metavar="NAME=DIR",
                        type=_checkout, help="a checkout to measure")
    args = parser.parse_args(argv)
    out = ROOT / f"BENCH_{args.label}.json"
    roots = dict(args.checkout)
    for root in roots.values():
        if not (root / "perfbench" / "run.py").is_file():
            parser.error(f"{root} holds no perfbench/run.py")
        # with PYTHONDONTWRITEBYTECODE=1 set, a .pyc left on one side speeds its imports alone
        cache = next((root / "src").rglob("__pycache__"), None)
        if cache is not None:
            parser.error(f"{cache} holds compiled bytecode; delete it before recording")
    digests = {name: src_digest(root) for name, root in roots.items()}
    names = list(roots)

    runs, firsts = {}, {}
    for workload in (entry["name"] for entry in BENCHMARK["workloads"]):
        runs[workload] = {name: [] for name in names}
        firsts[workload] = []
        for pair in range(PAIRS):
            order = names if pair % 2 == 0 else names[::-1]
            firsts[workload].append(order[0])
            for name in order:
                made = run_once(roots[name], workload)
                runs[workload][name].append(made)
                metrics = made[1]["metrics"]
                print(f"{workload} pair {pair + 1}/{PAIRS} {name}: "
                      f"wall_p50_s {metrics['wall_p50_s']['value']:.3f} "
                      f"peak_rss_mb {metrics['peak_rss_mb']['value']:.2f} "
                      f"failed {made[1]['failed']}", flush=True)
                out.write_text(json.dumps(build(args.label, digests, runs, firsts),
                                          indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
