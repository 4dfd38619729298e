"""The benchmark's traced loop runs one workload and counts its attention calls."""

import json
import subprocess
import sys
from pathlib import Path

from conftest import child_env

REPO = Path(__file__).resolve().parents[1]


def test_traced_attend_check_holds_its_digests(tmp_path):
    # --root gets a checkout whose src is the repo's, so .bench_build/ lands in tmp_path;
    # the tracer counts attention from each joint_attention call's (S, H, d_h) q
    (tmp_path / "src").symlink_to(REPO / "src", target_is_directory=True)
    result = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "loop.py"), "--workload", "attend-check",
         "--seed", "42", "--seconds", "0", "--trace", "1", "--root", str(tmp_path)],
        env=child_env(), capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["failed"] == 0, report["failures"]
    assert report["layers"]
    for layers in report["layers"]:
        assert layers["attention.joint_attention.calls"] > 0
        assert layers["attention.flops"] > 0
    assert (tmp_path / ".bench_build" / "attend-check").is_dir()
