"""The benchmark's smoke mode: minimal sizes with every correctness check on.

Runs ``python3 perfbench/run.py --smoke --workload W`` for the in-process
workloads and reads the JSON object on the last line of its report."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["operator_algebra", "condition_grid"])
def test_smoke_run_is_correct(workload):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke", "--workload", workload],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["correct"] is True
    assert report["failed"] == 0
