"""The benchmark's self-test (``perfbench/selftest.py``) passes on this
tree: every workload's output checks accept the program's outputs and
reject corrupted ones, so a change that breaks a workload fails here
before any benchmark run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_selftest_passes():
    run = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = run.stdout.splitlines()
    assert run.returncode == 0 and lines and lines[-1] == "PASS selftest", run.stdout + run.stderr
