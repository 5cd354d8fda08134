"""Smoke test of tools/inprocess_ab.py: the checkout against itself."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_checkout_against_itself_differs_nowhere():
    src = str(ROOT / "src")
    args = ["--parent", src, "--change", src, "--workload", "exact_interior", "--seed", "1"]
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "inprocess_ab.py"), *args, "--rounds", "1", "--limit", "10"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0] == "exact_interior seed 1: 10 instances, 0 differing"
    assert lines[-1].startswith("ratio ") and "(median of 1 rounds)" in lines[-1]
