"""Every demo script runs to completion against the package sources."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) >= 4


def _run(demo, cwd) -> str:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    assert _run(demo, tmp_path).strip()


def test_randomized_demo_prints_the_same_on_every_run(tmp_path):
    demo = ROOT / "demos" / "04_randomized_order_experiments.py"
    first = _run(demo, tmp_path)
    assert "table written to randomized.csv" in first
    assert _run(demo, tmp_path) == first
