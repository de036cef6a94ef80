"""Every demo script runs to completion with nothing on stderr."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(demo):
    r = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stderr == ""
