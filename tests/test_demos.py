"""The demo scripts run to completion with nothing on stderr."""

import os
import subprocess
import sys

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")

# 05_superminkowski.py takes about ten seconds; test_hori_pipeline_smoke
# covers the pipeline it prints
FAST_DEMOS = [
    "01_sphere_models.py",
    "02_cyclification.py",
    "03_tduality_quintuple.py",
    "04_fourier_mukai.py",
    "06_twisted_cohomology.py",
]


@pytest.mark.parametrize("demo", FAST_DEMOS)
def test_demo_runs_cleanly(demo):
    r = subprocess.run(
        [sys.executable, os.path.join(DEMOS, demo)], capture_output=True, text=True
    )
    assert r.returncode == 0, r.stderr
    assert r.stderr == ""
