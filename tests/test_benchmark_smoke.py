"""The frozen benchmark's workloads still run on the engine: one pass of
each, with every operation checked against its reference."""

import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def workloads(monkeypatch):
    # the CLI workload names its input files relative to the repository root
    monkeypatch.chdir(ROOT)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return importlib.import_module("workloads")


@pytest.mark.parametrize("name", ["hori", "cohomology_q", "cohomology_qi", "cli"])
def test_first_pass_of_every_workload_is_ok(workloads, name):
    work = workloads.setup(name, workloads.DEFAULT_SEED, in_process_cli=True)
    verdicts = [(op_name, op()) for op_name, op in work.pass_ops(0)]
    assert verdicts and all(v == workloads.OK for _, v in verdicts), verdicts
