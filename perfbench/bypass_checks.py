"""Bypass and count checks on the traced run.

They make "predict no change" statements checkable: a workload that bypasses
a layer must not call it, and every ``*_calls`` count must repeat exactly
across two traced runs with one seed.  Each workload is traced twice in
fresh interpreters, so the module takes a few minutes.  Run from the root of
a checkout:

    python3 -m pytest perfbench/bypass_checks.py
"""

from __future__ import annotations

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402

BYPASS = {
    "hori": {"linalg.calls": 0},
    "cohomology_q": {"fields.qi_mul_calls": 0, "twisted.fm_transform_calls": 0},
    "cohomology_qi": {"twisted.fmq_verify_calls": 0},
    "cli": {},
}

_traced = {}


def traced_twice(name):
    if name not in _traced:
        _traced[name] = [
            run.Runner().worker(name, workloads.DEFAULT_SEED, "trace")[1]["layers"]
            for _ in range(2)
        ]
    return _traced[name]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_bypassed_layers_are_not_called(name):
    layers = traced_twice(name)[0]
    for metric, expected in BYPASS[name].items():
        assert layers[metric] == expected, metric


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_call_counts_repeat(name):
    first, second = traced_twice(name)
    counts = [k for k in first if k.endswith("_calls")]
    assert counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_run_reports_every_declared_layer_metric(name):
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    produced = set(traced_twice(name)[0]) | set(run.IMPORT_METRICS) | {"trace.overhead_frac"}
    assert produced == declared
