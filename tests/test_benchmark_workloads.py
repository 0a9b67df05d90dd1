"""The benchmark's workloads still run against the library.

perfbench/workloads.py drives the public API; a library change that breaks
one of its calls would otherwise show only when the benchmark runs.  Each
workload named in BENCHMARK.json is set up once and runs one full cycle of
ops, and every op must pass the workload's own check.
"""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _workloads_module():
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _benchmarked_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [w["name"] for w in json.load(fh)["workloads"]]


@pytest.mark.parametrize("name", _benchmarked_names())
def test_workload_cycle_passes_its_checks(name):
    workload = _workloads_module().WORKLOADS[name]()
    workload.setup(1)
    for i in range(workload.cycle):
        reason = workload.check(i, workload.run_op(i))[0]
        assert reason == "", f"{name} op {i}: {reason}"
