"""The benchmark calls the package by name and checks its results.

perfbench/spans.py lists the functions its traced run rebinds as (module,
function) pairs in TARGETS; a rename in the package would break the traced
run, so every pair must resolve here.  perfbench/workloads.py calls the
experiment drivers and the command line; each of its workloads must run at
smoke size without a solver failure and fail exactly its expected checks.
Both modules are read by path and not modified.
"""

import importlib
import runpy
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TARGETS = runpy.run_path(str(PERFBENCH / "spans.py"))["TARGETS"]
WORKLOADS = runpy.run_path(str(PERFBENCH / "workloads.py"))["WORKLOADS"]
SEED = 5


@pytest.mark.parametrize("module, function", TARGETS,
                         ids=[f"{m}.{f}" for m, f in TARGETS])
def test_traced_function_resolves(module, function):
    mod = importlib.import_module(f"unstablefb.{module}")
    assert callable(getattr(mod, function))


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_runs_at_smoke_size(name, tmp_path):
    workload = WORKLOADS[name]
    params = workload.setup(workload.make_inputs(SEED, True), tmp_path)
    outcome = workload.operation(params, tmp_path / "out")
    assert not outcome.solver_failure
    assert outcome.failed_checks == workload.expected_failures
