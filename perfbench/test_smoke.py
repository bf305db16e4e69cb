"""Smoke test of the benchmark on small grids.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py

Every workload runs once untraced and once traced with --smoke; the test
checks that each metric named in BENCHMARK.json is emitted with its unit,
that the spans nest as the program calls its layers, and that the benchmark
refuses to run without the program's sources.
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# every workload run.py knows; asterisk and analyze run on request only (README.md)
WORKLOADS = ["cross", "scan", "analyze", "asterisk"]
SEED = 5


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    """(result line, run record) of a smoke run, cached per workload and mode."""
    cache = {}

    def get(workload, trace):
        if (workload, trace) not in cache:
            work = tmp_path_factory.mktemp(f"{workload}-trace{trace}")
            done = bench("--workload", workload, "--seed", str(SEED), "--seconds", "0.5",
                         "--trace", str(trace), "--smoke", "--work-dir", str(work))
            assert done.returncode == 0, done.stderr
            result = json.loads(done.stdout.strip().splitlines()[-1])
            record = json.loads((work / f"{workload}-seed{SEED}-trace{trace}.json").read_text())
            cache[workload, trace] = result, record
        return cache[workload, trace]

    return get


def test_benchmark_lists_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(smoke_run, workload, trace):
    result, _ = smoke_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), m["name"]


def test_spans_nest_from_cli_down_to_splu(smoke_run):
    _, record = smoke_run("cross", 1)
    spans = {s["id"]: s for s in record["spans"]}
    chain = [next(s for s in spans.values() if s["name"] == "semilinear.splu")]
    while chain[-1]["parent"] is not None:
        chain.append(spans[chain[-1]["parent"]])
    assert [s["name"] for s in reversed(chain)] == [
        "cli.cross", "semilinear.solve_fixed_point", "semilinear.newton_stage",
        "semilinear.splu"]
    for s in spans.values():
        if s["parent"] is not None:
            parent = spans[s["parent"]]
            assert parent["op"] == s["op"]
            assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]


def test_self_times_add_up_to_the_traced_wall_time(smoke_run):
    result, _ = smoke_run("cross", 1)
    m = {name: v["value"] for name, v in result["metrics"].items()}
    self_sum = sum(v for name, v in m.items() if name.endswith(".self_s"))
    assert self_sum == pytest.approx(m["trace.wall_s"], rel=0.01)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "cross", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
