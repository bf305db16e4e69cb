"""Experiment drivers: manifests, exit codes, replay, and the console entry.

Solver-backed cases run on coarse grids with a mild final width so each
test stays around a second.
"""

import argparse
import ast
import inspect
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import VTK_DEFECTS, malformed_vtk

import unstablefb
import unstablefb.cli as cli
import unstablefb.semilinear as semilinear
from unstablefb import (
    PolarGrid,
    RunManifest,
    build_sector_grid,
    main,
    read_field,
    rerun_manifest,
    run_asterisk,
    run_cross,
    run_solve,
    run_threshold_scan,
    write_field_vtk,
)
from unstablefb.cli import _build_parser, _default_phi_radii
from unstablefb.field import field_from_function, write_field_csv

COARSE = dict(n_r=64, n_phi=64, eps_min=0.05)


@pytest.fixture(scope="module")
def solve_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("solve")
    manifest = run_solve(2, M=40.0, out_dir=out, **COARSE)
    return out, manifest


class TestSolveDriver:
    def test_status_and_exit_code(self, solve_run):
        _, m = solve_run
        assert m.status == "ok"
        assert m.exit_code == 0
        assert all(rec["passed"] for rec in m.checks)

    def test_manifest_written_and_loadable(self, solve_run):
        out, m = solve_run
        stored = RunManifest.load(out / "manifest.json")
        assert stored.experiment == "solve"
        assert stored.content_hash == m.content_hash
        assert stored.headline == m.headline
        assert stored.parameters == m.parameters

    def test_outputs_exist(self, solve_run):
        out, m = solve_run
        assert set(m.outputs) == {"solution.vtk", "solution.json"}
        for name in m.outputs:
            assert (out / name).exists()
        field = read_field(out / "solution.vtk")
        assert field.grid == build_sector_grid(2, 64, 64)

    def test_headline_content(self, solve_run):
        _, m = solve_run
        assert 0.0 < m.headline["kappa"] < 0.26
        assert abs(m.headline["origin_value"]) <= 1e-8
        assert m.headline["eps_final"] == 0.05

    def test_content_hash_tracks_parameters(self, solve_run, tmp_path):
        _, m = solve_run
        other = run_solve(2, M=39.0, out_dir=tmp_path, **COARSE)
        assert len(m.content_hash) == 64
        assert other.content_hash != m.content_hash

    def test_runtime_recorded(self, solve_run):
        _, m = solve_run
        assert m.runtime_seconds > 0.0


class TestFailurePath:
    def test_unreachable_tolerance_writes_failure_manifest(self, tmp_path, monkeypatch):
        monkeypatch.setattr(semilinear, "NEWTON_TOL", 1e-30)
        m = run_solve(2, M=40.0, n_r=32, n_phi=32, eps_min=0.2, out_dir=tmp_path)
        assert m.status == "solver_failure"
        assert m.exit_code == 3
        assert m.failure  # reason recorded
        stored = json.loads((tmp_path / "manifest.json").read_text())
        assert stored["status"] == "solver_failure"
        assert stored["failure"]["kind"] == "continuation_stage"
        assert set(stored["failure"]) == {"kind", "eps", "n_r", "n_phi", "iterations",
                                          "residual", "reason"}
        assert (stored["failure"]["n_r"], stored["failure"]["n_phi"]) == (32, 32)

    def test_iteration_cap_reports_its_residual(self, tmp_path, iterations_capped):
        m = run_solve(2, M=40.0, n_r=32, n_phi=32, eps_min=0.1, out_dir=tmp_path)
        assert m.status == "solver_failure"
        stored = json.loads((tmp_path / "manifest.json").read_text())
        assert stored["failure"]["iterations"] == 1
        assert stored["failure"]["residual"] > semilinear.NEWTON_TOL
        assert stored["failure"]["reason"] == "iteration cap reached"


class TestDefaultPhiRadii:
    def test_ladder_steps_four_cells_up_to_256(self):
        for n_r in (64, 128, 256):
            step = 4.0 / n_r
            expected = [0.25 + n * step for n in range(int(0.55 / step + 1e-9) + 1)]
            assert _default_phi_radii(n_r) == expected

    def test_fine_radial_grids_keep_the_256_ladder(self):
        assert len(_default_phi_radii(256)) == 36
        for n_r in (512, 65536):
            assert _default_phi_radii(n_r) == _default_phi_radii(256)


class TestCrossTrendWindow:
    def test_ladder_missing_0_75_falls_back_to_the_whole_profile(self, tmp_path):
        # at n_r = 100 the phi ladder steps by 0.04 from 0.25: 0.73, 0.77, no 0.75
        m = run_cross(40.0, 100, 64, 0.025, out_dir=tmp_path)
        radii, values = m.headline["phi_radii"], m.headline["phi_values"]
        assert min(abs(r - 0.75) for r in radii) > 0.01
        assert m.status == "ok" and len(m.checks) == 7
        tol = max(0.02 * abs(values[-1] - values[0]), 1e-3)
        detail = next(c["detail"] for c in m.checks if c["name"] == "phi_nondecreasing")
        assert detail.endswith(f"tolerance {tol:.3e}")


class TestRadiiValidation:
    @pytest.fixture
    def no_solve(self, monkeypatch):
        def unexpected_solve(*args, **kwargs):
            raise AssertionError("solve_fixed_point called with bad radii")

        monkeypatch.setattr(cli, "solve_fixed_point", unexpected_solve)

    @pytest.mark.parametrize("driver", [
        lambda out: run_cross(40.0, 16, 16, out_dir=out),
        lambda out: run_asterisk(16, 16, out_dir=out),
    ], ids=["cross", "asterisk"])
    def test_constant_radii_outside_a_coarse_window_rejected_before_the_solve(
            self, tmp_path, no_solve, driver):
        # dr = 1/16 puts the smallest blow-up and arc radius, 0.05, below the window
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="radius 0.05 outside the valid window"):
            driver(out)
        assert not out.exists()


RECORDED_RUNS = {
    "cross": lambda out: run_cross(40.0, out_dir=out, **COARSE),
    "asterisk": lambda out: run_asterisk(out_dir=out, **COARSE),
    "scan": lambda out: run_threshold_scan([0.0, 2.0, 4.0], 0.5, out, n_r=128, n_phi=128),
}


# parameter keys, in order, and content hashes of runs that the drivers wrote
# while newton_tol, phi_radii and mc_samples were still options; a recorded
# constant keeps its key, its place and its value, so the hash holds.  The
# solver records no eps_start since it solves at eps_min alone, which changed
# the hashes of solve, cross and asterisk once
PINNED = {
    "solve": (lambda out: run_solve(2, M=40.0, out_dir=out, **COARSE),
              ["k", "M", "n_r", "n_phi", "eps_min", "newton_tol"],
              "09963a6a96a395760d9e74cfef806dde78e44aec710d5aebc2a86bcc401181ef"),
    "cross": (RECORDED_RUNS["cross"],
              ["k", "M", "n_r", "n_phi", "eps_min", "newton_tol", "phi_radii",
               "blowup_radii", "arc_radii", "trace_samples"],
              "4bd740cab83a16260bef1d5df9c971ad0190decb9af7e6d1be5fc265a2a52f68"),
    "asterisk": (RECORDED_RUNS["asterisk"],
                 ["k", "n_r", "n_phi", "eps_min", "newton_tol", "phi_radii",
                  "blowup_radii", "invariance_radii", "trace_samples"],
                 "db7f52dd673fef191961ea239d9fdb5587bafdaa96d5764b7410770e81199640"),
    "scan": (lambda out: run_threshold_scan([0.0, 2.0, 4.0], 0.5, out, n_r=64, n_phi=64),
             ["M_values", "C1", "n_r", "n_phi", "mc_samples", "mc_seed", "bisect_tol"],
             "dad1cead7a7b6c630e1c518ec9666cb13bb67870a0e442dfcca7cef9934dda9d"),
}


@pytest.mark.parametrize("experiment", PINNED)
def test_recorded_parameters_and_hash_are_pinned(experiment, tmp_path):
    run, keys, content_hash = PINNED[experiment]
    m = run(tmp_path)
    assert list(m.parameters) == keys
    assert m.content_hash == content_hash


# the package's public names; widening the API takes an edit here
PUBLIC_API = [
    "CASE1", "CASE3", "DegenerateTrace", "INCONCLUSIVE", "LevelSet", "PolarGrid",
    "RunManifest", "ScalarField", "Solution", "StageFailed", "__version__", "assemble",
    "blowup_report", "build_sector_grid", "energy_bound_integral", "eval_origin",
    "export_solution", "extract_zero_set", "find_threshold", "fit_arcs_at_origin",
    "initial_guess", "main", "mc_energy_bound", "newton_stage", "phi_profile",
    "radial_derivative", "read_field", "read_field_csv", "rerun_manifest", "run_asterisk",
    "run_cross", "run_solve", "run_threshold_scan", "solve_fixed_point", "threshold_scan",
    "write_arcs_json", "write_blowup_csv", "write_field_vtk", "write_levelset_csv",
]


def test_no_analysis_copies_the_field_to_the_disk(monkeypatch, tmp_path):
    """With mesh.reflect_to_disk raising wherever the package binds it, both
    experiments and the fb command still run: each analysis reads the sector."""
    original = unstablefb.mesh.reflect_to_disk

    def refuse(field):
        raise AssertionError("an analysis copied the field to the disk")

    for name, mod in list(sys.modules.items()):
        if name == "unstablefb" or name.startswith("unstablefb."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, refuse)
    assert unstablefb.mesh.reflect_to_disk is refuse
    for driver in (run_cross, run_asterisk):
        m = driver(n_r=64, n_phi=64, out_dir=tmp_path / driver.__name__)
        assert m.status != "solver_failure" and "fb.csv" in m.outputs
    assert main(["fb", str(tmp_path / "run_cross" / "solution.vtk"),
                 "--out", str(tmp_path / "fb")]) == cli.EXIT_OK
    assert (tmp_path / "fb" / "fb.csv").read_bytes() == \
        (tmp_path / "run_cross" / "fb.csv").read_bytes()


def test_public_api_is_pinned():
    assert sorted(unstablefb.__all__) == PUBLIC_API
    assert all(hasattr(unstablefb, name) for name in PUBLIC_API)


def test_every_public_name_is_used_in_the_package():
    """Each public name but the dunders is loaded by name, or imported, in a
    module of the package other than __init__.py, outside its own
    definition: the API holds no name that only tests or the benchmark reach."""
    used = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in inside:
            used.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for path in sorted(Path(unstablefb.__file__).parent.glob("*.py")):
        if path.name != "__init__.py":
            visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    assert [n for n in unstablefb.__all__ if not n.startswith("__") and n not in used] == []


class TestRerun:
    @pytest.mark.parametrize("experiment", ["cross", "asterisk", "scan", "solve"])
    def test_headline_is_bit_stable(self, experiment, solve_run, tmp_path):
        if experiment == "solve":
            out, m = solve_run
        else:
            out = tmp_path / "recorded"
            m = RECORDED_RUNS[experiment](out)
        fresh, same = rerun_manifest(out / "manifest.json", tmp_path / "replay")
        assert same
        assert fresh.experiment == experiment
        assert fresh.headline == m.headline
        assert fresh.parameters == m.parameters
        assert fresh.content_hash == m.content_hash

    def test_identical_replay_of_failing_run_exits_0(self, tmp_path, capsys, monkeypatch):
        # one Monte-Carlo sample cannot agree with the quadrature, so the run
        # fails a check; the replay reproduces it, which is all rerun reports
        monkeypatch.setattr(cli, "MC_SAMPLES", 1)
        recorded = tmp_path / "recorded"
        m = run_threshold_scan([0.0, 4.0], 0.5, recorded, n_r=64, n_phi=64)
        assert m.exit_code == 4
        assert [c["name"] for c in m.checks if not c["passed"]] == ["monte_carlo_agreement"]
        code = main(["rerun", str(recorded / "manifest.json"),
                     "--out", str(tmp_path / "replay")])
        printed = capsys.readouterr().out
        assert code == 0
        assert "headline comparison: identical" in printed
        assert "[FAIL] monte_carlo_agreement" in printed

    def test_unknown_parameter_keys_are_ignored(self, solve_run, tmp_path):
        # manifests written while the solver had a backend option or an
        # eps_ratio parameter carry them
        out, m = solve_run
        raw = json.loads((out / "manifest.json").read_text())
        raw["parameters"].update(backend="direct", eps_ratio=0.5)
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(raw))
        fresh, same = rerun_manifest(path, tmp_path / "replay")
        assert same
        assert fresh.content_hash == m.content_hash

    def test_unknown_experiment_rejected(self, tmp_path):
        bad = {"experiment": "mystery", "parameters": {}, "content_hash": "0" * 64,
               "outputs": [], "headline": {}, "checks": [], "status": "ok",
               "failure": None, "runtime_seconds": 0.0}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ValueError):
            rerun_manifest(path, tmp_path / "out")

    def test_unknown_top_level_keys_are_ignored(self, solve_run, tmp_path):
        out, m = solve_run
        raw = json.loads((out / "manifest.json").read_text())
        raw.update(exit_code=0, written_by="an older version")
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(raw))
        assert RunManifest.load(path) == RunManifest.load(out / "manifest.json")
        fresh, same = rerun_manifest(path, tmp_path / "replay")
        assert same

    @pytest.mark.parametrize("content", [
        {}, [1, 2], "manifest", None,
        {"experiment": "solve", "parameters": {}},
        {"experiment": ["solve"], "parameters": {}, "content_hash": "", "outputs": [],
         "headline": {}, "checks": [], "status": "ok"},
        {"experiment": "solve", "parameters": [1], "content_hash": "", "outputs": [],
         "headline": {}, "checks": [], "status": "ok"},
    ], ids=["empty", "list", "string", "null", "missing-keys", "experiment-list",
            "parameters-list"])
    def test_malformed_manifest_exits_2_and_writes_nothing(self, tmp_path, capsys, content):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(content))
        replay = tmp_path / "replay"
        assert main(["rerun", str(path), "--out", str(replay)]) == 2
        err = capsys.readouterr().err
        assert "f.json is not a run manifest" in err
        assert not replay.exists()


    @pytest.mark.parametrize("key, value", [
        ("n_r", [64]), ("M", "40"), ("eps_min", None), ("k", True), ("n_phi", {}),
    ])
    def test_parameter_of_wrong_type_exits_2_naming_it(self, solve_run, tmp_path, capsys,
                                                       key, value):
        out, _ = solve_run
        raw = json.loads((out / "manifest.json").read_text())
        raw["parameters"][key] = value
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(raw))
        replay = tmp_path / "replay"
        assert main(["rerun", str(path), "--out", str(replay)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"parameter {key} must be" in err
        assert not replay.exists()


    @pytest.mark.parametrize("key, value", [("n_r", 64.5), ("n_phi", 63.9999), ("k", 2.5),
                                            ("n_r", float("inf"))])
    def test_fractional_integer_parameter_exits_2_naming_it(self, solve_run, tmp_path,
                                                            capsys, key, value):
        out, _ = solve_run
        raw = json.loads((out / "manifest.json").read_text())
        raw["parameters"][key] = value
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(raw))
        replay = tmp_path / "replay"
        assert main(["rerun", str(path), "--out", str(replay)]) == 2
        assert f"error: parameter {key} must be an integer" in capsys.readouterr().err
        assert not replay.exists()

    @pytest.mark.parametrize("experiment, key", [("scan", "M_values"), ("solve", "k")])
    def test_missing_required_parameter_exits_2_naming_it(self, solve_run, tmp_path, capsys,
                                                          experiment, key):
        if experiment == "solve":
            out, _ = solve_run
        else:
            out = tmp_path / "recorded"
            run_threshold_scan([0.0, 4.0], 0.5, out, n_r=64, n_phi=64)
        raw = json.loads((out / "manifest.json").read_text())
        del raw["parameters"][key]
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(raw))
        replay = tmp_path / "replay"
        assert main(["rerun", str(path), "--out", str(replay)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"required parameter(s) {key}" in err
        assert not replay.exists()

    def test_stored_out_dir_is_ignored(self, solve_run, tmp_path):
        out, m = solve_run
        raw = json.loads((out / "manifest.json").read_text())
        stored = tmp_path / "stored"
        raw["parameters"]["out_dir"] = str(stored)
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(raw))
        fresh, same = rerun_manifest(path, tmp_path / "replay")
        assert same
        assert fresh.content_hash == m.content_hash
        assert (tmp_path / "replay" / "manifest.json").exists()
        assert not stored.exists()

    def test_integral_float_parameters_replay_identically(self, solve_run, tmp_path):
        out, m = solve_run
        raw = json.loads((out / "manifest.json").read_text())
        raw["parameters"].update(n_r=64.0, n_phi=64.0, k=2.0)
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(raw))
        fresh, same = rerun_manifest(path, tmp_path / "replay")
        assert same
        assert fresh.parameters == m.parameters


class TestIntegerParameters:
    @pytest.mark.parametrize("key", ["n_r", "n_phi"])
    def test_solve_rejects_a_fractional_grid_size(self, tmp_path, key):
        grid = {"n_r": 32, "n_phi": 32, key: 32.7}
        with pytest.raises(ValueError, match=f"parameter {key} must be an integer, got 32.7"):
            run_solve(2, 40.0, eps_min=0.1, out_dir=tmp_path, **grid)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("key, value", [("mc_seed", 0.25), ("n_r", 64.1),
                                            ("n_phi", float("nan"))])
    def test_scan_rejects_a_fractional_integer(self, tmp_path, key, value):
        settings = {"n_r": 64, "n_phi": 64, key: value}
        with pytest.raises(ValueError, match=f"parameter {key} must be an integer"):
            run_threshold_scan([0.0, 4.0], 0.5, tmp_path, **settings)
        assert not any(tmp_path.iterdir())

    def test_integral_floats_are_accepted_as_integers(self, tmp_path):
        m = run_solve(2.0, 40.0, n_r=32.0, n_phi=32.0, eps_min=0.1, out_dir=tmp_path)
        assert m.status == "ok"
        assert (m.parameters["k"], m.parameters["n_r"], m.parameters["n_phi"]) == (2, 32, 32)
        assert all(type(m.parameters[key]) is int for key in ("k", "n_r", "n_phi"))


class TestNonFiniteParameters:
    INF, NAN = float("inf"), float("nan")

    @pytest.mark.parametrize("driver, key, value", [
        (run_threshold_scan, "C1", INF), (run_asterisk, "eps_min", INF),
        (run_threshold_scan, "M_values", [0.0, NAN]), (run_solve, "M", NAN),
        (run_solve, "eps_min", -INF), (run_cross, "M", NAN),
        pytest.param(run_solve, "M", 10**400, id="run_solve-M-int_beyond_float"),
        pytest.param(run_threshold_scan, "mc_seed", 10**400,
                     id="run_threshold_scan-mc_seed-int_beyond_float"),
    ])
    def test_rejected_before_writing(self, tmp_path, driver, key, value):
        required = {run_threshold_scan: {"M_values": [0.0, 4.0]}, run_solve: {"k": 2}}
        args = {**required.get(driver, {}), key: value}
        with pytest.raises(ValueError, match=f"parameter {key} must be"):
            driver(out_dir=tmp_path / "out", n_r=64, n_phi=64, **args)
        assert not (tmp_path / "out").exists()

    def test_cli_exits_2_naming_it(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["solve", "--k", "2", "--M", "nan", "--out", str(out)]) == 2
        assert "error: parameter M must be finite, got nan" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", [INF, 10**400], ids=["inf", "int_beyond_float"])
    def test_rerun_exits_2_naming_it(self, solve_run, tmp_path, capsys, value):
        out, _ = solve_run
        raw = json.loads((out / "manifest.json").read_text())
        raw["parameters"]["M"] = value
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(raw))
        replay = tmp_path / "replay"
        assert main(["rerun", str(path), "--out", str(replay)]) == 2
        assert f"error: parameter M must be finite, got {value!r}" in capsys.readouterr().err
        assert not replay.exists()


class TestRejectedBeforeWriting:
    """Parameters that the grid, the width bound or the analysis window
    reject, and an output path that is a file, exit 2 before anything is
    written."""

    CASES = {
        "eps_min_above_eps_max": ("solve", {"eps_min": 0.5}),
        "grid_below_8_cells": ("solve", {"n_r": 4}),
        "eps_min_not_positive": ("solve", {"eps_min": 0.0}),
        "eps_min_negative": ("solve", {"eps_min": -0.1}),
        "cross_eps_min_above_eps_max": ("cross", {"eps_min": 0.5}),
        # dr = 1/16 puts the constant blow-up and arc radius 0.05 below the window
        "radius_outside_window": ("cross", {"n_r": 16, "n_phi": 16}),
        "M_not_positive": ("cross", {"M": 0.0}),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_driver(self, tmp_path, case):
        experiment, bad = self.CASES[case]
        args = {**COARSE, **({"k": 2} if experiment == "solve" else {}), **bad}
        with pytest.raises(ValueError):
            cli.EXPERIMENTS[experiment](out_dir=tmp_path / "out", **args)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", CASES)
    def test_rerun(self, solve_run, tmp_path, capsys, case):
        experiment, bad = self.CASES[case]
        out, _ = solve_run
        raw = json.loads((out / "manifest.json").read_text())
        raw["experiment"] = experiment
        raw["parameters"].update(bad)
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(raw))
        replay = tmp_path / "replay"
        assert main(["rerun", str(path), "--out", str(replay)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not replay.exists()

    def test_cli(self, tmp_path, capsys):
        for argv, message in [
            (["solve", "--k", "2", "--eps-min", "0.5"], "eps_min <= eps_max = 0.2"),
            (["cross", "--M", "-1"], "M must be positive, got -1.0"),
        ]:
            out = tmp_path / argv[0]
            assert main([*argv, "--out", str(out)]) == 2
            assert message in capsys.readouterr().err
            assert not out.exists()

    def test_output_path_that_is_a_file(self, tmp_path, capsys, monkeypatch):
        def unexpected_solve(*args, **kwargs):
            raise AssertionError("solve_fixed_point called with an unusable output path")

        monkeypatch.setattr(cli, "solve_fixed_point", unexpected_solve)
        out = tmp_path / "X"
        out.write_text("kept")
        assert main(["solve", "--k", "2", "--out", str(out)]) == 2
        assert "is not a directory" in capsys.readouterr().err
        assert out.read_text() == "kept"


class TestThreadSettings:
    def test_recorded_outside_parameters_and_headline(self, solve_run):
        out, m = solve_run
        raw = json.loads((out / "manifest.json").read_text())
        assert cli.THREAD_VARS == ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                   "MKL_NUM_THREADS")
        assert raw["threads"] == [os.environ.get(var) for var in cli.THREAD_VARS]
        assert not set(cli.THREAD_VARS) & (set(m.parameters) | set(m.headline))

    def test_other_settings_keep_hash_and_comparison(self, solve_run, tmp_path, monkeypatch):
        # the pool of a loaded BLAS keeps its size, so the replay is unchanged
        out, m = solve_run
        monkeypatch.setenv("MKL_NUM_THREADS", "3")
        fresh, same = rerun_manifest(out / "manifest.json", tmp_path / "replay")
        assert same
        assert fresh.content_hash == m.content_hash
        assert fresh.threads[2] == "3"

    @pytest.mark.parametrize("threads, noted", [
        (["64", None, None], True),
        ("current", False),
        (None, False),
    ], ids=["other", "same", "unrecorded"])
    def test_differs_names_other_thread_settings(self, solve_run, tmp_path, capsys,
                                                 threads, noted):
        out, _ = solve_run
        raw = json.loads((out / "manifest.json").read_text())
        raw["headline"]["kappa"] += 1e-9
        if threads is None:
            del raw["threads"]
        elif threads != "current":
            raw["threads"] = threads
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(raw))
        assert main(["rerun", str(path), "--out", str(tmp_path / "replay")]) == 4
        printed = capsys.readouterr().out
        assert "DIFFERS" in printed
        assert ("thread settings" in printed) == noted
        # the solver has no Krylov solve; its norms and least squares use BLAS
        assert "Krylov" not in printed
        assert ("norms and Anderson least squares" in printed) == noted


class TestScanDriver:
    def test_small_scan(self, tmp_path):
        m = run_threshold_scan([0.0, 2.0, 4.0], 0.5, tmp_path, n_r=256, n_phi=256)
        assert m.status == "ok"
        assert (tmp_path / "threshold_scan.csv").exists()
        header = (tmp_path / "threshold_scan.csv").read_text().splitlines()[0]
        assert header == "M,energy_bound"
        assert m.headline["m_star"] is not None
        assert 1.5 < m.headline["m_star"] < 2.5

    @pytest.mark.parametrize("bad", [{"mc_seed": -1}, {"C1": 0.0}, {"M_values": []}])
    def test_bad_settings_rejected_before_writing(self, tmp_path, bad):
        args = {"M_values": [0.0, 4.0], "C1": 0.5, **bad}
        with pytest.raises(ValueError):
            run_threshold_scan(out_dir=tmp_path, n_r=64, n_phi=64, **args)
        assert not any(tmp_path.iterdir())

    def test_negative_mc_seed_exits_2_without_artifacts(self, tmp_path, capsys):
        out = tmp_path / "scan"
        code = main(["scan", "--M-list", "0,4", "--mc-seed", "-1", "--nr", "64",
                     "--nphi", "64", "--out", str(out)])
        assert code == 2
        assert "error: mc_seed must be nonnegative, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_rerun_with_negative_mc_seed_exits_2(self, tmp_path):
        recorded = tmp_path / "recorded"
        run_threshold_scan([0.0, 4.0], 0.5, recorded, n_r=64, n_phi=64)
        raw = json.loads((recorded / "manifest.json").read_text())
        raw["parameters"]["mc_seed"] = -1
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(raw))
        replay = tmp_path / "replay"
        assert main(["rerun", str(path), "--out", str(replay)]) == 2
        assert not replay.exists()

    @pytest.mark.parametrize("key, value", [("M_values", 3), ("M_values", [0, "4"]),
                                            ("mc_seed", "many"), ("C1", [0.5])])
    def test_rerun_with_parameter_of_wrong_type_exits_2(self, tmp_path, capsys, key, value):
        recorded = tmp_path / "recorded"
        run_threshold_scan([0.0, 4.0], 0.5, recorded, n_r=64, n_phi=64)
        raw = json.loads((recorded / "manifest.json").read_text())
        raw["parameters"][key] = value
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(raw))
        replay = tmp_path / "replay"
        assert main(["rerun", str(path), "--out", str(replay)]) == 2
        assert f"error: parameter {key} must be" in capsys.readouterr().err
        assert not replay.exists()

    def test_all_positive_scan_has_no_threshold(self, tmp_path):
        m = run_threshold_scan([0.0, 0.5], 0.5, tmp_path, n_r=256, n_phi=256)
        assert m.headline["m_star"] is None
        # |M| <= C1 leaves no excess, so both estimates are pi*C1^2 exactly
        for row in m.headline["monte_carlo"]:
            assert row["monte_carlo"] == row["quadrature"]
        # a short positive scan cannot show the negative tail; the check
        # machinery must not demand one below the 4*C1 landmark
        assert m.status == "ok"

    # a set iterates {7.0, 8.0} as [8.0, 7.0]; the rows follow the scan's order
    @pytest.mark.parametrize("Ms", [[0.0, 2.0, 4.0], [7.0, 8.0]])
    def test_both_endpoints_come_from_one_monte_carlo_call(self, tmp_path, monkeypatch, Ms):
        calls, estimate = [], cli.mc_energy_bound

        def counting(M, *args, **kwargs):
            calls.append(np.asarray(M).tolist())
            return estimate(M, *args, **kwargs)

        monkeypatch.setattr(cli, "mc_energy_bound", counting)
        m = run_threshold_scan(Ms, 0.5, tmp_path, n_r=64, n_phi=64)
        assert len(calls) == 1
        assert calls[0] == [Ms[0], Ms[-1]]
        assert [row["M"] for row in m.headline["monte_carlo"]] == calls[0]

    def test_one_amplitude_gives_one_monte_carlo_row(self, tmp_path):
        m = run_threshold_scan([2.5], 0.5, tmp_path, n_r=64, n_phi=64)
        rows = m.headline["monte_carlo"]
        assert len(rows) == 1 and rows[0]["M"] == 2.5
        assert type(rows[0]["monte_carlo"]) is float


class TestConsoleEntry:
    def test_solve_command(self, tmp_path, capsys):
        code = main(["solve", "--k", "2", "--M", "40", "--nr", "64",
                     "--nphi", "64", "--eps-min", "0.05",
                     "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "[pass] converged" in out
        assert "status: ok" in out

    def test_field_analysis_commands(self, tmp_path, capsys, solve_run):
        run_dir, _ = solve_run
        vtk = str(run_dir / "solution.vtk")
        assert main(["phi", vtk, "--out", str(tmp_path / "prof.csv")]) == 0
        assert main(["blowup", vtk, "--radii", "0.1,0.2,0.3",
                     "--out", str(tmp_path / "blow.csv")]) == 0
        assert main(["fb", vtk, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "prof.csv").exists()
        assert (tmp_path / "blow.csv").exists()
        assert (tmp_path / "fb.csv").exists()

    def test_vtk_and_csv_of_one_field_give_identical_analyses(self, tmp_path, capsys,
                                                              solve_run):
        run_dir, _ = solve_run
        vtk = run_dir / "solution.vtk"
        csv = tmp_path / "solution.csv"
        write_field_csv(read_field(vtk), csv)
        for source in (vtk, csv):
            out = tmp_path / source.suffix[1:]
            out.mkdir()
            assert main(["phi", str(source), "--out", str(out / "phi_profile.csv")]) == 0
            assert main(["blowup", str(source), "--out", str(out / "blowup.csv")]) == 0
            assert main(["fb", str(source), "--out", str(out)]) == 0
        for name in ("phi_profile.csv", "blowup.csv", "fb.csv", "arcs.json"):
            assert (tmp_path / "vtk" / name).read_bytes() == (tmp_path / "csv" / name).read_bytes()

    @pytest.mark.parametrize("command", ["phi", "blowup", "fb"])
    @pytest.mark.parametrize("defect", VTK_DEFECTS)
    def test_malformed_vtk_is_usage_error(self, tmp_path, capsys, command, defect):
        path = malformed_vtk(tmp_path, defect)
        assert main([command, str(path), "--out", str(tmp_path / "out")]) == 2
        assert str(path) in capsys.readouterr().err

    def test_python_dash_m_runs_the_command_line(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-m", "unstablefb", "--help"], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: unstablefb")

    def test_fb_records_a_failed_arc_fit_in_arcs_json(self, tmp_path, capsys):
        # positive everywhere, so the zero set misses every arc radius
        csv = tmp_path / "positive.csv"
        write_field_csv(field_from_function(build_sector_grid(2, 64, 64),
                                            lambda r, p: 1.0 + r**2), csv)
        assert main(["fb", str(csv), "--out", str(tmp_path / "fb")]) == 0
        arcs = json.loads((tmp_path / "fb" / "arcs.json").read_text())
        assert arcs["limit_angles_deg"] == []
        assert "no zero crossings" in arcs["note"]
        assert "arc fit failed" in capsys.readouterr().out

    def test_solve_without_M_records_the_driver_default(self, tmp_path, capsys):
        code = main(["solve", "--k", "2", "--nr", "32", "--nphi", "32",
                     "--eps-min", "0.1", "--out", str(tmp_path)])
        assert code == 0
        stored = RunManifest.load(tmp_path / "manifest.json")
        assert stored.parameters["M"] == inspect.signature(run_solve).parameters["M"].default

    @pytest.mark.parametrize("argv, given", [
        (["cross"], {}),
        (["asterisk"], {}),
        (["scan", "--M-list", "0,4"], {"M_values": [0.0, 4.0]}),
        (["solve", "--k", "3"], {"k": 3}),
    ], ids=["cross", "asterisk", "scan", "solve"])
    def test_unset_flags_fall_through_to_the_driver(self, argv, given):
        assert vars(_build_parser().parse_args(argv)) == {"command": argv[0], **given}

    @pytest.mark.parametrize("experiment", sorted(cli.EXPERIMENTS))
    def test_every_driver_keyword_is_a_flag(self, experiment):
        # an option that only Python can set has no caller outside the tests:
        # a recorded value of its own belongs in p as a constant
        sub = next(a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        dests = {action.dest for action in sub.choices[experiment]._actions}
        keywords = inspect.signature(cli.EXPERIMENTS[experiment]).parameters
        assert sorted(set(keywords) - dests) == []

    def test_bad_radii_exit_2_without_artifacts(self, tmp_path):
        # dr = 1/16 puts the constant blow-up and arc radius 0.05 below the window
        code = main(["cross", "--nr", "16", "--nphi", "16", "--eps-min", "0.05",
                     "--out", str(tmp_path)])
        assert code == 2
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["phi", "blowup", "fb"])
    # the solve is 64^2, so 0.015625 is dr, the open inner end of the window
    @pytest.mark.parametrize("radii", ["5,6", "0.015625,0.3", "0.3", "", "0.1,nan"],
                             ids=["outside_window", "r_is_dr", "one_radius", "empty", "nan"])
    def test_bad_field_radii_exit_2_without_output(self, tmp_path, capsys, solve_run,
                                                   command, radii):
        run_dir, _ = solve_run
        out = tmp_path / "out"
        assert main([command, str(run_dir / "solution.vtk"), "--radii", radii,
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @staticmethod
    def _malformed_csv(tmp_path, edit) -> str:
        """A 64 x 64 disk field CSV with its rows passed through edit."""
        rr, pp = PolarGrid(64, 64).mesh_coords()
        rows = np.column_stack([rr.ravel(), pp.ravel(), (rr**2 * np.cos(2 * pp)).ravel()])
        path = tmp_path / "outside.csv"
        np.savetxt(path, edit(rows), delimiter=",", header="r,phi,value", comments="",
                   fmt="%.17g")
        return str(path)

    @pytest.mark.parametrize("command", ["phi", "blowup", "fb"])
    def test_single_phi_node_is_usage_error(self, tmp_path, capsys, command):
        csv = self._malformed_csv(tmp_path, lambda rows: rows[rows[:, 1] == rows[0, 1]])
        assert main([command, csv, "--out", str(tmp_path / "out")]) == 2
        assert "outside.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["phi", "blowup", "fb"])
    def test_moved_phi_node_is_usage_error(self, tmp_path, capsys, command):
        def move(rows):
            rows[rows[:, 1] == np.unique(rows[:, 1])[5], 1] += 0.05
            return rows

        csv = self._malformed_csv(tmp_path, move)
        assert main([command, csv, "--out", str(tmp_path / "out")]) == 2
        assert "outside.csv" in capsys.readouterr().err

    def test_rerun_command(self, tmp_path, capsys, solve_run):
        run_dir, _ = solve_run
        code = main(["rerun", str(run_dir / "manifest.json"),
                     "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "identical" in out

    def test_missing_field_file_is_usage_error(self, tmp_path):
        assert main(["phi", str(tmp_path / "absent.csv")]) == 2

    @pytest.mark.parametrize("text", ["r,phi,value\n", "", "r,phi,value\n\n# none\n"],
                             ids=["header_only", "empty", "blank_and_comment"])
    def test_field_csv_without_data_rows_is_usage_error_before_numpy_warns(
            self, tmp_path, capsys, text):
        path = tmp_path / "h.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["phi", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}: no data rows under the header r,phi,value\n"

    @pytest.mark.parametrize("command", ["phi", "blowup", "fb"])
    def test_directory_as_field_is_usage_error(self, tmp_path, capsys, command):
        field_dir = tmp_path / "a_run"
        field_dir.mkdir()
        out = tmp_path / "out"
        assert main([command, str(field_dir), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(field_dir) in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_vanishing_trace_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # an all-zero field has S(r) = 0, so the trace at r = 0.05 cannot be normalized
        grid = build_sector_grid(2, 64, 64)
        field = tmp_path / "solution.vtk"
        write_field_vtk(field_from_function(grid, lambda r, p: 0.0 * r), field)
        monkeypatch.chdir(tmp_path)
        assert main(["blowup", str(field)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "S(0.05)" in err
        assert "Traceback" not in err
        assert not (tmp_path / "blowup.csv").exists()

    def test_bad_arguments_exit_2(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2
        # the eps ladder's ratio, an option of older versions, is none now
        with pytest.raises(SystemExit) as info:
            main(["solve", "--k", "2", "--eps-ratio", "0.5"])
        assert info.value.code == 2

    @pytest.mark.parametrize("argv, option", [
        (["scan", "--M-list", "1,x"], "--M-list"),
        (["phi", "solution.vtk", "--radii", "0.3,,y"], "--radii"),
    ])
    def test_bad_number_list_names_option(self, capsys, argv, option):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {option}: expected a comma-separated list of numbers" in err
        assert "radii list" not in err
