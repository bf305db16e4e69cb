"""Command line driver for reproducible experiments and standalone analyses.

Each experiment writes every artifact it produced plus a JSON manifest that
records all parameters (defaults included), a content hash of the inputs,
the headline numbers, the outcome of each built-in check and the BLAS
thread settings it ran under.  A manifest is written even when the solver
fails, and `rerun` replays any manifest and compares the fresh headline
numbers against the recorded ones.

Exit codes: 0 success, 2 bad parameters, 3 solver failure, 4 a check
failed.  `rerun` answers only whether the replay reproduced the record: 0
when the headline is bit-identical, whatever the replay's own checks say
(it prints them), and 4 when it DIFFERS.
"""
from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import math
import numbers
import os
import sys
import time
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from .blowup import CASE1, CASE3, TRACE_SAMPLES, blowup_report, write_blowup_csv
from .field import check_radii, eval_origin, radial_derivative, read_field, write_json, write_table
from .freeboundary import (
    _crossing_angles,
    extract_zero_set,
    fit_arcs_at_origin,
    write_arcs_json,
    write_levelset_csv,
)
from .mesh import build_sector_grid
from .monotonicity import (
    find_threshold,
    mc_energy_bound,
    phi_profile,
    threshold_scan,
    write_profile_csv,
)
from .semilinear import NEWTON_TOL, StageFailed, export_solution, solve_fixed_point

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SOLVER = 3
EXIT_CHECKS = 4

# BLAS/OpenMP pool sizes: BLAS may split the solver's norms and least
# squares by thread, so a replay is bit-identical only under the settings
# the run was made with.  The manifest stores their values as a list in
# this order (None if unset): keyed by name they would grow a scan manifest
# by 6 % instead of 3 %.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


# --- manifest plumbing ---------------------------------------------------


def _thread_settings() -> list:
    return [os.environ.get(var) for var in THREAD_VARS]


def _content_hash(experiment: str, parameters: dict) -> str:
    blob = json.dumps({"experiment": experiment, "parameters": parameters},
                      sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


@dataclass
class RunManifest:
    """Everything needed to replay a run and audit its outcome."""

    experiment: str
    parameters: dict
    content_hash: str
    outputs: list
    headline: dict
    checks: list
    status: str  # "ok" | "check_failure" | "solver_failure"
    failure: dict | None = None
    runtime_seconds: float | None = None
    # values of THREAD_VARS (None if unset); not part of the hash or the replay
    threads: list | None = None

    @property
    def exit_code(self) -> int:
        return {"ok": EXIT_OK, "check_failure": EXIT_CHECKS}.get(self.status, EXIT_SOLVER)

    def write(self, out_dir) -> Path:
        """Write manifest.json unconverted: parameters are plain Python (`_number`), and
        a headline np.float64 is a float, which json writes through float.__repr__."""
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        path = Path(out_dir) / "manifest.json"
        write_json(path, vars(self))
        return path

    @staticmethod
    def load(path) -> "RunManifest":
        """Read a manifest; keys it does not know are ignored.

        ValueError names the file unless it holds a JSON object with every
        required key, a string experiment and an object of parameters.
        """
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        names = [f.name for f in fields(RunManifest)]
        required = [f.name for f in fields(RunManifest) if f.default is MISSING]
        if not (isinstance(raw, dict) and all(name in raw for name in required)
                and isinstance(raw["experiment"], str) and isinstance(raw["parameters"], dict)):
            raise ValueError(f"{path} is not a run manifest: expected a JSON object with "
                             f"the keys {', '.join(required)}")
        return RunManifest(**{name: raw[name] for name in names if name in raw})


class _Checks:
    """Accumulates named pass/fail records for the manifest."""

    def __init__(self):
        self.records = []

    def add(self, name: str, passed: bool, detail: str) -> None:
        self.records.append({"name": name, "passed": bool(passed), "detail": detail})


def _print_checks(manifest: RunManifest) -> None:
    for rec in manifest.checks:
        mark = "pass" if rec["passed"] else "FAIL"
        print(f"  [{mark}] {rec['name']}: {rec['detail']}")
    print(f"status: {manifest.status}")


# --- shared experiment scaffolding ---------------------------------------


def _default_phi_radii(n_r: int) -> list:
    """Sampling ladder 0.25 .. 0.8 for the monotonicity profile, tied to the grid step.

    Four radial cells apart, but no closer than 1/64: finer radial grids
    keep the 36-radius ladder of n_r = 256.
    """
    step = max(4.0 / n_r, 1.0 / 64.0)
    return [0.25 + n * step for n in range(int((0.8 - 0.25) / step + 1e-9) + 1)]


# constants that each manifest records and a replay does not read, as it does
# semilinear.NEWTON_TOL and the phi radii _default_phi_radii(n_r);
# other radii go through the --radii of `phi`, `blowup` and `fb` on solution.vtk
DEFAULT_BLOWUP_RADII = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3]
DEFAULT_ARC_RADII = [0.05 + 0.025 * n for n in range(11)]  # 0.05 .. 0.30
BISECT_TOL = 1e-6
MC_SAMPLES = 1_000_000


def _number(name: str, value, kind=float):
    """kind(value); ValueError naming the parameter unless value is a finite
    real number, and for kind int one without a fractional part (64.0 passes)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"parameter {name} must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"parameter {name} must be finite, got {value!r}") from None
    if kind is int and not (finite and value == int(value)):
        raise ValueError(f"parameter {name} must be an integer, got {value!r}")
    if not finite:
        raise ValueError(f"parameter {name} must be finite, got {value!r}")
    return kind(value)


def _numbers(name: str, values) -> list:
    """list(values); ValueError naming the parameter unless it is a list of
    finite real numbers."""
    try:
        values = list(values)
        for v in values:
            _number(name, v)
    except (TypeError, ValueError):
        raise ValueError(f"parameter {name} must be a list of numbers, got {values!r}") from None
    return values


def _solver_params(n_r, n_phi, eps_min) -> dict:
    return {"n_r": _number("n_r", n_r, int), "n_phi": _number("n_phi", n_phi, int),
            "eps_min": _number("eps_min", eps_min), "newton_tol": NEWTON_TOL}


def _radii_params(n_r) -> dict:
    return {"phi_radii": _default_phi_radii(n_r), "blowup_radii": list(DEFAULT_BLOWUP_RADII)}


def _run(experiment: str, p: dict, out_dir, body) -> RunManifest:
    """Run body(p, out) -> (outputs, headline, checks) and write the manifest.

    A solver failure still writes a manifest, with no outputs and the
    failure recorded; any other exception propagates without one.  out is
    made only when something is written to it, and the body checks every
    parameter before it writes, so a rejected parameter leaves no directory.
    """
    out = Path(out_dir)
    if out.exists() and not out.is_dir():
        raise ValueError(f"output path {out} exists and is not a directory")
    t0 = time.perf_counter()
    try:
        outputs, headline, checks = body(p, out)
        checks, failure = checks.records, None
        status = "ok" if all(c["passed"] for c in checks) else "check_failure"
    except StageFailed as exc:
        outputs, headline, checks = [], {}, []
        status, failure = "solver_failure", {"kind": "continuation_stage", **vars(exc)}
    manifest = RunManifest(
        experiment=experiment,
        parameters=p,
        content_hash=_content_hash(experiment, p),
        outputs=outputs,
        headline=headline,
        checks=checks,
        status=status,
        failure=failure,
    )
    manifest.runtime_seconds = time.perf_counter() - t0
    manifest.threads = _thread_settings()
    manifest.write(out)
    return manifest


def _solve(p: dict, out: Path, g_label: str | None = None):
    """Solve with arc data M cos(k phi) and export the solution.

    M is 1 when p records none (asterisk).  Every radii list in p is
    checked against the grid's window first, so bad radii fail before the
    solve.  Returns the solution, the exported file names, the solution
    headline and checks with `converged` added.
    """
    k, M = p["k"], p.get("M", 1.0)
    grid = build_sector_grid(k, p["n_r"], p["n_phi"])
    for key in ("phi_radii", "blowup_radii", "arc_radii"):
        if key in p:
            check_radii(grid, p[key])
    sol = solve_fixed_point(grid, lambda phi: M * np.cos(k * phi), p["eps_min"],
                            g_label=g_label or f"{M:g}*cos({k}*phi)")
    outputs = [Path(f).name for f in export_solution(sol, out)]
    origin_value = eval_origin(sol.u)
    checks = _Checks()
    checks.add("converged", abs(origin_value) <= 1e-8,
               f"final eps {sol.eps:g}, u(0) = {origin_value:.3e}")
    headline = {
        "kappa": sol.kappa,
        "eps_final": sol.eps,
        "origin_value": origin_value,
        "pde_residual": sol.pde_residual,
    }
    return sol, outputs, headline, checks


def _write_arcs(u, radii, path) -> tuple[list | None, str]:
    """Fit the arcs of u at the origin over radii and write them to path.

    Returns (limit angles in degrees, "").  The zero set may not reach the
    radii near the origin: a failed fit still writes path, with no angles
    and the reason as a note, and returns (None, reason).
    """
    try:
        arcs = fit_arcs_at_origin(u, radii)
    except ValueError as exc:
        write_json(path, {"limit_angles_deg": [], "note": str(exc)})
        return None, str(exc)
    write_arcs_json(arcs, path)
    return list(np.degrees(arcs.limit_angles)), ""


def _analyze(sol, p: dict, out: Path, outputs: list, headline: dict):
    """Profile, blow-up report, zero set and origin arcs of the solution.

    Appends the names of the four files it writes to outputs, and the
    numbers that the cross and the asterisk both report to headline.  The
    arc angles read None when the arc fit fails (`_write_arcs`).
    """
    # one radial derivative serves both Phi evaluations
    du_dr = radial_derivative(sol.u).values
    prof = phi_profile(sol.u, p["phi_radii"], du_dr)
    write_profile_csv(prof, out / "phi_profile.csv")
    report = blowup_report(sol.u, DEFAULT_BLOWUP_RADII, du_dr)
    write_blowup_csv(report, out / "blowup.csv")
    levelset = extract_zero_set(sol.u)
    write_levelset_csv(levelset, out / "fb.csv")
    arc_angles_deg, _ = _write_arcs(sol.u, DEFAULT_ARC_RADII, out / "arcs.json")
    outputs += ["phi_profile.csv", "blowup.csv", "fb.csv", "arcs.json"]
    headline.update({
        "phi_radii": list(prof.radii),
        "phi_values": list(prof.phi_values),
        "classification": report.classification,
        "s_over_r2": list(report.ratios),
        "arc_angles_deg": arc_angles_deg,
        "n_polylines": len(levelset.polylines),
    })
    return prof, report


def _circular_gap_to(targets_deg, angle_deg: float) -> float:
    """Smallest angular distance in degrees from angle_deg to the target set."""
    return min(abs((angle_deg - t + 180.0) % 360.0 - 180.0) for t in targets_deg)


# --- experiments ---------------------------------------------------------


def run_cross(M: float = 40.0, n_r: int = 256, n_phi: int = 256,
              eps_min: float = 0.0125, out_dir="runs/cross") -> RunManifest:
    """Quarter-plane data M cos(2 phi), expected to produce a cross pattern.

    Solves on the k = 2 sector, analyses its even extension to the disk,
    and emits the full artifact set with headline checks on the sign and
    trend of the scaled energy, the blow-up classification, and the arc
    geometry at the origin.
    """
    M = _number("M", M)
    if M <= 0:
        raise ValueError(f"M must be positive, got {M}")
    p = {
        "k": 2, "M": M,
        **_solver_params(n_r, n_phi, eps_min),
        **_radii_params(n_r),
        "arc_radii": list(DEFAULT_ARC_RADII),
        "trace_samples": TRACE_SAMPLES,
    }
    return _run("cross", p, out_dir, _cross_body)


def _cross_body(p: dict, out: Path):
    sol, outputs, headline, checks = _solve(p, out)
    prof, report = _analyze(sol, p, out, outputs, headline)
    # the cross records a failed arc fit as no angles
    arc_angles_deg = headline["arc_angles_deg"] = headline["arc_angles_deg"] or []

    # tolerance for the monotone trend, two percent of the Phi increment
    # over the window [0.25, 0.75] if both ends are sampled, else overall
    ends = [int(np.argmin(np.abs(prof.radii - r))) for r in (0.25, 0.75)]
    if any(abs(prof.radii[i] - r) >= 1e-12 for i, r in zip(ends, (0.25, 0.75))):
        ends = [0, -1]
    trend_tol = max(0.02 * abs(prof.phi_values[ends[1]] - prof.phi_values[ends[0]]), 1e-3)

    diag_targets = [45.0, 135.0, 225.0, 315.0]
    worst_arc_dev = (max(_circular_gap_to(diag_targets, a) for a in arc_angles_deg)
                     if len(arc_angles_deg) == 4 else float("inf"))

    checks.add("kappa_bracket", 0.0 < sol.kappa < 0.26, f"kappa = {sol.kappa:.6f}")
    checks.add("phi_negative", float(np.max(prof.phi_values)) < 0.0,
               f"max phi over window = {np.max(prof.phi_values):.4f}")
    checks.add("phi_nondecreasing", prof.min_increment() >= -trend_tol,
               f"min increment = {prof.min_increment():.3e}, tolerance {trend_tol:.3e}")
    checks.add("classification_case1", report.classification == CASE1,
               f"classified {report.classification}")
    checks.add("mode2_dominant", float(report.mode_fractions[2][0]) >= 0.9,
               f"mode-2 energy fraction at r={report.radii[0]:g} is "
               f"{report.mode_fractions[2][0]:.4f}")
    checks.add("four_diagonal_arcs",
               len(arc_angles_deg) == 4 and worst_arc_dev <= 5.0,
               f"{len(arc_angles_deg)} arcs, worst deviation {worst_arc_dev:.2f} deg")

    headline.update({
        "min_phi_increment": prof.min_increment(),
        "mode2_fraction": list(report.mode_fractions[2]),
        "worst_arc_deviation_deg": worst_arc_dev,
    })
    return outputs, headline, checks


def run_asterisk(n_r: int = 256, n_phi: int = 256, eps_min: float = 0.0125,
                 out_dir="runs/asterisk") -> RunManifest:
    """Eighth-sector data cos(4 phi), the second-order degenerate candidate.

    Solves on the k = 4 sector with its 8-fold extension and checks for
    exact annihilation of mode 2, the decay trend of S/r^2 toward the
    origin, and the resulting classification.

    The last two checks (s_ratio_decay, classification_case3) can pass only
    when the smoothing core, of radius about 2 sqrt(eps_min) around the
    pinned origin, lies well inside the smallest blow-up radius; inside the
    core S/r^2 sits on the plateau sqrt(2 pi)/4 of the regularization.  At
    the default eps_min = 0.0125 the core reaches 0.22 and both checks fail;
    eps_min = 3.125e-5 (core 0.011) passes them on the default 256^2 grid.
    """
    p = {
        "k": 4,
        **_solver_params(n_r, n_phi, eps_min),
        **_radii_params(n_r),
        "invariance_radii": [0.9, 0.8, 0.7, 0.6, 0.5],
        "trace_samples": TRACE_SAMPLES,
    }
    return _run("asterisk", p, out_dir, _asterisk_body)


def _asterisk_body(p: dict, out: Path):
    sol, outputs, headline, checks = _solve(p, out, "cos(4*phi)")
    _, report = _analyze(sol, p, out, outputs, headline)
    mode2_max = float(np.max(np.abs([report.a[:, 2], report.b[:, 2]])))

    # symmetry of the zero crossings, tested on the outermost circle that
    # the petals actually cut: the solution is invariant under quarter
    # turns and under reflection across the sector edges (the data
    # cos(4 phi) changes sign under an eighth turn, so that is excluded)
    invariance_r = None
    gap_dev = float("inf")
    n_crossings = 0
    radii = p["invariance_radii"]
    for r_try, angles in zip(radii, _crossing_angles(sol.u, radii)):
        if len(angles) >= 8 and len(angles) % 4 == 0:
            invariance_r = r_try
            n_crossings = len(angles)
            gaps = np.diff(np.append(angles, angles[0] + 2.0 * math.pi))
            rot_dev = float(np.max(np.abs(gaps - np.roll(gaps, -(len(angles) // 4)))))
            reflected = np.sort((-angles) % (2.0 * math.pi))
            refl_dev = float(np.max(np.abs(
                (reflected - angles + math.pi) % (2.0 * math.pi) - math.pi)))
            gap_dev = max(rot_dev, refl_dev)
            break

    ratios = report.ratios
    idx_005 = int(np.argmin(np.abs(report.radii - 0.05)))
    idx_02 = int(np.argmin(np.abs(report.radii - 0.2)))

    checks.add("mode2_annihilated", mode2_max <= 1e-10,
               f"max |a2|,|b2| over radii = {mode2_max:.3e}")
    checks.add("s_ratio_decay", float(ratios[idx_005]) < float(ratios[idx_02]),
               f"S/r^2 at 0.05 is {ratios[idx_005]:.4f}, at 0.2 is {ratios[idx_02]:.4f}")
    checks.add("classification_case3", report.classification == CASE3,
               f"classified {report.classification}")
    checks.add("crossings_dihedral_symmetry",
               invariance_r is not None and gap_dev <= 1e-8,
               f"radius {invariance_r}, {n_crossings} crossings, quarter-turn "
               f"and reflection deviation {gap_dev:.2e} rad")

    headline.update({
        "mode2_max": mode2_max,
        "mode4_fraction": list(report.mode_fractions[4]),
        "invariance_radius": invariance_r,
        "crossing_gap_deviation": gap_dev if math.isfinite(gap_dev) else None,
    })
    return outputs, headline, checks


def run_threshold_scan(M_values, C1: float = 0.5, out_dir="runs/scan", *,
                       n_r: int = 1024, n_phi: int = 1024, mc_seed: int = 0) -> RunManifest:
    """Scan the boundary amplitude M in the sign test for the energy bound.

    Writes one row per M with the quadrature value, refines the first sign
    change by bisection, and cross-checks the endpoints of the scan by
    Monte Carlo with MC_SAMPLES samples drawn from mc_seed.
    """
    p = {
        "M_values": [float(m) for m in _numbers("M_values", M_values)],
        "C1": _number("C1", C1), "n_r": _number("n_r", n_r, int),
        "n_phi": _number("n_phi", n_phi, int),
        "mc_samples": MC_SAMPLES,
        "mc_seed": _number("mc_seed", mc_seed, int),
        "bisect_tol": BISECT_TOL,
    }
    if not p["M_values"]:
        raise ValueError("M_values must be nonempty")
    if p["C1"] <= 0:
        raise ValueError(f"C1 must be positive, got {C1}")
    if p["mc_seed"] < 0:
        raise ValueError(f"mc_seed must be nonnegative, got {mc_seed}")
    return _run("scan", p, out_dir, _scan_body)


def _scan_body(p: dict, out: Path):
    C1, n_r, n_phi = p["C1"], p["n_r"], p["n_phi"]
    Ms, values = threshold_scan(p["M_values"], C1, n_r=n_r, n_phi=n_phi)
    out.mkdir(parents=True, exist_ok=True)
    write_table(out / "threshold_scan.csv", "M,energy_bound", [Ms, values])

    m_star = None
    sign_change = next(
        (n for n in range(len(values) - 1) if values[n] > 0 >= values[n + 1]), None)
    if sign_change is not None:
        m_star = find_threshold(C1, float(Ms[sign_change]), float(Ms[sign_change + 1]),
                                tol=BISECT_TOL, n_r=n_r, n_phi=n_phi)

    # both endpoints share one seeded draw, in scan order, a one-amplitude scan once
    ends = list(dict.fromkeys([float(Ms[0]), float(Ms[-1])]))
    mcs = mc_energy_bound(ends, C1, samples=p["mc_samples"], seed=p["mc_seed"])
    mc_rows = [{"M": m, "quadrature": float(values[list(Ms).index(m)]), "monte_carlo": float(mc)}
               for m, mc in zip(ends, mcs)]

    scale = math.pi * C1 * C1
    checks = _Checks()
    checks.add("scan_nonincreasing", bool(np.all(np.diff(values) <= 1e-12)),
               "values nonincreasing in M")
    if max(p["M_values"]) >= 4.0 * C1:
        checks.add("negative_tail_found", bool(np.any(values < 0.0)),
                   f"min value {np.min(values):.6f}")
    mc_dev = max(abs(r["quadrature"] - r["monte_carlo"]) /
                 max(abs(r["quadrature"]), scale) for r in mc_rows)
    checks.add("monte_carlo_agreement", mc_dev <= 0.01,
               f"worst relative deviation {mc_dev:.4%}")

    headline = {
        "M_values": list(Ms),
        "energy_bound_values": list(values),
        "m_star": m_star,
        "monte_carlo": mc_rows,
    }
    return ["threshold_scan.csv"], headline, checks


def run_solve(k: int, M: float = 40.0, n_r: int = 256, n_phi: int = 256,
              eps_min: float = 0.0125, out_dir="runs/solve") -> RunManifest:
    """Generic single solve with arc data M cos(k phi), artifacts only."""
    p = {"k": _number("k", k, int), "M": _number("M", M),
         **_solver_params(n_r, n_phi, eps_min)}
    return _run("solve", p, out_dir, lambda p, out: _solve(p, out)[1:])


EXPERIMENTS = {
    "cross": run_cross,
    "asterisk": run_asterisk,
    "scan": run_threshold_scan,
    "solve": run_solve,
}


# --- rerun ---------------------------------------------------------------


def rerun_manifest(manifest_path, out_dir=None) -> tuple[RunManifest, bool]:
    """Replay a recorded run and compare headline numbers for equality.

    The driver gets every stored parameter it accepts; recorded constants
    (k, newton_tol, phi_radii, blowup_radii, arc_radii, invariance_radii,
    trace_samples, mc_samples and bisect_tol), keys of older manifests
    (eps_start) and a stored out_dir are ignored, so a manifest that
    recorded another value of a constant replays with the constant.  The comparison is
    exact, down to the last bit of every float, because the replay
    consumes only manifest parameters and the solver is deterministic on
    a given machine under the same BLAS thread count.  A stored parameter
    of the wrong type, or a missing one that the driver requires (M_values
    of a scan, k of a solve), raises ValueError naming it before any write.
    """
    stored = RunManifest.load(manifest_path)
    out = Path(out_dir) if out_dir else Path(manifest_path).parent / "rerun"
    driver = EXPERIMENTS.get(stored.experiment)
    if driver is None:
        raise ValueError(f"unknown experiment in manifest: {stored.experiment!r}")
    params = inspect.signature(driver).parameters
    missing = [name for name, param in params.items()
               if param.default is param.empty and name not in stored.parameters]
    if missing:
        raise ValueError(f"{manifest_path} lacks the required parameter(s) {', '.join(missing)}")
    accepted = params.keys() - {"out_dir"}
    fresh = driver(**{key: value for key, value in stored.parameters.items()
                      if key in accepted}, out_dir=out)
    same = json.dumps(stored.headline, sort_keys=True) == json.dumps(
        fresh.headline, sort_keys=True)
    return fresh, same


# --- argument parsing ----------------------------------------------------


def _number_list(text: str) -> list:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of numbers, got {text!r}") from exc


def _add_grid_flags(sp):
    sp.add_argument("--nr", dest="n_r", type=int, help="radial cells")
    sp.add_argument("--nphi", dest="n_phi", type=int, help="angular cells per sector")
    sp.add_argument("--out", dest="out_dir", help="output directory")


def _add_solver_flags(sp, with_m: bool):
    if with_m:
        sp.add_argument("--M", type=float, help="arc data amplitude")
    _add_grid_flags(sp)
    sp.add_argument("--eps-min", type=float, help="final smoothing width")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unstablefb",
        description="Experiments and analyses for the unstable obstacle-type "
                    "problem on the unit disk.")
    sub = parser.add_subparsers(dest="command", required=True)

    # experiment flags carry no defaults: an unset flag is left out of the
    # call, so each default lives only in the driver's signature
    def experiment(name, help_text):
        return sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)

    for name, help_text, with_m in (
        ("cross", "boundary data M cos(2 phi) on the quarter sector", True),
        ("asterisk", "boundary data cos(4 phi) on the eighth sector", False),
    ):
        _add_solver_flags(experiment(name, help_text), with_m)

    sp = experiment("scan", "energy bound sign scan over M")
    sp.add_argument("--M-list", dest="M_values", type=_number_list, required=True,
                    help="comma list of M values")
    sp.add_argument("--C1", type=float)
    sp.add_argument("--mc-seed", type=int)
    _add_grid_flags(sp)

    sp = experiment("solve", "single solve with arc data M cos(k phi)")
    sp.add_argument("--k", type=int, required=True, help="sector count parameter")
    _add_solver_flags(sp, with_m=True)

    for name, help_text in (
        ("phi", "scaled-energy profile of an exported field"),
        ("blowup", "circle traces and classification of an exported field"),
        ("fb", "zero set and origin arcs of an exported field"),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("field", help="solution.vtk of a solve, or an r,phi,value CSV")
        sp.add_argument("--radii", type=_number_list, default=None)
        sp.add_argument("--out", default=None, help="output file or directory")

    sp = sub.add_parser("rerun", help="replay a manifest and compare headline numbers")
    sp.add_argument("manifest", help="path to manifest.json")
    sp.add_argument("--out", default=None, help="directory for the replayed run")

    return parser


# --- command handlers ----------------------------------------------------


def _cmd_experiment(args) -> int:
    params = vars(args)
    manifest = EXPERIMENTS[params.pop("command")](**params)
    _print_checks(manifest)
    if manifest.headline.get("m_star") is not None:
        print(f"threshold M* = {manifest.headline['m_star']:.6f}")
    return manifest.exit_code


def _cmd_phi(args) -> int:
    field = read_field(args.field)
    radii = _default_phi_radii(field.grid.n_r) if args.radii is None else args.radii
    prof = phi_profile(field, radii)
    out = Path(args.out or "phi_profile.csv")
    write_profile_csv(prof, out)
    print(f"wrote {out} ({len(prof.radii)} radii, min increment "
          f"{prof.min_increment():.3e})")
    return EXIT_OK


def _cmd_blowup(args) -> int:
    field = read_field(args.field)
    report = blowup_report(field, DEFAULT_BLOWUP_RADII if args.radii is None else args.radii)
    out = Path(args.out or "blowup.csv")
    write_blowup_csv(report, out)
    print(f"wrote {out}; classification {report.classification}")
    return EXIT_OK


def _cmd_fb(args) -> int:
    field = read_field(args.field)
    # phi_profile and blowup_report check their radii before any write; the
    # arc radii are checked here, as _write_arcs records a failed fit and goes on
    radii = check_radii(field.grid, DEFAULT_ARC_RADII if args.radii is None else args.radii)
    levelset = extract_zero_set(field)
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    write_levelset_csv(levelset, out_dir / "fb.csv")
    angles, note = _write_arcs(field, radii, out_dir / "arcs.json")
    wrote = f"wrote {out_dir / 'fb.csv'}, {out_dir / 'arcs.json'}"
    if angles is None:
        print(f"{wrote}; arc fit failed ({note})")
    else:
        print(f"{wrote}; limit angles [deg]: {', '.join(f'{a:.2f}' for a in angles)}")
    return EXIT_OK


def _cmd_rerun(args) -> int:
    fresh, same = rerun_manifest(args.manifest, args.out)
    _print_checks(fresh)
    print("headline comparison:", "identical" if same else "DIFFERS")
    recorded = RunManifest.load(args.manifest).threads
    if not same and recorded is not None and recorded != fresh.threads:
        print(f"note: the run was recorded under the thread settings "
              f"{dict(zip(THREAD_VARS, recorded))} and replayed under "
              f"{dict(zip(THREAD_VARS, fresh.threads))}; the solver's norms and Anderson "
              "least squares depend on the BLAS thread count, so the headline can "
              "differ in the last digits")
    return EXIT_OK if same else EXIT_CHECKS


_HANDLERS = {
    **dict.fromkeys(EXPERIMENTS, _cmd_experiment),
    "phi": _cmd_phi,
    "blowup": _cmd_blowup,
    "fb": _cmd_fb,
    "rerun": _cmd_rerun,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, OSError) as exc:  # OSError: a missing or unreadable path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
