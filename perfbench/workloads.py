"""The four benchmark workloads and their correctness gates.

Each workload turns a seed into parameters, completes them during set-up
(writing input files where needed), and runs one operation through the
public API of unstablefb.  An operation returns its headline (compared for
bit identity across repeats) and the set of checks that failed; the
benchmark compares that set with the workload's expected set.  See
README.md for why each workload exists.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import integrate, optimize

from unstablefb import cli
from unstablefb.field import field_from_function, write_field_csv
from unstablefb.mesh import build_sector_grid


@dataclass
class Outcome:
    """What one operation produced, as far as the gate needs it."""

    headline: str  # canonical text, compared for bit identity
    failed_checks: frozenset
    solver_failure: bool = False


def _manifest_outcome(manifest) -> Outcome:
    return Outcome(
        headline=json.dumps(manifest.headline, sort_keys=True),
        failed_checks=frozenset(c["name"] for c in manifest.checks if not c["passed"]),
        solver_failure=manifest.status == "solver_failure",
    )


def _grid(smoke: bool) -> dict:
    # the smoke grid is the smallest on which every check keeps its 256^2 verdict
    if smoke:
        return {"n_r": 96, "n_phi": 96, "eps_min": 0.025}
    return {"n_r": 256, "n_phi": 256, "eps_min": 0.0125}


# --- cross ---------------------------------------------------------------


def cross_inputs(seed: int, smoke: bool) -> dict:
    rng = np.random.default_rng(seed)
    return {"M": float(rng.uniform(30.0, 50.0)), **_grid(smoke)}


def cross_op(p: dict, out: Path) -> Outcome:
    return _manifest_outcome(cli.run_cross(p["M"], p["n_r"], p["n_phi"], p["eps_min"], out))


# --- asterisk ------------------------------------------------------------


def asterisk_inputs(seed: int, smoke: bool) -> dict:
    # the cos(4 phi) data is fixed by the paper; the seed changes nothing
    return _grid(smoke)


def asterisk_op(p: dict, out: Path) -> Outcome:
    return _manifest_outcome(cli.run_asterisk(p["n_r"], p["n_phi"], p["eps_min"], out))


# --- scan ----------------------------------------------------------------


def scan_inputs(seed: int, smoke: bool) -> dict:
    rng = np.random.default_rng(seed)
    # 0 and 4 always, plus 1, 2, 3 jittered by at most 0.02: the bracket
    # around M* = 1.89 then stays 0.96..1.04 wide, so the bisection always
    # takes 20 steps and the seed changes the inputs but not the work
    interior = [m + float(rng.uniform(-0.02, 0.02)) for m in (1.0, 2.0, 3.0)]
    n = 128 if smoke else 1024
    return {"M_values": [0.0, *interior, 4.0], "C1": 0.5, "n": n,
            "mc_seed": int(rng.integers(0, 2**31 - 1))}


def exact_threshold(C1: float) -> float:
    """M at which the comparison energy bound changes sign, by closed form.

    The angular integral of (a cos 2phi - c)^+ is 2(sqrt(a^2 - c^2) -
    c arccos(c/a)), which leaves one elementary radial integral.
    """
    def bound(M):
        def excess(s):
            a = M * s
            return 2.0 * (math.sqrt(a * a - C1 * C1) - C1 * math.acos(C1 / a))
        return math.pi * C1 * C1 - integrate.quad(excess, C1 / M, 1.0, epsabs=1e-13)[0]
    return optimize.brentq(bound, 1.5, 4.0, xtol=1e-12)


def scan_op(p: dict, out: Path) -> Outcome:
    manifest = cli.run_threshold_scan(p["M_values"], p["C1"], out, n_r=p["n"], n_phi=p["n"],
                                      mc_seed=p["mc_seed"])
    outcome = _manifest_outcome(manifest)
    m_star = manifest.headline.get("m_star")
    if m_star is None or abs(m_star - p["m_star_exact"]) > 1e-5:
        outcome.failed_checks |= {"bench_threshold_vs_closed_form"}
    return outcome


def scan_setup(params: dict, work: Path) -> dict:
    return {**params, "m_star_exact": exact_threshold(params["C1"])}


# --- analyze -------------------------------------------------------------


def analyze_inputs(seed: int, smoke: bool) -> dict:
    rng = np.random.default_rng(seed)
    # sum_j c_j r^{2j} cos(2 j phi), j = 1..3, with the quadratic term leading
    coeffs = [float(rng.uniform(1.0, 2.0)), float(rng.uniform(-0.3, 0.3)),
              float(rng.uniform(-0.3, 0.3))]
    return {"coeffs": coeffs, "n": 128 if smoke else 512}


def _closed_form(coeffs):
    def u(r, p):
        return sum(c * r ** (2 * j) * np.cos(2 * j * p) for j, c in enumerate(coeffs, 1))
    return u


def analyze_setup(params: dict, work: Path) -> dict:
    grid = build_sector_grid(2, params["n"], params["n"])
    path = work / "field.csv"
    write_field_csv(field_from_function(grid, _closed_form(params["coeffs"])), path)
    return {**params, "field_csv": str(path)}


def analyze_op(p: dict, out: Path) -> Outcome:
    csv = p["field_csv"]
    out.mkdir(parents=True, exist_ok=True)
    commands = (["phi", csv, "--out", str(out / "phi_profile.csv")],
                ["blowup", csv, "--out", str(out / "blowup.csv")],
                ["fb", csv, "--out", str(out / "fb")])
    failed = set()
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in commands:
            if cli.main(argv) != cli.EXIT_OK:
                failed.add(f"exit_{argv[0]}")
    if failed:
        return Outcome("", frozenset(failed))

    prof = np.loadtxt(out / "phi_profile.csv", delimiter=",", skiprows=1, ndmin=2)
    if len(prof) < 2 or not np.all(np.isfinite(prof[:, :3])):
        failed.add("phi_profile_rows")
    # S(r)^2 = r^-1 int_{dB_r} u^2 = pi sum_j c_j^2 r^{4j} for this field
    rows = np.loadtxt(out / "blowup.csv", delimiter=",", skiprows=1, ndmin=2)
    r, s = rows[:, 0], rows[:, 1]
    exact = np.sqrt(np.pi * sum(c * c * r ** (4 * j)
                                for j, c in enumerate(p["coeffs"], 1)))
    if np.max(np.abs(s / exact - 1.0)) > 1e-3:
        failed.add("s_norm_vs_closed_form")
    # the zero set leaves the origin along the diagonals, where cos(2 phi) = 0
    arcs = json.loads((out / "fb" / "arcs.json").read_text())
    limits = np.asarray(arcs["limit_angles_deg"])
    if len(limits) != 4 or np.max(np.abs(limits - [45.0, 135.0, 225.0, 315.0])) > 1.0:
        failed.add("arcs_on_diagonals")

    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest.update(path.relative_to(out).as_posix().encode())
        digest.update(path.read_bytes())
    return Outcome(digest.hexdigest(), frozenset(failed))


# --- registry ------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: object  # (seed, smoke) -> params
    operation: object  # (params, out_dir) -> Outcome
    setup: object = lambda params, work: params  # (params, work_dir) -> params
    # checks that fail on purpose; criterion 7 is resolution-limited at 256^2
    expected_failures: frozenset = frozenset()


WORKLOADS = {
    w.name: w for w in (
        Workload("cross", cross_inputs, cross_op),
        Workload("asterisk", asterisk_inputs, asterisk_op,
                 expected_failures=frozenset({"s_ratio_decay", "classification_case3"})),
        Workload("scan", scan_inputs, scan_op, setup=scan_setup),
        Workload("analyze", analyze_inputs, analyze_op, setup=analyze_setup),
    )
}
