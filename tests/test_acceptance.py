"""End-to-end acceptance battery, one test per criterion.

Each test prints a single verdict line with the measured numbers; run
with -v to get one PASSED/FAILED line per criterion.  Every criterion
keeps its thresholds as specified; a criterion that depends on the
regularization being resolved runs at the grid where it is, and its
failure message carries the measurements.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import trapezoid

from conftest import (
    degree2_field,
    radial_composite,
    radial_composite_phi,
)

from unstablefb import (
    assemble,
    build_sector_grid,
    eval_origin,
    energy_bound_integral,
    phi,
    phi_profile,
    rerun_manifest,
    run_asterisk,
    run_cross,
    run_threshold_scan,
    solve,
)

DIAGONAL_DEG = np.array([45.0, 135.0, 225.0, 315.0])


def verdict(ok: bool, label: str, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")


@pytest.fixture(scope="module")
def cross_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("cross")
    t0 = time.perf_counter()
    manifest = run_cross(40.0, 256, 256, 0.0125, out)
    return out, manifest, time.perf_counter() - t0


@pytest.fixture(scope="module")
def asterisk_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("asterisk")
    t0 = time.perf_counter()
    manifest = run_asterisk(256, 256, 0.0125, out)
    return out, manifest, time.perf_counter() - t0


def ratios_at(manifest, radii=(0.05, 0.2)) -> list:
    """S/r^2 of a run's headline at the given blow-up radii."""
    ratios = dict(zip(manifest.parameters["blowup_radii"], manifest.headline["s_over_r2"]))
    return [ratios[r] for r in radii]


@pytest.fixture(scope="module")
def asterisk_fine_run(tmp_path_factory):
    """Criterion 7's run, on the default 256^2 grid.  With u(0) = 0 pinned
    and f_eps(0) = 1 the regularized solution carries a paraboloid core of
    radius about 2 sqrt(eps); at eps = 3.125e-5 the core (0.011) lies well
    inside the smallest blow-up radius 0.05."""
    out = tmp_path_factory.mktemp("asterisk_fine")
    t0 = time.perf_counter()
    manifest = run_asterisk(256, 256, 3.125e-5, out)
    return out, manifest, time.perf_counter() - t0


def test_criterion_1_linear_solver_second_order():
    """Manufactured harmonic and unit-sink solutions: max-norm error ratios
    in [3.5, 4.5] per halving over 64..512 cells; center value 1/4 +- 1e-3
    at 256 cells; every solve under 30 s."""
    sizes = (64, 128, 256, 512)
    errs_h, errs_t, times = [], [], []
    center_256 = None
    for n in sizes:
        g = build_sector_grid(2, n, n)
        lap = assemble(g)
        t0 = time.perf_counter()
        u_h = solve(lap, g_arc=lambda p: np.cos(2.0 * p))
        u_t = solve(lap, F=-1.0)
        times.append(time.perf_counter() - t0)
        errs_h.append(float(np.max(np.abs(u_h.values - degree2_field(g).values))))
        exact_t = (1.0 - g.r**2) / 4.0
        errs_t.append(float(np.max(np.abs(u_t.values - exact_t[:, None]))))
        if n == 256:
            center_256 = eval_origin(u_t)
    ratios_h = [a / b for a, b in zip(errs_h, errs_h[1:])]
    ratios_t = [a / b for a, b in zip(errs_t, errs_t[1:])]
    ok_rates = all(3.5 <= q <= 4.5 for q in ratios_h + ratios_t)
    ok_center = abs(center_256 - 0.25) <= 1e-3
    ok_time = max(times) < 30.0
    verdict(ok_rates and ok_center and ok_time, "criterion 1",
            f"harmonic ratios {[f'{q:.2f}' for q in ratios_h]}, "
            f"sink ratios {[f'{q:.2f}' for q in ratios_t]}, "
            f"center {center_256:.6f}, slowest solve {max(times):.1f}s")
    assert ok_rates, (ratios_h, ratios_t)
    assert ok_center, center_256
    assert ok_time, times


def test_criterion_2_scaled_energy_oracle(disk256):
    """Phi(1-h) on M r^2 cos(2 phi) equals -M within 1% for M in {1, 40}."""
    r = 1.0 - 1.0 / 256
    devs = {}
    for M in (1.0, 40.0):
        value = phi(degree2_field(disk256, M), r)
        devs[M] = abs(value + M) / M
    ok = all(d <= 0.01 for d in devs.values())
    verdict(ok, "criterion 2",
            f"relative deviation from -M: M=1 {devs[1.0]:.2e}, M=40 {devs[40.0]:.2e}")
    assert ok, devs


def test_criterion_3_homogeneity(disk256):
    """Degree-2 profile constant over [0.3, 0.8] within 1e-3; dissipation
    integrand totals below 1e-6 of the 2 pi M^2 energy scale."""
    u = degree2_field(disk256)
    radii = 0.3 + (4.0 / 256) * np.arange(33)  # 0.3 to 0.8 in 4-cell strides
    prof = phi_profile(u, radii)
    spread = float(np.ptp(prof.phi_values))
    dissipated = float(trapezoid(prof.boundary_integrand, prof.radii))
    scale = 2.0 * math.pi
    ok = spread <= 1e-3 and dissipated <= 1e-6 * scale
    verdict(ok, "criterion 3",
            f"profile spread {spread:.2e}, dissipation/scale {dissipated / scale:.2e}")
    assert ok, (spread, dissipated)


def test_criterion_4_identity_defect_on_exact_solution(disk256, disk512):
    """Composite radial solution: |defect| <= 2% of the profile change at
    256 cells, at most half that at 512."""
    delta_exact = radial_composite_phi(0.75) - radial_composite_phi(0.25)
    rel = {}
    for grid in (disk256, disk512):
        radii = 0.25 + 4.0 * grid.dr * np.arange(round(0.5 / (4.0 * grid.dr)) + 1)
        prof = phi_profile(radial_composite(grid), radii)
        rel[grid.n_r] = abs(prof.defect_between(0.25, 0.75)) / abs(delta_exact)
    ok = rel[256] <= 0.02 and rel[512] <= 0.5 * rel[256]
    verdict(ok, "criterion 4",
            f"relative defect {rel[256]:.2%} at 256, {rel[512]:.2%} at 512 "
            f"(profile change {delta_exact:.4f})")
    assert ok, rel


def test_criterion_5_energy_threshold(tmp_path):
    """Comparison bound: pi/4 at M=0, nonincreasing scan with a bisected
    sign change, quadrature within 1% of a million-sample Monte Carlo."""
    at_zero = energy_bound_integral(0.0, 0.5)
    dev_zero = abs(at_zero - math.pi / 4.0)
    m = run_threshold_scan([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0], 0.5, tmp_path)
    vals = m.headline["energy_bound_values"]
    mc_dev = max(
        abs(rec["quadrature"] - rec["monte_carlo"])
        / max(abs(rec["quadrature"]), math.pi * 0.25)
        for rec in m.headline["monte_carlo"])
    ok = (dev_zero <= 1e-6
          and m.status == "ok"
          and all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
          and m.headline["m_star"] is not None
          and vals[-1] < 0.0
          and mc_dev <= 0.01)
    verdict(ok, "criterion 5",
            f"pi/4 deviation {dev_zero:.1e}, M* {m.headline['m_star']:.4f}, "
            f"MC deviation {mc_dev:.2%}")
    assert ok, (dev_zero, m.headline, mc_dev)


def test_criterion_6_cross_experiment(cross_run):
    """Full cross pipeline at 256 cells: converged and pinned at the origin,
    shift inside the torsion bracket, negative nondecreasing energy profile,
    quadratic-growth classification, mode-2 dominance, four diagonal arcs,
    all inside ten minutes."""
    out, m, elapsed = cross_run
    h = m.headline
    checks = {rec["name"]: rec["passed"] for rec in m.checks}
    angles = np.asarray(h["arc_angles_deg"])
    worst_arc = float(np.max(np.abs(angles - DIAGONAL_DEG)))
    mode2_inner = h["mode2_fraction"][0]  # fraction at the smallest radius
    nondecreasing = h["min_phi_increment"] >= -max(
        0.02 * abs(h["phi_values"][-1] - h["phi_values"][0]), 1e-3)
    ok = (m.status == "ok"
          and all(checks.values())
          and abs(h["origin_value"]) <= 1e-8
          and 0.0 < h["kappa"] < 0.26
          and max(h["phi_values"]) < 0.0
          and nondecreasing
          and h["classification"] == "case1"
          and mode2_inner >= 0.9
          and len(angles) == 4
          and worst_arc <= 5.0
          and elapsed < 600.0)
    verdict(ok, "criterion 6",
            f"kappa {h['kappa']:.6f}, u(0) {h['origin_value']:.1e}, "
            f"phi in [{min(h['phi_values']):.2f}, {max(h['phi_values']):.2f}], "
            f"{h['classification']}, mode-2 {mode2_inner:.4f}, "
            f"arc deviation {worst_arc:.2f} deg, {elapsed:.0f}s")
    assert ok, (m.status, checks, h)


def test_criterion_7_asterisk_experiment(asterisk_fine_run):
    """Symmetry-constrained pipeline: converged with the order-2 mode
    annihilated to rounding; the scaled trace amplitude must then shrink
    from r = 0.2 to r = 0.05 and classify as second-order degenerate.

    The last two demands are about the limit trend, so they need the
    smoothing core (radius about 2 sqrt(eps)) well inside r = 0.05.  With
    the default eps = 0.0125 the core reaches 0.22 and both radii read its
    plateau sqrt(2 pi)/4; the run here (256^2 sector cells, eps = 3.125e-5,
    core 0.011) resolves it.  Wider widths classify case1 or inconclusive,
    whatever the grid (README, Acceptance status)."""
    out, m, elapsed = asterisk_fine_run
    h = m.headline
    ratios = dict(zip(m.parameters["blowup_radii"], h["s_over_r2"]))
    converged = m.status != "solver_failure" and abs(h["origin_value"]) <= 1e-8
    mode2_max = h["mode2_max"]
    annihilated = mode2_max <= 1e-10
    trend = ratios[0.05] < ratios[0.2]
    classified = h["classification"] == "case3"
    ok = converged and annihilated and trend and classified
    verdict(ok, "criterion 7",
            f"u(0) {h['origin_value']:.1e}, mode-2 max {mode2_max:.1e}, "
            f"S/r^2 at 0.05 = {ratios[0.05]:.4f} vs at 0.2 = {ratios[0.2]:.4f}, "
            f"classified {h['classification']}, {elapsed:.0f}s")
    assert converged and annihilated, (m.status, h)
    core = 2.0 * math.sqrt(h["eps_final"])
    assert trend and classified, (
        f"S/r^2 is {ratios[0.05]:.4f} at 0.05 vs {ratios[0.2]:.4f} at 0.2 and "
        f"the classifier reads {h['classification']} on a "
        f"{m.parameters['n_r']}x{m.parameters['n_phi']} grid with final "
        f"eps {h['eps_final']:g}; the smoothing core 2 sqrt(eps) = {core:.3f} "
        f"must lie well inside r = 0.05 for the trend to show "
        f"(the sqrt(2 pi)/4 = 0.6267 core plateau is the regularization's)")


def test_criterion_7_verdict_does_not_depend_on_the_grid(asterisk_fine_run, tmp_path):
    """Criterion 7's run at 128^2 and 256 x 64 sector cells, same eps:
    each classifies case3, with S/r^2 at 0.05 and 0.2 within 2% of the
    256^2 values (measured 0.1022, 0.1013 vs 0.1012 and 0.1931, 0.1934 vs
    0.1933)."""
    _, ref, _ = asterisk_fine_run
    expected = ratios_at(ref)
    runs = {(n_r, n_phi): run_asterisk(n_r, n_phi, 3.125e-5, tmp_path / f"{n_r}x{n_phi}")
            for n_r, n_phi in ((128, 128), (256, 64))}
    found = {grid: (m.headline["classification"], ratios_at(m)) for grid, m in runs.items()}
    ok = all(cls == "case3" and all(abs(a / b - 1.0) <= 0.02 for a, b in zip(r, expected))
             for cls, r in found.values())
    verdict(ok, "criterion 7 across grids",
            ", ".join(f"{n_r}x{n_phi} {cls}, S/r^2 {r[0]:.4f} vs {r[1]:.4f}"
                      for (n_r, n_phi), (cls, r) in found.items())
            + f"; 256x256 {expected[0]:.4f} vs {expected[1]:.4f}")
    assert ok, found


def test_criterion_8_manifest_determinism(cross_run, asterisk_run, tmp_path):
    """Replaying both experiment manifests reproduces every headline number
    bit-for-bit on the same machine."""
    results = {}
    for label, (out, m, _) in (("cross", cross_run), ("asterisk", asterisk_run)):
        fresh, same = rerun_manifest(out / "manifest.json", tmp_path / label)
        results[label] = same and fresh.headline["kappa"] == m.headline["kappa"]
    ok = all(results.values())
    verdict(ok, "criterion 8",
            f"bit-identical headline on replay: cross {results['cross']}, "
            f"asterisk {results['asterisk']}")
    assert ok, results
