"""Scaled-energy functional against closed forms, plus the energy bound scan.

Oracles used here:
 * On M r^2 cos(2 phi) the functional is identically -M: the gradient term
   contributes 2 pi M^2, the boundary term removes the same amount, and the
   positive part leaves -M.
 * On the composite radial solution the profile has the closed form coded
   in conftest.radial_composite_phi.
 * At M = 0 the comparison bound integrates the indicator of a disk of
   radius C1, giving pi C1^2 exactly.
 * The prefix-sum energy bound equals the full-grid quadrature it replaces
   (reference_energy_bound) to rounding, and the cached angle table equals
   the per-call sort it replaces (former_energy_bound_integral) bit for bit.
"""

import math
import os
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import trapezoid

from conftest import (
    BATCH_GRIDS,
    batch_radii,
    degree2_field,
    radial_composite,
    radial_composite_phi,
    saddle_field,
)

from unstablefb import (
    PolarGrid,
    ScalarField,
    build_sector_grid,
    energy_bound_integral,
    find_threshold,
    mc_energy_bound,
    phi_profile,
    threshold_scan,
)
from unstablefb.field import (
    _circle_integrals,
    _gradient_sq_rings,
    _integrate_rings,
    field_from_function,
    radial_derivative,
)
from unstablefb import monotonicity
from unstablefb.monotonicity import (
    MC_BLOCK,
    MC_WORKERS,
    MonotonicityProfile,
    _mc_block_sums,
    _phi_values,
    phi,
)

BISECTED_THRESHOLD = 1.890723705291748  # frozen bisection output at C1 = 1/2
# sample counts of one block and less, a block's edges and a short last block
MC_SAMPLES = [1, 7, MC_BLOCK - 1, MC_BLOCK, MC_BLOCK + 1, 3 * MC_BLOCK + 5]


class TestDegree2Oracle:
    @pytest.mark.parametrize("M", [1.0, 40.0])
    def test_value_is_minus_amplitude(self, disk256, M):
        u = degree2_field(disk256, M)
        for r in (0.3, 0.5, 1.0 - 1.0 / 256):
            assert phi(u, r) == pytest.approx(-M, rel=0.01)

    def test_profile_constant_in_radius(self, disk256):
        u = degree2_field(disk256)
        prof = phi_profile(u, np.linspace(0.3, 0.8, 33))
        spread = float(np.ptp(prof.phi_values))
        assert spread < 1e-3
        assert np.all(prof.phi_values < 0.0)

    def test_dissipation_vanishes_on_homogeneous_field(self, disk256):
        """r d/dr u = 2u for a degree-2 field, so the boundary integrand
        (du/dr - 2u/r)^2 is zero up to discretization noise."""
        u = degree2_field(disk256)
        prof = phi_profile(u, np.linspace(0.3, 0.8, 33))
        dissipated = float(trapezoid(prof.boundary_integrand, prof.radii))
        assert dissipated < 1e-6 * 2.0 * math.pi  # energy scale 2 pi M^2

    def test_defects_are_additive(self, disk256):
        u = degree2_field(disk256)
        prof = phi_profile(u, [0.3, 0.4, 0.5, 0.6])
        total = prof.defect_between(0.3, 0.6)
        assert total == pytest.approx(float(np.sum(prof.defects)), abs=1e-15)
        assert prof.total_defect() == pytest.approx(total, abs=1e-15)

    def test_defect_between_unsampled_radii_is_value_error(self, disk64):
        prof = phi_profile(degree2_field(disk64), [0.3, 0.4, 0.5])
        for rho, sigma in [(0.3, 0.9), (0.35, 0.5), (0.3, 0.45)]:
            with pytest.raises(ValueError):
                prof.defect_between(rho, sigma)

    @staticmethod
    def synthetic_profile():
        return MonotonicityProfile(radii=np.array([0.25, 0.3, 0.35, 0.4]), phi_values=np.zeros(4),
                                   boundary_integrand=np.zeros(4),
                                   defects=np.array([1.0, 2.0, 4.0]))

    def test_defect_between_takes_the_nearest_sampled_radius(self):
        # one rounding step above 0.25, the first radius, not below 0.3
        rho = 0.1 + 0.2 - 0.05
        assert rho != 0.25 and np.isclose(rho, 0.25)
        assert self.synthetic_profile().defect_between(rho, 0.4) == 7.0

    def test_defect_between_reversed_bounds_is_value_error(self):
        with pytest.raises(ValueError, match="reversed bounds"):
            self.synthetic_profile().defect_between(0.35, 0.25)

    def test_window_is_enforced(self, disk64):
        u = degree2_field(disk64)
        with pytest.raises(ValueError):
            phi(u, 1.0)
        with pytest.raises(ValueError):
            phi(u, 0.5 / 64)
        with pytest.raises(ValueError):
            phi_profile(u, [0.5])


class TestRadialCompositeOracle:
    def test_closed_form_profile(self, disk256):
        u = radial_composite(disk256)
        for r in (0.25, 0.4, 0.6, 0.75):
            assert phi(u, r) == pytest.approx(radial_composite_phi(r), rel=5e-3)

    def test_identity_defect_small_and_shrinking(self, disk256, disk512):
        """|defect| stays under 2% of the profile change and drops by at
        least half from 256 to 512 cells per direction."""
        delta_exact = radial_composite_phi(0.75) - radial_composite_phi(0.25)
        rel = {}
        for grid in (disk256, disk512):
            u = radial_composite(grid)
            # sample at four-cell strides so the trapezoid error of the
            # dissipation term refines together with the stencil error
            radii = 0.25 + 4.0 * grid.dr * np.arange(round(0.5 / (4.0 * grid.dr)) + 1)
            prof = phi_profile(u, radii)
            rel[grid.n_r] = abs(prof.defect_between(0.25, 0.75)) / abs(delta_exact)
        assert rel[256] <= 0.02
        assert rel[512] <= 0.5 * rel[256]

    def test_profile_change_matches_closed_form(self, disk256):
        u = radial_composite(disk256)
        prof = phi_profile(u, np.linspace(0.25, 0.75, 51))
        delta = prof.phi_values[-1] - prof.phi_values[0]
        exact = radial_composite_phi(0.75) - radial_composite_phi(0.25)
        assert delta == pytest.approx(exact, rel=0.01)
        assert exact == pytest.approx(12.1199, abs=2e-4)

    def test_profile_nondecreasing(self, disk256):
        u = radial_composite(disk256)
        prof = phi_profile(u, np.linspace(0.25, 0.75, 51))
        assert prof.min_increment() > -1e-3


def reference_phi(u, r):
    """Phi at one radius, each term evaluated on its own (the per-radius
    evaluation that phi_profile's shared ring sums replace)."""
    grad_sq = _gradient_sq_rings(u, radial_derivative(u).values, u.grid.n_r)
    bulk = (_integrate_rings(u.grid, grad_sq.sum(axis=1), [r])[0]
            - _integrate_rings(u.grid, (2.0 * np.maximum(u.values, 0.0)).sum(axis=1), [r])[0])
    surface = _circle_integrals(u.apply(np.square), [r])[0]
    return float(bulk / r**4 - 2.0 * surface / r**5)


def reference_identity_integrand(u, r):
    """r^-4 int_{dB_r} 2 (du/dr - 2u/r)^2 dH at one radius."""
    du_dr = radial_derivative(u)
    w = ScalarField(u.grid, (du_dr.values - 2.0 * u.values / u.grid.r[:, None]) ** 2)
    return 2.0 * _circle_integrals(w, [r])[0] / r**4


class TestSharedRingSums:
    """phi_profile evaluates every radius from one gradient and one set of
    ring sums; its numbers must be those of the per-radius evaluation, bit
    for bit."""

    @pytest.mark.parametrize("grid", [
        PolarGrid(96, 64),
        build_sector_grid(2, 64, 48),
        build_sector_grid(4, 80, 16),
    ], ids=["disk", "sector_k2", "sector_k4"])
    def test_profile_equals_per_radius_evaluation(self, grid):
        u = saddle_field(grid)
        radii = [0.7, 0.25, 0.3125, 0.5, 0.61]
        prof = phi_profile(u, radii)
        for n, r in enumerate(sorted(radii)):
            assert prof.phi_values[n] == phi(u, r) == reference_phi(u, r)
            assert prof.boundary_integrand[n] == reference_identity_integrand(u, r)

    @pytest.mark.parametrize("grid", BATCH_GRIDS, ids=["disk", "sector"])
    def test_batch_equals_per_radius_evaluation(self, grid):
        # tiny balls, a ring face, r = 0.7 and both window ends in one list
        u, radii = saddle_field(grid), batch_radii(grid)
        got = _phi_values(u, radii).tolist()
        assert got == [phi(u, r) for r in radii] == [reference_phi(u, r) for r in radii]


def reference_energy_bound(M, C1, n_r, n_phi):
    """The bound by sampling M r^2 cos(2 phi) on every cell of the grid."""
    grid = build_sector_grid(2, n_r, n_phi)
    h = field_from_function(grid, lambda r, p: M * r**2 * np.cos(2.0 * p))
    excess = _integrate_rings(grid, (2.0 * np.maximum(h.values - C1, 0.0)).sum(axis=1), [1.0])[0]
    return float(np.pi * C1 * C1 - excess)


def former_energy_bound_integral(M, C1, n_r, n_phi):
    """energy_bound_integral as it was when each call built its grid and
    sorted M cos(2 phi), kept as the bit-level reference for the cached
    angle table."""
    grid = build_sector_grid(2, n_r, n_phi)
    a = -np.sort(-M * np.cos(2.0 * grid.phi))
    prefix = np.concatenate(([0.0], np.cumsum(a)))
    k = np.searchsorted(-a, -C1 / grid.r**2, side="left")
    row_sums = 2.0 * (grid.r**2 * prefix[k] - C1 * k)
    return float(np.pi * C1 * C1 - _integrate_rings(grid, row_sums, [1.0])[0])


def reference_mc_energy_bound(M, C1, samples, seed):
    """mc_energy_bound as one amplitude on two whole-array draws, so the
    blocked stream is checked bit for bit: hit-or-miss on the unit square,
    with the excess folded into (|M| q - C1)^+ by the x <-> y symmetry.
    The values are summed block by block with MC_BLOCK, the order
    mc_energy_bound adds them in; for samples <= MC_BLOCK that is
    vals.sum()."""
    rng = np.random.default_rng(seed)
    x = rng.random(samples)
    y = rng.random(samples)
    q = np.where(x * x + y * y >= 1.0, 0.0, np.abs(x * x - y * y))
    vals = np.maximum(abs(M) * q - C1, 0.0)
    total = 0.0
    for start in range(0, samples, MC_BLOCK):
        total += vals[start:start + MC_BLOCK].sum()
    return float(np.pi * C1 * C1 - 4.0 * (total / samples))


class TestEnergyBound:
    @pytest.mark.parametrize("n_r, n_phi", [(1024, 1024), (256, 256), (128, 128),
                                            (32, 8), (8, 200)])
    def test_prefix_sums_match_full_grid_quadrature(self, n_r, n_phi):
        C1 = 0.5
        for M in (-3.0, 0.5, 1.0, 1.89, 2.0, 3.0, 4.0, 40.0):
            got = energy_bound_integral(M, C1, n_r, n_phi)
            bound = 1e-13 * max(abs(got), math.pi * C1 * C1)
            assert abs(got - reference_energy_bound(M, C1, n_r, n_phi)) <= bound
            # the cell-centred grid is symmetric under phi -> pi/2 - phi
            assert abs(energy_bound_integral(-M, C1, n_r, n_phi) - got) <= bound

    def test_non_finite_amplitude_rejected(self):
        for M in (math.inf, math.nan):
            with pytest.raises(ValueError):
                energy_bound_integral(M, 0.5, 64, 64)

    @pytest.mark.parametrize("C1", [0.0, -0.5])
    def test_non_positive_torsion_bound_rejected(self, C1):
        with pytest.raises(ValueError, match=f"C1 must be positive, got {C1}"):
            energy_bound_integral(1.0, C1, 64, 64)

    def test_zero_amplitude_gives_disk_area(self):
        assert energy_bound_integral(0.0, 0.5) == pytest.approx(
            math.pi * 0.25, abs=1e-9)

    def test_matches_monte_carlo(self):
        for M in (0.0, 2.0, 4.0):
            quad = energy_bound_integral(M, 0.5)
            mc = mc_energy_bound(M, 0.5, samples=1_000_000, seed=0)
            scale = max(abs(quad), math.pi * 0.25)
            assert abs(quad - mc) / scale < 0.01

    @pytest.mark.parametrize("samples, C1", [(0, 0.5), (-5, 0.5), (100, 0.0), (100, -1.0)])
    def test_monte_carlo_rejects_bad_arguments(self, samples, C1):
        with pytest.raises(ValueError):
            mc_energy_bound(2.0, C1, samples=samples)

    @pytest.mark.parametrize("samples, C1", [(0, 0.5), (100, 0.0)])
    def test_monte_carlo_on_an_array_rejects_bad_arguments(self, samples, C1):
        with pytest.raises(ValueError):
            mc_energy_bound(np.array([0.0, 2.0]), C1, samples=samples)

    @pytest.mark.parametrize("M", [math.nan, math.inf, -math.inf])
    def test_monte_carlo_rejects_non_finite_amplitude(self, M):
        for amplitudes in (M, np.array([0.0, 2.0, M])):
            with pytest.raises(ValueError, match=f"finite, got {M}"):
                mc_energy_bound(amplitudes, 0.5, samples=100)

    def test_monte_carlo_memory_does_not_grow_with_samples(self):
        # three sample arrays of full length would take 48 MB here
        tracemalloc.start()
        try:
            mc_energy_bound([0.0, 4.0], 0.5, 2_000_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_monte_carlo_is_seed_stable(self):
        a = mc_energy_bound(3.0, 0.5, samples=200_000, seed=42)
        b = mc_energy_bound(3.0, 0.5, samples=200_000, seed=42)
        assert a == b

    @pytest.mark.parametrize("C1", [0.5, 0.3])
    @pytest.mark.parametrize("samples", MC_SAMPLES)
    @pytest.mark.parametrize("seed", [0, 123456])
    def test_monte_carlo_on_an_array_is_bitwise_the_scalar_estimates(self, C1, samples, seed):
        Ms = [0.0, 1.89, 4.0, -3.0, 40.0]
        got = mc_energy_bound(np.array(Ms), C1, samples=samples, seed=seed)
        assert isinstance(got, np.ndarray) and got.shape == (len(Ms),)
        for M, value in zip(Ms, got):
            assert value == mc_energy_bound(M, C1, samples=samples, seed=seed)
            assert value == reference_mc_energy_bound(M, C1, samples, seed)

    @pytest.mark.parametrize("samples", [1, MC_BLOCK + 1])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_monte_carlo_is_exact_while_the_excess_vanishes(self, samples, seed):
        # |M| q < C1 on the quarter disk, where q = |x^2 - y^2| < 1
        C1 = 0.5
        for M in (0.0, 0.25, -0.5, C1):
            assert mc_energy_bound(M, C1, samples=samples, seed=seed) == np.pi * C1 * C1

    def test_monte_carlo_is_even_in_M(self):
        Ms = np.array([0.7, 1.89, 4.0, 40.0])
        assert np.array_equal(mc_energy_bound(-Ms, 0.5, samples=50_000, seed=5),
                              mc_energy_bound(Ms, 0.5, samples=50_000, seed=5))
        assert mc_energy_bound(-4.0, 0.3, samples=1000) == mc_energy_bound(4.0, 0.3, samples=1000)

    def test_monte_carlo_keeps_the_shape_of_M(self):
        Ms = np.array([[0.0, 2.0], [4.0, -3.0]])
        got = mc_energy_bound(Ms, 0.5, samples=1000, seed=3)
        assert got.shape == (2, 2)
        assert got[1, 0] == mc_energy_bound(4.0, 0.5, samples=1000, seed=3)

    @pytest.mark.parametrize("M", [2.0, 3, np.float64(1.5), np.array(4.0)])
    def test_monte_carlo_of_one_amplitude_is_a_float(self, M):
        got = mc_energy_bound(M, 0.5, samples=1000, seed=1)
        assert type(got) is float
        assert got == reference_mc_energy_bound(float(M), 0.5, 1000, 1)

    def test_scan_nonincreasing_and_crosses_zero(self):
        Ms, vals = threshold_scan([0.0, 1.0, 2.0, 3.0, 4.0], 0.5)
        assert np.array_equal(Ms, [0.0, 1.0, 2.0, 3.0, 4.0])
        assert np.all(np.diff(vals) <= 1e-12)
        assert vals[0] > 0.0 > vals[-1]

    def test_bisection_reproduces_frozen_threshold(self):
        m_star = find_threshold(0.5, 1.5, 2.0, tol=1e-6)
        assert m_star == pytest.approx(BISECTED_THRESHOLD, abs=5e-6)
        assert energy_bound_integral(m_star + 0.01, 0.5) < 0.0
        assert energy_bound_integral(m_star - 0.01, 0.5) > 0.0

    @pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan])
    def test_bisection_rejects_non_positive_tolerance(self, tol):
        # adjacent floats have one of themselves as midpoint, so tol <= 0
        # would never end the loop
        with pytest.raises(ValueError, match="tolerance"):
            find_threshold(0.5, 1.5, 2.0, tol=tol, n_r=64, n_phi=64)

    @pytest.mark.parametrize("m_lo, m_hi", [(0.0, 1.0), (3.0, 4.0)],
                             ids=["both_positive", "both_negative"])
    def test_bisection_rejects_bracket_without_sign_change(self, m_lo, m_hi):
        # the threshold lies near 1.89, outside both brackets
        with pytest.raises(ValueError, match="does not bracket a sign change"):
            find_threshold(0.5, m_lo, m_hi, n_r=64, n_phi=64)

    def test_bisection_accepts_an_upper_end_of_exactly_zero(self, monkeypatch):
        # the scan brackets at f(m_lo) > 0 >= f(m_hi), and the bisection sends
        # a zero to the upper side, so a zero at m_hi is a bracket
        monkeypatch.setattr(monotonicity, "energy_bound_integral", lambda M, *args: 1.0 - M)
        assert find_threshold(0.5, 0.0, 1.0, tol=1e-6) == pytest.approx(1.0, abs=1e-6)
        with pytest.raises(ValueError, match="does not bracket a sign change"):
            find_threshold(0.5, 1.0, 2.0)

    @pytest.mark.parametrize("m_lo, m_hi", [(1.0, -3.0), (1.5, 1.5), (math.nan, 2.0)])
    def test_bisection_rejects_reversed_bracket(self, m_lo, m_hi):
        # the bound is even in M, so f(1) > 0 > f(-3) passes the sign test;
        # without the order check the loop ends at once and returns -1.0
        with pytest.raises(ValueError, match="m_lo < m_hi"):
            find_threshold(0.5, m_lo, m_hi, n_r=64, n_phi=64)


class TestAngleTable:
    """energy_bound_integral reads its grid, cos(2 phi) in decreasing order
    and r^2 from a read-only table cached per (n_r, n_phi)."""

    @pytest.mark.parametrize("n_r, n_phi", [(1024, 1024), (64, 64), (64, 200), (33, 17)])
    @pytest.mark.parametrize("C1", [0.5, 0.3])
    def test_equals_the_former_expression_bit_for_bit(self, n_r, n_phi, C1):
        for M in (0.0, -0.0, 0.25, -0.25, 1.89, -1.89, 4.0, -4.0, 40.0, -40.0):
            got = energy_bound_integral(M, C1, n_r, n_phi)
            assert np.float64(got).tobytes() == \
                np.float64(former_energy_bound_integral(M, C1, n_r, n_phi)).tobytes()

    def test_cached_arrays_are_read_only(self):
        grid, c, r2 = monotonicity._angle_table(64, 64)
        for a in (c, r2, grid.r, grid.phi, grid.r_faces, grid.cell_areas):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0

    @pytest.mark.parametrize("args", [(1.0, 0.0, 64, 64), (1.0, -0.5, 64, 64),
                                      (math.nan, 0.5, 64, 64), (math.inf, 0.5, 64, 64),
                                      (1.0, 0.5, 7, 64), (1.0, 0.5, 64, 4)],
                             ids=["C1_zero", "C1_negative", "M_nan", "M_inf",
                                  "n_r_below_8", "n_phi_below_8"])
    def test_rejected_arguments_leave_nothing_in_the_cache(self, args):
        monotonicity._angle_table.cache_clear()
        with pytest.raises(ValueError):
            energy_bound_integral(*args)
        assert monotonicity._angle_table.cache_info().currsize == 0


class TestMonteCarloThreads:
    """mc_energy_bound cuts its blocks into one contiguous range per
    thread; the estimates must not depend on the cut or on the cores."""

    @pytest.mark.parametrize("samples", MC_SAMPLES)
    def test_block_sums_do_not_depend_on_the_cut(self, samples):
        amplitudes = [0.6, 1.89, 4.0, 40.0]
        whole = _mc_block_sums(3, samples, 0, samples, 0.5, amplitudes)
        assert whole.shape == (-(-samples // MC_BLOCK), len(amplitudes))
        edges = [min(samples, b * MC_BLOCK) for b in range(whole.shape[0] + 1)]
        for i, lo in enumerate(edges):
            for hi in edges[i:]:
                parts = [_mc_block_sums(3, samples, a, b, 0.5, amplitudes)
                         for a, b in [(0, lo), (lo, hi), (hi, samples)]]
                assert np.array_equal(np.concatenate(parts), whole)

    # 41 blocks: enough for numpy's pairwise sum to round unlike block order
    @pytest.mark.parametrize("cores", [1, 2, 4])
    @pytest.mark.parametrize("samples", MC_SAMPLES + [41 * MC_BLOCK + 3])
    def test_estimates_do_not_depend_on_the_cores(self, monkeypatch, cores, samples):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        ranges, block_sums = [], _mc_block_sums

        def counting(*args):
            ranges.append(args[2:4])
            return block_sums(*args)

        monkeypatch.setattr(monotonicity, "_mc_block_sums", counting)
        Ms = [0.0, 1.89, -3.0, 40.0]
        got = mc_energy_bound(np.array(Ms), 0.5, samples=samples, seed=11)
        for M, value in zip(Ms, got):
            assert value == reference_mc_energy_bound(M, 0.5, samples, 11)
        # one range per thread, never more than MC_WORKERS, tiling the samples
        assert len(ranges) == min(cores, MC_WORKERS, -(-samples // MC_BLOCK))
        bounds = sorted(ranges)
        assert bounds[0][0] == 0 and bounds[-1][1] == samples
        assert all(stop == start for (_, stop), (start, _) in zip(bounds, bounds[1:]))

    @pytest.mark.parametrize("cpu_count", [None, 1, 2, 4])
    def test_cores_without_sched_getaffinity(self, monkeypatch, cpu_count):
        # os.sched_getaffinity exists on Linux alone; elsewhere os.cpu_count()
        # counts the cores, and may return None
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        ranges, block_sums = [], _mc_block_sums

        def counting(*args):
            ranges.append(args[2:4])
            return block_sums(*args)

        monkeypatch.setattr(monotonicity, "_mc_block_sums", counting)
        samples = 3 * MC_BLOCK + 5
        Ms = [0.0, 1.89, -3.0, 40.0]
        got = mc_energy_bound(np.array(Ms), 0.5, samples=samples, seed=11)
        for M, value in zip(Ms, got):
            assert value == reference_mc_energy_bound(M, 0.5, samples, 11)
        assert len(ranges) == min(cpu_count or 1, MC_WORKERS)

    def test_no_draw_without_an_amplitude_above_C1(self, monkeypatch):
        draws, generator = [], np.random.Generator

        class CountingGenerator:
            def __init__(self, bit_generator):
                self.inner = generator(bit_generator)

            def random(self, *args, **kwargs):
                draws.append(kwargs["out"].size)
                return self.inner.random(*args, **kwargs)

        monkeypatch.setattr(np.random, "Generator", CountingGenerator)
        assert mc_energy_bound(4.0, 0.5, samples=MC_BLOCK + 1, seed=2) == \
            reference_mc_energy_bound(4.0, 0.5, MC_BLOCK + 1, 2)
        assert sum(draws) == 2 * (MC_BLOCK + 1)
        draws.clear()
        got = mc_energy_bound(np.array([0.0, 0.25, -0.5]), 0.5, samples=10**6, seed=2)
        assert draws == []
        assert np.array_equal(got, np.full(3, np.pi * 0.25))
