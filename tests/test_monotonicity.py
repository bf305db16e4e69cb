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
   (reference_energy_bound) to rounding.
"""

import math

import numpy as np
import pytest

from conftest import degree2_field, radial_composite, radial_composite_phi

from unstablefb import (
    SectorSpec,
    build_disk_grid,
    build_sector_grid,
    energy_bound_integral,
    field_from_function,
    find_threshold,
    integrate_ball,
    mc_energy_bound,
    phi,
    phi_profile,
    threshold_scan,
)

BISECTED_THRESHOLD = 1.890723705291748  # frozen bisection output at C1 = 1/2


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
        dissipated = float(np.trapezoid(prof.boundary_integrand, prof.radii))
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


def reference_energy_bound(M, C1, n_r, n_phi):
    """The bound by sampling M r^2 cos(2 phi) on every cell of the grid."""
    grid = build_sector_grid(SectorSpec(2), n_r, n_phi)
    h = field_from_function(grid, lambda r, p: M * r**2 * np.cos(2.0 * p))
    excess = integrate_ball(h, lambda v: 2.0 * np.maximum(v - C1, 0.0), 1.0)
    return float(np.pi * C1 * C1 - excess)


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

    def test_monte_carlo_is_seed_stable(self):
        a = mc_energy_bound(3.0, 0.5, samples=200_000, seed=42)
        b = mc_energy_bound(3.0, 0.5, samples=200_000, seed=42)
        assert a == b

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
