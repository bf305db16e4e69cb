"""Quadrature, derivative, trace, and serialization tests for scalar fields.

Expected values are closed forms: areas of balls, moments of homogeneous
harmonics, and Fourier coefficients of single-mode traces.
"""

import math

import numpy as np
import pytest

from conftest import degree2_field

from unstablefb import (
    ScalarField,
    SectorSpec,
    as_disk,
    build_disk_grid,
    build_sector_grid,
    eval_origin,
    field_from_function,
    gradient_sq,
    integrate_ball,
    integrate_circle,
    radial_derivative,
    read_field_csv,
    sample_circle,
    trace_on_circle,
    write_field_csv,
    write_field_vtk,
)


def reference_integrate_ball(field, integrand, r):
    """integrate_ball as it was when it built its ring sums inline, kept
    as the bit-level reference for the shared radial rule."""
    g = field.grid
    vals = field.values if integrand is None else np.asarray(integrand(field.values), dtype=float)
    r = min(r, 1.0)
    dr = g.dr
    ring_line = vals.sum(axis=1) * g.dphi * g.multiplicity
    gvals = g.r * ring_line
    n_full = int(math.floor(r / dr + 1e-12))
    delta = r - n_full * dr
    if delta < 1e-12 * dr:
        delta = 0.0
    if n_full < 4:
        rf2 = g.r_faces**2
        w = np.clip((min(r, 1.0) ** 2 - rf2[:-1]) / (rf2[1:] - rf2[:-1]), 0.0, 1.0)
        return float(np.dot(w, vals.sum(axis=1) * g.cell_areas) * g.multiplicity)
    total = dr * float(gvals[:n_full].sum())
    gp_zero = 1.5 * float(ring_line[0]) - 0.5 * float(ring_line[1])
    gp_face = float(gvals[n_full - 3] - 3.0 * gvals[n_full - 2] + 2.0 * gvals[n_full - 1]) / dr
    total += dr * dr / 24.0 * (gp_face - gp_zero)
    if delta > 0.0:
        lo = min(max(n_full - 1, 0), g.n_r - 3)
        (x0, x1, x2), (y0, y1, y2) = g.r[lo:lo + 3], gvals[lo:lo + 3]
        s = n_full * dr + 0.5 * delta
        total += delta * float(
            y0 * (s - x1) * (s - x2) / ((x0 - x1) * (x0 - x2))
            + y1 * (s - x0) * (s - x2) / ((x1 - x0) * (x1 - x2))
            + y2 * (s - x0) * (s - x1) / ((x2 - x0) * (x2 - x1))
        )
    return total


class TestBallIntegrals:
    @pytest.mark.parametrize("grid", [build_disk_grid(64, 48), build_sector_grid(2, 50, 30)],
                             ids=["disk", "sector"])
    @pytest.mark.parametrize("r", [0.02, 0.5, 0.73, 1.0])
    def test_bit_equal_to_inline_ring_sums(self, grid, r):
        # 0.02 is a tiny ball, 0.73 cuts a ring, 0.5 and 1.0 end on faces
        u = ScalarField(grid, np.random.default_rng(7).standard_normal(grid.shape))
        for integrand in (None, lambda v: 2.0 * np.maximum(v, 0.0)):
            assert integrate_ball(u, integrand, r) == reference_integrate_ball(u, integrand, r)

    def test_constant_gives_ball_area(self, disk256):
        one = field_from_function(disk256, lambda r, p: np.ones_like(r))
        for r in (0.2, 0.5, 0.93):
            assert integrate_ball(one, None, r) == pytest.approx(
                math.pi * r**2, abs=1e-12)

    def test_cut_ring_fraction(self, disk64):
        """Radii falling strictly inside a ring keep full accuracy."""
        one = field_from_function(disk64, lambda r, p: np.ones_like(r))
        r = 0.5 + 0.37 / 64
        assert integrate_ball(one, None, r) == pytest.approx(math.pi * r**2, rel=1e-10)

    def test_pure_angular_mode_integrates_to_zero(self, disk256):
        u = degree2_field(disk256)
        assert abs(integrate_ball(u, None, 0.6)) < 1e-12

    def test_radial_quartic_moment(self, disk256):
        """int_{B_r} s^2 = pi r^4 / 2 with fourth-order quadrature error."""
        u = field_from_function(disk256, lambda r, p: r**2)
        for r in (0.25, 0.75):
            assert integrate_ball(u, None, r) == pytest.approx(
                math.pi * r**4 / 2.0, rel=1e-6)

    def test_positive_part_integrand(self, disk256):
        # int_{B_r} 2 (r^2 cos 2phi)^+ = r^4: angular positive part has
        # integral 2 over the period, radial moment r^4/4
        u = degree2_field(disk256)
        got = integrate_ball(u, lambda v: 2.0 * np.maximum(v, 0.0), 0.5)
        # the positive-part kink limits angular midpoint accuracy to O(dphi^2)
        assert got == pytest.approx(0.5**4, rel=5e-4)

    def test_sector_field_counts_all_copies(self):
        g = build_sector_grid(2, 64, 64)
        one = field_from_function(g, lambda r, p: np.ones_like(r))
        assert integrate_ball(one, None, 0.5) == pytest.approx(
            math.pi * 0.25, abs=1e-12)


class TestCircleIntegrals:
    def test_constant(self, disk256):
        c = field_from_function(disk256, lambda r, p: np.full_like(r, 1.7))
        assert integrate_circle(c, 0.41) == pytest.approx(
            2.0 * math.pi * 0.41 * 1.7, rel=1e-12)

    def test_angular_mode_annihilated(self, disk256):
        u = degree2_field(disk256)
        assert abs(integrate_circle(u, 0.37)) < 1e-12

    def test_radial_cubic_interpolation_is_exact(self, disk256):
        u = field_from_function(disk256, lambda r, p: r**3 - 0.2 * r)
        r = 0.437
        assert integrate_circle(u, r) == pytest.approx(
            2.0 * math.pi * r * (r**3 - 0.2 * r), rel=1e-12)

    def test_near_rim_uses_one_sided_stencil(self, disk64):
        u = field_from_function(disk64, lambda r, p: r**2)
        r = 1.0 - 1.2 / 64
        assert integrate_circle(u, r) == pytest.approx(
            2.0 * math.pi * r**3, rel=1e-10)


class TestDerivatives:
    def test_radial_derivative_exact_on_quadratics(self, disk64):
        u = field_from_function(disk64, lambda r, p: 3.0 * r**2 - r + 0.5)
        du = radial_derivative(u)
        exact = 6.0 * disk64.r - 1.0
        assert np.max(np.abs(du.values - exact[:, None])) < 1e-12

    def test_gradient_energy_of_degree2_mode(self, disk256):
        """|grad(r^2 cos 2phi)|^2 = 4 r^2 pointwise."""
        u = degree2_field(disk256)
        gs = gradient_sq(u)
        exact = 4.0 * disk256.r[:, None] ** 2 * np.ones(disk256.shape)
        assert np.max(np.abs(gs.values - exact)) < 1e-10

    def test_gradient_energy_on_sector_matches_disk(self):
        sector = build_sector_grid(2, 64, 64)
        u = degree2_field(sector)
        gs = gradient_sq(u)
        exact = 4.0 * sector.r[:, None] ** 2
        # sector grids differentiate angles by second-order central
        # differences (reflected ghosts), so expect O(dphi^2) accuracy
        assert np.max(np.abs(gs.values - exact * np.ones(sector.shape))) < 5e-3


class TestOriginValue:
    def test_exact_on_even_radial_polynomials(self, disk64):
        """Ring means of smooth fields are even in r; the extrapolation is
        exact on 1, r^2, r^4."""
        u = field_from_function(disk64, lambda r, p: 1.0 + 3.0 * r**2 - 2.0 * r**4)
        assert eval_origin(u) == pytest.approx(1.0, abs=1e-10)

    def test_pure_angular_modes_average_out(self, disk64):
        u = degree2_field(disk64, M=40.0)
        assert abs(eval_origin(u)) < 1e-12


class TestTraces:
    def test_sample_circle_matches_function(self, disk256):
        u = field_from_function(disk256, lambda r, p: r * np.cos(p))
        angles, vals = sample_circle(u, 0.5, 512)
        assert angles.shape == vals.shape == (512,)
        assert np.max(np.abs(vals - 0.5 * np.cos(angles))) < 5e-5

    def test_fourier_single_mode(self, disk256):
        u = degree2_field(disk256)
        tr = trace_on_circle(u, 0.5, m=256)
        assert tr.a[2] == pytest.approx(0.25, rel=1e-4)
        assert abs(tr.b[2]) < 1e-12
        others = np.delete(np.arange(len(tr.a)), 2)
        assert np.max(np.abs(tr.a[others])) < 1e-6
        assert tr.mode_energy_fraction(2) == pytest.approx(1.0, abs=1e-9)
        assert tr.parseval_gap() == pytest.approx(0.0, abs=1e-9)

    def test_mean_square(self, disk256):
        u = degree2_field(disk256)
        tr = trace_on_circle(u, 0.5, m=512)
        assert tr.mean_square() == pytest.approx(0.25**2 / 2.0, rel=1e-3)


class TestDiskExtension:
    def test_disk_field_passes_through(self, disk64):
        u = degree2_field(disk64)
        assert as_disk(u) is u

    def test_sector_field_extends(self):
        g = build_sector_grid(2, 32, 32)
        u = degree2_field(g)
        d = as_disk(u)
        assert d.grid.periodic and d.grid.n_phi == 4 * 32
        direct = degree2_field(d.grid)
        assert np.max(np.abs(d.values - direct.values)) < 1e-13

    def test_sector_without_spec_is_rejected(self):
        g = build_sector_grid(2, 16, 16)
        stripped = ScalarField(
            type(g)(g.n_r, g.n_phi, g.phi_total, periodic=False, spec=None),
            np.zeros(g.shape))
        with pytest.raises(ValueError):
            as_disk(stripped)


class TestSerialization:
    def test_csv_roundtrip_is_bitwise(self, tmp_path, disk64):
        rng = np.random.default_rng(11)
        u = ScalarField(disk64, rng.standard_normal(disk64.shape))
        path = tmp_path / "field.csv"
        write_field_csv(u, path)
        back = read_field_csv(path)
        assert back.grid.shape == disk64.shape
        assert back.grid.periodic
        assert np.array_equal(back.values, u.values)

    def test_sector_csv_keeps_sector_metadata(self, tmp_path):
        g = build_sector_grid(4, 16, 16)
        u = degree2_field(g)
        path = tmp_path / "sector.csv"
        write_field_csv(u, path)
        back = read_field_csv(path)
        assert not back.grid.periodic
        assert back.grid.spec == SectorSpec(4)
        assert np.array_equal(back.values, u.values)

    def test_vtk_header(self, tmp_path, disk64):
        u = degree2_field(disk64)
        path = tmp_path / "field.vtk"
        write_field_vtk(u, path)
        text = path.read_text()
        assert text.startswith("# vtk DataFile")
        assert "STRUCTURED_GRID" in text
        assert "SCALARS" in text
