"""Quadrature, derivative, trace, and serialization tests for scalar fields.

Expected values are closed forms: areas of balls, moments of homogeneous
harmonics, and Fourier coefficients of single-mode traces.
"""

import math
import re

import numpy as np
import pytest

from conftest import BATCH_GRIDS, VTK_DEFECTS, batch_radii, degree2_field, malformed_vtk

from unstablefb import (
    PolarGrid,
    ScalarField,
    blowup_report,
    build_sector_grid,
    eval_origin,
    fit_arcs_at_origin,
    phi_profile,
    radial_derivative,
    read_field,
    read_field_csv,
    write_field_vtk,
)
from unstablefb.field import (
    _circle_integrals,
    _circle_samples,
    _circle_traces,
    _gradient_sq_rings,
    _integrate_rings,
    check_window,
    field_from_function,
    write_field_csv,
    write_json,
    write_table,
)
from unstablefb.freeboundary import _crossing_angles
from unstablefb.mesh import reflect_to_disk


def reference_integrate_ball(field, integrand, r):
    """The ball integral of integrand(u) (u when None) over radius r as it was
    when it built its ring sums inline, kept as the bit-level reference for
    the shared radial rule."""
    g = field.grid
    vals = field.values if integrand is None else np.asarray(integrand(field.values), dtype=float)
    r = min(r, 1.0)
    dr = g.dr
    ring_line = vals.sum(axis=1) * g.dphi * float(g.copies)
    gvals = g.r * ring_line
    n_full = int(math.floor(r / dr + 1e-12))
    delta = r - n_full * dr
    if delta < 1e-12 * dr:
        delta = 0.0
    if n_full < 4:
        rf2 = g.r_faces**2
        w = np.clip((min(r, 1.0) ** 2 - rf2[:-1]) / (rf2[1:] - rf2[:-1]), 0.0, 1.0)
        return float(np.dot(w, vals.sum(axis=1) * g.cell_areas) * float(g.copies))
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


def former_integrate_rings(g, row_sums, radii):
    """_integrate_rings as it was when it ran its cut-ring and tiny-ball
    blocks on every call, kept as the bit-level reference for the skips."""
    radii = np.minimum(np.asarray(radii, dtype=float), 1.0)
    dr = g.dr
    ring_line = row_sums * g.dphi * g.copies
    gvals = g.r * ring_line
    n_full = np.floor(radii / dr + 1e-12).astype(int)
    delta = radii - n_full * dr
    delta[delta < 1e-12 * dr] = 0.0
    total = dr * np.array([gvals[:n].sum() for n in n_full.tolist()])
    gp_zero = 1.5 * ring_line[0] - 0.5 * ring_line[1]
    gp_face = (gvals[n_full - 3] - 3.0 * gvals[n_full - 2] + 2.0 * gvals[n_full - 1]) / dr
    total += dr * dr / 24.0 * (gp_face - gp_zero)
    cut = delta > 0.0
    rows = np.clip(n_full[cut] - 1, 0, g.n_r - 3)[:, None] + np.arange(3)
    (x0, x1, x2), (y0, y1, y2) = g.r[rows].T, gvals[rows].T
    s = n_full[cut] * dr + 0.5 * delta[cut]
    total[cut] += delta[cut] * (
        y0 * (s - x1) * (s - x2) / ((x0 - x1) * (x0 - x2))
        + y1 * (s - x0) * (s - x2) / ((x1 - x0) * (x1 - x2))
        + y2 * (s - x0) * (s - x1) / ((x2 - x0) * (x2 - x1))
    )
    rf2 = g.r_faces**2
    for n in np.flatnonzero(n_full < 4).tolist():
        w = np.clip((radii[n].item() ** 2 - rf2[:-1]) / (rf2[1:] - rf2[:-1]), 0.0, 1.0)
        total[n] = np.dot(w, row_sums * g.cell_areas) * g.copies
    return total


def reference_integrate_circle(field, r):
    """The circle integral as it was when it took one radius per call, kept
    as the bit-level reference for the batched circle integrals."""
    g = field.grid
    i = int(np.clip(math.floor(r / g.dr - 0.5), 0, g.n_r - 2))
    lo = int(np.clip(i - 1, 0, g.n_r - 4))
    x = g.r[lo:lo + 4]
    w = np.array([np.prod([(r - x[l]) / (x[m] - x[l]) for l in range(4) if l != m])
                  for m in range(4)])
    return float((w @ field.values[lo:lo + 4, :]).sum() * g.dphi * r * g.copies)


def reference_write_field_csv(field: ScalarField, path) -> None:
    """write_field_csv as it was when it called np.savetxt, kept as the
    byte-level reference for the ring-at-a-time writer."""
    g = field.grid
    rr, pp = g.mesh_coords()
    data = np.column_stack([rr.ravel(), pp.ravel(), field.values.ravel()])
    header = "r,phi,value"
    np.savetxt(path, data, delimiter=",", header=header, comments="", fmt="%.17g")


def reference_write_double_points_vtk(field: ScalarField, path) -> None:
    """write_field_vtk as it was when it wrote the points as float64, kept as
    the oracle of that layout, which every earlier run directory holds."""
    g = field.grid
    points = np.zeros((g.n_phi, g.n_r, 3), dtype=">f8")
    np.multiply.outer(np.cos(g.phi), g.r, out=points[..., 0])
    np.multiply.outer(np.sin(g.phi), g.r, out=points[..., 1])
    header = ("# vtk DataFile Version 3.0\nu on polar grid\nBINARY\nDATASET STRUCTURED_GRID\n"
              f"DIMENSIONS {g.n_r} {g.n_phi} 1\nPOINTS {g.size} double\n")
    point_data = f"\nPOINT_DATA {g.size}\nSCALARS u double 1\nLOOKUP_TABLE default\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8"))
        fh.write(points)
        fh.write(point_data.encode("utf-8"))
        fh.write(np.ascontiguousarray(field.values.T, dtype=">f8"))
        fh.write(b"\n")


def read_legacy_vtk(path):
    """Header lines, points, point-data lines, values and trailing bytes of a
    BINARY legacy-VTK structured grid as write_field_vtk lays it out, with
    float or double points as the POINTS line declares."""
    raw = path.read_bytes()
    pos = 0

    def line():
        nonlocal pos
        end = raw.index(b"\n", pos)
        text, pos = raw[pos:end].decode(), end + 1
        return text

    header = [line() for _ in range(6)]
    _, count, point_type = header[5].split()
    n = int(count)
    dtype = np.dtype({"float": ">f4", "double": ">f8"}[point_type])
    points = np.frombuffer(raw, dtype, 3 * n, pos).reshape(n, 3)
    pos += 3 * dtype.itemsize * n
    assert line() == ""  # the newline that ends the point block
    point_data = [line() for _ in range(3)]
    values = np.frombuffer(raw, ">f8", n, pos)
    return header, points, point_data, values, raw[pos + 8 * n:]


class TestBallIntegrals:
    @pytest.mark.parametrize("grid", [PolarGrid(64, 48), build_sector_grid(2, 50, 30)],
                             ids=["disk", "sector"])
    @pytest.mark.parametrize("r", [0.02, 0.5, 0.73, 1.0])
    def test_bit_equal_to_inline_ring_sums(self, grid, r):
        # 0.02 is a tiny ball, 0.73 cuts a ring, 0.5 and 1.0 end on faces
        u = ScalarField(grid, np.random.default_rng(7).standard_normal(grid.shape))
        for integrand in (None, lambda v: 2.0 * np.maximum(v, 0.0)):
            vals = u.values if integrand is None else integrand(u.values)
            got = _integrate_rings(grid, vals.sum(axis=1), [r])[0]
            assert got == reference_integrate_ball(u, integrand, r)

    def test_constant_gives_ball_area(self, disk256):
        rows = np.full(disk256.n_r, float(disk256.n_phi))  # ring sums of u = 1
        for r in (0.2, 0.5, 0.93):
            assert _integrate_rings(disk256, rows, [r])[0] == pytest.approx(
                math.pi * r**2, abs=1e-12)

    def test_cut_ring_fraction(self, disk64):
        """Radii falling strictly inside a ring keep full accuracy."""
        rows = np.full(disk64.n_r, float(disk64.n_phi))
        r = 0.5 + 0.37 / 64
        assert _integrate_rings(disk64, rows, [r])[0] == pytest.approx(math.pi * r**2, rel=1e-10)

    def test_pure_angular_mode_integrates_to_zero(self, disk256):
        rows = degree2_field(disk256).values.sum(axis=1)
        assert abs(_integrate_rings(disk256, rows, [0.6])[0]) < 1e-12

    def test_radial_quartic_moment(self, disk256):
        """int_{B_r} s^2 = pi r^4 / 2 with fourth-order quadrature error."""
        rows = field_from_function(disk256, lambda r, p: r**2).values.sum(axis=1)
        for r in (0.25, 0.75):
            assert _integrate_rings(disk256, rows, [r])[0] == pytest.approx(
                math.pi * r**4 / 2.0, rel=1e-6)

    def test_positive_part_integrand(self, disk256):
        # int_{B_r} 2 (r^2 cos 2phi)^+ = r^4: angular positive part has
        # integral 2 over the period, radial moment r^4/4
        rows = (2.0 * np.maximum(degree2_field(disk256).values, 0.0)).sum(axis=1)
        got = _integrate_rings(disk256, rows, [0.5])[0]
        # the positive-part kink limits angular midpoint accuracy to O(dphi^2)
        assert got == pytest.approx(0.5**4, rel=5e-4)

    def test_sector_field_counts_all_copies(self):
        g = build_sector_grid(2, 64, 64)
        rows = np.full(g.n_r, float(g.n_phi))
        assert _integrate_rings(g, rows, [0.5])[0] == pytest.approx(math.pi * 0.25, abs=1e-12)


DR64 = 1.0 / 64  # dr of disk64, the open inner end of its window


class TestScalarField:
    def test_shape_mismatch_rejected(self, disk64):
        with pytest.raises(ValueError, match=r"values shape \(64, 63\) does not match grid"):
            ScalarField(disk64, np.zeros((64, 63)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_value_rejected(self, disk64, bad):
        values = np.zeros(disk64.shape)
        values[3, 5] = bad
        with pytest.raises(ValueError, match="non-finite"):
            ScalarField(disk64, values)


class TestRadiusRule:
    """Every circle diagnostic takes its radii from one window, (dr, 1 - dr],
    and every radius list from one rule: at least two, each in the window."""

    AT_DR = "radius 0.015625 outside the valid window"
    ONE = r"need at least two radii, got \[0.3\]"
    CASES = {
        "circle_integrals-r_is_dr": (lambda u: _circle_integrals(u, [DR64])[0], AT_DR),
        "circle_samples-r_is_dr": (lambda u: _circle_samples(u, [DR64], 64), AT_DR),
        "phi_profile-r_is_dr": (lambda u: phi_profile(u, [DR64, 0.3]), AT_DR),
        "phi_profile-one_radius": (lambda u: phi_profile(u, [0.3]), ONE),
        "blowup_report-r_is_dr": (lambda u: blowup_report(u, [DR64, 0.3]), AT_DR),
        "blowup_report-one_radius": (lambda u: blowup_report(u, [0.3]), ONE),
        "fit_arcs_at_origin-r_is_dr": (lambda u: fit_arcs_at_origin(u, [DR64, 0.3]), AT_DR),
        "fit_arcs_at_origin-one_radius": (lambda u: fit_arcs_at_origin(u, [0.3]), ONE),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_entry_point_rejects(self, disk64, case):
        call, message = self.CASES[case]
        with pytest.raises(ValueError, match=message):
            call(degree2_field(disk64))

    def test_window_ends(self, disk64):
        dr = disk64.dr
        for r in (dr * (1 + 1e-9), 0.5, 1.0 - dr):
            check_window(disk64, r)
        for r in (0.0, dr, 1.0 - dr + 1e-9, math.nan):
            with pytest.raises(ValueError, match="outside the valid window"):
                check_window(disk64, r)


@pytest.mark.parametrize("grid", BATCH_GRIDS, ids=["disk", "sector"])
class TestBatches:
    """Each batched circle helper evaluates a whole radius list in one pass;
    every row must be its radius's one-element batch, bit for bit."""

    @staticmethod
    def field(grid):
        return ScalarField(grid, np.random.default_rng(7).standard_normal(grid.shape))

    def test_ball_integrals(self, grid):
        u, radii = self.field(grid), batch_radii(grid)
        for integrand in (None, lambda v: 2.0 * np.maximum(v, 0.0)):
            vals = u.values if integrand is None else integrand(u.values)
            rows = vals.sum(axis=1)
            got = _integrate_rings(grid, rows, radii)
            assert got.tolist() == [_integrate_rings(grid, rows, [r])[0] for r in radii]
            assert got.tolist() == [reference_integrate_ball(u, integrand, r) for r in radii]

    @pytest.mark.parametrize("kind", ["full_only", "cut_only", "tiny_only", "mixed"])
    def test_ring_rule_skips_its_unused_blocks_bit_for_bit(self, grid, kind):
        # full-only radii skip both the cut-ring and the tiny-ball block
        dr = grid.dr
        radii = {"full_only": [1.0, 4 * dr, 8 * dr, 20 * dr],
                 "cut_only": [0.7, 1.0 - 0.5 * dr, 5.5 * dr],
                 "tiny_only": [dr * (1 + 1e-9), 2.5 * dr, 3 * dr],
                 "mixed": [1.0, *batch_radii(grid)]}[kind]
        rows = self.field(grid).values.sum(axis=1)
        got = _integrate_rings(grid, rows, radii)
        assert got.tobytes() == former_integrate_rings(grid, rows, radii).tobytes()

    def test_circle_integrals(self, grid):
        u, radii = self.field(grid), batch_radii(grid)
        got = _circle_integrals(u, radii)
        assert got.tolist() == [_circle_integrals(u, [r])[0] for r in radii]
        assert got.tolist() == [reference_integrate_circle(u, r) for r in radii]

    def test_circle_samples(self, grid):
        u, radii = self.field(grid), batch_radii(grid)
        angles, rows = _circle_samples(u, radii, 100)
        for r, row in zip(radii, rows):
            ref_angles, ref = _circle_samples(u, [r], 100)
            assert np.array_equal(angles, ref_angles) and np.array_equal(row, ref[0])

    def test_circle_traces(self, grid):
        u, radii = self.field(grid), batch_radii(grid)
        for r, *rows in zip(radii, *_circle_traces(u, radii, 256)):
            ref = [arr[0] for arr in _circle_traces(u, [r], 256)]
            assert all(np.array_equal(row, ref_row) for row, ref_row in zip(rows, ref))

    def test_crossing_angles(self, grid):
        u, radii = self.field(grid), batch_radii(grid)
        got = _crossing_angles(u, radii)
        assert len(got) == len(radii) and all(len(a) > 0 for a in got)
        for angles, r in zip(got, radii):
            assert np.array_equal(angles, _crossing_angles(u, [r])[0])


class TestCircleIntegrals:
    def test_constant(self, disk256):
        c = field_from_function(disk256, lambda r, p: np.full_like(r, 1.7))
        assert _circle_integrals(c, [0.41])[0] == pytest.approx(
            2.0 * math.pi * 0.41 * 1.7, rel=1e-12)

    def test_angular_mode_annihilated(self, disk256):
        u = degree2_field(disk256)
        assert abs(_circle_integrals(u, [0.37])[0]) < 1e-12

    def test_radial_cubic_interpolation_is_exact(self, disk256):
        u = field_from_function(disk256, lambda r, p: r**3 - 0.2 * r)
        r = 0.437
        assert _circle_integrals(u, [r])[0] == pytest.approx(
            2.0 * math.pi * r * (r**3 - 0.2 * r), rel=1e-12)

    def test_near_rim_uses_one_sided_stencil(self, disk64):
        u = field_from_function(disk64, lambda r, p: r**2)
        r = 1.0 - 1.2 / 64
        assert _circle_integrals(u, [r])[0] == pytest.approx(
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
        gs = _gradient_sq_rings(u, radial_derivative(u).values, disk256.n_r)
        exact = 4.0 * disk256.r[:, None] ** 2 * np.ones(disk256.shape)
        assert np.max(np.abs(gs - exact)) < 1e-10

    def test_gradient_energy_on_sector_matches_disk(self):
        sector = build_sector_grid(2, 64, 64)
        u = degree2_field(sector)
        gs = _gradient_sq_rings(u, radial_derivative(u).values, sector.n_r)
        exact = 4.0 * sector.r[:, None] ** 2
        # the cosine-series derivative is exact on cos(2 phi), as the disk's
        # Fourier derivative is, so only the radial stencil and rounding remain
        assert np.max(np.abs(gs - exact * np.ones(sector.shape))) < 1e-10


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
    def test_circle_samples_match_function(self, disk256):
        u = field_from_function(disk256, lambda r, p: r * np.cos(p))
        angles, (vals,) = _circle_samples(u, [0.5], 512)
        assert angles.shape == vals.shape == (512,)
        assert np.max(np.abs(vals - 0.5 * np.cos(angles))) < 5e-5

    def test_fourier_single_mode(self, disk256):
        u = degree2_field(disk256)
        (samples,), (a,), (b,) = _circle_traces(u, [0.5], 256)
        assert a[2] == pytest.approx(0.25, rel=1e-4)
        assert abs(b[2]) < 1e-12
        others = np.delete(np.arange(len(a)), 2)
        assert np.max(np.abs(a[others])) < 1e-6
        mean_square = np.mean(samples**2)
        # mode 2's share of the L2 energy, and mean(u^2) minus the energy of modes 0..8
        assert math.pi * (a[2] ** 2 + b[2] ** 2) / (2.0 * math.pi * mean_square) == \
            pytest.approx(1.0, abs=1e-9)
        parseval_gap = mean_square - (a[0] ** 2 + 0.5 * np.sum(a[1:] ** 2 + b[1:] ** 2))
        assert parseval_gap == pytest.approx(0.0, abs=1e-9)

    def test_mean_square(self, disk256):
        u = degree2_field(disk256)
        (samples,), _, _ = _circle_traces(u, [0.5], 512)
        assert np.mean(samples**2) == pytest.approx(0.25**2 / 2.0, rel=1e-3)


class TestDiskExtension:
    def test_disk_field_passes_through(self, disk64):
        u = degree2_field(disk64)
        assert reflect_to_disk(u) is u

    def test_sector_field_extends(self):
        g = build_sector_grid(2, 32, 32)
        u = degree2_field(g)
        d = reflect_to_disk(u)
        assert d.grid.periodic and d.grid.n_phi == 4 * 32
        direct = degree2_field(d.grid)
        assert np.max(np.abs(d.values - direct.values)) < 1e-13


class TestSerialization:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_json_refuses_what_strict_json_cannot_hold(self, tmp_path, value):
        path = tmp_path / "record.json"
        with pytest.raises(ValueError, match="JSON compliant"):
            write_json(path, {"residual": [1.0, value]})
        assert not path.exists()
        write_json(path, {"residual": [1.0, None]})
        assert path.read_text() == '{\n  "residual": [\n    1.0,\n    null\n  ]\n}'

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
        assert back.grid == build_sector_grid(4, 16, 16)
        assert np.array_equal(back.values, u.values)

    def test_vtk_header(self, tmp_path, disk64):
        u = degree2_field(disk64)
        path = tmp_path / "field.vtk"
        write_field_vtk(u, path)
        data = path.read_bytes()
        assert data.startswith(b"# vtk DataFile")
        assert b"STRUCTURED_GRID" in data
        assert b"SCALARS" in data

    @pytest.mark.parametrize("n_rows", [0, 1, 37])
    @pytest.mark.parametrize("n_cols", [1, 2, 4])
    def test_table_bytes_equal_savetxt(self, tmp_path, n_rows, n_cols):
        """np.savetxt, which write_table replaced, is the byte-level reference."""
        columns = list(np.random.default_rng(n_rows + n_cols).standard_normal((n_cols, n_rows)))
        write_table(tmp_path / "new.csv", "a,b", columns)
        np.savetxt(tmp_path / "ref.csv", np.column_stack(columns), delimiter=",",
                   header="a,b", comments="", fmt="%.17g")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_table_bytes_equal_savetxt_on_special_values(self, tmp_path):
        special = np.array([math.nan, -0.0, 0.0, 1e300, -1e300, 5e-324, -5e-324, math.inf,
                            -math.inf, 2.0**53, 0.1, 3.0])
        columns = [special, special[::-1], np.arange(special.size)]
        write_table(tmp_path / "new.csv", "x,y,i", columns)
        np.savetxt(tmp_path / "ref.csv", np.column_stack(columns), delimiter=",",
                   header="x,y,i", comments="", fmt="%.17g")
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "ref.csv").read_bytes()
        assert new.startswith(b"x,y,i\nnan,3,0\n-0,0.10000000000000001,1\n")
        assert b"\n1.0000000000000001e+300," in new and b"\n4.9406564584124654e-324," in new

    @pytest.mark.parametrize("grid", [
        PolarGrid(64, 64),
        build_sector_grid(2, 64, 64),
        build_sector_grid(4, 24, 8),
        build_sector_grid(2, 40, 24),
    ], ids=["disk64", "k2", "k4-nphi8", "k2-nr-ne-nphi"])
    def test_csv_bytes_equal_savetxt(self, tmp_path, grid):
        u = ScalarField(grid, np.random.default_rng(5).standard_normal(grid.shape))
        write_field_csv(u, tmp_path / "new.csv")
        reference_write_field_csv(u, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_csv_bytes_equal_savetxt_on_special_values(self, tmp_path):
        g = build_sector_grid(2, 16, 8)
        u = ScalarField(g, np.random.default_rng(6).standard_normal(g.shape))
        special = [-0.0, 0.0, 5e-324, -2.5e-310, 1e300, -1e300, 3.0, -7.0, 2.0**53,
                   math.nan, math.inf, -math.inf]
        # ScalarField rejects non-finite values, so they go in after construction
        u.values[3, :] = special[:8]
        u.values[4, :4] = special[8:]
        write_field_csv(u, tmp_path / "new.csv")
        reference_write_field_csv(u, tmp_path / "ref.csv")
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "ref.csv").read_bytes()
        assert b",-0\n" in new and b",nan\n" in new and b",-inf\n" in new

    @pytest.mark.parametrize("grid", [
        PolarGrid(64, 64),
        build_sector_grid(2, 40, 24),
    ], ids=["disk64", "k2-nr-ne-nphi"])
    def test_vtk_binary_roundtrip_is_bitwise(self, tmp_path, grid):
        u = ScalarField(grid, np.random.default_rng(8).standard_normal(grid.shape))
        path = tmp_path / "field.vtk"
        write_field_vtk(u, path)
        header, points, point_data, values, rest = read_legacy_vtk(path)
        n = grid.size
        assert header == [
            "# vtk DataFile Version 3.0",
            "u on polar grid",
            "BINARY",
            "DATASET STRUCTURED_GRID",
            f"DIMENSIONS {grid.n_r} {grid.n_phi} 1",
            f"POINTS {n} float",
        ]
        assert point_data == [f"POINT_DATA {n}", "SCALARS u double 1",
                              "LOOKUP_TABLE default"]
        rr, pp = grid.mesh_coords()
        # the float64 centers, each rounded once to float32
        x = (rr * np.cos(pp)).ravel(order="F")
        y = (rr * np.sin(pp)).ravel(order="F")
        assert points[:, 0].tobytes() == x.astype(">f4").tobytes()
        assert points[:, 1].tobytes() == y.astype(">f4").tobytes()
        assert points[:, 2].tobytes() == bytes(4 * n)
        assert values.tobytes() == u.values.ravel(order="F").astype(">f8").tobytes()
        assert rest == b"\n"

    def test_vtk_file_size(self, tmp_path, disk64):
        path = tmp_path / "field.vtk"
        write_field_vtk(degree2_field(disk64), path)
        # 111 header bytes, 4096 points of 3 floats, 57 point-data bytes
        # (with the newline ending the points), 4096 doubles, final newline
        assert path.stat().st_size == 111 + 12 * 4096 + 57 + 8 * 4096 + 1

    def test_read_field_accepts_any_scalars_token(self, tmp_path, disk64):
        u = degree2_field(disk64)
        path = tmp_path / "field.vtk"
        write_field_vtk(u, path)
        path.write_bytes(path.read_bytes().replace(b"SCALARS u ", b"SCALARS kappa_u "))
        assert np.array_equal(read_field(path).values, u.values)

    @pytest.mark.parametrize("grid", [
        build_sector_grid(2, 256, 256),
        build_sector_grid(4, 96, 96),
        PolarGrid(33, 64),
        build_sector_grid(4, 4096, 8),
    ], ids=["k2-256", "k4-96", "disk-odd-nr", "k4-thin"])
    def test_read_field_rebuilds_a_vtk_file_bitwise(self, tmp_path, grid):
        u = ScalarField(grid, np.random.default_rng(9).standard_normal(grid.shape))
        path = tmp_path / "field.vtk"
        write_field_vtk(u, path)
        back = read_field(path)
        assert back.grid == grid
        assert np.array_equal(back.values, u.values)
        # native C order, as read_field_csv gives, so analyses sum in the same order
        assert back.values.flags.c_contiguous and back.values.dtype == np.float64

    @pytest.mark.parametrize("grid", [
        PolarGrid(64, 64),
        build_sector_grid(2, 256, 256),
        build_sector_grid(4, 4096, 8),
    ], ids=["disk64", "k2-256", "k4-thin"])
    def test_read_field_reads_double_points_bitwise(self, tmp_path, grid):
        """Files written with float64 points, as every earlier run holds, read
        back with the same grid and values as the float-point file."""
        u = ScalarField(grid, np.random.default_rng(10).standard_normal(grid.shape))
        reference_write_double_points_vtk(u, tmp_path / "double.vtk")
        write_field_vtk(u, tmp_path / "float.vtk")
        assert read_legacy_vtk(tmp_path / "double.vtk")[0][5] == f"POINTS {grid.size} double"
        old, new = read_field(tmp_path / "double.vtk"), read_field(tmp_path / "float.vtk")
        assert old.grid == new.grid == grid
        assert np.array_equal(old.values, u.values) and np.array_equal(new.values, u.values)
        assert old.values.flags.c_contiguous and old.values.dtype == np.float64

    def test_read_field_reads_a_csv_like_read_field_csv(self, tmp_path):
        g = build_sector_grid(2, 40, 24)
        path = tmp_path / "field.csv"
        write_field_csv(degree2_field(g), path)
        back, ref = read_field(path), read_field_csv(path)
        assert back.grid == ref.grid == g
        assert np.array_equal(back.values, ref.values)

    @pytest.mark.parametrize("edit, message", [
        (lambda rows: rows[:, :2], "expected 3 columns"),
        (lambda rows: rows[1:], "rows do not form a tensor grid"),
        # phi scaled to 2 pi / 3 (an odd copy count) and to 4 pi / 3 (no copy count)
        (lambda rows: rows * [1.0, 1.0 / 3.0, 1.0], "angular extent .* is not pi/k or 2.pi"),
        (lambda rows: rows * [1.0, 2.0 / 3.0, 1.0], "angular extent .* is not pi/k or 2.pi"),
    ], ids=["two_columns", "not_a_tensor_grid", "extent_2pi_over_3", "extent_4pi_over_3"])
    def test_malformed_csv_raises_naming_the_path(self, tmp_path, edit, message):
        rr, pp = PolarGrid(8, 8).mesh_coords()
        rows = np.column_stack([rr.ravel(), pp.ravel(), (rr**2 * np.cos(2 * pp)).ravel()])
        path = tmp_path / "bad.csv"
        np.savetxt(path, edit(rows), delimiter=",", header="r,phi,value", comments="",
                   fmt="%.17g")
        with pytest.raises(ValueError, match=re.escape(str(path)) + ": " + message):
            read_field_csv(path)

    @pytest.mark.parametrize("defect", VTK_DEFECTS)
    def test_malformed_vtk_raises_naming_the_path(self, tmp_path, defect):
        path = malformed_vtk(tmp_path, defect)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            read_field(path)
