"""Grid geometry, sector reflection, and index-map permutation tests."""

import math

import numpy as np
import pytest

from unstablefb import (
    PolarGrid,
    ScalarField,
    build_sector_grid,
    field_from_function,
)
from unstablefb.mesh import reflect_to_disk, reflection_index_map


def fold_angle(phi: float, k: int) -> float:
    """Fold a disk angle into [0, pi/k] by successive edge reflections."""
    phi0 = math.pi / k
    m, pos = divmod(phi % (2.0 * math.pi), phi0)
    return pos if int(m) % 2 == 0 else phi0 - pos


class TestSectorSpec:
    """A sector is specified by its order k alone: aperture pi/k, 2k copies."""

    def test_aperture(self):
        for k in (1, 2, 3, 4, 25):
            g = build_sector_grid(k, 16, 16)
            assert g.copies == 2 * k and g.k == k
            # the extent is the float pi/k itself, which the solver's grids rely on
            assert g.phi_total == math.pi / k

    @pytest.mark.parametrize("bad", [0, -1, 2.5, "2"])
    def test_rejects_nonpositive_or_noninteger(self, bad):
        with pytest.raises(ValueError):
            build_sector_grid(bad, 16, 16)

    def test_symmetry_group_axes(self):
        """Copy m of the disk extension starts on the axis m*pi/k."""
        grid = build_sector_grid(2, 16, 8)
        disk = reflect_to_disk(ScalarField(grid, np.zeros(grid.shape))).grid
        starts = disk.phi[::grid.n_phi] - 0.5 * disk.dphi
        assert np.allclose(starts, [0.0, math.pi / 2, math.pi, 3 * math.pi / 2])


class TestGridGeometry:
    def test_cell_centers_offset_half(self):
        g = build_sector_grid(2, 16, 16)
        assert g.dr == pytest.approx(1.0 / 16)
        assert g.r[0] == pytest.approx(0.5 / 16)
        assert g.r[-1] == pytest.approx(1.0 - 0.5 / 16)
        assert g.phi[0] == pytest.approx(0.5 * g.dphi)
        assert g.phi_total == pytest.approx(math.pi / 2)
        assert not g.periodic
        assert g.copies == 4 and g.k == 2

    def test_sector_area_exact(self):
        # ring areas telescope, so the quadrature weight total is exact
        g = build_sector_grid(2, 32, 16)
        assert g.cell_areas.sum() * g.n_phi == pytest.approx(math.pi / 4, abs=1e-14)

    def test_disk_area_exact(self):
        g = PolarGrid(16, 48)
        assert g.cell_areas.sum() * g.n_phi == pytest.approx(math.pi, abs=1e-13)
        assert g.periodic and g.copies == 1
        assert g.phi_total == 2.0 * math.pi

    def test_radial_faces_include_origin_and_rim(self):
        g = PolarGrid(16, 16)
        assert g.r_faces[0] == 0.0
        assert g.r_faces[-1] == pytest.approx(1.0)

    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError):
            PolarGrid(4, 16, 4)
        with pytest.raises(ValueError):
            PolarGrid(16, 4, 4)

    def test_angular_extent_validated(self):
        """The extent is 2*pi/copies; only 1 (disk) and 2k (sector) tile the disk
        by even reflection."""
        for bad in (0, -2, 3, 2.0, math.pi):
            with pytest.raises(ValueError, match="copies"):
                PolarGrid(16, 16, bad)


class TestReflection:
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_index_map_is_balanced(self, k):
        n_phi = 12
        idx = reflection_index_map(build_sector_grid(k, 16, n_phi))
        assert idx.shape == (2 * k * n_phi,)
        counts = np.bincount(idx, minlength=n_phi)
        assert np.all(counts == 2 * k)

    def test_index_map_of_disk_is_identity(self):
        assert np.array_equal(reflection_index_map(PolarGrid(16, 12)), np.arange(12))

    @pytest.mark.parametrize("k", [2, 4])
    def test_reflection_is_node_exact(self, k):
        """Reflected sector samples equal the folded function on disk nodes."""
        grid = build_sector_grid(k, 16, 12)

        def f(r, p):
            return r**3 * np.cos(p) ** 2 + 0.5 * r * np.sin(p) * (math.pi / k - p)

        sector = field_from_function(grid, f)
        disk = reflect_to_disk(sector)
        assert disk.grid.periodic
        assert disk.grid.n_phi == 2 * k * grid.n_phi
        expected = np.empty(disk.grid.shape)
        for j, phi in enumerate(disk.grid.phi):
            folded = fold_angle(phi, k)
            expected[:, j] = f(disk.grid.r, folded)
        assert np.max(np.abs(disk.values - expected)) < 1e-13

    def test_roundtrip_restores_sector_values(self):
        grid = build_sector_grid(2, 16, 16)
        rng = np.random.default_rng(7)
        sector = ScalarField(grid, rng.standard_normal(grid.shape))
        disk = reflect_to_disk(sector)
        assert np.array_equal(disk.values[:, :grid.n_phi], sector.values)

    def test_even_symmetry_across_edges(self):
        """Mirror cells across each sector edge carry equal values."""
        grid = build_sector_grid(2, 16, 8)
        sector = field_from_function(grid, lambda r, p: r * np.cos(3.0 * p))
        disk = reflect_to_disk(sector)
        v = disk.values
        n = grid.n_phi
        # edge at phi = 0: column -1 mirrors column 0; at phi = pi/2:
        # column n-1 mirrors column n, and so on around the disk
        assert np.array_equal(v[:, 0], v[:, -1])
        assert np.array_equal(v[:, n - 1], v[:, n])
        assert np.array_equal(v[:, 2 * n - 1], v[:, 2 * n])
