"""Shared fixtures: cached grids, synthetic fields, a capped fixed-point solver,
the sparse-matrix oracle of the Laplacian, its arrays on cells and the
full-length pin row, used across test modules."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

import unstablefb.semilinear as semilinear
from unstablefb import (
    PolarGrid,
    ScalarField,
    build_sector_grid,
    write_field_vtk,
)
from unstablefb.field import _origin_ring_weights, field_from_function
from unstablefb.poisson import _transmissibilities


@pytest.fixture
def iterations_capped(monkeypatch):
    """Caps the fixed-point iteration at one step, so it stops short of its
    tolerance."""
    monkeypatch.setattr(semilinear, "MAX_ITERATIONS", 1)


def origin_weight_vector(grid: PolarGrid) -> np.ndarray:
    """Flat weight vector e with e . u.ravel() = eval_origin(u)."""
    w = _origin_ring_weights(grid)
    e = np.zeros(grid.size)
    for i in range(len(w)):
        e[i * grid.n_phi : (i + 1) * grid.n_phi] = w[i] / grid.n_phi
    return e


def coo_assembly(grid):
    """Reference: the 5-point matrix stacked face by face as COO triplets,
    duplicates summed by the conversion to CSC."""
    n_r, n_phi = grid.shape
    cells = np.arange(grid.size).reshape(n_r, n_phi)
    t_radial, t_angular, arc_coeff = _transmissibilities(grid)

    def faces(c1, c2, t):
        t = np.broadcast_to(t[:, None], c1.shape)
        return (np.stack([c1, c2, c1, c2], axis=1).ravel(),
                np.stack([c1, c2, c2, c1], axis=1).ravel(),
                np.stack([t, t, -t, -t], axis=1).ravel())

    radial = faces(cells[:-1], cells[1:], t_radial)
    angular = faces(cells[:, :-1], cells[:, 1:], t_angular)
    outer = cells[-1]
    rows, cols, vals = (np.concatenate(parts) for parts in zip(
        radial, angular, (outer, outer, np.full(n_phi, arc_coeff))))
    return sp.coo_matrix((vals, (rows, cols)), shape=(grid.size, grid.size)).tocsc()


def cell_arrays(lap) -> SimpleNamespace:
    """The operator's arrays on cells, flat: radial (size - n_phi), angular
    (size - 1), diag and areas (size), its per-ring values repeated along
    each ring and the diagonal's edge value put on columns 0 and n_phi - 1."""
    n_phi = lap.grid.n_phi
    diag = np.repeat(lap.diag[:, 1], n_phi)
    diag[::n_phi] = diag[n_phi - 1::n_phi] = lap.diag[:, 0]
    return SimpleNamespace(radial=np.repeat(lap.radial, n_phi), angular=lap.angular,
                           diag=diag, areas=np.repeat(lap.areas, n_phi))


@pytest.fixture(scope="session")
def disk64() -> PolarGrid:
    return PolarGrid(64, 64)


@pytest.fixture(scope="session")
def disk256() -> PolarGrid:
    return PolarGrid(256, 256)


@pytest.fixture(scope="session")
def disk512() -> PolarGrid:
    return PolarGrid(512, 512)


def degree2_field(grid: PolarGrid, M: float = 1.0) -> ScalarField:
    """The homogeneous harmonic M r^2 cos(2 phi) sampled at cell centers."""
    return field_from_function(grid, lambda r, p: M * r**2 * np.cos(2.0 * p))


# byte edits that break a write_field_vtk file of a 64 x 48 disk field
VTK_DEFECTS = {
    "truncated-points": lambda data: data[: len(data) // 2],
    "truncated-values": lambda data: data[:-9],
    "ascii-header": lambda data: data.replace(b"\nBINARY\n", b"\nASCII\n", 1),
    "dims-vs-points": lambda data: data.replace(b"DIMENSIONS 64 48 1", b"DIMENSIONS 64 47 1", 1),
}


def malformed_vtk(tmp_path, defect: str):
    """Path of a write_field_vtk file of a 64 x 48 disk field, broken by VTK_DEFECTS[defect]."""
    path = tmp_path / f"{defect}.vtk"
    write_field_vtk(degree2_field(PolarGrid(64, 48)), path)
    data = path.read_bytes()
    broken = VTK_DEFECTS[defect](data)
    assert broken != data
    path.write_bytes(broken)
    return path


def saddle_field(grid: PolarGrid) -> ScalarField:
    """r^2 cos(2 phi) plus a radial bump: both signs and a nonzero rate
    (du/dr - 2u/r)^2 in the monotonicity identity."""
    return field_from_function(
        grid, lambda r, p: r**2 * np.cos(2.0 * p) + 0.05 * np.cos(3.0 * r))


def batch_radii(grid: PolarGrid) -> list:
    """One radius list for the batch-versus-scalar tests, unsorted: just above
    dr and 2.5 dr (tiny balls, under four full rings), 8 dr (on a ring face,
    no cut), 0.7 (where numpy's array power and libm's pow differ in r^4) and
    1 - dr, the window's upper end."""
    dr = grid.dr
    return [0.7, dr * (1 + 1e-9), 8 * dr, 1.0 - dr, 2.5 * dr]


BATCH_GRIDS = [PolarGrid(64, 48), build_sector_grid(2, 50, 30)]


def radial_composite(grid: PolarGrid, R: float = 0.5) -> ScalarField:
    """Exact rotationally symmetric solution of Delta u = -1_{u>0}.

    Paraboloid cap (R^2 - r^2)/4 inside radius R, matched logarithm
    -(R^2/2) log(r/R) outside.  Value and slope agree at r = R.
    """
    def fn(r, p):
        inner = (R**2 - r**2) / 4.0
        outer = -(R**2 / 2.0) * np.log(r / R)
        return np.where(r <= R, inner, outer)

    return field_from_function(grid, fn)


def radial_composite_phi(r: float, R: float = 0.5) -> float:
    """Closed-form scaled energy of the composite radial solution.

    Worked out by direct integration of the three terms.  For r <= R:
      r^-4 [pi r^4/8 + pi (R^2 r^2/2 - r^4/4) ... ] collapses to
      pi(3/8 - R^2/(2 r^2) - (R^2 - r^2)^2/(4 r^4)).
    For r > R the positivity set is exhausted and only the logarithmic
    tail contributes.
    """
    if r <= R:
        return math.pi * (3.0 / 8.0 - R**2 / (2.0 * r**2)
                          - (R**2 - r**2) ** 2 / (4.0 * r**4))
    t = math.log(r / R)
    return math.pi * R**4 / r**4 * (-1.0 / 8.0 + t / 2.0 - t**2)
