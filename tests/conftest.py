"""Shared fixtures: cached grids, synthetic fields, a capped Krylov solver
and the sparse-matrix oracle of the Laplacian, used across test modules."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

import unstablefb.semilinear as semilinear
from unstablefb import PolarGrid, ScalarField, build_disk_grid, field_from_function
from unstablefb.poisson import _transmissibilities


@pytest.fixture
def gmres_capped(monkeypatch):
    """Caps the Newton stage's GMRES solve at one iteration, so it stops
    short of its tolerance."""
    monkeypatch.setattr(semilinear, "KRYLOV_MAXITER", 1)


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


@pytest.fixture(scope="session")
def disk64() -> PolarGrid:
    return build_disk_grid(64, 64)


@pytest.fixture(scope="session")
def disk256() -> PolarGrid:
    return build_disk_grid(256, 256)


@pytest.fixture(scope="session")
def disk512() -> PolarGrid:
    return build_disk_grid(512, 512)


def degree2_field(grid: PolarGrid, M: float = 1.0) -> ScalarField:
    """The homogeneous harmonic M r^2 cos(2 phi) sampled at cell centers."""
    return field_from_function(grid, lambda r, p: M * r**2 * np.cos(2.0 * p))


def saddle_field(grid: PolarGrid) -> ScalarField:
    """r^2 cos(2 phi) plus a radial bump: both signs and a nonzero rate
    (du/dr - 2u/r)^2 in the monotonicity identity."""
    return field_from_function(
        grid, lambda r, p: r**2 * np.cos(2.0 * p) + 0.05 * np.cos(3.0 * r))


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
