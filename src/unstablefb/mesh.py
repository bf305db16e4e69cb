"""Polar grids on the disk or on a symmetry sector, and reflection to the disk.

A grid covers 2*pi/copies of the unit disk: copies = 1 is the full disk,
periodic in phi, and copies = 2k is the circular sector K = {(r, phi):
0 < r < 1, 0 < phi < pi/k}, whose even reflections across its edges tile
the disk.  Cells are centered in both directions, so no node sits on
r = 0 and reflections across the sector edges map cell centers onto cell
centers exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PolarGrid:
    """Cell-centered tensor grid in (r, phi) on 2*pi/copies of the disk.

    copies is 1 for the full disk and 2k for the sector of aperture pi/k.
    Radial faces sit at i/n_r, i = 0..n_r, so the innermost face has zero
    length and the origin needs no stencil.
    """

    n_r: int
    n_phi: int
    copies: int = 1

    r: np.ndarray = field(init=False, repr=False, compare=False)
    phi: np.ndarray = field(init=False, repr=False, compare=False)
    r_faces: np.ndarray = field(init=False, repr=False, compare=False)
    cell_areas: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_r < 8 or self.n_phi < 8:
            raise ValueError(f"grid must be at least 8x8, got {self.n_r}x{self.n_phi}")
        if (not isinstance(self.copies, (int, np.integer)) or self.copies < 1
                or (self.copies > 1 and self.copies % 2)):
            raise ValueError(f"copies must be 1 (disk) or 2k (sector), got {self.copies!r}")
        dr = 1.0 / self.n_r
        dphi = self.dphi
        object.__setattr__(self, "r", (np.arange(self.n_r) + 0.5) * dr)
        object.__setattr__(self, "phi", (np.arange(self.n_phi) + 0.5) * dphi)
        object.__setattr__(self, "r_faces", np.arange(self.n_r + 1) * dr)
        # ring cell area: 0.5*(R_out^2 - R_in^2)*dphi, exact
        rf2 = self.r_faces**2
        object.__setattr__(self, "cell_areas", 0.5 * (rf2[1:] - rf2[:-1]) * dphi)

    @property
    def phi_total(self) -> float:
        """Angular extent: 2*pi on the disk, pi/k on a sector."""
        return TWO_PI / self.copies

    @property
    def periodic(self) -> bool:
        return self.copies == 1

    @property
    def k(self) -> int:
        """Sector order (aperture pi/k); 0 on the disk."""
        return self.copies // 2

    @property
    def dr(self) -> float:
        return 1.0 / self.n_r

    @property
    def dphi(self) -> float:
        return self.phi_total / self.n_phi

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_r, self.n_phi)

    @property
    def size(self) -> int:
        return self.n_r * self.n_phi

    def mesh_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Broadcast (r, phi) arrays of shape (n_r, n_phi)."""
        return np.meshgrid(self.r, self.phi, indexing="ij")


def build_sector_grid(k: int, n_r: int, n_phi: int) -> PolarGrid:
    """Cell-centered grid on the sector K of aperture pi/k."""
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"sector order k must be a positive integer, got {k!r}")
    return PolarGrid(n_r, n_phi, 2 * int(k))


def reflection_index_map(grid: PolarGrid) -> np.ndarray:
    """Column of grid for each of the copies * n_phi columns of the disk.

    Copy m covers [m*phi0, (m+1)*phi0); even copies are translates, odd
    copies are mirror images.  Cell centers map onto cell centers exactly,
    so the map is a pure index permutation; on the disk it is the identity.
    """
    n_phi = grid.n_phi
    j = np.arange(grid.copies * n_phi)
    local = j % n_phi
    odd = (j // n_phi) % 2 == 1
    return np.where(odd, n_phi - 1 - local, local)


def reflect_to_disk(field):
    """The field evenly extended across every sector edge to the full disk.

    Values are bitwise copies of sector values (node-exact reflection); a
    disk field is returned as it is.
    """
    from .field import ScalarField

    grid = field.grid
    if grid.periodic:
        return field
    disk = PolarGrid(grid.n_r, grid.copies * grid.n_phi)
    return ScalarField(disk, field.values[:, reflection_index_map(grid)])
