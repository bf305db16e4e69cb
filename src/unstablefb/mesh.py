"""Polar sector grids and dihedral symmetry reflection.

The computational domain is the circular sector K = {(r, phi): 0 < r < 1,
0 < phi < pi/k}.  Cells are centered in both directions, so no node sits on
r = 0 and reflections across the sector edges map cell centers onto cell
centers exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SectorSpec:
    """Disk sector of aperture pi/k (unit radius)."""

    k: int

    def __post_init__(self):
        if not isinstance(self.k, (int, np.integer)) or self.k < 1:
            raise ValueError(f"sector order k must be a positive integer, got {self.k!r}")

    @property
    def phi0(self) -> float:
        return math.pi / self.k


@dataclass(frozen=True)
class SymmetryGroup:
    """Dihedral reflection group tiling the disk with 2k sector copies."""

    k: int

    def __post_init__(self):
        if not isinstance(self.k, (int, np.integer)) or self.k < 1:
            raise ValueError(f"symmetry order k must be a positive integer, got {self.k!r}")

    @property
    def copies(self) -> int:
        return 2 * self.k

    @property
    def axes(self) -> tuple[float, ...]:
        """Reflection axis angles: multiples of pi/k in [0, 2*pi)."""
        return tuple(m * math.pi / self.k for m in range(2 * self.k))


@dataclass(frozen=True)
class PolarGrid:
    """Cell-centered tensor grid in (r, phi).

    ``phi_total`` is the angular extent: pi/k for a sector, 2*pi for the
    full disk (``periodic=True``).  Radial faces sit at i/n_r, i = 0..n_r,
    so the innermost face has zero length and the origin needs no stencil.
    """

    n_r: int
    n_phi: int
    phi_total: float
    periodic: bool = False
    spec: SectorSpec | None = None

    r: np.ndarray = field(init=False, repr=False, compare=False)
    phi: np.ndarray = field(init=False, repr=False, compare=False)
    r_faces: np.ndarray = field(init=False, repr=False, compare=False)
    cell_areas: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_r < 8 or self.n_phi < 8:
            raise ValueError(f"grid must be at least 8x8, got {self.n_r}x{self.n_phi}")
        if not (0.0 < self.phi_total <= TWO_PI + 1e-15):
            raise ValueError(f"angular extent must lie in (0, 2*pi], got {self.phi_total}")
        dr = 1.0 / self.n_r
        dphi = self.phi_total / self.n_phi
        object.__setattr__(self, "r", (np.arange(self.n_r) + 0.5) * dr)
        object.__setattr__(self, "phi", (np.arange(self.n_phi) + 0.5) * dphi)
        object.__setattr__(self, "r_faces", np.arange(self.n_r + 1) * dr)
        # ring cell area: 0.5*(R_out^2 - R_in^2)*dphi, exact
        rf2 = self.r_faces**2
        object.__setattr__(self, "cell_areas", 0.5 * (rf2[1:] - rf2[:-1]) * dphi)

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

    @property
    def multiplicity(self) -> float:
        """Copies of this domain tiling the full disk (2k sector, 1 disk)."""
        if self.periodic:
            return 1.0
        return TWO_PI / self.phi_total

    def mesh_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Broadcast (r, phi) arrays of shape (n_r, n_phi)."""
        return np.meshgrid(self.r, self.phi, indexing="ij")


def build_sector_grid(k, n_r: int, n_phi: int) -> PolarGrid:
    """Cell-centered grid on the sector K of aperture pi/k.

    Accepts the fold count k directly or a prebuilt SectorSpec.
    """
    spec = k if isinstance(k, SectorSpec) else SectorSpec(int(k))
    return PolarGrid(n_r=n_r, n_phi=n_phi, phi_total=spec.phi0, periodic=False, spec=spec)


def build_disk_grid(n_r: int, n_phi: int) -> PolarGrid:
    """Cell-centered grid on the full disk, periodic in phi."""
    return PolarGrid(n_r=n_r, n_phi=n_phi, phi_total=TWO_PI, periodic=True, spec=None)


def reflection_index_map(k: int, n_phi: int) -> np.ndarray:
    """Source sector column for each disk column under even reflection.

    Copy m of the sector covers [m*phi0, (m+1)*phi0); even copies are
    translates, odd copies are mirror images.  Cell centers map onto cell
    centers exactly, so the map is a pure index permutation.
    """
    j = np.arange(2 * k * n_phi)
    local = j % n_phi
    odd = (j // n_phi) % 2 == 1
    src = np.where(odd, n_phi - 1 - local, local)
    return src


def reflect_to_disk(field, sym: SymmetryGroup):
    """Extend a sector field evenly across all 2k reflection axes.

    Returns a ScalarField on the full disk whose values are bitwise copies
    of sector values (node-exact reflection).
    """
    from .field import ScalarField

    grid = field.grid
    if grid.periodic or grid.spec is None:
        raise ValueError("reflect_to_disk needs a sector field, got a disk field")
    if grid.spec.k != sym.k:
        raise ValueError(
            f"symmetry order mismatch: field sector has k={grid.spec.k}, group has k={sym.k}"
        )
    src = reflection_index_map(sym.k, grid.n_phi)
    disk = build_disk_grid(grid.n_r, 2 * sym.k * grid.n_phi)
    return ScalarField(disk, field.values[:, src].copy())

