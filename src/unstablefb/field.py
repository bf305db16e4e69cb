"""Scalar fields on polar grids: quadrature, derivatives, circle traces.

All quadrature helpers return full-disk values: integrals over a sector
field are multiplied by the number of symmetric copies (2k).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mesh import PolarGrid, SectorSpec, SymmetryGroup, build_disk_grid, reflect_to_disk

FOURIER_MODES = 8


@dataclass
class ScalarField:
    """Cell-centered scalar values on a PolarGrid."""

    grid: PolarGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite values")

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())

    def apply(self, fn) -> "ScalarField":
        """Pointwise map of the values (fn must be numpy-vectorizable)."""
        return ScalarField(self.grid, np.asarray(fn(self.values), dtype=float))


def field_from_function(grid: PolarGrid, fn) -> ScalarField:
    """Sample fn(r, phi) at cell centers."""
    rr, pp = grid.mesh_coords()
    return ScalarField(grid, np.asarray(fn(rr, pp), dtype=float))


def _ring_weights(grid: PolarGrid, r: float) -> np.ndarray:
    """Per-ring coverage fraction of the ball of radius r.

    The ring containing r enters with the fraction of its area inside,
    linear in r^2, which keeps ball integrals continuous in r.
    """
    if not (0.0 < r <= 1.0 + 1e-12):
        raise ValueError(f"ball radius must lie in (0, 1], got {r}")
    rf2 = grid.r_faces**2
    w = (min(r, 1.0) ** 2 - rf2[:-1]) / (rf2[1:] - rf2[:-1])
    return np.clip(w, 0.0, 1.0)


def _quadratic_at(x_nodes: np.ndarray, y_nodes: np.ndarray, s: float) -> float:
    """Value at s of the parabola through three (x, y) pairs."""
    x0, x1, x2 = x_nodes
    y0, y1, y2 = y_nodes
    return float(
        y0 * (s - x1) * (s - x2) / ((x0 - x1) * (x0 - x2))
        + y1 * (s - x0) * (s - x2) / ((x1 - x0) * (x1 - x2))
        + y2 * (s - x0) * (s - x1) / ((x2 - x0) * (x2 - x1))
    )


def integrate_ball(field: ScalarField, integrand, r: float) -> float:
    """Integral of integrand(u) over the disk of radius r about the origin.

    Reduces to the radial integral of g(s) = s * (angular integral at s);
    the angular integral at each ring comes from exact cell sums, so it
    inherits the spectral accuracy of the rectangle rule on periodic data.
    The radial rule is _integrate_rings.
    """
    vals = field.values if integrand is None else np.asarray(integrand(field.values), dtype=float)
    return _integrate_rings(field.grid, vals.sum(axis=1), r)


def _integrate_rings(g: PolarGrid, row_sums: np.ndarray, r: float) -> float:
    """Ball integral of radius r from the per-ring sums of the cell values.

    The composite midpoint rule over full rings with the Euler-Maclaurin
    endpoint correction, plus an interpolated contribution of the partial
    ring at the cut.  Symmetry multiplicity is applied for sector grids.
    """
    if not (0.0 < r <= 1.0 + 1e-12):
        raise ValueError(f"ball radius must lie in (0, 1], got {r}")
    r = min(r, 1.0)
    dr = g.dr
    ring_line = row_sums * g.dphi * g.multiplicity  # angular integral per ring
    gvals = g.r * ring_line
    n_full = int(math.floor(r / dr + 1e-12))
    delta = r - n_full * dr
    if delta < 1e-12 * dr:
        delta = 0.0

    if n_full < 4:
        # tiny balls: fall back to exact-area ring weighting, no correction
        w = _ring_weights(g, r)
        return float(np.dot(w, row_sums * g.cell_areas) * g.multiplicity)

    total = dr * float(gvals[:n_full].sum())
    # endpoint derivatives for the midpoint correction (dr^2 / 24) * [g' (b) - g'(a)];
    # g(s) = s * G(s) gives g'(0) = G(0), extrapolated from the first two rings
    gp_zero = 1.5 * float(ring_line[0]) - 0.5 * float(ring_line[1])
    gp_face = float(gvals[n_full - 3] - 3.0 * gvals[n_full - 2] + 2.0 * gvals[n_full - 1]) / dr
    total += dr * dr / 24.0 * (gp_face - gp_zero)

    if delta > 0.0:
        lo = min(max(n_full - 1, 0), g.n_r - 3)
        s_mid = n_full * dr + 0.5 * delta
        total += delta * _quadratic_at(g.r[lo:lo + 3], gvals[lo:lo + 3], s_mid)
    return total


def _radial_interp_rows(grid: PolarGrid, r: float) -> tuple[int, float]:
    """Bracketing ring index and interpolation weight for radius r."""
    i = int(np.clip(math.floor(r / grid.dr - 0.5), 0, grid.n_r - 2))
    t = (r - grid.r[i]) / grid.dr
    return i, t


def integrate_circle(field: ScalarField, r: float) -> float:
    """Line integral of u over the full circle of radius r.

    Values on the circle come from 4-point polynomial interpolation in the
    radial direction at the native angular cell centers; the angular sum is
    the midpoint rule, which is spectrally accurate for the (smooth,
    periodic) symmetric extension.
    """
    g = field.grid
    if not (0.0 < r <= 1.0 - g.dr + 1e-12):
        raise ValueError(f"circle radius must lie in (0, 1 - dr], got {r}")
    base = int(np.clip(math.floor(r / g.dr - 0.5), 0, g.n_r - 2))
    lo = int(np.clip(base - 1, 0, g.n_r - 4))
    x = g.r[lo:lo + 4]
    w = np.array([
        np.prod([(r - x[l]) / (x[m] - x[l]) for l in range(4) if l != m])
        for m in range(4)
    ])
    ring = w @ field.values[lo:lo + 4, :]
    return float(ring.sum() * g.dphi * r * g.multiplicity)


def radial_derivative(field: ScalarField) -> ScalarField:
    """du/dr by central differences, one-sided second order at the end rings."""
    u = field.values
    dr = field.grid.dr
    out = np.empty_like(u)
    out[1:-1, :] = (u[2:, :] - u[:-2, :]) / (2.0 * dr)
    out[0, :] = (-3.0 * u[0, :] + 4.0 * u[1, :] - u[2, :]) / (2.0 * dr)
    out[-1, :] = (3.0 * u[-1, :] - 4.0 * u[-2, :] + u[-3, :]) / (2.0 * dr)
    return ScalarField(field.grid, out)


def _angular_derivative(field: ScalarField) -> np.ndarray:
    """du/dphi: spectral on disks, central differences on sectors."""
    u = field.values
    g = field.grid
    if g.periodic:
        # samples live at phi_j = (j + 1/2) dphi; the half-cell offset is a
        # phase in the coefficients, so differentiation stays diagonal
        spec = np.fft.rfft(u, axis=1)
        ell = np.arange(spec.shape[1], dtype=float) * (2.0 * math.pi / g.phi_total)
        if g.n_phi % 2 == 0:
            ell[-1] = 0.0  # the unmatched mode has no odd counterpart
        return np.fft.irfft(1j * ell * spec, n=g.n_phi, axis=1)
    out = np.empty_like(u)
    out[:, 1:-1] = (u[:, 2:] - u[:, :-2]) / (2.0 * g.dphi)
    # Neumann edges: even reflection puts the ghost value equal to the edge cell
    out[:, 0] = (u[:, 1] - u[:, 0]) / (2.0 * g.dphi)
    out[:, -1] = (u[:, -1] - u[:, -2]) / (2.0 * g.dphi)
    return out


def gradient_sq(field: ScalarField) -> ScalarField:
    """|grad u|^2 = (du/dr)^2 + (du/dphi / r)^2 at cell centers."""
    ur = radial_derivative(field).values
    uphi = _angular_derivative(field)
    r = field.grid.r[:, None]
    return ScalarField(field.grid, ur**2 + (uphi / r) ** 2)


# --- origin evaluation -------------------------------------------------

_ORIGIN_RINGS = 4


def _origin_ring_weights(grid: PolarGrid) -> np.ndarray:
    """Least-squares weights extrapolating the 4 innermost ring means to r=0.

    The angular mean of a smooth field is even in r, so fit a quadratic in
    s = r^2 and evaluate at s = 0.  Exact for constants and for fields whose
    ring means are quadratic in r^2.
    """
    s = grid.r[:_ORIGIN_RINGS] ** 2
    V = np.vander(s, 3, increasing=True)  # columns 1, s, s^2
    # first row of the pseudoinverse gives the value at s = 0
    w = np.linalg.solve(V.T @ V, V.T)[0]
    return w


def origin_weight_vector(grid: PolarGrid) -> np.ndarray:
    """Flat weight vector e with e . u.ravel() = eval_origin(u)."""
    w = _origin_ring_weights(grid)
    e = np.zeros(grid.size)
    for i in range(_ORIGIN_RINGS):
        e[i * grid.n_phi : (i + 1) * grid.n_phi] = w[i] / grid.n_phi
    return e


def eval_origin(field: ScalarField) -> float:
    """Field value at the origin, extrapolated from inner ring means."""
    means = field.values[:_ORIGIN_RINGS, :].mean(axis=1)
    return float(np.dot(_origin_ring_weights(field.grid), means))


# --- circle traces ------------------------------------------------------


@dataclass
class CircleTrace:
    """Values of a field on a circle plus its low-order Fourier content.

    Coefficients follow u(phi) ~ a[0] + sum_l a[l] cos(l phi) + b[l] sin(l phi).
    """

    radius: float
    angles: np.ndarray
    samples: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def mean_square(self) -> float:
        return float(np.mean(self.samples**2))

    def parseval_gap(self) -> float:
        """mean(u^2) minus the energy captured by modes 0..8 (>= -eps)."""
        captured = self.a[0] ** 2 + 0.5 * float(np.sum(self.a[1:] ** 2 + self.b[1:] ** 2))
        return self.mean_square() - captured

    def mode_energy_fraction(self, ell: int) -> float:
        """Share of the trace's L2 energy carried by angular mode ell."""
        total = 2.0 * math.pi * self.mean_square()
        if total <= 0.0:
            return 0.0
        if ell == 0:
            part = 2.0 * math.pi * self.a[0] ** 2
        else:
            part = math.pi * (self.a[ell] ** 2 + self.b[ell] ** 2)
        return float(part / total)


def as_disk(field: ScalarField) -> ScalarField:
    """The field itself on a disk grid, or its symmetric extension for sectors."""
    if field.grid.periodic:
        return field
    k = field.grid.spec.k if field.grid.spec is not None else None
    if k is None:
        raise ValueError("sector field lacks a SectorSpec; cannot extend to the disk")
    return reflect_to_disk(field, SymmetryGroup(k))


def sample_circle(field: ScalarField, r: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Bilinear samples of the symmetric disk extension at m equispaced angles."""
    disk = as_disk(field)
    g = disk.grid
    if not (g.dr < r <= 1.0 - g.dr + 1e-12):
        raise ValueError(f"trace radius must lie in (dr, 1 - dr], got {r}")
    angles = (np.arange(m) + 0.5) * (2.0 * math.pi / m)
    i, t = _radial_interp_rows(g, r)
    jf = angles / g.dphi - 0.5
    j0 = np.floor(jf).astype(int) % g.n_phi
    s = jf - np.floor(jf)
    j1 = (j0 + 1) % g.n_phi
    v0 = (1.0 - s) * disk.values[i, j0] + s * disk.values[i, j1]
    v1 = (1.0 - s) * disk.values[i + 1, j0] + s * disk.values[i + 1, j1]
    return angles, (1.0 - t) * v0 + t * v1


def trace_on_circle(field: ScalarField, r: float, m: int = 256) -> CircleTrace:
    """Trace with Fourier coefficients 0..8 by periodic rectangle sums."""
    if m < 64:
        raise ValueError(f"need at least 64 trace samples, got {m}")
    angles, samples = sample_circle(field, r, m)
    a = np.zeros(FOURIER_MODES + 1)
    b = np.zeros(FOURIER_MODES + 1)
    a[0] = samples.mean()
    for ell in range(1, FOURIER_MODES + 1):
        a[ell] = 2.0 / m * float(np.dot(samples, np.cos(ell * angles)))
        b[ell] = 2.0 / m * float(np.dot(samples, np.sin(ell * angles)))
    return CircleTrace(radius=r, angles=angles, samples=samples, a=a, b=b)


# --- export -------------------------------------------------------------


def write_field_csv(field: ScalarField, path) -> None:
    """Columns r, phi, value; one row per cell, row-major in (r, phi)."""
    g = field.grid
    rr, pp = g.mesh_coords()
    data = np.column_stack([rr.ravel(), pp.ravel(), field.values.ravel()])
    header = "r,phi,value"
    np.savetxt(path, data, delimiter=",", header=header, comments="", fmt="%.17g")


def read_field_csv(path) -> ScalarField:
    """Rebuild a ScalarField from a CSV produced by write_field_csv.

    Every r and phi node must be a cell center of the grid it implies, to 1e-9.
    """
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    if data.ndim != 2 or data.shape[1] != 3:
        raise ValueError(f"{path}: expected 3 columns r,phi,value")
    r_vals = np.unique(data[:, 0])
    phi_vals = np.unique(data[:, 1])
    n_r, n_phi = len(r_vals), len(phi_vals)
    if n_r * n_phi != data.shape[0]:
        raise ValueError(f"{path}: rows do not form a tensor grid")
    if min(n_r, n_phi) < 2:
        raise ValueError(f"{path}: need at least two r and two phi nodes, got {n_r}x{n_phi}")
    phi_total = (phi_vals[1] - phi_vals[0]) * n_phi
    if abs(phi_total - 2.0 * math.pi) < 1e-9:
        grid = build_disk_grid(n_r, n_phi)
    else:
        k = round(math.pi / phi_total)
        if k < 1 or abs(phi_total - math.pi / k) > 1e-9:
            raise ValueError(f"{path}: angular extent {phi_total} is not pi/k or 2*pi")
        grid = PolarGrid(n_r=n_r, n_phi=n_phi, phi_total=math.pi / k, spec=SectorSpec(k))
    if max(np.max(np.abs(r_vals - grid.r)), np.max(np.abs(phi_vals - grid.phi))) > 1e-9:
        raise ValueError(f"{path}: nodes are not the cell centers of a {n_r}x{n_phi} grid")
    order = np.lexsort((data[:, 1], data[:, 0]))
    vals = data[order, 2].reshape(n_r, n_phi)
    return ScalarField(grid, vals)


def write_field_vtk(field: ScalarField, path, name: str = "u") -> None:
    """Legacy-VTK structured grid of cell centers with point data."""
    g = field.grid
    rr, pp = g.mesh_coords()
    x = (rr * np.cos(pp)).ravel(order="F")
    y = (rr * np.sin(pp)).ravel(order="F")
    vals = field.values.ravel(order="F")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write(f"{name} on polar grid\n")
        fh.write("ASCII\n")
        fh.write("DATASET STRUCTURED_GRID\n")
        fh.write(f"DIMENSIONS {g.n_r} {g.n_phi} 1\n")
        fh.write(f"POINTS {g.size} double\n")
        for xi, yi in zip(x, y):
            fh.write(f"{xi:.17g} {yi:.17g} 0\n")
        fh.write(f"POINT_DATA {g.size}\n")
        fh.write(f"SCALARS {name} double 1\n")
        fh.write("LOOKUP_TABLE default\n")
        for v in vals:
            fh.write(f"{v:.17g}\n")
