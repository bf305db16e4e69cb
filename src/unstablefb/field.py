"""Scalar fields on polar grids: quadrature, derivatives, circle traces.

A sector field stands for its even extension to the disk, and every helper
evaluates that extension without building it: integrals are multiplied by
the number of symmetric copies (2k), the angular derivative is a cosine
series, and circle samples read the disk columns through the reflection
index map.  Every circle diagnostic takes its radii as one batch, in one
array pass, and each row equals the one-element batch of its radius.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import dct, idst

from .mesh import TWO_PI, PolarGrid, reflection_index_map

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

    def apply(self, fn) -> "ScalarField":
        """Pointwise map of the values (fn must be numpy-vectorizable)."""
        return ScalarField(self.grid, np.asarray(fn(self.values), dtype=float))


# not public: only tests and the benchmark's set-up (perfbench/workloads.py) call it
def field_from_function(grid: PolarGrid, fn) -> ScalarField:
    """Sample fn(r, phi) at cell centers."""
    rr, pp = grid.mesh_coords()
    return ScalarField(grid, np.asarray(fn(rr, pp), dtype=float))


def _integrate_rings(g: PolarGrid, row_sums: np.ndarray, radii) -> np.ndarray:
    """Ball integrals over each radius from the per-ring sums of the cell values.

    The radial integral of s * (angular integral at s), spectrally accurate
    in angle: the composite midpoint rule over full rings with the
    Euler-Maclaurin endpoint correction, plus an interpolated contribution
    of the partial ring at the cut, times a sector grid's copies.  Each
    radius keeps its own sum of full rings (a cumsum rounds differently).
    """
    radii = np.asarray(radii, dtype=float)
    bad = ~((0.0 < radii) & (radii <= 1.0 + 1e-12))
    if bad.any():
        raise ValueError(f"ball radius must lie in (0, 1], got {radii[bad][0]}")
    radii = np.minimum(radii, 1.0)
    dr = g.dr
    ring_line = row_sums * g.dphi * g.copies  # angular integral per ring
    gvals = g.r * ring_line
    n_full = np.floor(radii / dr + 1e-12).astype(int)
    delta = radii - n_full * dr
    delta[delta < 1e-12 * dr] = 0.0

    total = dr * np.array([gvals[:n].sum() for n in n_full.tolist()])
    # endpoint derivatives for the midpoint correction (dr^2 / 24) * [g' (b) - g'(a)];
    # g(s) = s * G(s) gives g'(0) = G(0), extrapolated from the first two rings
    gp_zero = 1.5 * ring_line[0] - 0.5 * ring_line[1]
    gp_face = (gvals[n_full - 3] - 3.0 * gvals[n_full - 2] + 2.0 * gvals[n_full - 1]) / dr
    total += dr * dr / 24.0 * (gp_face - gp_zero)

    # a cut ring enters with the parabola through three rings at its midpoint s
    cut = delta > 0.0
    if cut.any():
        rows = np.clip(n_full[cut] - 1, 0, g.n_r - 3)[:, None] + np.arange(3)
        (x0, x1, x2), (y0, y1, y2) = g.r[rows].T, gvals[rows].T
        s = n_full[cut] * dr + 0.5 * delta[cut]
        total[cut] += delta[cut] * (
            y0 * (s - x1) * (s - x2) / ((x0 - x1) * (x0 - x2))
            + y1 * (s - x0) * (s - x2) / ((x1 - x0) * (x1 - x2))
            + y2 * (s - x0) * (s - x1) / ((x2 - x0) * (x2 - x1))
        )

    # tiny balls: each ring enters with the fraction of its area inside,
    # linear in r^2, which keeps the integral continuous in r; no correction
    tiny = np.flatnonzero(n_full < 4).tolist()
    if tiny:
        rf2 = g.r_faces**2
        for n in tiny:
            w = np.clip((radii[n].item() ** 2 - rf2[:-1]) / (rf2[1:] - rf2[:-1]), 0.0, 1.0)
            total[n] = np.dot(w, row_sums * g.cell_areas) * g.copies
    return total


def check_window(grid: PolarGrid, radii) -> np.ndarray:
    """The radii as a float array; ValueError unless each lies in (dr, 1 - dr],
    the one window of every circle integral, trace and diagnostic built on them."""
    r, h = np.asarray(radii, dtype=float), grid.dr
    bad = ~((h < r) & (r <= 1.0 - h + 1e-12))
    if bad.any():
        raise ValueError(
            f"radius {r[bad][0]} outside the valid window ({h:g}, {1 - h:g}]; "
            "derivative stencils and trace interpolation degrade at the ends"
        )
    return r


def check_radii(grid: PolarGrid, radii) -> np.ndarray:
    """radii sorted ascending; ValueError unless there are at least two,
    each inside the window (`check_window`)."""
    radii = np.sort(np.asarray(radii, dtype=float))
    if len(radii) < 2:
        raise ValueError(f"need at least two radii, got {radii.tolist()}")
    return check_window(grid, radii)


def _radial_interp_rows(grid: PolarGrid, radii: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bracketing ring index and interpolation weight for each radius."""
    i = np.clip(np.floor(radii / grid.dr - 0.5).astype(int), 0, grid.n_r - 2)
    return i, (radii - grid.r[i]) / grid.dr


def _circle_integrals(field: ScalarField, radii) -> np.ndarray:
    """Line integrals of u over the full circles of the given radii.

    Values on a circle come from 4-point polynomial interpolation in the
    radial direction at the native angular cell centers; the angular sum is
    the midpoint rule, which is spectrally accurate for the (smooth,
    periodic) symmetric extension.
    """
    g = field.grid
    radii = check_window(g, radii)
    lo = np.clip(_radial_interp_rows(g, radii)[0] - 1, 0, g.n_r - 4)
    x = g.r[lo[:, None] + np.arange(4)]
    w = np.stack([
        np.prod([(radii - x[:, l]) / (x[:, m] - x[:, l]) for l in range(4) if l != m], axis=0)
        for m in range(4)
    ], axis=1)
    # one product and one sum per radius: a stacked product rounds differently
    rings = np.array([(wi @ field.values[i:i + 4, :]).sum() for wi, i in zip(w, lo.tolist())])
    return rings * g.dphi * radii * g.copies


def radial_derivative(field: ScalarField) -> ScalarField:
    """du/dr by central differences, one-sided second order at the end rings."""
    u = field.values
    dr = field.grid.dr
    out = np.empty_like(u)
    out[1:-1, :] = (u[2:, :] - u[:-2, :]) / (2.0 * dr)
    out[0, :] = (-3.0 * u[0, :] + 4.0 * u[1, :] - u[2, :]) / (2.0 * dr)
    out[-1, :] = (3.0 * u[-1, :] - 4.0 * u[-2, :] + u[-3, :]) / (2.0 * dr)
    return ScalarField(field.grid, out)


def _angular_derivative(field: ScalarField, n: int) -> np.ndarray:
    """du/dphi on the first n rings, of the disk field or the sector's even extension."""
    u = field.values[:n]
    g = field.grid
    if g.periodic:
        # samples live at phi_j = (j + 1/2) dphi; the half-cell offset is a
        # phase in the coefficients, so differentiation stays diagonal
        spec = np.fft.rfft(u, axis=1)
        ell = np.arange(spec.shape[1], dtype=float) * (2.0 * math.pi / g.phi_total)
        if g.n_phi % 2 == 0:
            ell[-1] = 0.0  # the unmatched mode has no odd counterpart
        return np.fft.irfft(1j * ell * spec, n=g.n_phi, axis=1)
    # cosine series sum_m c_m cos(m pi phi / phi0): the DCT-II gives c_m and
    # the inverse DST-II sums -c_m (m pi / phi0) sin(m pi phi / phi0); the
    # sine of order n_phi vanishes, as the disk's unmatched mode does
    c = dct(u, type=2, axis=1, workers=1)
    s = np.zeros_like(c)
    s[:, :-1] = c[:, 1:] * (np.arange(1, g.n_phi) * (-math.pi / g.phi_total))
    return idst(s, type=2, axis=1, workers=1)


def _gradient_sq_rings(field: ScalarField, du_dr: np.ndarray, n: int) -> np.ndarray:
    """|grad u|^2 = (du/dr)^2 + (du/dphi / r)^2 on the first n rings, given
    du_dr = radial_derivative(field).values (a caller that needs it too takes it once)."""
    return du_dr[:n] ** 2 + (_angular_derivative(field, n) / field.grid.r[:n, None]) ** 2


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


def eval_origin(field: ScalarField) -> float:
    """Field value at the origin, extrapolated from inner ring means."""
    means = field.values[:_ORIGIN_RINGS, :].mean(axis=1)
    return float(np.dot(_origin_ring_weights(field.grid), means))


# --- circle traces ------------------------------------------------------


def _circle_samples(field: ScalarField, radii, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Bilinear samples of the symmetric disk extension at m equispaced angles,
    one row per radius.

    The bracketing columns are those of the disk grid with copies * n_phi
    columns, read from this grid through the reflection index map.
    """
    g = field.grid
    radii = check_window(g, radii)
    n_disk = g.copies * g.n_phi
    angles = (np.arange(m) + 0.5) * (2.0 * math.pi / m)
    i, t = (v[:, None] for v in _radial_interp_rows(g, radii))
    jf = angles / (TWO_PI / n_disk) - 0.5
    j0 = np.floor(jf).astype(int) % n_disk
    s = jf - np.floor(jf)
    src = reflection_index_map(g)
    c0, c1 = src[j0], src[(j0 + 1) % n_disk]
    v0 = (1.0 - s) * field.values[i, c0] + s * field.values[i, c1]
    v1 = (1.0 - s) * field.values[i + 1, c0] + s * field.values[i + 1, c1]
    return angles, (1.0 - t) * v0 + t * v1


def _circle_traces(field: ScalarField, radii, m: int) -> tuple[np.ndarray, ...]:
    """Samples and low-order Fourier content on the circles of the given
    radii, as (samples, a, b) with one row per radius: the m samples of
    `_circle_samples` and the coefficients of

        u(phi) ~ a[0] + sum_l a[l] cos(l phi) + b[l] sin(l phi),  l <= FOURIER_MODES

    (b[:, 0] is 0).  cos(l phi) and sin(l phi) are taken once per mode, and
    each coefficient is one dot product of its row: one matmul over all
    rows moves the coefficients by up to 4.4e-16.
    """
    if m < 64:
        raise ValueError(f"need at least 64 trace samples, got {m}")
    angles, samples = _circle_samples(field, radii, m)
    a, b = np.zeros((2, len(samples), FOURIER_MODES + 1))
    a[:, 0] = samples.mean(axis=1)
    for ell in range(1, FOURIER_MODES + 1):
        cos_l, sin_l = np.cos(ell * angles), np.sin(ell * angles)
        for row, a_row, b_row in zip(samples, a, b):
            a_row[ell] = 2.0 / m * float(np.dot(row, cos_l))
            b_row[ell] = 2.0 / m * float(np.dot(row, sin_l))
    return samples, a, b


# --- export -------------------------------------------------------------


def write_json(path, obj) -> None:
    """obj as JSON indented by two spaces, with no final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, indent=2))


def write_table(path, header: str, columns) -> None:
    """CSV of the columns under one header line, every number as "%.17g",
    which round-trips float64.  The bytes are those of np.savetxt with that
    format, filled into one row template repeated over the rows and
    written at once."""
    table = np.column_stack(columns)
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n" + (row * len(table)) % tuple(table.ravel().tolist()))


# not public: only tests and the benchmark's set-up (perfbench/workloads.py) call it
def write_field_csv(field: ScalarField, path) -> None:
    """Columns r, phi, value through write_table; one row per cell, row-major in (r, phi)."""
    rr, pp = field.grid.mesh_coords()
    write_table(path, "r,phi,value", [rr.ravel(), pp.ravel(), field.values.ravel()])


def _grid_from_nodes(path, r_vals, phi_vals, rtol: float = 0.0) -> PolarGrid:
    """The grid whose cell centers are the sorted nodes, each node and the angular
    extent to 1e-9 + rtol times the grid's value; copies follow the phi step."""
    n_r, n_phi = len(r_vals), len(phi_vals)
    if min(n_r, n_phi) < 2:
        raise ValueError(f"{path}: need at least two r and two phi nodes, got {n_r}x{n_phi}")
    phi_total = (phi_vals[1] - phi_vals[0]) * n_phi
    copies = max(round(TWO_PI / phi_total), 1) if phi_total > 0 else 0
    if (not copies or (copies > 1 and copies % 2)
            or abs(phi_total - TWO_PI / copies) > 1e-9 + rtol * TWO_PI / copies):
        raise ValueError(f"{path}: angular extent {phi_total} is not pi/k or 2*pi")
    grid = PolarGrid(n_r, n_phi, copies)
    if not (np.allclose(r_vals, grid.r, rtol=rtol, atol=1e-9)
            and np.allclose(phi_vals, grid.phi, rtol=rtol, atol=1e-9)):
        raise ValueError(f"{path}: nodes are not the cell centers of a {n_r}x{n_phi} grid")
    return grid


def read_field_csv(path) -> ScalarField:
    """Rebuild a ScalarField from a CSV produced by write_field_csv; a file
    with no data row is a ValueError, raised before numpy warns of it."""
    with open(path, "rb") as fh:
        fh.readline()
        if not any(line.split(b"#", 1)[0].strip() for line in fh):
            raise ValueError(f"{path}: no data rows under the header r,phi,value")
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    if data.ndim != 2 or data.shape[1] != 3:
        raise ValueError(f"{path}: expected 3 columns r,phi,value")
    r_vals, phi_vals = np.unique(data[:, 0]), np.unique(data[:, 1])
    if len(r_vals) * len(phi_vals) != data.shape[0]:
        raise ValueError(f"{path}: rows do not form a tensor grid")
    grid = _grid_from_nodes(path, r_vals, phi_vals)
    return ScalarField(grid, data[np.lexsort((data[:, 1], data[:, 0])), 2].reshape(grid.shape))


def _read_field_vtk(path) -> ScalarField:
    """Rebuild a ScalarField, values bit for bit, from a file written by write_field_vtk.

    The points may be `float` (this writer) or `double` (files written
    before it).  The grid comes from DIMENSIONS and the angular extent, and
    is checked against the first ray's radii and the first ring's angles,
    O(n_r + n_phi) nodes: to 1e-9 for double points, to 1e-9 plus
    4 * 2^-24 relative for float points.  The values must be `double`.
    """
    import re
    with open(path, "rb") as fh:
        data = fh.read()
    head = re.match(rb"# vtk DataFile.*\n.*\nBINARY\nDATASET STRUCTURED_GRID\n"
                    rb"DIMENSIONS ([1-9]\d*) ([1-9]\d*) 1\nPOINTS (\d+) (float|double)\n", data)
    if head is None:
        raise ValueError(f"{path}: not a BINARY legacy-VTK structured grid")
    n_r, n_phi, n = map(int, head.groups()[:3])
    if n != n_r * n_phi:
        raise ValueError(f"{path}: DIMENSIONS {n_r}x{n_phi} disagree with POINTS {n}")
    # coordinates rounded once to float32 (unit roundoff u = 2^-24) give r to u
    # relative and phi to u |sin 2 phi| <= 2u phi; the extent, from the first
    # two angles, is then within 4u relative, and 4u bounds all three
    point_type, rtol = (">f4", 4 * 2.0**-24) if head[4] == b"float" else (">f8", 0.0)
    meta = re.compile(rb"\nPOINT_DATA (\d+)\nSCALARS \S+ double 1\nLOOKUP_TABLE default\n"
                      ).match(data, head.end() + 3 * n * np.dtype(point_type).itemsize)
    if meta is None or int(meta[1]) != n or len(data) < meta.end() + 8 * n:
        raise ValueError(f"{path}: truncated or malformed VTK point data")
    xy = np.frombuffer(data, point_type, 3 * n, head.end()).reshape(n_phi, n_r, 3)
    ray, ring = xy[0].astype(float), xy[:, 0].astype(float)  # first ray and ring
    grid = _grid_from_nodes(path, np.hypot(ray[:, 0], ray[:, 1]),
                            np.arctan2(ring[:, 1], ring[:, 0]) % TWO_PI, rtol)
    values = np.frombuffer(data, ">f8", n, meta.end()).reshape(n_phi, n_r).T
    return ScalarField(grid, values.astype(float, order="C"))


def read_field(path) -> ScalarField:
    """A field from a write_field_vtk file (first line "# vtk DataFile...") or a CSV."""
    with open(path, "rb") as fh:
        vtk = fh.readline().startswith(b"# vtk DataFile")
    return _read_field_vtk(path) if vtk else read_field_csv(path)


def write_field_vtk(field: ScalarField, path) -> None:
    """Legacy-VTK BINARY structured grid of cell centers with point data u,
    in Fortran order (r fastest), big-endian as the legacy format requires.

    The points (r cos phi, r sin phi, 0) only place the cells, so they are
    `float`: each coordinate is computed in float64 and rounded once to
    float32.  The values are `double`, bit for bit, and read_field gives
    them back.  At 20 bytes per cell a 256^2 field takes 1.3 MB.
    """
    g = field.grid
    # Fortran order of (n_r, n_phi) is C order of (n_phi, n_r); the arrays
    # are written from their own buffers, so nothing else of size n is made
    points = np.zeros((g.n_phi, g.n_r, 3), dtype=">f4")
    np.multiply.outer(np.cos(g.phi), g.r, out=points[..., 0])
    np.multiply.outer(np.sin(g.phi), g.r, out=points[..., 1])
    values = np.ascontiguousarray(field.values.T, dtype=">f8")
    header = (
        "# vtk DataFile Version 3.0\n"
        "u on polar grid\n"
        "BINARY\n"
        "DATASET STRUCTURED_GRID\n"
        f"DIMENSIONS {g.n_r} {g.n_phi} 1\n"
        f"POINTS {g.size} float\n"
    )
    point_data = f"\nPOINT_DATA {g.size}\nSCALARS u double 1\nLOOKUP_TABLE default\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8"))
        fh.write(points)
        fh.write(point_data.encode("utf-8"))
        fh.write(values)
        fh.write(b"\n")
