"""Finite-volume Laplacian on a polar sector and linear solves.

Discretizes -Delta with a Dirichlet arc at r = 1 (second-order ghost
elimination) and homogeneous Neumann radial edges.  The innermost radial
face has zero length, so the origin needs no special stencil.  The matrix
A is symmetric positive definite; fluxes enter antisymmetrically, so A
applied to constants leaves only the Dirichlet arc contribution b1: one
inverse of A also inverts the bordered [[A, b1], [e, 0]] with the pin row
e (`DiscreteLaplacian.bordered_inverse`).

A is separable, A = T_r (x) I + diag(dr / (r_i dphi)) (x) L_phi, with T_r
the radial tridiagonal (arc term included) and L_phi the Neumann path
Laplacian.  The orthonormal DCT-II diagonalizes L_phi exactly, with
eigenvalues 4 sin^2(pi m / (2 n_phi)), so A^-1 is a DCT in phi, one SPD
tridiagonal solve per angular mode in r, and the inverse DCT
(Buzbee, Golub and Nielson 1970).
"""
from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
from scipy.fft import dct, idct
from scipy.linalg.lapack import dpttrf, dpttrs

from .field import ScalarField, _origin_ring_weights
from .mesh import PolarGrid

# stagnation guard, not a precision target: the separable inverse leaves
# relative residuals of about 2e-13 at 512^2 and 2e-10 at 65536 x 8 cells
RESIDUAL_TOL = 1e-8
# Bytes that the store (`_store`) keeps between solves over all grid shapes.
# 160 MiB holds the operator arrays of one 2048^2 grid (96 MiB) or of
# criterion 7's 65536 x 8 asterisk (14 MiB), so a repeated solve on either
# builds no operator array.
STORE_BYTES = 160 << 20


# not public: raised by solve alone
class SolverError(RuntimeError):
    """Linear solve failed to reach the required residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (achieved relative residual {residual:.3e})")
        self.residual = residual


@dataclass
class DiscreteLaplacian:
    """Operator A = -L: face coefficients, factors of A^-1, the Dirichlet lift and the pin row.

    For cell c the finite-volume balance reads
        (L u)_c + (B g)_c = area_c * (Delta u)_c + O(h^2),
    with B supported on the outer ring.  Solving Delta u = F with u = g on
    the arc is A u = B g - area * F.  Cell (i, j) is c = i n_phi + j.  The
    radial faces, the areas and the diagonal (one value on the edge columns
    j = 0 and n_phi - 1 of a ring, one inside) are kept per ring.
    """

    grid: PolarGrid
    radial: np.ndarray  # per ring: face between rings i and i + 1, n_r - 1
    angular: np.ndarray  # face between cells c and c + 1 (0 across rings), size - 1
    diag: np.ndarray  # per ring, (n_r, 2): A's diagonal at columns 0 and n_phi - 1, and inside
    arc_coeff: float  # per-column Dirichlet transmissibility 2*dphi/dr
    areas: np.ndarray  # per ring: cell areas, grid.cell_areas
    modes: tuple[np.ndarray, np.ndarray]  # L D L^T factors of A's modes (`_factor_modes`)
    pin: np.ndarray  # the pin row e on its support, the cells of the origin rings
    pin_sum: float  # e 1

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A x for a flat vector x as the 5-point stencil.

        Row c sums from 0 in column order c - n_phi, c - 1, c, c + 1,
        c + n_phi, as a sorted sparse-matrix product does, so the result is
        bitwise that product's.  The first term t enters as 0 - t, written
        straight into the result, which gives the signed zero that a zero
        start would; the inner ring, which has no such term, starts from
        +0.0.  The zero face between two rings adds a signed zero, which
        changes no sum.  The other four products take turns in one scratch
        array.  The per-ring radial faces and diagonal
        broadcast over (n_r, n_phi) views, the diagonal's edge value on
        columns 0 and n_phi - 1 after its interior one on all; the angular
        faces stay per cell, as per ring they ran slower on column slices.
        """
        n_r, n_phi = self.grid.shape
        y = np.empty(x.size)
        t = np.empty(x.size)
        y2, t2, x2 = (a.reshape(n_r, n_phi) for a in (y, t, x))
        radial = self.radial[:, None]
        edges = np.s_[:, ::n_phi - 1]  # columns 0 and n_phi - 1
        y[:n_phi] = 0.0
        np.subtract(0.0, np.multiply(radial, x2[:-1], out=y2[1:]), out=y2[1:])
        np.subtract(y[1:], np.multiply(self.angular, x[:-1], out=t[1:]), out=y[1:])
        np.multiply(self.diag[:, 1:], x2, out=t2)
        np.multiply(self.diag[:, :1], x2[edges], out=t2[edges])
        y += t
        np.subtract(y[:-1], np.multiply(self.angular, x[1:], out=t[:-1]), out=y[:-1])
        np.subtract(y2[:-1], np.multiply(radial, x2[1:], out=t2[:-1]), out=y2[:-1])
        return y

    def lift(self, g_values: np.ndarray) -> np.ndarray:
        """Flat rhs contribution B g of arc boundary values."""
        g_values = np.asarray(g_values, dtype=float)
        if g_values.shape != (self.grid.n_phi,):
            raise ValueError(f"arc data must have shape ({self.grid.n_phi},)")
        out = np.zeros(self.grid.size)
        out[-self.grid.n_phi :] = self.arc_coeff * g_values
        return out

    def apply_inverse(self, rhs: np.ndarray) -> np.ndarray:
        """A^-1 rhs for a flat vector, exact up to rounding; rhs is left as it is.

        Two arrays per call.  The DCT runs along the first axis of the
        transposed view of rhs, which gives the coefficients mode-major:
        every mode is a contiguous block of the tridiagonal, and the
        tridiagonal solve overwrites them (`dpttrs(overwrite_b=True)`).  The
        inverse DCT reads that solution through a transposed view and
        writes the cell-major result.  The DCTs run on one worker so that
        repeated solves are bit-identical.
        """
        n_r, n_phi = self.grid.shape
        d, e = self.modes
        coef = dct(rhs.reshape(n_r, n_phi).T, type=2, axis=0, norm="ortho", workers=1)
        x, _ = dpttrs(d, e, coef.reshape(-1, 1), overwrite_b=True)
        return idct(x.reshape(n_phi, n_r).T, type=2, axis=1, norm="ortho", workers=1).ravel()

    def bordered_inverse(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """[[A, b1], [e, 0]]^-1 v with one Laplacian inverse, into out if given.

        A 1 = b1 (constants leave only the arc term), so the solution of
        A x + t b1 = v[:-1], e x = v[-1] is x = z - t 1 with z = A^-1 v[:-1]
        and t = (e z - v[-1]) / (e 1).  out may be v itself.
        """
        z = self.apply_inverse(v[:-1])
        t = (float(self.pin @ z[:self.pin.size]) - v[-1]) / self.pin_sum
        x = np.empty(v.size) if out is None else out
        np.subtract(z, t, out=x[:-1])
        x[-1] = t
        return x


def _transmissibilities(grid: PolarGrid) -> tuple[np.ndarray, np.ndarray, float]:
    """Face coefficients of A: radial faces between rings i and i+1 (at
    radius R_{i+1}), angular faces inside ring i (1/r at the ring center),
    and the Dirichlet arc (ghost elimination gives flux 2*(g - u)/dr per
    unit length)."""
    dr, dphi = grid.dr, grid.dphi
    return grid.r_faces[1:-1] * dphi / dr, dr / (grid.r * dphi), 2.0 * dphi / dr


def _factor_modes(grid: PolarGrid, t_radial, t_angular, arc_coeff) -> tuple[np.ndarray, np.ndarray]:
    """L D L^T factors of the radial tridiagonals of all angular modes.

    The n_phi systems are stacked mode-major into one tridiagonal whose
    coupling between consecutive blocks is zero, so one LAPACK call factors
    (and one solves) them all, with the same arithmetic as separate calls.
    """
    n_r, n_phi = grid.shape
    radial = np.zeros(n_r)
    radial[:-1] += t_radial
    radial[1:] += t_radial
    radial[-1] += arc_coeff
    eig = 4.0 * np.sin(0.5 * np.pi * np.arange(n_phi) / n_phi) ** 2
    d = (radial[None, :] + eig[:, None] * t_angular[None, :]).ravel()
    e = np.zeros((n_phi, n_r))
    e[:, :-1] = -t_radial
    d, e, info = dpttrf(d, e.ravel()[:-1])
    if info != 0:
        raise ValueError(f"radial mode operator is not positive definite (dpttrf info={info})")
    return d, e


def _level_arrays(grid: PolarGrid) -> tuple:
    """(radial, angular, diag, arc_coeff, areas, modes, pin, pin_sum) of
    `DiscreteLaplacian` on grid, read-only.

    The radial faces, diagonal and areas are per ring.  The diagonal sums the
    inner radial, outer radial and two angular face coefficients (one on an
    edge column) and then the arc coefficient, in that order.
    """
    n_phi = grid.n_phi
    radial, t_angular, arc_coeff = _transmissibilities(grid)
    angular = np.repeat(t_angular, n_phi)
    angular[::n_phi] = 0.0  # no face between the ends of two rings
    angular = angular[1:]
    edge = np.append(0.0, radial) + np.append(radial, 0.0) + t_angular
    diag = np.column_stack([edge, edge + t_angular])
    diag[-1] += arc_coeff
    areas = grid.cell_areas.copy()
    modes = _factor_modes(grid, radial, t_angular, arc_coeff)
    pin = np.repeat(_origin_ring_weights(grid) / n_phi, n_phi)
    for a in (radial, angular, diag, areas, *modes, pin):
        a.flags.writeable = False
    return radial, angular, diag, arc_coeff, areas, modes, pin, float(pin.sum())


# The operator arrays of each grid shape (equal grids hash by (n_r, n_phi,
# copies)), least recently used first.
_store: dict[PolarGrid, tuple] = {}
_store_lock = threading.Lock()


def _nbytes(arrays: tuple) -> int:
    radial, angular, diag, _, areas, modes, pin, _ = arrays
    return sum(a.nbytes for a in (radial, angular, diag, areas, *modes, pin))


def assemble(grid: PolarGrid) -> DiscreteLaplacian:
    """Face coefficients, diagonal, inverse factors and pin row of the SPD finite-volume operator.

    Returns a new operator on the caller's grid object.  Its read-only
    arrays are built under the store's lock once per shape while the store
    (`_store`) holds them, and shared by every operator of that shape; the
    least recently used shapes go while the store passes STORE_BYTES.
    """
    if grid.periodic:
        raise ValueError("the Dirichlet-arc operator is assembled on sector grids only")
    with _store_lock:
        kept = _store.pop(grid, None) or _level_arrays(grid)
        _store[grid] = kept
        while sum(map(_nbytes, _store.values())) > STORE_BYTES:
            del _store[next(iter(_store))]
    return DiscreteLaplacian(grid, *kept)


def _arc_values(grid: PolarGrid, g_arc) -> np.ndarray:
    if g_arc is None:
        return np.zeros(grid.n_phi)
    if callable(g_arc):
        return np.asarray(g_arc(grid.phi), dtype=float)
    g = np.asarray(g_arc, dtype=float)
    if g.shape != (grid.n_phi,):
        raise ValueError(f"arc data must have shape ({grid.n_phi},), got {g.shape}")
    return g


# not public: only tests and the benchmark's traced run (perfbench/spans.py) call it
def solve(
    lap: DiscreteLaplacian,
    F=None,
    g_arc=None,
    tol: float = RESIDUAL_TOL,
) -> ScalarField:
    """Solve Delta u = F in K, u = g on the arc, du/dnu = 0 on the edges.

    F may be a ScalarField, an array of cell values, a scalar, or None (0).
    g_arc may be a callable of phi, an array over arc cells, or None (0).
    Uses the exact separable inverse of A; a relative residual above tol
    raises SolverError.
    """
    grid = lap.grid
    if F is None:
        f_flat = np.zeros(grid.size)
    elif isinstance(F, ScalarField):
        f_flat = F.values.ravel()
    elif np.isscalar(F):
        f_flat = np.full(grid.size, float(F))
    else:
        f_flat = np.asarray(F, dtype=float).reshape(grid.size)
    rhs = lap.lift(_arc_values(grid, g_arc)) - np.repeat(lap.areas, grid.n_phi) * f_flat

    u = lap.apply_inverse(rhs)
    rhs_norm = float(np.linalg.norm(rhs))
    rel = float(np.linalg.norm(lap.apply(u) - rhs)) / max(rhs_norm, 1e-300)
    if rel > tol and rhs_norm > 0.0:
        raise SolverError("linear solve stagnated", rel)
    return ScalarField(grid, u.reshape(grid.shape))
