"""Finite-volume Laplacian on a polar sector and linear solves.

Discretizes -Delta with a Dirichlet arc at r = 1 (second-order ghost
elimination) and homogeneous Neumann radial edges.  The innermost radial
face has zero length, so the origin needs no special stencil.  The matrix
A is symmetric positive definite; fluxes enter antisymmetrically, so A
applied to constants leaves only the Dirichlet arc contribution.

A is separable, A = T_r (x) I + diag(dr / (r_i dphi)) (x) L_phi, with T_r
the radial tridiagonal (arc term included) and L_phi the Neumann path
Laplacian.  The orthonormal DCT-II diagonalizes L_phi exactly, with
eigenvalues 4 sin^2(pi m / (2 n_phi)), so A^-1 is a DCT in phi, one SPD
tridiagonal solve per angular mode in r, and the inverse DCT
(Buzbee, Golub and Nielson 1970).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.fft import dct, idct
from scipy.linalg.lapack import dpttrf, dpttrs

from .field import ScalarField
from .mesh import PolarGrid

# stagnation guard, not a precision target: the separable inverse leaves
# relative residuals of about 2e-13 at 512^2 and 2e-10 at 65536 x 8 cells
RESIDUAL_TOL = 1e-8


class SolverError(RuntimeError):
    """Linear solve failed to reach the required residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (achieved relative residual {residual:.3e})")
        self.residual = residual


@dataclass
class DiscreteLaplacian:
    """Operator A = -L as its face coefficients, plus the Dirichlet lift.

    For cell c the finite-volume balance reads
        (L u)_c + (B g)_c = area_c * (Delta u)_c + O(h^2),
    with B supported on the outer ring.  Solving Delta u = F with u = g on
    the arc is A u = B g - area * F.  Cell (i, j) is c = i n_phi + j.
    """

    grid: PolarGrid
    radial: np.ndarray  # face between cells c and c + n_phi, size - n_phi
    angular: np.ndarray  # face between cells c and c + 1 (0 across rings), size - 1
    diag: np.ndarray  # diagonal of A, size
    arc_coeff: float  # per-column Dirichlet transmissibility 2*dphi/dr
    areas: np.ndarray  # flat cell areas, grid.size
    _modes: tuple | None = field(default=None, repr=False, compare=False)

    def apply(self, x: np.ndarray, magnitude: bool = False) -> np.ndarray:
        """A x for a flat vector x as the 5-point stencil, or |A| x.

        Row c sums from 0 in column order c - n_phi, c - 1, c, c + 1,
        c + n_phi, as a sorted sparse-matrix product does, so the result is
        bitwise that product's.  The zero face between two rings adds a
        signed zero, which changes no sum.
        """
        n_phi = self.grid.n_phi
        off = np.add if magnitude else np.subtract  # sign of the off-diagonal terms
        y = np.zeros(x.size)
        off(y[n_phi:], self.radial * x[:-n_phi], out=y[n_phi:])
        off(y[1:], self.angular * x[:-1], out=y[1:])
        y += self.diag * x
        off(y[:-1], self.angular * x[1:], out=y[:-1])
        off(y[:-n_phi], self.radial * x[n_phi:], out=y[:-n_phi])
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
        """A^-1 rhs for a flat vector, exact up to rounding.

        The DCTs run on one worker so that repeated solves are bit-identical.
        """
        n_r, n_phi = self.grid.shape
        if self._modes is None:
            self._modes = _factor_modes(self.grid)
        d, e = self._modes
        coef = dct(rhs.reshape(n_r, n_phi), type=2, axis=1, norm="ortho", workers=1)
        # mode-major order: every mode is a contiguous block of the tridiagonal
        x, _ = dpttrs(d, e, coef.T.reshape(-1, 1))
        x = x.reshape(n_phi, n_r).T
        return idct(x, type=2, axis=1, norm="ortho", workers=1).ravel()


def _transmissibilities(grid: PolarGrid) -> tuple[np.ndarray, np.ndarray, float]:
    """Face coefficients of A: radial faces between rings i and i+1 (at
    radius R_{i+1}), angular faces inside ring i (1/r at the ring center),
    and the Dirichlet arc (ghost elimination gives flux 2*(g - u)/dr per
    unit length)."""
    dr, dphi = grid.dr, grid.dphi
    return grid.r_faces[1:-1] * dphi / dr, dr / (grid.r * dphi), 2.0 * dphi / dr


def _factor_modes(grid: PolarGrid) -> tuple[np.ndarray, np.ndarray]:
    """L D L^T factors of the radial tridiagonals of all angular modes.

    The n_phi systems are stacked mode-major into one tridiagonal whose
    coupling between consecutive blocks is zero, so one LAPACK call factors
    (and one solves) them all, with the same arithmetic as separate calls.
    """
    n_r, n_phi = grid.shape
    t_radial, t_angular, arc_coeff = _transmissibilities(grid)
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


def assemble(grid: PolarGrid) -> DiscreteLaplacian:
    """Face coefficients and diagonal of the SPD finite-volume operator.

    The diagonal of cell c sums its inner radial, outer radial and two
    angular face coefficients and then the arc coefficient, in that order.
    """
    if grid.periodic:
        raise ValueError("the Dirichlet-arc operator is assembled on sector grids only")
    n_phi = grid.n_phi
    t_radial, t_angular, arc_coeff = _transmissibilities(grid)
    radial = np.repeat(t_radial, n_phi)
    angular = np.repeat(t_angular, n_phi)
    angular[::n_phi] = 0.0  # no face between the ends of two rings
    angular = angular[1:]
    diag = np.repeat(np.append(0.0, t_radial) + np.append(t_radial, 0.0), n_phi)
    diag[:-1] += angular
    diag[1:] += angular
    diag[-n_phi:] += arc_coeff
    return DiscreteLaplacian(grid=grid, radial=radial, angular=angular, diag=diag,
                             arc_coeff=arc_coeff, areas=np.repeat(grid.cell_areas, n_phi))


def _arc_values(grid: PolarGrid, g_arc) -> np.ndarray:
    if g_arc is None:
        return np.zeros(grid.n_phi)
    if callable(g_arc):
        return np.asarray(g_arc(grid.phi), dtype=float)
    g = np.asarray(g_arc, dtype=float)
    if g.shape != (grid.n_phi,):
        raise ValueError(f"arc data must have shape ({grid.n_phi},), got {g.shape}")
    return g


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
    rhs = lap.lift(_arc_values(grid, g_arc)) - lap.areas * f_flat

    u = lap.apply_inverse(rhs)
    rhs_norm = float(np.linalg.norm(rhs))
    rel = float(np.linalg.norm(lap.apply(u) - rhs)) / max(rhs_norm, 1e-300)
    if rel > tol and rhs_norm > 0.0:
        raise SolverError("linear solve stagnated", rel)
    return ScalarField(grid, u.reshape(grid.shape))
