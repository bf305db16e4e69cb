"""Regularized fixed-point solver for Delta u = -f_eps(u) with u(0) = 0.

The unknown is the pair (u, kappa): u solves the semilinear problem with
arc data g - kappa, and the scalar shift kappa is adjusted so the
extrapolated origin value of u vanishes.  With the bordered Laplacian

    P = [ A   b1 ]
        [ e   0  ],

whose exact inverse costs one Laplacian inverse because A 1 = b1, the
pinned fixed-point map is

    [u; kappa] <- P^-1 [B g + area f_eps(u); 0].

Unpinned, the map with fixed data is repelled from the solution (the
instability of the problem); with the pin row and the kappa column it has
contracted in every case measured, more slowly as eps falls.
solve_fixed_point takes the linear predictor (f = 1, the map's first step)
on the requested grid at the requested eps and iterates the map from there
(`newton_stage`), with Anderson mixing (Anderson 1965; Walker and Ni 2011)
once plain steps stop contracting fast.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .field import ScalarField, _origin_ring_weights, write_field_vtk
from .mesh import PolarGrid
from .poisson import DiscreteLaplacian, _arc_values, assemble


# --- smoothed indicator --------------------------------------------------


# Both polynomials clip s in place and round as s * s * s * (10 + s (-15 + 6 s))
# and 30 s s (1 - s)^2 do, left to right; s is a float array the caller owns.


def _smoothstep(s: np.ndarray) -> np.ndarray:
    np.clip(s, 0.0, 1.0, out=s)
    out = s * s
    out *= s
    poly = np.multiply(s, 6.0)
    poly += -15.0
    poly *= s
    poly += 10.0
    out *= poly
    return out


def _smoothstep_prime(s: np.ndarray) -> np.ndarray:
    np.clip(s, 0.0, 1.0, out=s)
    out = np.multiply(s, 30.0)
    out *= s
    np.subtract(1.0, s, out=s)
    out *= np.square(s, out=s)
    return out


def _shifted(z, eps: float) -> np.ndarray:
    """z / eps + 1 in a new array, 0-d for a scalar z."""
    z = np.asarray(z, dtype=float)
    s = np.divide(z, eps, out=np.empty(z.shape))
    s += 1.0
    return s


# not public: the tests' dense reference for the band's source
def f_eps(z, eps: float):
    """C^2 monotone surrogate for the indicator of {z > 0}.

    Equals 1 for z >= 0 and 0 for z <= -eps; in between it is the quintic
    smoothstep of z/eps + 1.  Pointwise nonincreasing in eps, always above
    the sharp indicator.
    """
    if eps <= 0.0:
        raise ValueError(f"regularization width must be positive, got {eps}")
    out = _smoothstep(_shifted(z, eps))
    return out if out.ndim else float(out)


# not public: the tests' dense reference for the Jacobian of the Newton oracle
def f_eps_prime(z, eps: float):
    """Derivative of f_eps; bounded by (15/8)/eps, zero outside (-eps, 0)."""
    if eps <= 0.0:
        raise ValueError(f"regularization width must be positive, got {eps}")
    out = _smoothstep_prime(_shifted(z, eps))
    out /= eps
    return out if out.ndim else float(out)


# --- results ------------------------------------------------------------


@dataclass
class Solution:
    """Converged solution of the regularized constrained problem."""

    u: ScalarField
    kappa: float
    eps: float
    pde_residual: float
    origin_residual: float
    # fixed-point steps after the linear predictor
    iterations: int
    g_values: np.ndarray
    g_label: str = ""
    # cells where f_eps'(u) != 0: -eps < u < 0
    band_cells: int = 0


class StageFailed(RuntimeError):
    """The fixed-point iteration failed to converge."""

    def __init__(self, eps: float, grid: PolarGrid, iterations: int, residual: float,
                 reason: str):
        super().__init__(
            f"solve at eps={eps:g} on {grid.n_r}x{grid.n_phi} cells failed after"
            f" {iterations} iterations (residual {residual:.3e}): {reason}"
        )
        self.eps = eps
        self.n_r, self.n_phi = grid.n_r, grid.n_phi
        self.iterations = iterations
        self.residual = residual
        self.reason = reason


# --- residual and fixed-point iteration -----------------------------------

# Absolute tolerance of the iteration on max |R1| and |R2| (`newton_stage`).
NEWTON_TOL = 1e-10
# Fixed-point steps per solve: the 256^2 asterisk takes 21 at eps = 3.125e-5
# and 53 at eps = 1e-6.
MAX_ITERATIONS = 500
# Anderson mixing keeps the last ANDERSON_DEPTH secant pairs, and starts at
# the first step whose update is more than ANDERSON_START times the one
# before it; plain steps that contract faster than that (the cross) never mix.
ANDERSON_DEPTH = 5
ANDERSON_START = 0.1
# Widest eps a solve accepts.
EPS_MAX = 0.2


def _residual(lap: DiscreteLaplacian, e: np.ndarray, u: np.ndarray, kappa: float,
              g: np.ndarray, eps: float) -> tuple[np.ndarray, float]:
    """Finite-volume residual R1 (area-weighted) and origin residual R2.

    R1 = A u - area f_eps(u) - B (g - kappa).  The source is area * 1 where
    u >= 0, and +0.0 where u <= -eps: rounding is monotone, so there
    u / eps rounds to at most -1 and s = u / eps + 1 clips to 0.  x - (+0.0)
    is x, so those cells subtract nothing.  Only the band between,
    -eps < u < 0, evaluates the smoothstep, with the arithmetic of f_eps,
    so R1 is bitwise that of the dense source.  The lift is subtracted on
    the arc ring alone, where it is nonzero.  e may be the leading entries
    of the pin row, R2 = e . u[:e.size].  The per-ring areas broadcast over
    the rings, and band cell c reads its ring's, c // n_phi.
    """
    shape = lap.grid.shape
    r1 = lap.apply(u)
    plateau = u >= 0.0
    np.subtract(r1.reshape(shape), lap.areas[:, None], out=r1.reshape(shape),
                where=plateau.reshape(shape))
    band = np.flatnonzero((u > -eps) ^ plateau)
    source = _smoothstep(_shifted(u[band], eps))
    source *= lap.areas[band // shape[1]]
    r1[band] -= source
    r1[-lap.grid.n_phi:] -= lap.arc_coeff * (g - kappa)
    return r1, float(e @ u[:e.size])


def _pin_row(grid: PolarGrid) -> tuple[np.ndarray, float]:
    """The pin row e on its support, the cells of the origin rings, and its sum."""
    e = np.repeat(_origin_ring_weights(grid) / grid.n_phi, grid.n_phi)
    return e, float(e.sum())


def initial_guess(grid: PolarGrid, g_arc, lap: DiscreteLaplacian) -> tuple[ScalarField, float]:
    """Linear predictor: solve Delta u = -1 with u = g - kappa, u(0) = 0.

    The pair solves P [u; kappa] = [B g + area; 0] with the bordered
    Laplacian P = [[A, b1], [e, 0]], so one bordered inverse (one Laplacian
    inverse, as each fixed-point step makes) gives both.
    """
    rhs = lap.lift(_arc_values(grid, g_arc)) + np.repeat(lap.areas, grid.n_phi)
    x = _bordered_inverse(lap, *_pin_row(grid), np.append(rhs, 0.0))
    return ScalarField(grid, x[:-1].reshape(grid.shape)), float(x[-1])


def _bordered_inverse(lap: DiscreteLaplacian, e: np.ndarray, e_sum: float,
                      v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """[[A, b1], [e, 0]]^-1 v with one Laplacian inverse, into out if given.

    A 1 = b1 (constants leave only the arc term), so the solution of
    A x + t b1 = v[:-1], e x = v[-1] is x = z - t 1 with z = A^-1 v[:-1]
    and t = (e z - v[-1]) / (e 1).  e may be the leading entries of the
    pin row (`_pin_row`), e_sum is e 1.  out may be v itself.
    """
    z = lap.apply_inverse(v[:-1])
    t = (float(e @ z[:e.size]) - v[-1]) / e_sum
    x = np.empty(v.size) if out is None else out
    np.subtract(z, t, out=x[:-1])
    x[-1] = t
    return x


def newton_stage(lap: DiscreteLaplacian, u: np.ndarray, kappa: float, eps: float,
                 g: np.ndarray) -> tuple[np.ndarray, float, int, float, float]:
    """Pinned fixed-point iteration at fixed eps from the given iterate.

    Returns (u, kappa, iterations, pde_residual, origin_residual), u flat.
    Idempotent: an already-converged iterate returns with 0 iterations.
    The name is kept because perfbench/spans.py pins it and reads
    result[2] as the iteration count; the benchmark's next revision may
    rename it.

    x = [u; kappa] has P x - [B g + area f_eps(u); 0] = [R1; R2], so the
    map's step G(x) = P^-1 [B g + area f_eps(u); 0] is x + d with
    d = -P^-1 [R1; R2], one bordered inverse of the residual that the
    convergence test evaluates anyway; R1 of the new iterate is then
    area (f_eps(u_n) - f_eps(u_n+1)) up to rounding.  Converged when
    max |R1| <= NEWTON_TOL and |R2| <= NEWTON_TOL.

    Anderson mixing of depth ANDERSON_DEPTH (Walker and Ni 2011) starts at
    the first step whose update |d| is more than ANDERSON_START times the
    one before, and then stays on: from the secant pairs dX = x_k - x_k-1
    and dD = d_k - d_k-1 it takes gamma = argmin |d - dD^T gamma| and steps
    to x + d - (dX + dD)^T gamma.  Mixing is a multisecant quasi-Newton
    method (Fang and Saad 2009).  The pairs are rows of two
    (ANDERSON_DEPTH, size + 1) arrays, allocated when mixing starts and
    written row by row, the oldest pair overwritten once all are full, so
    rows never written are never touched.  A non-finite iterate, or no
    convergence in MAX_ITERATIONS steps, raises StageFailed.
    """
    grid = lap.grid
    if np.shape(g) != (grid.n_phi,):
        raise ValueError(f"arc data must have shape ({grid.n_phi},)")
    e, e_sum = _pin_row(grid)
    x = np.append(u, kappa)
    x_prev = d_prev = d_norm = dx = dd = None
    it = pairs = 0
    while True:
        r1, r2 = _residual(lap, e, x[:-1], x[-1], g, eps)
        res1 = float(np.max(np.abs(r1)))
        if res1 <= NEWTON_TOL and abs(r2) <= NEWTON_TOL:
            return x[:-1], float(x[-1]), it, res1, abs(r2)
        if not (np.isfinite(res1) and np.isfinite(r2)):
            raise StageFailed(eps, grid, it, res1, "non-finite iterate")
        if it == MAX_ITERATIONS:
            raise StageFailed(eps, grid, it, res1, "iteration cap reached")
        it += 1
        d = np.append(r1, r2)
        del r1
        np.negative(_bordered_inverse(lap, e, e_sum, d, out=d), out=d)
        d_norm, last_norm = float(np.linalg.norm(d)), d_norm
        if dx is None and last_norm is not None and d_norm > ANDERSON_START * last_norm:
            dx, dd = np.empty((ANDERSON_DEPTH, x.size)), np.empty((ANDERSON_DEPTH, x.size))
        if dx is not None:
            row = pairs % ANDERSON_DEPTH
            np.subtract(x, x_prev, out=dx[row])
            np.subtract(d, d_prev, out=dd[row])
            pairs += 1
        x_prev, d_prev = x, d
        x = x + d
        if pairs:
            m = min(pairs, ANDERSON_DEPTH)
            gamma = np.linalg.lstsq(dd[:m].T, d, rcond=None)[0]
            x -= gamma @ dx[:m]
            x -= gamma @ dd[:m]


def solve_fixed_point(grid: PolarGrid, g_arc, eps_min: float = 0.0125,
                      g_label: str = "") -> Solution:
    """Solve at eps_min on a sector grid from the linear predictor
    (`initial_guess`) by the pinned fixed-point iteration (`newton_stage`).

    Deterministic under a fixed BLAS thread count: the norms and the least
    squares of the mixing and the DCTs of the bordered inverse run in a
    fixed order, the DCTs on one worker.
    """
    if grid.periodic:
        raise ValueError("solve_fixed_point needs a sector grid")
    if not 0.0 < eps_min <= EPS_MAX:
        raise ValueError(f"need 0 < eps_min <= eps_max = {EPS_MAX:g}, got {eps_min:g}")
    lap = assemble(grid)
    g = _arc_values(grid, g_arc)
    u0, kappa = initial_guess(grid, g, lap)
    u, kappa, iterations, pde_res, origin_res = newton_stage(
        lap, u0.values.ravel(), kappa, eps_min, g)
    return Solution(u=ScalarField(grid, u.reshape(grid.shape)), kappa=kappa, eps=eps_min,
                    pde_residual=pde_res, origin_residual=origin_res, iterations=iterations,
                    g_values=g, g_label=g_label,
                    band_cells=int(np.count_nonzero((u > -eps_min) & (u < 0.0))))


def export_solution(sol: Solution, out_dir) -> list[str]:
    """Write the field once, as legacy-VTK BINARY, and a JSON sidecar; returns the paths.

    The VTK file holds the values bit for bit (big-endian float64): `phi`,
    `blowup` and `fb` read it back through read_field, and viewers open it.
    """
    os.makedirs(out_dir, exist_ok=True)
    vtk_path = os.path.join(out_dir, "solution.vtk")
    json_path = os.path.join(out_dir, "solution.json")
    write_field_vtk(sol.u, vtk_path)
    grid = sol.u.grid
    keys = ("g_label", "kappa", "eps", "iterations", "pde_residual", "origin_residual",
            "band_cells")
    sidecar = {"k": grid.k, "n_r": grid.n_r, "n_phi": grid.n_phi,
               **{key: getattr(sol, key) for key in keys}}
    with open(json_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(sidecar, indent=2))
    return [vtk_path, json_path]
