"""Regularized fixed-point solver for Delta u = -f_eps(u) with u(0) = 0.

The unknown is the pair (u, kappa): u solves the semilinear problem with
arc data g - kappa, and the scalar shift kappa is adjusted so the
extrapolated origin value of u vanishes.  Each Newton step solves the
bordered system

    K [du; dkappa] = -[R1; R2],   K = [ A - diag(area * f_eps'(u))   b1 ]
                                      [ e                            0  ]

with one GMRES solve (Saad and Schultz 1986).  K is nonsymmetric, since
the kappa column b1 is not the pin row e, and its (1,1) block may be
indefinite; that is the expected instability of the problem, not an error.
K = P - E S E^T differs from the bordered Laplacian P = [[A, b1], [e, 0]],
whose exact inverse costs one Laplacian inverse because A 1 = b1, by the
diagonal S = area f_eps'(u) on the smoothing band B = {-eps < u < 0}; E
holds the columns of the identity at B.  So the step is the
capacitance-matrix solve (Buzbee, Dorr, George and Golub 1971): with
x0 = P^-1 b and c = S x0[B], GMRES solves the band's Schur complement
T q = q - S (P^-1 E q)[B] = c, and x = x0 + P^-1 E q.  The Arnoldi
vectors have the band's length (about 1 % of the cells of the 256^2
cross), and a solve of m iterations makes 1 + m Laplacian inverses.
b - K x = E (c - T q), so the Givens estimate of GMRES on T is the
residual of K itself; the inexact-Newton forcing term (Dembo, Eisenstat
and Steihaug 1982) is tested on it, and one product with K at the end of
each GMRES cycle confirms the true residual.  f_eps and f_eps' are
evaluated on the band alone, bitwise as on every cell.

The eps continuation runs these Newton steps in stages on a ladder of
grids (`_stages`), and solve_fixed_point collects its result.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field as dc_field

import numpy as np

from .field import ScalarField, _origin_ring_weights, write_field_vtk
from .mesh import PolarGrid
from .poisson import DiscreteLaplacian, _arc_values, assemble, keep_krylov, take_krylov


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


# not public: the tests' dense reference for the band's shift
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
    newton_iters: list[int]
    # [n_r, n_phi] of the grid each eps stage ran on, beside newton_iters
    stage_grids: list[list[int]]
    eps_schedule: list[float]
    g_values: np.ndarray
    g_label: str = ""
    # per stage, the cells of its grid where f_eps'(u) != 0: -eps < u < 0
    band_cells: list[int] = dc_field(default_factory=list)


class StageFailed(RuntimeError):
    """Newton failed to converge at one continuation stage.

    solve_fixed_point sets partial to the last converged stage, or None if
    the first stage failed.  The stages before the last run on coarser
    levels of the grid, so partial may live on a coarser grid than the one
    that was asked for.
    """

    def __init__(self, eps: float, grid: PolarGrid, iterations: int, residual: float,
                 reason: str, linear_residual: float | None = None):
        super().__init__(
            f"stage eps={eps:g} on {grid.n_r}x{grid.n_phi} cells failed after"
            f" {iterations} iterations (residual {residual:.3e}): {reason}"
        )
        self.eps = eps
        self.n_r, self.n_phi = grid.n_r, grid.n_phi
        self.iterations = iterations
        self.residual = residual
        self.reason = reason
        # relative residual |K x - b| / |b| of a Krylov solve that stopped short
        self.linear_residual = linear_residual
        self.partial: Solution | None = None


# --- residual and Newton machinery ----------------------------------------

# A row of R1 sums seven terms (five stencil entries, the source and the
# lift), each rounded to half an ulp, and u itself is stored to half an ulp;
# so ROUNDING_FACTOR * eps_mach * max_i sum_j |term_ij| bounds the size of
# an R1 entry that double precision cannot tell from zero.  The radial
# couplings r dphi/dr grow with n_r, and on fine grids this level passes
# the absolute Newton tolerance.
ROUNDING_FACTOR = 4.0
# The tolerance on R1 is raised to that level by at most this factor; a
# tolerance set further below what the arithmetic resolves stays unreachable.
MAX_TOL_RELAXATION = 100.0
# Forcing term of the Newton step: GMRES stops once the residual of the
# bordered system is this fraction of |[R1; R2]| (or the floor below, if
# that is larger), estimated by the Givens rotations and confirmed by one
# product with K per cycle.  Every stage then takes the Newton iterations
# it takes with exact solves.  Not much tighter: the attainable residual
# grows with n_r (first Newton step of the asterisk at eps = 0.2: 1.7e-10
# at 4096 x 8 cells, 6.4e-10 at 8192 x 8, 4.7e-8 at 65536 x 8), so 1e-8
# already fails on the finest grid in use.
KRYLOV_RTOL = 1e-6
# Floor of the forcing term, as a fraction of NEWTON_TOL (`_krylov_target`).
# In a stage's last step |b| falls to 1e-9 - 1e-8, where KRYLOV_RTOL |b|
# solves hundreds of times below what the test max |R1| <= NEWTON_TOL can
# see.  The Newton iterations per stage stay those of the tighter solves.
KRYLOV_NEWTON_FRACTION = 0.1
# A solve takes 0-2 iterations on the band of the 256^2 cross, 1-5 on the
# default 256^2 asterisk and at most 11 on the asterisk down to
# eps = 3.125e-5 (9 at 65536 x 8 cells), so one basis of KRYLOV_RESTART
# vectors holds a whole solve; a solve that reaches KRYLOV_MAXITER
# iterations (a multiple of the restart) has not converged.
KRYLOV_RESTART = 40
KRYLOV_MAXITER = 400
# Absolute tolerance of a Newton stage on max |R1| and |R2| (`newton_stage`).
NEWTON_TOL = 1e-10
# Newton iterations per stage: the finest widths on fine grids spend ~36
# damped steps before the quadratic phase (asterisk, 65536 x 16 cells,
# eps = 3.125e-5).
MAX_NEWTON = 60
# Armijo line search: sufficient-decrease constant, step shrink, backtrack cap.
ARMIJO_C = 1e-4
ARMIJO_SHRINK = 0.5
MAX_BACKTRACKS = 30
# A stage runs on the coarsest grid level that resolves its eps in
# LEVEL_EPS_CELLS radial cells, eps >= LEVEL_EPS_CELLS * dr (`_stage_levels`).
LEVEL_EPS_CELLS = 2.0
# First width and shrink factor of the eps ladder (`_schedule`).  Each
# coarser grid level doubles dr, so halving eps moves the placement up one
# level per stage.
EPS_START = 0.2
EPS_RATIO = 0.5


def _residual(lap: DiscreteLaplacian, e: np.ndarray, u: np.ndarray, kappa: float,
              g: np.ndarray, eps: float
              ) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    """Finite-volume residual R1 (area-weighted), origin residual R2 and the band.

    R1 = A u - area f_eps(u) - B (g - kappa).  The source is area * 1 where
    u >= 0, and +0.0 where u <= -eps: rounding is monotone, so there
    u / eps rounds to at most -1 and s = u / eps + 1 clips to 0.  x - (+0.0)
    is x, so those cells subtract nothing.  Only the band between,
    -eps < u < 0, evaluates the smoothstep, with the arithmetic of f_eps,
    so R1 is bitwise that of the dense source.  The lift is subtracted on
    the arc ring alone, where it is nonzero.  e may be the leading entries
    of the pin row, R2 = e . u[:e.size].  The per-ring areas broadcast over
    the rings, and band cell c reads its ring's, c // n_phi.

    Returns (r1, r2, band, shift): shift = area f_eps'(u) on the band,
    bitwise the dense one there, which is +0.0 off the band.  f_eps and
    f_eps' share one clipped s = u / eps + 1.
    """
    shape = lap.grid.shape
    r1 = lap.apply(u)
    plateau = u >= 0.0
    np.subtract(r1.reshape(shape), lap.areas[:, None], out=r1.reshape(shape),
                where=plateau.reshape(shape))
    band = np.flatnonzero((u > -eps) ^ plateau)
    s = _shifted(u[band], eps)
    areas = lap.areas[band // shape[1]]
    source = _smoothstep(s)
    source *= areas
    r1[band] -= source
    r1[-lap.grid.n_phi:] -= lap.arc_coeff * (g - kappa)
    r2 = float(e @ u[:e.size])
    shift = _smoothstep_prime(s)
    shift /= eps
    shift *= areas
    return r1, r2, band, shift


def _rounding_level(lap: DiscreteLaplacian, u: np.ndarray, kappa: float,
                    g: np.ndarray, eps: float) -> float:
    """Size of an R1 entry at the rounding level of its evaluation at u."""
    source = lap.areas[:, None] * f_eps(u.reshape(lap.grid.shape), eps)
    terms = lap.apply(np.abs(u), magnitude=True) + source.ravel() + np.abs(lap.lift(g - kappa))
    return ROUNDING_FACTOR * np.finfo(float).eps * float(np.max(terms))


def _rounding_bound(lap: DiscreteLaplacian, u: np.ndarray, kappa: float,
                    g: np.ndarray) -> float:
    """An upper bound on `_rounding_level` from four maxima: no row of |A|
    sums to more than twice its diagonal, f_eps <= 1, and the lift is
    arc_coeff (g - kappa) on the arc ring."""
    return ROUNDING_FACTOR * np.finfo(float).eps * (
        2.0 * float(np.max(lap.diag)) * float(np.max(np.abs(u)))
        + float(np.max(lap.areas)) + lap.arc_coeff * float(np.max(np.abs(g - kappa))))


def _pin_row(grid: PolarGrid) -> tuple[np.ndarray, float]:
    """The pin row e on its support, the cells of the origin rings, and its sum."""
    e = np.repeat(_origin_ring_weights(grid) / grid.n_phi, grid.n_phi)
    return e, float(e.sum())


def initial_guess(grid: PolarGrid, g_arc, lap: DiscreteLaplacian) -> tuple[ScalarField, float]:
    """Linear predictor: solve Delta u = -1 with u = g - kappa, u(0) = 0.

    The pair solves P [u; kappa] = [B g + area; 0] with the bordered
    Laplacian P = [[A, b1], [e, 0]], so one bordered inverse (one Laplacian
    inverse, the one each GMRES iteration applies) gives both.
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
    pin row (`_pin_row`), e_sum is e 1.
    """
    z = lap.apply_inverse(v[:-1])
    t = (float(e @ z[:e.size]) - v[-1]) / e_sum
    x = np.empty(v.size) if out is None else out
    np.subtract(z, t, out=x[:-1])
    x[-1] = t
    return x


def _krylov_target(b_norm: float) -> float:
    """Residual |b - K x| at which a Newton step's Krylov solve stops."""
    return max(KRYLOV_RTOL * b_norm, KRYLOV_NEWTON_FRACTION * NEWTON_TOL)


def _gmres(b: np.ndarray, residual, inverse, band: np.ndarray, shift: np.ndarray,
           spare: list | None = None) -> tuple[np.ndarray, int, float]:
    """Restarted GMRES for K x = b on the band's Schur complement.

    K = P - E diag(shift) E^T, where P is invertible and E holds the
    columns of the identity at the cells band: inverse(v, out) writes
    P^-1 v into out, and residual(x) returns b - K x in a new array.  For
    x0 = P^-1 r, x = x0 + P^-1 E q solves K x = r iff T q = c with
    c = shift * x0[band] and T q = q - shift * (P^-1 E q)[band], and then
    r - K x = E (c - T q).  So GMRES runs on T, whose Arnoldi vectors have
    the band's length, each iteration is one inverse of a vector that is
    zero off the band, and the Givens estimate |g_{j+1}| is the residual of
    K x = b itself; an iteration stops once it reaches `_krylov_target`.
    x = x0 + sum y_j z_j with the images z_j = P^-1 E v_j, so a cycle of m
    iterations makes 1 + m inverses, and an empty band gives x = x0.  Each
    cycle ends with one product K x to confirm the true residual; a miss
    restarts from x, with the residual in place of b.  Returns (x,
    iterations, |b - K x| / |b|); the solve has converged iff |b - K x|
    is at most the target.

    The images, the buffer for E v and the restarts' P^-1 r are taken from
    the list spare (new arrays while it is empty) and go back to it; x is
    a new array.  Modified Gram-Schmidt runs in the array of T v_j, which
    becomes the next Arnoldi vector.
    """
    spare = [] if spare is None else spare

    def take():
        return spare.pop() if spare else np.empty_like(b)

    b_norm = float(np.linalg.norm(b))
    if not b_norm:
        return np.zeros_like(b), 0, 0.0
    target = _krylov_target(b_norm)
    x = inverse(b, np.empty_like(b))
    c = np.multiply(shift, x[band])
    scatter = take()  # E v: zero off the band
    scatter.fill(0.0)
    iterations = 0
    while True:
        basis, images, columns, rotations = [c], [], [], []
        g = [float(np.linalg.norm(c))]
        h_next = g[0]
        while (abs(g[-1]) > target and len(images) < KRYLOV_RESTART
               and iterations < KRYLOV_MAXITER):
            v = basis[-1]
            v /= h_next
            scatter[band] = v
            z = inverse(scatter, take())
            images.append(z)
            iterations += 1
            w = z[band]
            w *= shift
            np.subtract(v, w, out=w)
            h = []
            for q in basis:  # modified Gram-Schmidt
                h.append(float(w @ q))
                w -= q * h[-1]
            h_next = float(np.linalg.norm(w))
            h.append(h_next)
            for i, (cs, sn) in enumerate(rotations):
                h[i], h[i + 1] = cs * h[i] + sn * h[i + 1], cs * h[i + 1] - sn * h[i]
            rho = math.hypot(h[-2], h[-1])
            cs, sn = h[-2] / rho, h[-1] / rho
            rotations.append((cs, sn))
            h[-2] = rho
            g.append(-sn * g[-1])
            g[-2] *= cs
            columns.append(h[:-1])
            basis.append(w)
        # back substitution on the rotated Hessenberg matrix
        m = len(columns)
        y = [0.0] * m
        for i in reversed(range(m)):
            y[i] = (g[i] - sum(columns[k][i] * y[k] for k in range(i + 1, m))) / columns[i][i]
        for yi, z in zip(y, images):
            x += np.multiply(z, yi, out=z)
        spare += images
        r = residual(x)
        beta = float(np.linalg.norm(r))
        if beta <= target or iterations >= KRYLOV_MAXITER or not images:
            break
        d = inverse(r, take())
        x += d
        c = np.multiply(shift, d[band])
        spare.append(d)
    spare.append(scatter)
    return x, iterations, beta / b_norm


def _newton_direction(lap: DiscreteLaplacian, e: np.ndarray, e_sum: float,
                      band: np.ndarray, shift: np.ndarray, r1: np.ndarray, r2: float
                      ) -> tuple[np.ndarray, float, float | None]:
    """Solve K [du; dkappa] = -[r1; r2] by GMRES on the band's Schur complement.

    K has the (1,1) block A - diag(area f_eps'(u)), the column b1 and the
    row e; it differs from P = [[A, b1], [e, 0]] by shift = area f_eps'(u)
    at the cells band, the diagonal's support, so `_gmres` iterates on
    the band alone, one bordered inverse (`_bordered_inverse`) per
    iteration.  Only the true residual at the end of a GMRES cycle
    multiplies by A; it corrects the band cells and adds the column b1,
    arc_coeff on the arc ring, there alone.  e may be the leading entries
    of the pin row, and e_sum is its sum.  Returns (du, dkappa, missed):
    missed is None when the true residual meets `_krylov_target`, and the
    pair (relative residual, relative target) otherwise.  The Krylov arrays
    are taken out of the store for lap's grid shape and go back to it
    (`poisson.take_krylov`).
    """
    n_phi = lap.grid.n_phi

    def inverse(v, out):
        return _bordered_inverse(lap, e, e_sum, v, out)

    def residual(x):
        du = x[:-1]
        kx = lap.apply(du)
        kx[band] -= shift * du[band]
        kx[-n_phi:] += lap.arc_coeff * x[-1]
        r = np.empty(x.size)
        np.subtract(rhs[:-1], kx, out=r[:-1])
        r[-1] = rhs[-1] - float(e @ du[:e.size])
        return r

    rhs = np.empty(r1.size + 1)
    np.negative(r1, out=rhs[:-1])
    rhs[-1] = -r2
    spare = take_krylov(lap.grid)
    x, _, relres = _gmres(rhs, residual, inverse, band, shift, spare)
    keep_krylov(lap.grid, spare)
    b_norm = float(np.linalg.norm(rhs))
    target = _krylov_target(b_norm) / b_norm if b_norm else 0.0
    return x[:-1], float(x[-1]), None if relres <= target else (relres, target)


def newton_stage(lap: DiscreteLaplacian, u: np.ndarray, kappa: float, eps: float,
                 g: np.ndarray) -> tuple[np.ndarray, float, int, float, float]:
    """Damped bordered Newton at fixed eps from the given iterate.

    Returns (u, kappa, iterations, pde_residual, origin_residual).
    Idempotent: an already-converged iterate returns with 0 iterations.

    Converged when |R2| <= NEWTON_TOL and max |R1| <= NEWTON_TOL, or when
    max |R1| is at the rounding level of its own evaluation and within
    MAX_TOL_RELAXATION * NEWTON_TOL (fine radial grids, where the level
    exceeds NEWTON_TOL).  The level is evaluated only when max |R1| is
    below its bound (`_rounding_bound`).
    """
    grid = lap.grid
    if np.shape(g) != (grid.n_phi,):
        raise ValueError(f"arc data must have shape ({grid.n_phi},)")
    e, e_sum = _pin_row(grid)
    tol = NEWTON_TOL

    def merit(r1, r2):
        # area-normalized so PDE and origin parts carry comparable units
        q = (r1.reshape(grid.shape) / lap.areas[:, None]).ravel()
        return float(np.dot(q, q) + r2 * r2)

    def converged(res1, r2, u, kappa):
        if abs(r2) > tol:
            return False
        if res1 <= tol:
            return True
        return (res1 <= MAX_TOL_RELAXATION * tol
                and res1 <= _rounding_bound(lap, u, kappa, g)
                and res1 <= _rounding_level(lap, u, kappa, g, eps))

    r1, r2, band, shift = _residual(lap, e, u, kappa, g, eps)
    m0 = merit(r1, r2)  # the iterate's, then each accepted trial's
    for it in range(MAX_NEWTON + 1):
        res1 = float(np.max(np.abs(r1)))
        if converged(res1, r2, u, kappa):
            return u, kappa, it, res1, abs(r2)
        if it == MAX_NEWTON:
            break
        du, dkappa, missed = _newton_direction(lap, e, e_sum, band, shift, r1, r2)
        if missed is not None:
            relres, target = missed
            raise StageFailed(eps, grid, it, res1,
                              f"GMRES did not reach the relative residual {target:.3g}"
                              f" (achieved {relres:.3e})", linear_residual=relres)

        lam = 1.0
        for _ in range(MAX_BACKTRACKS):
            u_try = np.multiply(du, lam)
            u_try += u
            k_try = kappa + lam * dkappa
            trial = _residual(lap, e, u_try, k_try, g, eps)
            m_try = merit(*trial[:2])
            if m_try <= (1.0 - 2.0 * ARMIJO_C * lam) * m0:
                u, kappa, m0, (r1, r2, band, shift) = u_try, k_try, m_try, trial
                break
            lam *= ARMIJO_SHRINK
        else:
            raise StageFailed(eps, grid, it, float(np.max(np.abs(r1))), "line search stalled")
        del du, u_try, trial  # du views the whole GMRES solution: not held into the next step
    raise StageFailed(eps, grid, MAX_NEWTON, float(np.max(np.abs(r1))),
                      "iteration cap reached")


def _schedule(eps_min: float) -> list[float]:
    """Geometric ladder from EPS_START down to exactly eps_min by EPS_RATIO."""
    if not 0.0 < eps_min <= EPS_START:
        raise ValueError(f"need 0 < eps_min <= eps_start = {EPS_START:g}, got {eps_min:g}")
    eps = [EPS_START]
    while eps[-1] > eps_min * (1.0 + 1e-12):
        eps.append(max(eps[-1] * EPS_RATIO, eps_min))
    return eps


def _grid_levels(grid: PolarGrid) -> list[PolarGrid]:
    """The grid and its coarser levels, coarsest first.

    Each level halves n_r while n_r is even and n_r / 2 >= 8, and halves
    n_phi in the same step only if n_phi is even and n_phi / 2 >= 8, so
    thin grids such as 65536 x 8 coarsen in r alone.  Cell-centered levels
    nest: coarse cell (i, j) covers the fine cells 2i..2i+1 in r and 2j..2j+1
    in phi (j alone when n_phi was kept).
    """
    levels = [grid]
    n_r, n_phi = grid.n_r, grid.n_phi
    while n_r % 2 == 0 and n_r // 2 >= 8:
        n_r //= 2
        if n_phi % 2 == 0 and n_phi // 2 >= 8:
            n_phi //= 2
        levels.append(PolarGrid(n_r, n_phi, grid.copies))
    return levels[::-1]


def _stage_levels(levels: list[PolarGrid], schedule: list[float]) -> list[int]:
    """Index into levels (coarsest first) of the grid each eps stage runs on.

    A stage runs on the coarsest level with eps >= LEVEL_EPS_CELLS * dr,
    or on the finest when no level has; the last stage runs on the finest.
    """
    placed, level = [], 0
    for eps in schedule[:-1]:
        while level < len(levels) - 1 and eps < LEVEL_EPS_CELLS * levels[level].dr:
            level += 1
        placed.append(level)
    return placed + [len(levels) - 1]


def _interpolation(coarse: np.ndarray, fine: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, t) with fine = (1 - t) coarse[i] + t coarse[i + 1] for increasing
    coarse nodes; t leaves [0, 1] outside the coarse range (extrapolation)."""
    i = np.clip(np.searchsorted(coarse, fine) - 1, 0, coarse.size - 2)
    return i, (fine - coarse[i]) / (coarse[i + 1] - coarse[i])


def _prolong(u: np.ndarray, coarse: PolarGrid, fine: PolarGrid) -> np.ndarray:
    """Flat cell values of coarse interpolated onto fine, linearly in r, then in phi.

    Linear extrapolation past the innermost and outermost ring centers; a
    constant beyond the outermost phi centers, which is linear
    interpolation against the mirror image across the sector edge.
    """
    u = u.reshape(coarse.shape)
    i, t = _interpolation(coarse.r, fine.r)
    u = (1.0 - t)[:, None] * u[i] + t[:, None] * u[i + 1]
    j, s = _interpolation(coarse.phi, fine.phi)
    s = np.clip(s, 0.0, 1.0)
    return ((1.0 - s) * u[:, j] + s * u[:, j + 1]).ravel()


def _stages(grid: PolarGrid, g_arc, eps_min: float):
    """Grid-sequenced continuation in eps with warm-started bordered Newton stages.

    Nested iteration (Briggs, Henson and McCormick, A Multigrid Tutorial,
    2000, ch. 3): each stage runs on the coarsest level of the grid
    (`_grid_levels`) that resolves eps in LEVEL_EPS_CELLS radial cells
    (`_stage_levels`); the last stage, and any stage too narrow for every
    level, runs on the grid itself.  The ladder halves eps while each level
    halves dr, so it climbs one level per stage.  The linear predictor runs
    on the first level; where the level changes, u is prolonged linearly
    (`_prolong`) and kappa carried over.  Coarse levels see the fine arc
    data averaged over the fine cells of each coarse cell.

    A 256^2 cross run (M = 40) climbs 16^2, ..., 256^2: the predictor and
    its eleven Newton steps make 25 Laplacian inverses, one per step plus
    one per GMRES iteration on the band, 4 of them in the last stage's 2
    steps on 256^2 (24 with every stage on 256^2); a 256^2 asterisk run
    makes 63, 17 on 256^2 (63).

    A solve leaves each level's operator and Krylov arrays to the next one
    in the process, in `poisson`'s one byte-bounded store; neither changes a
    bit of a result, and a repeated solve faults in no fresh pages (README,
    "Memory").

    Yields each converged stage as (eps, lap, g, u, kappa, iterations,
    pde_residual, origin_residual): lap is the Laplacian of the stage's
    level, g its arc data and u flat.  A failed stage raises StageFailed.
    """
    schedule = _schedule(eps_min)
    g_fine = _arc_values(grid, g_arc)
    levels = _grid_levels(grid)
    lap = None
    for eps, level in zip(schedule, _stage_levels(levels, schedule)):
        here = levels[level]
        if lap is None or lap.grid is not here:
            # cell averages of the fine arc data over each coarse arc cell
            g = g_fine.reshape(here.n_phi, -1).mean(axis=1)
            coarse, lap = lap, assemble(here)
            if coarse is None:
                u_field, kappa = initial_guess(here, g, lap)
                u = u_field.values.ravel()
            else:
                u = _prolong(u, coarse.grid, here)
        u, kappa, *stats = newton_stage(lap, u, kappa, eps, g)
        yield (eps, lap, g, u, kappa, *stats)


def solve_fixed_point(grid: PolarGrid, g_arc, eps_min: float = 0.0125,
                      g_label: str = "") -> Solution:
    """Run the eps continuation (`_stages`) from EPS_START down to eps_min on
    a sector grid; a StageFailed carries the last converged stage as
    partial.  Deterministic under a fixed BLAS thread count: the Krylov
    solves and the DCTs of the bordered inverse run in a fixed order, the
    DCTs on one worker.
    """
    if grid.periodic:
        raise ValueError("solve_fixed_point needs a sector grid")
    failure, schedule, iters, grids, band = None, [], [], [], []
    try:
        for eps, lap, g, u, kappa, n_it, pde_res, origin_res in _stages(grid, g_arc, eps_min):
            schedule.append(eps)
            iters.append(n_it)
            grids.append([lap.grid.n_r, lap.grid.n_phi])
            band.append(int(np.count_nonzero((u > -eps) & (u < 0.0))))
    except StageFailed as exc:
        if not iters:
            raise
        failure = exc
    # the loop variables hold the last converged stage
    sol = Solution(u=ScalarField(lap.grid, u.reshape(lap.grid.shape)), kappa=float(kappa),
                   eps=eps, pde_residual=pde_res, g_values=g, origin_residual=origin_res,
                   newton_iters=iters, stage_grids=grids, eps_schedule=schedule,
                   g_label=g_label, band_cells=band)
    if failure is None:
        return sol
    failure.partial = sol
    raise failure


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
    keys = ("g_label", "kappa", "eps", "eps_schedule", "newton_iters", "stage_grids",
            "pde_residual", "origin_residual", "band_cells")
    sidecar = {"k": grid.k, "n_r": grid.n_r, "n_phi": grid.n_phi,
               **{key: getattr(sol, key) for key in keys}}
    with open(json_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(sidecar, indent=2))
    return [vtk_path, json_path]
