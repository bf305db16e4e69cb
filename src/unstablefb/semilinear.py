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
GMRES is right-preconditioned by the exact inverse of the bordered
Laplacian P = [[A, b1], [e, 0]], which costs one Laplacian inverse because
A 1 = b1.  K differs from P by the diagonal on the smoothing band, so
K P^-1 v = v - [area f_eps'(u) (P^-1 v)_1; 0] needs no product with A:
each Krylov iteration is one Laplacian inverse.  With right
preconditioning the Arnoldi residual estimate is the residual of K itself
(Saad, Iterative Methods for Sparse Linear Systems, 2003, 9.3), so the
inexact-Newton forcing term (Dembo, Eisenstat and Steihaug 1982) is tested
on it, and one product with K at the end of each GMRES cycle confirms the
true residual.

The eps continuation is grid-sequenced (nested iteration; Briggs, Henson
and McCormick, A Multigrid Tutorial, 2000, ch. 3): the ladder halves eps
while each coarser level of the grid doubles dr, so every stage runs on
the coarsest level whose resolution floor admits its eps, and only the
last stage runs on the given grid.  A 256^2 cross run climbs 16^2, 32^2,
..., 256^2, one level per stage: its eleven Newton steps make 26 Laplacian
inverses, 5 of them on 256^2 (25 inverses, all on 256^2, with every stage
on the given grid).  A 256^2 asterisk run makes 70, 18 of them on 256^2
(66).
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field as dc_field

import numpy as np

from .field import ScalarField, origin_weight_vector, write_field_csv, write_field_vtk
from .mesh import PolarGrid
from .poisson import DiscreteLaplacian, _arc_values, assemble


# --- smoothed indicator --------------------------------------------------


def _smoothstep(s: np.ndarray) -> np.ndarray:
    s = np.clip(s, 0.0, 1.0)
    return s * s * s * (10.0 + s * (-15.0 + 6.0 * s))


def _smoothstep_prime(s: np.ndarray) -> np.ndarray:
    inside = (s > 0.0) & (s < 1.0)
    sc = np.where(inside, s, 0.0)
    return np.where(inside, 30.0 * sc * sc * (1.0 - sc) ** 2, 0.0)


def f_eps(z, eps: float):
    """C^2 monotone surrogate for the indicator of {z > 0}.

    Equals 1 for z >= 0 and 0 for z <= -eps; in between it is the quintic
    smoothstep of z/eps + 1.  Pointwise nonincreasing in eps, always above
    the sharp indicator.
    """
    if eps <= 0.0:
        raise ValueError(f"regularization width must be positive, got {eps}")
    z = np.asarray(z, dtype=float)
    out = _smoothstep(z / eps + 1.0)
    return out if out.ndim else float(out)


def f_eps_prime(z, eps: float):
    """Derivative of f_eps; bounded by (15/8)/eps, zero outside (-eps, 0)."""
    if eps <= 0.0:
        raise ValueError(f"regularization width must be positive, got {eps}")
    z = np.asarray(z, dtype=float)
    out = _smoothstep_prime(z / eps + 1.0) / eps
    return out if out.ndim else float(out)


# --- configuration and results -------------------------------------------


@dataclass
class ContinuationConfig:
    """Width ladder and Newton tolerance of the eps continuation.

    The ladder runs from eps_start down to eps_min by the factor EPS_RATIO;
    each stage stops at newton_tol or after MAX_NEWTON iterations.
    """

    eps_start: float = 0.2
    eps_min: float = 0.0125
    newton_tol: float = 1e-10

    def __post_init__(self):
        if not (0.0 < self.eps_min <= self.eps_start):
            raise ValueError("need 0 < eps_min <= eps_start")

    def schedule(self) -> list[float]:
        """Geometric ladder from eps_start down to exactly eps_min."""
        eps = [self.eps_start]
        while eps[-1] > self.eps_min * (1.0 + 1e-12):
            eps.append(max(eps[-1] * EPS_RATIO, self.eps_min))
        return eps


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
    transition_measures: list[float] = dc_field(default_factory=list)

    @property
    def k(self) -> int:
        """Sector order of the grid the solution lives on."""
        return self.u.grid.k


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
# bordered system is this fraction of |[R1; R2]|, estimated by the Givens
# rotations and confirmed by one product with K per cycle.  Every stage
# then takes the Newton iterations it takes with exact solves.  Not much
# tighter: the attainable residual grows with n_r (first stage of the
# asterisk: 1.6e-10 at 4096 x 8 cells, 6.2e-10 at 8192 x 8, 4.0e-8 at
# 65536 x 8), so 1e-8 already fails on the finest grid in use.
KRYLOV_RTOL = 1e-6
# A solve takes 2-3 iterations on the 256^2 cross, 4-7 on the 256^2
# asterisk and at most 13 at 65536 x 8 cells, so one basis of
# KRYLOV_RESTART vectors holds a whole solve; a solve that reaches
# KRYLOV_MAXITER iterations (a multiple of the restart) has not converged.
KRYLOV_RESTART = 40
KRYLOV_MAXITER = 400
# Newton iterations per stage: the finest widths on fine grids spend ~36
# damped steps before the quadratic phase (asterisk, 65536 x 16 cells,
# eps = 3.125e-5).
MAX_NEWTON = 60
# Armijo line search: sufficient-decrease constant, step shrink, backtrack cap.
ARMIJO_C = 1e-4
ARMIJO_SHRINK = 0.5
MAX_BACKTRACKS = 30
# eps may not drop below this many radial cells: the smoothing band must be resolved.
EPS_FLOOR_CELLS = 2.0
# Shrink factor of the eps ladder.  Each coarser grid level doubles dr, so
# halving eps moves the floor EPS_FLOOR_CELLS * dr up one level per stage.
EPS_RATIO = 0.5


def _residual(lap: DiscreteLaplacian, e: np.ndarray, u: np.ndarray, kappa: float,
              g: np.ndarray, eps: float) -> tuple[np.ndarray, float]:
    """Finite-volume residual R1 (area-weighted) and origin residual R2."""
    r1 = lap.apply(u) - lap.areas * f_eps(u, eps) - lap.lift(g - kappa)
    r2 = float(e @ u)
    return r1, r2


def _rounding_level(lap: DiscreteLaplacian, u: np.ndarray, kappa: float,
                    g: np.ndarray, eps: float) -> float:
    """Size of an R1 entry at the rounding level of its evaluation at u."""
    terms = (lap.apply(np.abs(u), magnitude=True) + lap.areas * f_eps(u, eps)
             + np.abs(lap.lift(g - kappa)))
    return ROUNDING_FACTOR * np.finfo(float).eps * float(np.max(terms))


def initial_guess(grid: PolarGrid, g_arc, lap: DiscreteLaplacian | None = None
                  ) -> tuple[ScalarField, float]:
    """Linear predictor: solve Delta u = -1 with u = g - kappa, u(0) = 0.

    The pair solves P [u; kappa] = [B g + area; 0] with the bordered
    Laplacian P = [[A, b1], [e, 0]], so one bordered inverse (one Laplacian
    inverse, the one the GMRES preconditioner applies) gives both.
    """
    if lap is None:
        lap = assemble(grid)
    rhs = lap.lift(_arc_values(grid, g_arc)) + lap.areas
    x = _bordered_inverse(lap, origin_weight_vector(grid), np.append(rhs, 0.0))
    return ScalarField(grid, x[:-1].reshape(grid.shape)), float(x[-1])


def _bordered_inverse(lap: DiscreteLaplacian, e: np.ndarray, v: np.ndarray) -> np.ndarray:
    """[[A, b1], [e, 0]]^-1 v with one Laplacian inverse.

    A 1 = b1 (constants leave only the arc term), so the solution of
    A x + t b1 = v[:-1], e x = v[-1] is x = z - t 1 with z = A^-1 v[:-1]
    and t = (e z - v[-1]) / (e 1).
    """
    z = lap.apply_inverse(v[:-1])
    t = (float(e @ z) - v[-1]) / float(e.sum())
    return np.append(z - t, t)


def _gmres(b: np.ndarray, matvec, precond_step) -> tuple[np.ndarray, int, float]:
    """Restarted GMRES for K x = b, right-preconditioned by P.

    precond_step(v) returns (z, K z) with z = P^-1 v.  The basis holds the
    Arnoldi vectors v_j and their images z_j (the flexible-GMRES storage),
    so x = sum y_j z_j needs no further inverse.  With right
    preconditioning the Givens estimate |g_{j+1}| is the residual of K x = b
    itself, and an iteration stops once it reaches KRYLOV_RTOL |b|.  Each
    cycle ends with one product K x to confirm the true residual; a miss
    restarts from x.  Returns (x, iterations, |b - K x| / |b|); the solve
    has converged iff that ratio is at most KRYLOV_RTOL.
    """
    b_norm = float(np.linalg.norm(b))
    target = KRYLOV_RTOL * b_norm
    x = np.zeros_like(b)
    r, beta = b, b_norm
    iterations = 0
    while beta > target and iterations < KRYLOV_MAXITER:
        basis, images, columns, rotations = [r / beta], [], [], []
        g = [beta]
        for _ in range(min(KRYLOV_RESTART, KRYLOV_MAXITER - iterations)):
            z, w = precond_step(basis[-1])
            images.append(z)
            iterations += 1
            h = []
            for v in basis:  # modified Gram-Schmidt
                h.append(float(w @ v))
                w = w - h[-1] * v
            h.append(float(np.linalg.norm(w)))
            for i, (c, s) in enumerate(rotations):
                h[i], h[i + 1] = c * h[i] + s * h[i + 1], c * h[i + 1] - s * h[i]
            rho = math.hypot(h[-2], h[-1])
            c, s = h[-2] / rho, h[-1] / rho
            rotations.append((c, s))
            h[-2] = rho
            g.append(-s * g[-1])
            g[-2] *= c
            columns.append(h[:-1])
            if abs(g[-1]) <= target:
                break
            basis.append(w / h[-1])
        # back substitution on the rotated Hessenberg matrix
        m = len(columns)
        y = [0.0] * m
        for i in reversed(range(m)):
            y[i] = (g[i] - sum(columns[k][i] * y[k] for k in range(i + 1, m))) / columns[i][i]
        for yi, z in zip(y, images):
            x = x + yi * z
        r = b - matvec(x)
        beta = float(np.linalg.norm(r))
    return x, iterations, beta / b_norm if b_norm else 0.0


def _newton_direction(lap: DiscreteLaplacian, e: np.ndarray, b1: np.ndarray,
                      shift: np.ndarray, r1: np.ndarray, r2: float
                      ) -> tuple[np.ndarray, float, float | None]:
    """Solve K [du; dkappa] = -[r1; r2] by right-preconditioned GMRES.

    K has the (1,1) block A - diag(shift), the column b1 and the row e;
    P = [[A, b1], [e, 0]] differs from it by the diagonal shift alone, so
    for z = P^-1 v the product K z = v - [shift * z[:-1]; 0] costs no
    product with A: each Krylov iteration is one Laplacian inverse.  Only
    the true residual at the end of a GMRES cycle multiplies by A.
    Returns (du, dkappa, missed): missed is None when the true relative
    residual meets KRYLOV_RTOL, and that residual otherwise.
    """
    def bordered(x):
        du = x[:-1]
        return np.append(lap.apply(du) - shift * du + x[-1] * b1, e @ du)

    def precond_step(v):
        z = _bordered_inverse(lap, e, v)
        kz = v.copy()
        kz[:-1] -= shift * z[:-1]
        return z, kz

    x, _, relres = _gmres(-np.append(r1, r2), bordered, precond_step)
    return x[:-1], float(x[-1]), None if relres <= KRYLOV_RTOL else relres


def newton_stage(
    lap: DiscreteLaplacian,
    u: np.ndarray,
    kappa: float,
    eps: float,
    g: np.ndarray,
    config: ContinuationConfig,
) -> tuple[np.ndarray, float, int, float, float]:
    """Damped bordered Newton at fixed eps from the given iterate.

    Returns (u, kappa, iterations, pde_residual, origin_residual).
    Idempotent: an already-converged iterate returns with 0 iterations.

    Converged when |R2| <= newton_tol and max |R1| <= newton_tol, or when
    max |R1| is at the rounding level of its own evaluation and within
    MAX_TOL_RELAXATION * newton_tol (fine radial grids, where the level
    exceeds newton_tol).
    """
    grid = lap.grid
    if eps < EPS_FLOOR_CELLS * grid.dr:
        raise ValueError(
            f"eps={eps:g} below the resolution floor "
            f"{EPS_FLOOR_CELLS:g}*dr={EPS_FLOOR_CELLS * grid.dr:g}"
        )
    e = origin_weight_vector(grid)
    b1 = lap.lift(np.ones(grid.n_phi))
    tol = config.newton_tol

    def merit(r1, r2):
        # area-normalized so PDE and origin parts carry comparable units
        return float(np.dot(r1 / lap.areas, r1 / lap.areas) + r2 * r2)

    def converged(res1, r2, u, kappa):
        if abs(r2) > tol:
            return False
        if res1 <= tol:
            return True
        return (res1 <= MAX_TOL_RELAXATION * tol
                and res1 <= _rounding_level(lap, u, kappa, g, eps))

    r1, r2 = _residual(lap, e, u, kappa, g, eps)
    for it in range(MAX_NEWTON + 1):
        res1 = float(np.max(np.abs(r1)))
        if converged(res1, r2, u, kappa):
            return u, kappa, it, res1, abs(r2)
        if it == MAX_NEWTON:
            break
        shift = lap.areas * f_eps_prime(u, eps)
        du, dkappa, missed = _newton_direction(lap, e, b1, shift, r1, r2)
        if missed is not None:
            raise StageFailed(eps, grid, it, res1,
                              f"GMRES did not reach the relative residual {KRYLOV_RTOL:g}"
                              f" (achieved {missed:.3e})", linear_residual=missed)

        m0 = merit(r1, r2)
        lam = 1.0
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            u_try = u + lam * du
            k_try = kappa + lam * dkappa
            r1_try, r2_try = _residual(lap, e, u_try, k_try, g, eps)
            if merit(r1_try, r2_try) <= (1.0 - 2.0 * ARMIJO_C * lam) * m0:
                u, kappa, r1, r2 = u_try, k_try, r1_try, r2_try
                accepted = True
                break
            lam *= ARMIJO_SHRINK
        if not accepted:
            raise StageFailed(eps, grid, it, float(np.max(np.abs(r1))), "line search stalled")
    raise StageFailed(eps, grid, MAX_NEWTON, float(np.max(np.abs(r1))),
                      "iteration cap reached")


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

    A stage runs on the coarsest level whose floor EPS_FLOOR_CELLS * dr it
    meets, never on a coarser level than the stage before, and the last
    stage on the finest level, which the caller has checked admits eps_min.
    """
    placed, level = [], 0
    for eps in schedule[:-1]:
        while eps < EPS_FLOOR_CELLS * levels[level].dr:
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


def solve_fixed_point(grid: PolarGrid, g_arc, config: ContinuationConfig | None = None,
                      g_label: str = "") -> Solution:
    """Grid-sequenced continuation in eps with warm-started bordered Newton stages.

    Each stage runs on the coarsest level of the grid (`_grid_levels`)
    whose floor EPS_FLOOR_CELLS * dr admits its eps, and the last stage on
    the grid itself.  The ladder halves eps while each level halves dr, so
    it climbs one level per stage.  The linear predictor runs on the first
    level; where the level changes, u is prolonged linearly (`_prolong`)
    and kappa carried over.  Coarse levels see the fine arc data averaged
    over the fine cells of each coarse cell.

    Each Newton step is one right-preconditioned GMRES solve: one Laplacian
    inverse per Krylov iteration and one product with A per GMRES cycle, to
    confirm the true residual (2-3 iterations per step on the 256^2 cross).
    The last stage takes 2 Newton iterations on the 256^2 cross.

    Deterministic: identical inputs produce bit-identical solutions under
    the same BLAS thread count (the Krylov solves and the DCTs of the
    preconditioner run in a fixed order, the DCTs on one worker).
    """
    if config is None:
        config = ContinuationConfig()
    if grid.periodic:
        raise ValueError("solve_fixed_point needs a sector grid")
    schedule = config.schedule()
    if schedule[-1] < EPS_FLOOR_CELLS * grid.dr:
        raise ValueError(
            f"eps_min={schedule[-1]:g} below the resolution floor "
            f"{EPS_FLOOR_CELLS * grid.dr:g} of a {grid.n_r}x{grid.n_phi} grid"
        )
    g_fine = _arc_values(grid, g_arc)
    levels = _grid_levels(grid)
    placed = [levels[i] for i in _stage_levels(levels, schedule)]

    iters: list[int] = []
    trans: list[float] = []
    lap: DiscreteLaplacian | None = None
    last_good: Solution | None = None
    for eps, here in zip(schedule, placed):
        if lap is None or lap.grid is not here:
            # cell averages of the fine arc data over each coarse arc cell
            g = g_fine.reshape(here.n_phi, -1).mean(axis=1)
            coarse, lap = lap, assemble(here)
            if coarse is None:
                u_field, kappa = initial_guess(here, g, lap)
                u = u_field.values.ravel()
            else:
                u = _prolong(u, coarse.grid, here)
        try:
            u, kappa, n_it, pde_res, origin_res = newton_stage(lap, u, kappa, eps, g, config)
        except StageFailed as exc:
            exc.partial = last_good
            raise
        iters.append(n_it)
        trans.append(transition_measure(ScalarField(here, u.reshape(here.shape)), eps))
        last_good = Solution(
            u=ScalarField(here, u.reshape(here.shape).copy()),
            kappa=float(kappa),
            eps=eps,
            pde_residual=pde_res,
            origin_residual=origin_res,
            newton_iters=list(iters),
            stage_grids=[[level.n_r, level.n_phi] for level in placed[: len(iters)]],
            eps_schedule=schedule[: len(iters)],
            g_values=g,
            g_label=g_label,
            transition_measures=list(trans),
        )
    assert last_good is not None
    return last_good


def transition_measure(u: ScalarField, eps: float) -> float:
    """Full-disk area of the smoothing zone {|u| <= eps}."""
    g = u.grid
    inside = (np.abs(u.values) <= eps).astype(float)
    return float((inside.sum(axis=1) * g.cell_areas).sum() * g.multiplicity)


def residual_check(sol: Solution, lap: DiscreteLaplacian | None = None) -> tuple[float, float]:
    """(max-norm finite-volume residual, area of the transition zone)."""
    grid = sol.u.grid
    if lap is None:
        lap = assemble(grid)
    e = origin_weight_vector(grid)
    r1, _ = _residual(lap, e, sol.u.values.ravel(), sol.kappa, sol.g_values, sol.eps)
    return float(np.max(np.abs(r1))), transition_measure(sol.u, sol.eps)


def export_solution(sol: Solution, out_dir, basename: str = "solution") -> list[str]:
    """Write the field and a JSON sidecar; returns the paths.

    The CSV is the text field that `phi`, `blowup` and `fb` read back; the
    VTK file is legacy-VTK BINARY (big-endian float64) for viewers.
    """
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{basename}.csv")
    vtk_path = os.path.join(out_dir, f"{basename}.vtk")
    json_path = os.path.join(out_dir, f"{basename}.json")
    write_field_csv(sol.u, csv_path)
    write_field_vtk(sol.u, vtk_path)
    sidecar = {
        "k": sol.k,
        "n_r": sol.u.grid.n_r,
        "n_phi": sol.u.grid.n_phi,
        "g_label": sol.g_label,
        "kappa": sol.kappa,
        "eps": sol.eps,
        "eps_schedule": sol.eps_schedule,
        "newton_iters": sol.newton_iters,
        "stage_grids": sol.stage_grids,
        "pde_residual": sol.pde_residual,
        "origin_residual": sol.origin_residual,
        "transition_measures": sol.transition_measures,
    }
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2)
    return [csv_path, vtk_path, json_path]
