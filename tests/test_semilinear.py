"""Regularized indicator properties and constrained Newton continuation."""

import json
import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import unstablefb.semilinear as semilinear
from unstablefb import (
    ContinuationConfig,
    ScalarField,
    StageFailed,
    assemble,
    build_disk_grid,
    build_sector_grid,
    eval_origin,
    export_solution,
    f_eps,
    f_eps_prime,
    field_from_function,
    initial_guess,
    newton_stage,
    residual_check,
    solve,
    solve_fixed_point,
    transition_measure,
)
from unstablefb.field import origin_weight_vector

from conftest import coo_assembly

EPS_VALUES = [0.2, 0.1, 0.05, 0.0125]


def lu_continuation(grid, g, cfg):
    """Reference: the bordered Newton continuation with full steps and
    sparse LU solves of the Jacobian, stopped by the absolute tolerance."""
    lap, A = assemble(grid), coo_assembly(grid)
    u0, kappa = initial_guess(grid, g, lap)
    u = u0.values.ravel()
    e = origin_weight_vector(grid)
    b1 = lap.lift(np.ones(grid.n_phi))
    iters = []
    for eps in cfg.schedule():
        for it in range(semilinear.MAX_NEWTON + 1):
            r1 = A @ u - lap.areas * f_eps(u, eps) - lap.lift(g - kappa)
            r2 = float(e @ u)
            if np.max(np.abs(r1)) <= cfg.newton_tol and abs(r2) <= cfg.newton_tol:
                break
            jac = A - sp.diags(lap.areas * f_eps_prime(u, eps), format="csc")
            lu = spla.splu(jac.tocsc())
            w1, w2 = lu.solve(r1), lu.solve(b1)
            dkappa = (r2 - float(e @ w1)) / float(e @ w2)
            u, kappa = u - w1 - dkappa * w2, kappa + dkappa
        iters.append(it)
    return u, kappa, iters


def single_level_continuation(grid, g, cfg):
    """Reference: the eps continuation with every stage on the given grid."""
    lap = assemble(grid)
    u0, kappa = initial_guess(grid, g, lap)
    u, iters = u0.values.ravel(), []
    for eps in cfg.schedule():
        u, kappa, n_it, _, _ = newton_stage(lap, u, kappa, eps, g, cfg)
        iters.append(n_it)
    return u, kappa, iters


def minres_elimination_direction(lap, e, b1, shift, r1, r2):
    """Reference Newton direction: two MINRES solves with the Jacobian
    J = A - diag(shift), preconditioned by A^-1, and block elimination of
    the bordered system."""
    A = coo_assembly(lap.grid)
    n = A.shape[0]
    jac = spla.LinearOperator((n, n), matvec=lambda v: A @ v - shift * v, dtype=float)
    precond = spla.LinearOperator((n, n), matvec=lap.apply_inverse, dtype=float)
    w1, info1 = spla.minres(jac, r1, rtol=1e-14, maxiter=500, M=precond)
    w2, info2 = spla.minres(jac, b1, rtol=1e-14, maxiter=500, M=precond)
    assert info1 == info2 == 0
    dkappa = (r2 - float(e @ w1)) / float(e @ w2)
    return -w1 - dkappa * w2, dkappa, None


def bordered_matrix(lap, e, b1, shift):
    """K = [[A - diag(shift), b1], [e, 0]] as a sparse matrix."""
    return sp.bmat([[coo_assembly(lap.grid) - sp.diags(shift), sp.csc_matrix(b1[:, None])],
                    [sp.csr_matrix(e[None, :]), None]], format="csc")


def assert_step_meets_forcing_term():
    """|K step + R| <= KRYLOV_RTOL |R| for Newton steps on a 64^2 cross,
    with K assembled as a sparse matrix."""
    grid = build_sector_grid(2, 64, 64)
    lap = assemble(grid)
    g = 40.0 * np.cos(2.0 * grid.phi)
    u0, kappa = initial_guess(grid, g, lap)
    # off the pin, so that R2 enters the step as well as R1
    u = u0.values.ravel() + 1e-3 * np.cos(grid.r).repeat(grid.n_phi)
    e = origin_weight_vector(grid)
    b1 = lap.lift(np.ones(grid.n_phi))
    for eps in (0.2, 0.05):
        r1, r2 = semilinear._residual(lap, e, u, kappa, g, eps)
        shift = lap.areas * f_eps_prime(u, eps)
        assert abs(r2) > 1e-4
        du, dkappa, missed = semilinear._newton_direction(lap, e, b1, shift, r1, r2)
        assert missed is None
        res = np.append(r1, r2)
        K = bordered_matrix(lap, e, b1, shift)
        assert np.linalg.norm(K @ np.append(du, dkappa) + res) \
            <= semilinear.KRYLOV_RTOL * np.linalg.norm(res)


class TestSmoothedIndicator:
    @pytest.mark.parametrize("eps", EPS_VALUES)
    def test_plateau_on_nonnegative_arguments(self, eps):
        z = np.linspace(0.0, 5.0, 101)
        assert np.all(f_eps(z, eps) == 1.0)

    @pytest.mark.parametrize("eps", EPS_VALUES)
    def test_vanishes_below_minus_eps(self, eps):
        z = np.linspace(-5.0, -eps, 101)
        assert np.all(f_eps(z, eps) == 0.0)

    @pytest.mark.parametrize("eps", EPS_VALUES)
    def test_dominates_indicator(self, eps):
        z = np.linspace(-1.0, 1.0, 2001)
        assert np.all(f_eps(z, eps) >= (z > 0).astype(float))

    def test_monotone_in_width(self):
        """Shrinking the width lowers the profile toward the indicator."""
        z = np.linspace(-1.0, 0.5, 1501)
        for wide, narrow in zip(EPS_VALUES, EPS_VALUES[1:]):
            assert np.all(f_eps(z, narrow) <= f_eps(z, wide) + 1e-15)

    def test_interior_values(self):
        # quintic ramp q(t) = 6t^5 - 15t^4 + 10t^3 evaluated at t = 1/2, 3/4
        eps = 0.08
        assert f_eps(-eps / 2.0, eps) == pytest.approx(0.5, abs=1e-15)
        assert f_eps(-eps / 4.0, eps) == pytest.approx(0.896484375, abs=1e-15)

    @pytest.mark.parametrize("eps", EPS_VALUES)
    def test_slope_bound(self, eps):
        z = np.linspace(-2.0, 1.0, 4001)
        bound = 15.0 / (8.0 * eps)
        d = f_eps_prime(z, eps)
        assert np.all(d >= 0.0)
        assert np.max(d) <= bound + 1e-12
        # the bound is attained at the ramp midpoint
        assert f_eps_prime(-eps / 2.0, eps) == pytest.approx(bound, rel=1e-12)

    def test_derivative_matches_finite_differences(self):
        eps = 0.1
        z = np.linspace(-0.15, 0.05, 401)
        h = 1e-7
        fd = (f_eps(z + h, eps) - f_eps(z - h, eps)) / (2.0 * h)
        assert np.max(np.abs(fd - f_eps_prime(z, eps))) < 1e-5

    def test_width_must_be_positive(self):
        with pytest.raises(ValueError):
            f_eps(0.0, 0.0)
        with pytest.raises(ValueError):
            f_eps_prime(0.0, -0.1)


class TestContinuationConfig:
    def test_schedule_halves_down_to_floor(self):
        cfg = ContinuationConfig(eps_start=0.2, eps_min=0.0125)
        assert cfg.schedule() == [0.2, 0.1, 0.05, 0.025, 0.0125]

    def test_schedule_clamps_last_step(self):
        cfg = ContinuationConfig(eps_start=0.2, eps_min=0.06)
        assert cfg.schedule() == [0.2, 0.1, 0.06]

    def test_validation(self):
        with pytest.raises(ValueError):
            ContinuationConfig(eps_start=0.1, eps_min=0.2)


class TestInitialGuess:
    def test_zero_data_reproduces_quarter_shift(self):
        grid = build_sector_grid(2, 64, 64)
        u0, kappa = initial_guess(grid, np.zeros(64))
        assert kappa == pytest.approx(0.25, abs=1e-3)
        assert abs(eval_origin(u0)) <= 1e-10

    def test_pure_mode_data_keeps_small_shift(self):
        grid = build_sector_grid(2, 64, 64)
        u0, kappa = initial_guess(grid, lambda p: np.cos(2.0 * p))
        # harmonic extension of cos(2 phi) vanishes at the origin, so the
        # shift still balances only the unit sink
        assert kappa == pytest.approx(0.25, abs=1e-3)
        assert abs(eval_origin(u0)) <= 1e-10

    @pytest.mark.parametrize("k, M", [(2, 40.0), (4, 1.0)])
    def test_one_bordered_inverse_matches_two_poisson_solves(self, monkeypatch, k, M):
        grid = build_sector_grid(k, 64, 64)
        lap = assemble(grid)
        g = M * np.cos(k * grid.phi)
        # reference: u = u_g + kappa u_shift, u_shift solving A x = -b1 (x = -1
        # up to rounding), kappa chosen so that u(0) = 0
        u_g = solve(lap, F=-1.0, g_arc=g)
        u_shift = solve(lap, F=0.0, g_arc=-np.ones(grid.n_phi))
        kappa_ref = -eval_origin(u_g) / eval_origin(u_shift)
        u_ref = u_g.values + kappa_ref * u_shift.values
        inverses = []
        apply_inverse = lap.apply_inverse

        def counted_inverse(rhs):
            inverses.append(rhs.size)
            return apply_inverse(rhs)

        monkeypatch.setattr(lap, "apply_inverse", counted_inverse)
        u0, kappa = initial_guess(grid, g, lap)
        assert inverses == [grid.size]
        assert kappa == pytest.approx(kappa_ref, rel=1e-12)
        assert np.max(np.abs(u0.values - u_ref)) <= 1e-12 * np.max(np.abs(u_ref))
        assert abs(eval_origin(u0)) <= 1e-14


class TestNewtonStage:
    def test_converges_quickly_from_linear_predictor(self):
        grid = build_sector_grid(2, 64, 64)
        lap = assemble(grid)
        g = 40.0 * np.cos(2.0 * grid.phi)
        u0, kappa = initial_guess(grid, g, lap)
        cfg = ContinuationConfig(eps_start=0.2, eps_min=0.2)
        u, kappa, iters, pde_res, origin_res = newton_stage(
            lap, u0.values.ravel(), kappa, 0.2, g, cfg)
        assert iters <= 25
        assert pde_res <= cfg.newton_tol
        assert origin_res <= cfg.newton_tol

    def test_idempotent_on_converged_iterate(self):
        grid = build_sector_grid(2, 64, 64)
        lap = assemble(grid)
        g = np.zeros(64)
        cfg = ContinuationConfig(eps_start=0.2, eps_min=0.2)
        u0, kappa = initial_guess(grid, g, lap)
        u, kappa, _, _, _ = newton_stage(lap, u0.values.ravel(), kappa, 0.2, g, cfg)
        u2, kappa2, iters, _, _ = newton_stage(lap, u, kappa, 0.2, g, cfg)
        assert iters == 0
        assert np.array_equal(u, u2) and kappa == kappa2

    def test_width_below_grid_floor_rejected(self):
        grid = build_sector_grid(2, 64, 64)
        lap = assemble(grid)
        cfg = ContinuationConfig()
        with pytest.raises(ValueError):
            newton_stage(lap, np.zeros(grid.size), 0.0, 0.001, np.zeros(64), cfg)

    def test_stops_at_rounding_level_above_tolerance(self):
        # rim data 1e4 cos(2 phi) lift the rounding level of the residual,
        # a few eps_mach * max_i sum |terms|, above newton_tol = 1e-10;
        # the stage must accept that level instead of stalling on it
        grid = build_sector_grid(2, 256, 8)
        lap = assemble(grid)
        g = 1e4 * np.cos(2.0 * grid.phi)
        u0, kappa = initial_guess(grid, g, lap)
        cfg = ContinuationConfig(eps_start=0.2, eps_min=0.2)
        u, kappa, _, pde_res, origin_res = newton_stage(
            lap, u0.values.ravel(), kappa, 0.2, g, cfg)
        terms = (abs(coo_assembly(grid)) @ np.abs(u) + lap.areas
                 + np.abs(lap.lift(g - kappa)))
        level = 4.0 * np.finfo(float).eps * float(np.max(terms))
        assert cfg.newton_tol < pde_res <= level
        assert origin_res <= cfg.newton_tol

    def test_unconverged_krylov_solve_fails_with_its_residual(self, gmres_capped):
        grid = build_sector_grid(2, 32, 32)
        lap = assemble(grid)
        g = 40.0 * np.cos(2.0 * grid.phi)
        u0, kappa = initial_guess(grid, g, lap)
        cfg = ContinuationConfig(eps_start=0.2, eps_min=0.2)
        with pytest.raises(StageFailed) as info:
            newton_stage(lap, u0.values.ravel(), kappa, 0.2, g, cfg)
        assert info.value.iterations == 0
        assert info.value.linear_residual > semilinear.KRYLOV_RTOL
        assert "GMRES" in info.value.reason

    @pytest.mark.parametrize("n", [32, 256])
    def test_preconditioner_inverts_bordered_laplacian(self, n):
        # normwise backward error |P x - v| / (|P| |x|), max norms: a plain
        # relative residual is bounded by cond(A) eps_mach, and at 256^2 even
        # a sparse LU solve of P leaves 4e-12 on a Newton residual
        grid = build_sector_grid(2, n, n)
        lap = assemble(grid)
        e = origin_weight_vector(grid)
        b1 = lap.lift(np.ones(grid.n_phi))
        P = bordered_matrix(lap, e, b1, np.zeros(grid.size))
        p_norm = spla.norm(P, np.inf)
        g = 40.0 * np.cos(2.0 * grid.phi)
        u0, kappa = initial_guess(grid, g, lap)
        r1, r2 = semilinear._residual(lap, e, u0.values.ravel(), kappa, g, 0.05)
        rng = np.random.default_rng(7)
        for v in (np.append(r1, r2), rng.standard_normal(grid.size + 1),
                  np.append(b1, 1.0), np.append(np.zeros(grid.size), 1.0)):
            x = semilinear._bordered_inverse(lap, e, v)
            assert np.max(np.abs(P @ x - v)) <= 1e-12 * p_norm * np.max(np.abs(x))

    def test_step_meets_forcing_term(self):
        assert_step_meets_forcing_term()

    @pytest.mark.parametrize("restart", [2, 1])
    def test_restarted_step_meets_forcing_term(self, monkeypatch, restart):
        # short cycles confirm the true residual and restart from x
        monkeypatch.setattr(semilinear, "KRYLOV_RESTART", restart)
        assert_step_meets_forcing_term()

    def test_one_laplacian_inverse_per_krylov_iteration(self, monkeypatch):
        grid = build_sector_grid(2, 96, 96)
        lap = assemble(grid)
        g = 40.0 * np.cos(2.0 * grid.phi)
        u0, kappa = initial_guess(grid, g, lap)
        inverses, iterations = [], []
        apply_inverse, gmres = lap.apply_inverse, semilinear._gmres

        def counted_inverse(rhs):
            inverses.append(rhs.size)
            return apply_inverse(rhs)

        def counted_gmres(*args):
            x, its, relres = gmres(*args)
            iterations.append(its)
            return x, its, relres

        monkeypatch.setattr(lap, "apply_inverse", counted_inverse)
        monkeypatch.setattr(semilinear, "_gmres", counted_gmres)
        u = u0.values.ravel()
        for eps in (0.2, 0.1):
            cfg = ContinuationConfig(eps_start=eps, eps_min=eps)
            u, kappa, _, _, _ = newton_stage(lap, u, kappa, eps, g, cfg)
        assert len(iterations) >= 2 and all(its >= 1 for its in iterations)
        assert len(inverses) == sum(iterations)

    @pytest.mark.parametrize("restart", [semilinear.KRYLOV_RESTART, 3])
    def test_gmres_solves_a_small_nonsymmetric_system(self, monkeypatch, restart):
        # the Givens estimate is the true residual, so every cycle but the
        # last runs to the restart and one product with K ends each cycle
        monkeypatch.setattr(semilinear, "KRYLOV_RESTART", restart)
        rng = np.random.default_rng(11)
        n = 40
        K = np.eye(n) + 0.4 * rng.standard_normal((n, n)) / np.sqrt(n)
        b = rng.standard_normal(n)
        products = []

        def matvec(v):
            products.append(v)
            return K @ v

        x, its, relres = semilinear._gmres(b, matvec, lambda v: (v, K @ v))
        assert its > 3
        assert len(products) == -(-its // restart)
        assert relres <= semilinear.KRYLOV_RTOL
        assert relres == pytest.approx(np.linalg.norm(b - K @ x) / np.linalg.norm(b),
                                       rel=1e-12)
        assert np.max(np.abs(x - np.linalg.solve(K, b))) <= 1e-4

    @pytest.mark.parametrize("k, g_fn, eps, offset", [
        (2, lambda p: 40.0 * np.cos(2.0 * p), 0.2, 0.0),
        (2, lambda p: 40.0 * np.cos(2.0 * p), 0.05, 0.0),
        (2, lambda p: 40.0 * np.cos(2.0 * p), 0.05, 1e-2),
        (4, lambda p: np.cos(4.0 * p), 0.1, 0.0),
    ])
    def test_stage_matches_minres_elimination(self, monkeypatch, k, g_fn, eps, offset):
        grid = build_sector_grid(k, 64, 64)
        lap = assemble(grid)
        g = g_fn(grid.phi)
        u0, kappa0 = initial_guess(grid, g, lap)
        # a nonzero offset starts off the pin u(0) = 0
        start = u0.values.ravel() + offset
        cfg = ContinuationConfig(eps_start=eps, eps_min=eps)
        _, kappa, iters, _, _ = newton_stage(lap, start, kappa0, eps, g, cfg)
        monkeypatch.setattr(semilinear, "_newton_direction", minres_elimination_direction)
        _, kappa_ref, iters_ref, _, _ = newton_stage(lap, start, kappa0, eps, g, cfg)
        assert iters == iters_ref
        assert abs(kappa - kappa_ref) <= 1e-10 * abs(kappa_ref)

    def test_unreachable_tolerance_fails_cleanly(self, monkeypatch):
        monkeypatch.setattr(semilinear, "MAX_NEWTON", 3)
        grid = build_sector_grid(2, 32, 32)
        lap = assemble(grid)
        g = np.zeros(32)
        cfg = ContinuationConfig(eps_start=0.2, eps_min=0.2, newton_tol=1e-30)
        u0, kappa = initial_guess(grid, g, lap)
        with pytest.raises(StageFailed):
            newton_stage(lap, u0.values.ravel(), kappa, 0.2, g, cfg)


class TestContinuation:
    def test_coarse_cross_solution(self):
        grid = build_sector_grid(2, 64, 64)
        cfg = ContinuationConfig(eps_start=0.2, eps_min=0.05)
        sol = solve_fixed_point(grid, lambda p: 40.0 * np.cos(2.0 * p), cfg)
        assert sol.eps == 0.05
        assert sol.eps_schedule == [0.2, 0.1, 0.05]
        assert len(sol.newton_iters) == 3
        assert all(n <= 25 for n in sol.newton_iters)
        assert abs(eval_origin(sol.u)) <= 1e-8
        assert 0.0 < sol.kappa < 0.26
        max_res, zone = residual_check(sol)
        assert max_res <= 1e-8
        assert zone > 0.0
        assert len(sol.transition_measures) == 3

    def test_matches_lu_newton_oracle(self):
        grid = build_sector_grid(2, 96, 96)
        g = 40.0 * np.cos(2.0 * grid.phi)
        cfg = ContinuationConfig(eps_start=0.2, eps_min=0.05)
        sol = solve_fixed_point(grid, g, cfg)
        u_ref, kappa_ref, iters_ref = lu_continuation(grid, g, cfg)
        # the stages before the last run on coarser levels, so only the
        # number of stages is comparable, not the iterations of each
        assert len(sol.newton_iters) == len(iters_ref)
        assert np.max(np.abs(sol.u.values.ravel() - u_ref)) <= 1e-9
        assert abs(sol.kappa - kappa_ref) <= 1e-9

    def test_disk_grids_are_rejected(self):
        with pytest.raises(ValueError):
            solve_fixed_point(build_disk_grid(32, 32), lambda p: np.cos(2 * p))

    def test_width_floor_enforced_by_schedule(self):
        grid = build_sector_grid(2, 32, 32)
        cfg = ContinuationConfig(eps_min=0.0125)  # floor is 2/32 = 0.0625
        with pytest.raises(ValueError):
            solve_fixed_point(grid, lambda p: np.cos(2 * p), cfg)

    def test_failure_carries_last_converged_stage(self, monkeypatch):
        monkeypatch.setattr(semilinear, "MAX_NEWTON", 2)
        grid = build_sector_grid(2, 32, 32)
        cfg = ContinuationConfig(eps_start=0.2, eps_min=0.2, newton_tol=1e-30)
        with pytest.raises(StageFailed) as info:
            solve_fixed_point(grid, lambda p: np.cos(2 * p), cfg)
        assert info.value.partial is None  # first stage already failed
        assert info.value.eps == 0.2
        assert info.value.iterations == 2
        assert info.value.reason == "iteration cap reached"
        # a one-stage schedule runs its only stage on the grid itself
        assert (info.value.n_r, info.value.n_phi) == (32, 32)
        assert "on 32x32 cells" in str(info.value)

    def test_partial_solution_may_live_on_a_coarser_level(self, monkeypatch):
        grid = build_sector_grid(2, 64, 64)
        cfg = ContinuationConfig(eps_start=0.2, eps_min=0.05)
        stage = semilinear.newton_stage

        def fails_on_the_finest_grid(lap, u, kappa, eps, g, config):
            if lap.grid.n_r == grid.n_r:
                raise StageFailed(eps, lap.grid, 0, 1.0, "forced")
            return stage(lap, u, kappa, eps, g, config)

        monkeypatch.setattr(semilinear, "newton_stage", fails_on_the_finest_grid)
        with pytest.raises(StageFailed) as info:
            solve_fixed_point(grid, lambda p: 40.0 * np.cos(2.0 * p), cfg)
        assert (info.value.n_r, info.value.n_phi) == (64, 64)
        partial = info.value.partial
        assert partial.eps == 0.1
        assert partial.stage_grids == [[16, 16], [32, 32]]
        assert partial.u.grid.shape == (32, 32)
        assert partial.g_values.shape == (32,)
        max_res, _ = residual_check(partial)
        assert max_res <= 1e-8


class TestGridSequencing:
    @pytest.mark.parametrize("coarse, fine", [((16, 16), (32, 32)), ((16, 8), (32, 8)),
                                              ((8, 8), (64, 32))])
    def test_prolongation_is_exact_on_linear_in_r(self, coarse, fine):
        coarse, fine = build_sector_grid(2, *coarse), build_sector_grid(2, *fine)
        u = np.repeat(0.3 - 1.7 * coarse.r, coarse.n_phi)
        expected = np.repeat(0.3 - 1.7 * fine.r, fine.n_phi)
        # linear extrapolation at both radial ends
        assert np.max(np.abs(semilinear._prolong(u, coarse, fine) - expected)) <= 1e-14

    @pytest.mark.parametrize("coarse, fine", [((16, 16), (32, 32)), ((8, 8), (32, 64))])
    def test_prolongation_is_exact_on_linear_in_phi_away_from_edges(self, coarse, fine):
        coarse, fine = build_sector_grid(3, *coarse), build_sector_grid(3, *fine)
        u = np.tile(0.5 + 2.0 * coarse.phi, coarse.n_r)
        got = semilinear._prolong(u, coarse, fine).reshape(fine.shape)
        inside = (fine.phi >= coarse.phi[0]) & (fine.phi <= coarse.phi[-1])
        assert np.max(np.abs(got[:, inside] - (0.5 + 2.0 * fine.phi[inside]))) <= 1e-14
        # even reflection across the sector edges: constant beyond the end centers
        for edge, end in ((fine.phi < coarse.phi[0], 0), (fine.phi > coarse.phi[-1], -1)):
            assert np.max(np.abs(got[:, edge] - (0.5 + 2.0 * coarse.phi[end]))) <= 1e-14

    def test_prolongation_onto_the_same_nodes_is_bitwise_exact(self):
        # so a level that keeps n_phi copies every column's phi values as they are
        grid = build_sector_grid(4, 16, 8)
        u = np.random.default_rng(3).standard_normal(grid.size)
        assert np.array_equal(semilinear._prolong(u, grid, grid), u)

    def test_levels_of_a_square_grid_climb_one_per_stage(self):
        grid = build_sector_grid(2, 256, 256)
        levels = semilinear._grid_levels(grid)
        assert [g.shape for g in levels] == [(n, n) for n in (8, 16, 32, 64, 128, 256)]
        assert levels[-1] is grid and all(g.copies == 4 for g in levels)
        schedule = ContinuationConfig(eps_min=0.0125).schedule()
        placed = semilinear._stage_levels(levels, schedule)
        assert [levels[i].shape for i in placed] == [(n, n) for n in (16, 32, 64, 128, 256)]

    def test_thin_grids_coarsen_in_r_only(self):
        grid = build_sector_grid(4, 65536, 8)
        levels = semilinear._grid_levels(grid)
        assert [g.shape for g in levels] == [(2**p, 8) for p in range(3, 17)]
        schedule = ContinuationConfig(eps_min=3.125e-5).schedule()
        placed = semilinear._stage_levels(levels, schedule)
        assert len(schedule) == 14
        assert [levels[i].n_r for i in placed] == [2**p for p in range(4, 16)] + [65536] * 2

    def test_phi_halves_only_while_it_stays_even_and_at_least_8(self):
        levels = semilinear._grid_levels(build_sector_grid(2, 64, 24))
        assert [g.shape for g in levels] == [(8, 12), (16, 12), (32, 12), (64, 24)]

    @pytest.mark.parametrize("shape", [(255, 256), (97, 96)])
    def test_odd_radial_count_gives_one_level(self, shape):
        grid = build_sector_grid(2, *shape)
        assert semilinear._grid_levels(grid) == [grid]
        schedule = ContinuationConfig(eps_min=0.05).schedule()
        assert semilinear._stage_levels([grid], schedule) == [0] * len(schedule)

    def test_last_stage_runs_on_the_grid_even_when_a_coarser_level_admits_it(self):
        levels = semilinear._grid_levels(build_sector_grid(2, 256, 256))
        placed = semilinear._stage_levels(levels, [0.2, 0.1])
        assert placed == [1, 5]

    @pytest.mark.parametrize("k, M, n, eps_min", [(2, 40.0, 96, 0.025), (3, 10.0, 128, 0.05)])
    def test_matches_single_level_continuation(self, k, M, n, eps_min):
        grid = build_sector_grid(k, n, n)
        g = M * np.cos(k * grid.phi)
        cfg = ContinuationConfig(eps_min=eps_min)
        sol = solve_fixed_point(grid, g, cfg)
        u_ref, kappa_ref, iters_ref = single_level_continuation(grid, g, cfg)
        assert sol.u.grid is grid
        assert len(sol.newton_iters) == len(iters_ref) == len(sol.stage_grids)
        assert sol.stage_grids[-1] == [n, n] and sol.stage_grids[0][0] < n
        assert sol.newton_iters[-1] <= 3
        assert np.max(np.abs(sol.u.values.ravel() - u_ref)) <= 1e-9
        assert abs(sol.kappa - kappa_ref) <= 1e-9 * abs(kappa_ref)

    def test_sidecar_records_the_grid_of_each_stage(self, tmp_path):
        grid = build_sector_grid(2, 64, 64)
        cfg = ContinuationConfig(eps_start=0.2, eps_min=0.05)
        sol = solve_fixed_point(grid, lambda p: 40.0 * np.cos(2.0 * p), cfg)
        assert sol.stage_grids == [[16, 16], [32, 32], [64, 64]]
        paths = export_solution(sol, tmp_path)
        sidecar = json.loads(open(paths[-1], encoding="utf-8").read())
        assert sidecar["stage_grids"] == sol.stage_grids
        assert len(sidecar["stage_grids"]) == len(sidecar["newton_iters"])
        # each transition measure is taken on its own stage's grid
        assert sol.transition_measures[-1] == transition_measure(sol.u, sol.eps)


class TestTransitionMeasure:
    def test_annulus_band_area(self):
        g = build_disk_grid(128, 128)
        u = field_from_function(g, lambda r, p: r - 0.5)
        eps = 0.05
        # {|r - 1/2| <= eps} is an annulus of area 2 pi eps; whole cells are
        # counted, so allow a one-cell rind on each side
        rind = 2.0 * (2.0 * math.pi * 0.5 * g.dr)
        assert abs(transition_measure(u, eps) - 2.0 * math.pi * eps) <= rind
