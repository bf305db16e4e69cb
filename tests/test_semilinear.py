"""Regularized indicator properties and constrained Newton continuation."""

import json
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import unstablefb.poisson as poisson
import unstablefb.semilinear as semilinear
from unstablefb import (
    PolarGrid,
    ScalarField,
    Solution,
    StageFailed,
    assemble,
    build_sector_grid,
    eval_origin,
    export_solution,
    f_eps,
    f_eps_prime,
    field_from_function,
    initial_guess,
    newton_stage,
    read_field,
    solve,
    solve_fixed_point,
)

from conftest import cell_arrays, coo_assembly, origin_weight_vector

EPS_VALUES = [0.2, 0.1, 0.05, 0.0125]


def max_residual(sol):
    """max |R1| of a solution, evaluated afresh on its own grid."""
    grid = sol.u.grid
    r1, *_ = semilinear._residual(assemble(grid), origin_weight_vector(grid),
                                  sol.u.values.ravel(), sol.kappa, sol.g_values, sol.eps)
    return float(np.max(np.abs(r1)))


def lu_continuation(grid, g, eps_min):
    """Reference: the bordered Newton continuation with full steps and
    sparse LU solves of the Jacobian, stopped by the absolute tolerance."""
    lap, A = assemble(grid), coo_assembly(grid)
    u0, kappa = initial_guess(grid, g, lap)
    u = u0.values.ravel()
    e = origin_weight_vector(grid)
    b1 = lap.lift(np.ones(grid.n_phi))
    iters = []
    tol = semilinear.NEWTON_TOL
    for eps in semilinear._schedule(eps_min):
        for it in range(semilinear.MAX_NEWTON + 1):
            r1 = A @ u - cell_arrays(lap).areas * f_eps(u, eps) - lap.lift(g - kappa)
            r2 = float(e @ u)
            if np.max(np.abs(r1)) <= tol and abs(r2) <= tol:
                break
            jac = A - sp.diags(cell_arrays(lap).areas * f_eps_prime(u, eps), format="csc")
            lu = spla.splu(jac.tocsc())
            w1, w2 = lu.solve(r1), lu.solve(b1)
            dkappa = (r2 - float(e @ w1)) / float(e @ w2)
            u, kappa = u - w1 - dkappa * w2, kappa + dkappa
        iters.append(it)
    return u, kappa, iters


def single_level_continuation(grid, g, eps_min):
    """Reference: the eps continuation with every stage on the given grid."""
    lap = assemble(grid)
    u0, kappa = initial_guess(grid, g, lap)
    u, iters = u0.values.ravel(), []
    for eps in semilinear._schedule(eps_min):
        u, kappa, n_it, _, _ = newton_stage(lap, u, kappa, eps, g)
        iters.append(n_it)
    return u, kappa, iters


def band_shift(lap, band, values):
    """The dense shift: values at the cells band, +0.0 elsewhere."""
    shift = np.zeros(lap.grid.size)
    shift[band] = values
    return shift


def minres_elimination_direction(lap, e, e_sum, band, values, r1, r2):
    """Reference Newton direction: two MINRES solves with the Jacobian
    J = A - diag(shift), preconditioned by A^-1, and block elimination of
    the bordered system; shift is values on the band and 0 elsewhere."""
    A = coo_assembly(lap.grid)
    n = A.shape[0]
    shift = band_shift(lap, band, values)
    e = origin_weight_vector(lap.grid)  # in full, not on its support
    b1 = lap.lift(np.ones(lap.grid.n_phi))
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
        r1, r2, band, values = semilinear._residual(lap, e, u, kappa, g, eps)
        shift = cell_arrays(lap).areas * f_eps_prime(u, eps)
        assert abs(r2) > 1e-4
        du, dkappa, missed = semilinear._newton_direction(lap, e, float(e.sum()), band,
                                                          values, r1, r2)
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


def dense_residual(lap, u, kappa, g, eps):
    """R1 with the source f_eps(u) area on every cell."""
    r1 = lap.apply(u)
    source = f_eps(u, eps)
    source *= cell_arrays(lap).areas
    r1 -= source
    r1[-lap.grid.n_phi:] -= lap.arc_coeff * (g - kappa)
    return r1


class TestBand:
    """f_eps and f_eps' are evaluated on the band alone (`_residual`)."""

    @pytest.mark.parametrize("eps", [0.2, 0.3, 0.0125, 3.125e-5, 7e-9])
    def test_band_source_and_slope_are_the_dense_ones_bit_for_bit(self, eps):
        grid = build_sector_grid(2, 32, 24)
        lap = assemble(grid)
        e = origin_weight_vector(grid)
        below = np.nextafter(-eps, -np.inf)
        special = [0.0, -0.0, -eps, np.nextafter(-eps, np.inf), below,
                   np.nextafter(below, -np.inf), -eps * 2.0**-54, 1e300, -1e300, -0.5 * eps]
        assert -eps * 2.0**-54 / eps + 1.0 == 1.0
        g = np.cos(2.0 * grid.phi)
        for seed in range(4):
            rng = np.random.default_rng(seed)
            u = rng.uniform(-2.0 * eps, eps, grid.size)
            u[seed * 40:seed * 40 + len(special)] = special
            u.flags.writeable = False
            r1, r2, band, shift = semilinear._residual(lap, e, u, 0.25, g, eps)
            assert r1.tobytes() == dense_residual(lap, u, 0.25, g, eps).tobytes()
            assert r2 == float(e @ u)
            dense = f_eps_prime(u, eps)
            dense *= cell_arrays(lap).areas
            assert shift.tobytes() == dense[band].tobytes()
            off = np.delete(dense, band)
            assert off.tobytes() == np.zeros(off.size).tobytes()  # +0.0, no -0.0
            assert np.all(np.diff(band) > 0)
            assert np.array_equal(band, np.flatnonzero((u > -eps) & (u < 0.0)))

    def test_stage_without_band_takes_one_inverse_per_step(self, monkeypatch):
        # at eps = 1e-6 no cell centre of the 32^2 grid falls in (-eps, 0), so
        # K = P and each step is x = P^-1 b with no Krylov iteration
        grid = build_sector_grid(2, 32, 32)
        lap = assemble(grid)
        g = 0.5 * np.cos(2.0 * grid.phi)
        u0, kappa = initial_guess(grid, g, lap)
        inverses, iterations, bands = [], [], []
        apply_inverse, gmres = lap.apply_inverse, semilinear._gmres

        def counted_inverse(rhs):
            inverses.append(rhs.size)
            return apply_inverse(rhs)

        def counted_gmres(b, residual, inverse, band, shift, spare):
            bands.append(band.size)
            x, its, relres = gmres(b, residual, inverse, band, shift, spare)
            iterations.append(its)
            return x, its, relres

        monkeypatch.setattr(lap, "apply_inverse", counted_inverse)
        monkeypatch.setattr(semilinear, "_gmres", counted_gmres)
        _, _, n_it, pde_res, origin_res = newton_stage(lap, u0.values.ravel(), kappa, 1e-6, g)
        assert n_it >= 2
        assert pde_res <= semilinear.NEWTON_TOL and origin_res <= semilinear.NEWTON_TOL
        assert bands == [0] * n_it and iterations == [0] * n_it
        assert len(inverses) == n_it

    @pytest.mark.parametrize("seed", range(3))
    def test_rounding_bound_is_above_the_level(self, seed):
        rng = np.random.default_rng(seed)
        for n_r, n_phi, k in [(256, 8, 2), (64, 64, 2), (33, 17, 4), (8, 200, 2)]:
            grid = build_sector_grid(k, n_r, n_phi)
            lap = assemble(grid)
            for scale in (1e-3, 1.0, 1e4):
                u = scale * rng.standard_normal(grid.size)
                g = scale * rng.standard_normal(n_phi)
                kappa = scale * rng.standard_normal()
                for eps in (0.2, 3.125e-5):
                    assert semilinear._rounding_bound(lap, u, kappa, g) \
                        >= semilinear._rounding_level(lap, u, kappa, g, eps)
        # solved fields, the stage that stops at its rounding level among them
        for n_r, n_phi, amp, eps in [(256, 8, 1e4, 0.2), (64, 64, 40.0, 0.05)]:
            grid = build_sector_grid(2, n_r, n_phi)
            lap = assemble(grid)
            g = amp * np.cos(2.0 * grid.phi)
            u0, kappa = initial_guess(grid, g, lap)
            u, kappa, _, _, _ = newton_stage(lap, u0.values.ravel(), kappa, eps, g)
            assert semilinear._rounding_bound(lap, u, kappa, g) \
                >= semilinear._rounding_level(lap, u, kappa, g, eps)


class TestSchedule:
    def test_schedule_halves_down_to_floor(self):
        assert semilinear._schedule(0.0125) == [0.2, 0.1, 0.05, 0.025, 0.0125]

    def test_schedule_clamps_last_step(self):
        assert semilinear._schedule(0.06) == [0.2, 0.1, 0.06]

    def test_validation(self):
        for eps_min in (0.3, 0.0, -0.1):
            with pytest.raises(ValueError, match="need 0 < eps_min <= eps_start = 0.2"):
                semilinear._schedule(eps_min)


class TestInitialGuess:
    def test_zero_data_reproduces_quarter_shift(self):
        grid = build_sector_grid(2, 64, 64)
        u0, kappa = initial_guess(grid, np.zeros(64), assemble(grid))
        assert kappa == pytest.approx(0.25, abs=1e-3)
        assert abs(eval_origin(u0)) <= 1e-10

    def test_pure_mode_data_keeps_small_shift(self):
        grid = build_sector_grid(2, 64, 64)
        u0, kappa = initial_guess(grid, lambda p: np.cos(2.0 * p), assemble(grid))
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
        u, kappa, iters, pde_res, origin_res = newton_stage(
            lap, u0.values.ravel(), kappa, 0.2, g)
        assert iters <= 25
        assert pde_res <= semilinear.NEWTON_TOL
        assert origin_res <= semilinear.NEWTON_TOL

    def test_idempotent_on_converged_iterate(self):
        grid = build_sector_grid(2, 64, 64)
        lap = assemble(grid)
        g = np.zeros(64)
        u0, kappa = initial_guess(grid, g, lap)
        u, kappa, _, _, _ = newton_stage(lap, u0.values.ravel(), kappa, 0.2, g)
        u2, kappa2, iters, _, _ = newton_stage(lap, u, kappa, 0.2, g)
        assert iters == 0
        assert np.array_equal(u, u2) and kappa == kappa2

    def test_stops_at_rounding_level_above_tolerance(self):
        # rim data 1e4 cos(2 phi) lift the rounding level of the residual,
        # a few eps_mach * max_i sum |terms|, above NEWTON_TOL = 1e-10;
        # the stage must accept that level instead of stalling on it
        grid = build_sector_grid(2, 256, 8)
        lap = assemble(grid)
        g = 1e4 * np.cos(2.0 * grid.phi)
        u0, kappa = initial_guess(grid, g, lap)
        u, kappa, _, pde_res, origin_res = newton_stage(
            lap, u0.values.ravel(), kappa, 0.2, g)
        terms = (abs(coo_assembly(grid)) @ np.abs(u) + cell_arrays(lap).areas
                 + np.abs(lap.lift(g - kappa)))
        level = 4.0 * np.finfo(float).eps * float(np.max(terms))
        assert semilinear.NEWTON_TOL < pde_res <= level
        assert origin_res <= semilinear.NEWTON_TOL

    def test_unconverged_krylov_solve_fails_with_its_residual(self, gmres_capped):
        grid = build_sector_grid(2, 32, 32)
        lap = assemble(grid)
        g = 40.0 * np.cos(2.0 * grid.phi)
        u0, kappa = initial_guess(grid, g, lap)
        with pytest.raises(StageFailed) as info:
            newton_stage(lap, u0.values.ravel(), kappa, 0.2, g)
        assert info.value.iterations == 0
        assert info.value.linear_residual > semilinear.KRYLOV_RTOL
        assert "GMRES" in info.value.reason

    def test_last_step_stops_at_the_newton_tolerance(self, monkeypatch):
        """The 32^2 asterisk's last step at eps = 0.2 has |b| near 1e-9, where
        KRYLOV_RTOL |b| takes three GMRES iterations that the Newton test
        cannot see; stopped at KRYLOV_NEWTON_FRACTION * NEWTON_TOL it takes
        none, and the stage the same Newton iterations."""
        grid = build_sector_grid(4, 32, 32)
        g = np.cos(4.0 * grid.phi)

        def stage():
            lap = assemble(grid)
            u0, kappa = initial_guess(grid, g, lap)
            inverses = []
            apply_inverse = lap.apply_inverse
            monkeypatch.setattr(lap, "apply_inverse",
                                lambda rhs: inverses.append(1) or apply_inverse(rhs))
            _, kappa, iters, pde_res, origin_res = newton_stage(lap, u0.values.ravel(),
                                                                 kappa, 0.2, g)
            assert max(pde_res, origin_res) <= semilinear.NEWTON_TOL
            return len(inverses), iters, kappa

        inverses, iters, kappa = stage()
        monkeypatch.setattr(semilinear, "KRYLOV_NEWTON_FRACTION", 0.0)
        inverses_rtol, iters_rtol, kappa_rtol = stage()
        assert iters == iters_rtol == 3
        assert inverses == inverses_rtol - 3
        assert abs(kappa - kappa_rtol) <= 1e-9 * abs(kappa_rtol)

    def test_missed_newton_tolerance_fails_with_its_residual(self, monkeypatch):
        """Off a converged 32^2 stage by 1e-9, |b| = 1.8e-8 and the target is
        KRYLOV_NEWTON_FRACTION * NEWTON_TOL; a solve held to P^-1 b alone
        misses it, and the stage fails with the residual and the target."""
        grid = build_sector_grid(2, 32, 32)
        lap = assemble(grid)
        g = 0.5 * np.cos(2.0 * grid.phi)
        u0, kappa = initial_guess(grid, g, lap)
        u, kappa, *_ = newton_stage(lap, u0.values.ravel(), kappa, 0.2, g)
        u = u + 1e-9 * np.cos(3.0 * grid.r).repeat(grid.n_phi)
        r1, r2, *_ = semilinear._residual(lap, origin_weight_vector(grid), u, kappa, g, 0.2)
        b_norm = float(np.linalg.norm(np.append(r1, r2)))
        target = semilinear.KRYLOV_NEWTON_FRACTION * semilinear.NEWTON_TOL / b_norm
        assert target > 100.0 * semilinear.KRYLOV_RTOL
        monkeypatch.setattr(semilinear, "KRYLOV_MAXITER", 0)
        with pytest.raises(StageFailed) as info:
            newton_stage(lap, u, kappa, 0.2, g)
        assert info.value.iterations == 0
        assert info.value.linear_residual > target
        assert f"relative residual {target:.3g} (achieved" in info.value.reason

    def test_pin_row_is_the_origin_weights_on_their_support(self):
        for grid in (build_sector_grid(2, 8, 8), build_sector_grid(4, 64, 48), PolarGrid(40, 24)):
            e, e_sum = semilinear._pin_row(grid)
            full = origin_weight_vector(grid)
            assert np.array_equal(e, np.trim_zeros(full, "b"))
            assert e.size == 4 * grid.n_phi and e_sum == float(e.sum())

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
        r1, r2, *_ = semilinear._residual(lap, e, u0.values.ravel(), kappa, g, 0.05)
        rng = np.random.default_rng(7)
        for v in (np.append(r1, r2), rng.standard_normal(grid.size + 1),
                  np.append(b1, 1.0), np.append(np.zeros(grid.size), 1.0)):
            x = semilinear._bordered_inverse(lap, *semilinear._pin_row(grid), v)
            assert np.max(np.abs(P @ x - v)) <= 1e-12 * p_norm * np.max(np.abs(x))

    def test_step_meets_forcing_term(self):
        assert_step_meets_forcing_term()

    @pytest.mark.parametrize("restart", [2, 1])
    def test_restarted_step_meets_forcing_term(self, monkeypatch, restart):
        # short cycles confirm the true residual and restart from x
        monkeypatch.setattr(semilinear, "KRYLOV_RESTART", restart)
        assert_step_meets_forcing_term()

    def test_one_laplacian_inverse_per_krylov_iteration(self, monkeypatch):
        # one inverse for P^-1 b, then one per iteration on the band
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
            u, kappa, _, _, _ = newton_stage(lap, u, kappa, eps, g)
        assert len(iterations) >= 2 and all(its >= 1 for its in iterations)
        assert len(inverses) == sum(1 + its for its in iterations)

    @pytest.mark.parametrize("restart", [semilinear.KRYLOV_RESTART, 3])
    def test_gmres_solves_a_small_nonsymmetric_system(self, monkeypatch, restart):
        # the Givens estimate is the true residual, so every cycle but the
        # last runs to the restart and one product with K ends each cycle
        monkeypatch.setattr(semilinear, "KRYLOV_RESTART", restart)
        rng = np.random.default_rng(11)
        n = 40
        P = np.eye(n) + 0.4 * rng.standard_normal((n, n)) / np.sqrt(n)
        band = np.sort(rng.choice(n, 24, replace=False))
        shift = rng.uniform(-1.0, 1.0, band.size)
        K = P.copy()
        K[band, band] -= shift
        b = rng.standard_normal(n)
        products = []

        def residual(x):
            products.append(x)
            return b - K @ x

        def inverse(v, out):
            out[:] = np.linalg.solve(P, v)
            return out

        x, its, relres = semilinear._gmres(b, residual, inverse, band, shift)
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
        _, kappa, iters, _, _ = newton_stage(lap, start, kappa0, eps, g)
        monkeypatch.setattr(semilinear, "_newton_direction", minres_elimination_direction)
        _, kappa_ref, iters_ref, _, _ = newton_stage(lap, start, kappa0, eps, g)
        assert iters == iters_ref
        assert abs(kappa - kappa_ref) <= 1e-10 * abs(kappa_ref)

    def test_unreachable_tolerance_fails_cleanly(self, monkeypatch):
        monkeypatch.setattr(semilinear, "MAX_NEWTON", 3)
        monkeypatch.setattr(semilinear, "NEWTON_TOL", 1e-30)
        grid = build_sector_grid(2, 32, 32)
        lap = assemble(grid)
        g = np.zeros(32)
        u0, kappa = initial_guess(grid, g, lap)
        with pytest.raises(StageFailed):
            newton_stage(lap, u0.values.ravel(), kappa, 0.2, g)


def fail_stages_on(monkeypatch, n_r):
    """Make newton_stage raise StageFailed on every level with n_r radial cells."""
    stage = semilinear.newton_stage

    def fails_on_that_level(lap, u, kappa, eps, g):
        if lap.grid.n_r == n_r:
            raise StageFailed(eps, lap.grid, 0, 1.0, "forced")
        return stage(lap, u, kappa, eps, g)

    monkeypatch.setattr(semilinear, "newton_stage", fails_on_that_level)


def cross_64():
    """(grid, arc data, eps_min) of the 64^2 cross solved down to eps = 0.05."""
    return build_sector_grid(2, 64, 64), lambda p: 40.0 * np.cos(2.0 * p), 0.05


@pytest.fixture
def solutions_built(monkeypatch):
    """The Solution objects semilinear constructs, in order."""
    built = []

    def counted(*args, **kwargs):
        built.append(Solution(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(semilinear, "Solution", counted)
    return built


class TestContinuation:
    def test_coarse_cross_solution(self):
        grid = build_sector_grid(2, 64, 64)
        sol = solve_fixed_point(grid, lambda p: 40.0 * np.cos(2.0 * p), 0.05)
        assert sol.eps == 0.05
        assert sol.eps_schedule == [0.2, 0.1, 0.05]
        assert len(sol.newton_iters) == 3
        assert all(n <= 25 for n in sol.newton_iters)
        assert abs(eval_origin(sol.u)) <= 1e-8
        assert 0.0 < sol.kappa < 0.26
        assert max_residual(sol) <= 1e-8
        assert len(sol.band_cells) == 3
        assert all(n > 0 for n in sol.band_cells)

    def test_matches_lu_newton_oracle(self):
        grid = build_sector_grid(2, 96, 96)
        g = 40.0 * np.cos(2.0 * grid.phi)
        sol = solve_fixed_point(grid, g, 0.05)
        u_ref, kappa_ref, iters_ref = lu_continuation(grid, g, 0.05)
        # the stages before the last run on coarser levels, so only the
        # number of stages is comparable, not the iterations of each
        assert len(sol.newton_iters) == len(iters_ref)
        assert np.max(np.abs(sol.u.values.ravel() - u_ref)) <= 1e-9
        assert abs(sol.kappa - kappa_ref) <= 1e-9

    def test_disk_grids_are_rejected(self):
        with pytest.raises(ValueError):
            solve_fixed_point(PolarGrid(32, 32), lambda p: np.cos(2 * p))

    def test_widths_below_every_level_run_on_the_grid(self):
        # 2 dr is 0.0625 on 32^2: 0.05, 0.025 and 0.0125 fit no level
        grid = build_sector_grid(2, 32, 32)
        sol = solve_fixed_point(grid, lambda p: np.cos(2 * p), 0.0125)
        assert sol.eps_schedule == [0.2, 0.1, 0.05, 0.025, 0.0125]
        assert sol.stage_grids == [[16, 16], [32, 32], [32, 32], [32, 32], [32, 32]]
        assert abs(eval_origin(sol.u)) <= 1e-8
        assert max_residual(sol) <= 1e-8

    def test_failure_carries_last_converged_stage(self, monkeypatch):
        monkeypatch.setattr(semilinear, "MAX_NEWTON", 2)
        monkeypatch.setattr(semilinear, "NEWTON_TOL", 1e-30)
        grid = build_sector_grid(2, 32, 32)
        with pytest.raises(StageFailed) as info:
            solve_fixed_point(grid, lambda p: np.cos(2 * p), 0.2)
        assert info.value.partial is None  # first stage already failed
        assert info.value.eps == 0.2
        assert info.value.iterations == 2
        assert info.value.reason == "iteration cap reached"
        # a one-stage schedule runs its only stage on the grid itself
        assert (info.value.n_r, info.value.n_phi) == (32, 32)
        assert "on 32x32 cells" in str(info.value)

    def test_partial_solution_may_live_on_a_coarser_level(self, monkeypatch):
        grid = build_sector_grid(2, 64, 64)
        fail_stages_on(monkeypatch, grid.n_r)
        with pytest.raises(StageFailed) as info:
            solve_fixed_point(grid, lambda p: 40.0 * np.cos(2.0 * p), 0.05)
        assert (info.value.n_r, info.value.n_phi) == (64, 64)
        partial = info.value.partial
        assert partial.eps == 0.1
        assert partial.stage_grids == [[16, 16], [32, 32]]
        assert partial.u.grid.shape == (32, 32)
        assert partial.g_values.shape == (32,)
        assert max_residual(partial) <= 1e-8

    def test_solution_is_built_once(self, solutions_built):
        sol = solve_fixed_point(*cross_64())
        assert solutions_built == [sol]

    def test_partial_is_built_once_from_the_last_converged_stage(self, monkeypatch,
                                                                 solutions_built):
        grid, g, eps_min = cross_64()
        fail_stages_on(monkeypatch, grid.n_r)
        with pytest.raises(StageFailed) as info:
            solve_fixed_point(grid, g, eps_min)
        partial = info.value.partial
        assert len(solutions_built) == 1 and solutions_built[0] is partial
        assert partial.eps_schedule == [0.2, 0.1] and len(partial.newton_iters) == 2

    def test_no_solution_is_built_when_the_first_stage_fails(self, monkeypatch,
                                                            solutions_built):
        fail_stages_on(monkeypatch, 16)  # the first stage of the 64^2 cross runs on 16^2
        with pytest.raises(StageFailed) as info:
            solve_fixed_point(*cross_64())
        assert info.value.partial is None
        assert (info.value.n_r, info.value.eps) == (16, 0.2)
        assert solutions_built == []


def cross_96(M=40.0):
    """(grid, arc data, eps_min) of the 96^2 cross, whose stages climb 12^2 ... 96^2."""
    return build_sector_grid(2, 96, 96), lambda p: M * np.cos(2.0 * p), 0.025


def assert_same_solution(sol, ref):
    assert sol.u.values.tobytes() == ref.u.values.tobytes()
    assert (sol.kappa, sol.pde_residual, sol.newton_iters) == \
        (ref.kappa, ref.pde_residual, ref.newton_iters)


def store_bytes():
    return sum(map(poisson._nbytes, poisson._store.values()))


class TestSolverMemory:
    """The store of what a solve leaves behind (`poisson._store`: each grid
    shape's operator arrays and Krylov arrays) stays within its bound and
    carries nothing from one solve into the next."""

    @pytest.fixture(autouse=True)
    def empty_store(self, monkeypatch):
        monkeypatch.setattr(poisson, "_store", {})

    def test_repeated_solve_after_another_is_bit_identical(self):
        # the first solve fills the store afresh, the third reads what the
        # first and second left in it
        runs = [solve_fixed_point(*cross_96(M)) for M in (40.0, 0.5, 40.0)]
        assert poisson._store
        first, other, again = runs
        assert_same_solution(again, first)
        assert other.u.values.tobytes() != first.u.values.tobytes()

    def test_store_keeps_only_arrays_of_the_bordered_size(self):
        # the band's Arnoldi vectors are not kept, only the images P^-1 E v_j,
        # the buffer for E v and P^-1 r, each of its level's size + 1
        grid, g, eps_min = cross_96()
        sol = solve_fixed_point(grid, g, eps_min)
        assert [level.n_r for level in poisson._store] == [12, 24, 48, 96]
        for level, (_, krylov) in poisson._store.items():
            assert krylov and {a.size for a in krylov} == {level.size + 1}
        assert not {level.size + 1 for level in poisson._store} & set(sol.band_cells)

    def test_cached_operator_arrays_are_read_only_and_shared(self):
        grid = build_sector_grid(2, 40, 24)
        lap = assemble(grid)
        assert lap.grid is grid
        twin = assemble(build_sector_grid(2, 40, 24))
        assert twin is not lap and twin.diag is lap.diag
        for a in (lap.radial, lap.angular, lap.diag, lap.areas, *lap.modes):
            with pytest.raises(ValueError):
                a[0] = 1.0

    def test_store_drops_the_least_recently_used_shapes_first(self, monkeypatch):
        first = solve_fixed_point(*cross_96())
        held = {level: poisson._nbytes(kept) for level, kept in poisson._store.items()}
        shapes = list(held)  # least recently used first
        assert [level.n_r for level in shapes] == [12, 24, 48, 96]
        bound = held[shapes[-2]] + held[shapes[-1]]
        monkeypatch.setattr(poisson, "STORE_BYTES", bound)
        poisson._store.clear()
        assert_same_solution(solve_fixed_point(*cross_96()), first)
        assert list(poisson._store) == shapes[-2:] and store_bytes() <= bound
        # the third solve builds the two coarse levels again after their eviction
        assert_same_solution(solve_fixed_point(*cross_96()), first)
        assert list(poisson._store) == shapes[-2:] and store_bytes() <= bound

    def test_shape_over_the_bound_is_not_kept(self, monkeypatch):
        grid, g, eps_min = cross_96()
        first = solve_fixed_point(grid, g, eps_min)
        kept = poisson._store[grid]
        bound = poisson._nbytes(kept) - 1
        monkeypatch.setattr(poisson, "STORE_BYTES", bound)
        poisson._store.clear()
        assert_same_solution(solve_fixed_point(grid, g, eps_min), first)
        assert grid not in poisson._store and store_bytes() <= bound
        assemble(grid)
        assert grid in poisson._store  # its operator arrays alone fit, not with the Krylov ones
        poisson.keep_krylov(grid, [np.empty(grid.size + 1) for _ in kept[1]])
        assert grid not in poisson._store
        assert poisson.take_krylov(grid) == []

    def test_taken_krylov_arrays_are_the_callers_alone(self):
        grid = build_sector_grid(2, 16, 16)
        assemble(grid)
        arrays = [np.empty(grid.size + 1) for _ in range(3)]
        poisson.keep_krylov(grid, arrays)
        taken = poisson.take_krylov(grid)
        assert taken == arrays and poisson.take_krylov(grid) == []
        # arrays of a shape the store does not hold are dropped, and build nothing
        other = build_sector_grid(2, 16, 8)
        poisson.keep_krylov(other, arrays)
        assert other not in poisson._store

    def test_bound_holds_the_deepest_ladder(self):
        # criterion 7's 65536 x 8 asterisk, from the shapes alone: the operator
        # arrays of `_level_arrays` (per ring radial: n_r - 1, diag: 2 n_r and
        # areas: n_r; per cell angular and the factor e: size - 1 and the
        # factor d: size) and, on every level, KEPT_KRYLOV Krylov arrays
        levels = semilinear._grid_levels(build_sector_grid(4, 65536, 8))
        assert len(levels) == 14
        operator = sum(8 * (3 * lv.size + 4 * lv.n_r - 3) for lv in levels)
        krylov = sum(poisson.KEPT_KRYLOV * 8 * (lv.size + 1) for lv in levels)
        assert operator // 2**20 == 27 and krylov // 2**20 == 47
        assert operator + krylov <= poisson.STORE_BYTES
        level = levels[3]
        assert 8 * (3 * level.size + 4 * level.n_r - 3) == poisson._nbytes(
            [poisson._level_arrays(level), []])
        # one 2048^2 level's operator arrays (96 MiB) fit the bound alone, but
        # not beside two of its Krylov arrays
        one = 8 * (3 * 2048**2 + 4 * 2048 - 3)
        assert one <= poisson.STORE_BYTES < one + 2 * 8 * (2048**2 + 1)

    def test_store_keeps_at_most_kept_krylov_arrays_per_shape(self):
        grid = build_sector_grid(2, 16, 16)
        assemble(grid)
        arrays = [np.empty(grid.size + 1) for _ in range(poisson.KEPT_KRYLOV + 2)]
        poisson.keep_krylov(grid, arrays)
        taken = poisson.take_krylov(grid)
        assert len(taken) == poisson.KEPT_KRYLOV
        assert all(a is b for a, b in zip(taken, arrays))

    def test_cold_solve_stays_within_its_heap_bound(self):
        # the cold 256^2 cross allocates what it keeps in the store (3.5 MiB)
        # and its transients: a tracemalloc peak of 7.27 MiB, 7.77 MiB while a
        # Newton step held the previous direction into the next GMRES solve,
        # and 9.68 MiB while the radial faces, diagonal and areas were per cell
        grid = build_sector_grid(2, 256, 256)
        g = 40.0 * np.cos(2.0 * grid.phi)
        tracemalloc.start()
        try:
            solve_fixed_point(grid, g, 0.0125)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7.5 * 2**20

    def test_threads_solving_one_shape_at_once_match_a_serial_solve(self, monkeypatch):
        # three threads, so that on two cores they also compete for a core
        grid, g, eps_min = cross_64()
        serial = solve_fixed_point(grid, g, eps_min)  # leaves Krylov arrays in the store
        take, keep = semilinear.take_krylov, semilinear.keep_krylov
        lock, first_take = threading.Lock(), threading.local()
        all_hold = threading.Barrier(3, timeout=30)
        held, shared = set(), []  # ids of the Krylov arrays a solve holds now

        def taking(level):
            arrays = take(level)
            with lock:
                shared.extend(id(a) for a in arrays if id(a) in held)
                held.update(id(a) for a in arrays)
            if not getattr(first_take, "done", False):
                first_take.done = True
                all_hold.wait()  # the solves hold their first arrays at once
            return arrays

        def keeping(level, arrays):
            with lock:
                held.difference_update(id(a) for a in arrays)
            keep(level, arrays)

        monkeypatch.setattr(semilinear, "take_krylov", taking)
        monkeypatch.setattr(semilinear, "keep_krylov", keeping)
        results = [[], [], []]

        def solve_at_once(i):
            for _ in range(3):
                results[i].append(solve_fixed_point(build_sector_grid(2, 64, 64), g, eps_min))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so the solves interleave
        try:
            threads = [threading.Thread(target=solve_at_once, args=(i,)) for i in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert [len(r) for r in results] == [3, 3, 3] and not shared
        for sol in sum(results, []):
            assert_same_solution(sol, serial)


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
        schedule = semilinear._schedule(0.0125)
        placed = semilinear._stage_levels(levels, schedule)
        assert [levels[i].shape for i in placed] == [(n, n) for n in (16, 32, 64, 128, 256)]

    def test_thin_grids_coarsen_in_r_only(self):
        grid = build_sector_grid(4, 65536, 8)
        levels = semilinear._grid_levels(grid)
        assert [g.shape for g in levels] == [(2**p, 8) for p in range(3, 17)]
        schedule = semilinear._schedule(3.125e-5)
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
        schedule = semilinear._schedule(0.05)
        assert semilinear._stage_levels([grid], schedule) == [0] * len(schedule)

    def test_last_stage_runs_on_the_grid_even_when_a_coarser_level_admits_it(self):
        levels = semilinear._grid_levels(build_sector_grid(2, 256, 256))
        placed = semilinear._stage_levels(levels, [0.2, 0.1])
        assert placed == [1, 5]

    @pytest.mark.parametrize("k, M, n, eps_min", [(2, 40.0, 96, 0.025), (3, 10.0, 128, 0.05)])
    def test_matches_single_level_continuation(self, k, M, n, eps_min):
        grid = build_sector_grid(k, n, n)
        g = M * np.cos(k * grid.phi)
        sol = solve_fixed_point(grid, g, eps_min)
        u_ref, kappa_ref, iters_ref = single_level_continuation(grid, g, eps_min)
        assert sol.u.grid is grid
        assert len(sol.newton_iters) == len(iters_ref) == len(sol.stage_grids)
        assert sol.stage_grids[-1] == [n, n] and sol.stage_grids[0][0] < n
        assert sol.newton_iters[-1] <= 3
        assert np.max(np.abs(sol.u.values.ravel() - u_ref)) <= 1e-9
        assert abs(sol.kappa - kappa_ref) <= 1e-9 * abs(kappa_ref)

    def test_stages_yield_one_converged_stage_per_eps(self, monkeypatch):
        grid, g, eps_min = cross_64()
        stage, levels = semilinear.newton_stage, []

        def counted(lap, *args):
            levels.append(lap.grid.shape)
            return stage(lap, *args)

        monkeypatch.setattr(semilinear, "newton_stage", counted)
        stages = list(semilinear._stages(grid, g, eps_min))
        assert [s[0] for s in stages] == [0.2, 0.1, 0.05]
        assert [s[1].grid.shape for s in stages] == [(16, 16), (32, 32), (64, 64)]
        assert levels == [(16, 16), (32, 32), (64, 64)]
        assert stages[-1][1].grid is grid
        assert [s[2].shape for s in stages] == [(16,), (32,), (64,)]

    def test_last_stage_is_the_solution_bit_for_bit(self):
        grid, g, eps_min = cross_64()
        *_, (eps, lap, g_last, u, kappa, n_it, pde_res, origin_res) = \
            semilinear._stages(grid, g, eps_min)
        sol = solve_fixed_point(grid, g, eps_min)
        assert np.array_equal(u, sol.u.values.ravel())
        assert kappa == sol.kappa
        assert np.array_equal(g_last, sol.g_values)
        assert (eps, n_it, pde_res, origin_res) == (
            sol.eps, sol.newton_iters[-1], sol.pde_residual, sol.origin_residual)

    def test_sidecar_records_the_grid_of_each_stage(self, tmp_path):
        grid = build_sector_grid(2, 64, 64)
        sol = solve_fixed_point(grid, lambda p: 40.0 * np.cos(2.0 * p), 0.05)
        assert sol.stage_grids == [[16, 16], [32, 32], [64, 64]]
        paths = export_solution(sol, tmp_path)
        with open(paths[-1], encoding="utf-8") as f:
            sidecar = json.loads(f.read())
        assert sidecar["stage_grids"] == sol.stage_grids
        assert len(sidecar["stage_grids"]) == len(sidecar["newton_iters"])
        assert sidecar["band_cells"] == sol.band_cells
        assert len(sidecar["band_cells"]) == len(sidecar["newton_iters"])
        # each band is counted on its own stage's grid
        u = sol.u.values
        assert sidecar["band_cells"][-1] == np.count_nonzero((u > -sol.eps) & (u < 0.0))


class TestExport:
    def test_field_is_written_once_as_vtk(self, tmp_path):
        u = field_from_function(build_sector_grid(2, 32, 16), lambda r, p: r**2 * np.cos(2 * p))
        sol = Solution(u=u, kappa=0.125, eps=0.05, pde_residual=0.0, origin_residual=0.0,
                       newton_iters=[2], stage_grids=[[32, 16]], eps_schedule=[0.05],
                       g_values=np.zeros(16))
        paths = export_solution(sol, tmp_path)
        assert [os.path.basename(p) for p in paths] == ["solution.vtk", "solution.json"]
        assert sorted(f.name for f in tmp_path.iterdir()) == ["solution.json", "solution.vtk"]
        assert not list(tmp_path.glob("*.csv"))
        assert np.array_equal(read_field(paths[0]).values, u.values)
