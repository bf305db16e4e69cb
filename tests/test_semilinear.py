"""Regularized indicator properties and the pinned fixed-point solve."""

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
    Solution,
    StageFailed,
    assemble,
    build_sector_grid,
    eval_origin,
    export_solution,
    initial_guess,
    newton_stage,
    read_field,
    solve_fixed_point,
)
from unstablefb.field import field_from_function
from unstablefb.poisson import solve
from unstablefb.semilinear import f_eps, f_eps_prime

from conftest import cell_arrays, coo_assembly, origin_weight_vector

EPS_VALUES = [0.2, 0.1, 0.05, 0.0125]


def max_residual(sol):
    """max |R1| of a solution, evaluated afresh on its own grid."""
    grid = sol.u.grid
    r1, _ = semilinear._residual(assemble(grid), origin_weight_vector(grid),
                                 sol.u.values.ravel(), sol.kappa, sol.g_values, sol.eps)
    return float(np.max(np.abs(r1)))


def lu_newton(grid, g, eps):
    """Reference: bordered Newton at eps from the linear predictor, with full
    steps and sparse LU solves of the Jacobian, stopped by the absolute
    tolerance."""
    lap, A = assemble(grid), coo_assembly(grid)
    u0, kappa = initial_guess(grid, g, lap)
    u = u0.values.ravel()
    e = origin_weight_vector(grid)
    b1 = lap.lift(np.ones(grid.n_phi))
    areas = cell_arrays(lap).areas
    for _ in range(60):
        r1 = A @ u - areas * f_eps(u, eps) - lap.lift(g - kappa)
        r2 = float(e @ u)
        if np.max(np.abs(r1)) <= semilinear.NEWTON_TOL and abs(r2) <= semilinear.NEWTON_TOL:
            return u, kappa
        lu = spla.splu((A - sp.diags(areas * f_eps_prime(u, eps))).tocsc())
        w1, w2 = lu.solve(r1), lu.solve(b1)
        dkappa = (r2 - float(e @ w1)) / float(e @ w2)
        u, kappa = u - w1 - dkappa * w2, kappa + dkappa
    raise AssertionError("the LU Newton reference did not converge")


def bordered_laplacian(lap, e, b1):
    """P = [[A, b1], [e, 0]] as a sparse matrix."""
    return sp.bmat([[coo_assembly(lap.grid), sp.csc_matrix(b1[:, None])],
                    [sp.csr_matrix(e[None, :]), None]], format="csc")


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
    """f_eps is evaluated on the band alone (`_residual`)."""

    @pytest.mark.parametrize("eps", [0.2, 0.3, 0.0125, 3.125e-5, 7e-9])
    def test_band_source_is_the_dense_one_bit_for_bit(self, eps):
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
            r1, r2 = semilinear._residual(lap, e, u, 0.25, g, eps)
            assert r1.tobytes() == dense_residual(lap, u, 0.25, g, eps).tobytes()
            assert r2 == float(e @ u)


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


def predictor(k, M, n, eps):
    """(lap, flat linear predictor, its kappa, arc data) of a k-sector grid of n^2 cells."""
    grid = build_sector_grid(k, n, n)
    lap = assemble(grid)
    g = M * np.cos(k * grid.phi)
    u0, kappa = initial_guess(grid, g, lap)
    return lap, u0.values.ravel(), kappa, g


def counted_inverses(monkeypatch):
    """The sizes of the Laplacian inverses every operator applies from now on."""
    inverses = []
    apply_inverse = poisson.DiscreteLaplacian.apply_inverse

    def counted(lap, rhs):
        inverses.append(rhs.size)
        return apply_inverse(lap, rhs)

    monkeypatch.setattr(poisson.DiscreteLaplacian, "apply_inverse", counted)
    return inverses


def anderson_allocations(monkeypatch):
    """Shapes of the Anderson history arrays allocated from now on, and the
    least-squares solves of the mixing."""
    histories, solves = [], []
    empty, lstsq = np.empty, np.linalg.lstsq

    def recorded_empty(shape, *args, **kwargs):
        if np.ndim(shape) and len(shape) == 2 and shape[0] == semilinear.ANDERSON_DEPTH:
            histories.append(tuple(shape))
        return empty(shape, *args, **kwargs)

    def recorded_lstsq(a, b, *args, **kwargs):
        solves.append(a.shape)
        return lstsq(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "empty", recorded_empty)
    monkeypatch.setattr(np.linalg, "lstsq", recorded_lstsq)
    return histories, solves


class TestFixedPoint:
    def test_converges_quickly_from_linear_predictor(self):
        lap, u0, kappa, g = predictor(2, 40.0, 64, 0.2)
        u, kappa, iters, pde_res, origin_res = newton_stage(lap, u0, kappa, 0.2, g)
        assert iters <= 10
        assert pde_res <= semilinear.NEWTON_TOL
        assert origin_res <= semilinear.NEWTON_TOL

    @pytest.mark.parametrize("k, M, eps", [(2, 0.0, 0.2), (2, 40.0, 0.05), (3, 10.0, 0.0125),
                                           (4, 1.0, 3.125e-5)])
    def test_idempotent_on_converged_iterate(self, monkeypatch, k, M, eps):
        lap, u0, kappa, g = predictor(k, M, 64, eps)
        u, kappa, _, _, _ = newton_stage(lap, u0, kappa, eps, g)
        inverses = counted_inverses(monkeypatch)
        u2, kappa2, iters, _, _ = newton_stage(lap, u, kappa, eps, g)
        assert iters == 0 and inverses == []
        assert np.array_equal(u, u2) and kappa == kappa2

    @pytest.mark.parametrize("k, M, n, eps", [(2, 40.0, 64, 0.05), (3, 10.0, 64, 0.0125),
                                              (4, 1.0, 64, 3.125e-5)])
    def test_one_laplacian_inverse_per_step(self, monkeypatch, k, M, n, eps):
        # plain steps and mixed ones alike: the mixing solves a least-squares
        # problem of at most ANDERSON_DEPTH columns and applies no operator
        lap, u0, kappa, g = predictor(k, M, n, eps)
        inverses = counted_inverses(monkeypatch)
        _, _, iters, pde_res, origin_res = newton_stage(lap, u0, kappa, eps, g)
        assert iters >= 2 and inverses == [lap.grid.size] * iters
        assert max(pde_res, origin_res) <= semilinear.NEWTON_TOL

    def test_stage_without_band_takes_one_inverse_per_step(self, monkeypatch):
        # at eps = 1e-6 no cell centre of the 32^2 grid falls in (-eps, 0), so
        # each step's source is the sharp indicator of {u >= 0}
        lap, u0, kappa, g = predictor(2, 0.5, 32, 1e-6)
        bands, residual = [], semilinear._residual
        monkeypatch.setattr(semilinear, "_residual",
                            lambda lap, e, u, kappa, g, eps: bands.append(
                                np.count_nonzero((u > -eps) & (u < 0.0)))
                            or residual(lap, e, u, kappa, g, eps))
        inverses = counted_inverses(monkeypatch)
        _, _, iters, pde_res, origin_res = newton_stage(lap, u0, kappa, 1e-6, g)
        assert iters >= 2
        assert max(pde_res, origin_res) <= semilinear.NEWTON_TOL
        assert bands == [0] * (iters + 1) and len(inverses) == iters

    @pytest.mark.parametrize("k, M, eps", [(2, 40.0, 0.2), (4, 1.0, 0.2), (4, 1.0, 3.125e-5)])
    def test_last_step_stops_at_the_newton_tolerance(self, monkeypatch, k, M, eps):
        # every iterate before the returned one misses the tolerance, and
        # each is evaluated once
        lap, u0, kappa0, g = predictor(k, M, 32, eps)
        residuals, residual = [], semilinear._residual

        def recorded(*args):
            r1, r2 = residual(*args)
            residuals.append(max(float(np.max(np.abs(r1))), abs(r2)))
            return r1, r2

        monkeypatch.setattr(semilinear, "_residual", recorded)
        _, _, iters, pde_res, origin_res = newton_stage(lap, u0, kappa0, eps, g)
        assert len(residuals) == iters + 1
        assert residuals[-1] == max(pde_res, origin_res) <= semilinear.NEWTON_TOL
        assert min(residuals[:-1]) > semilinear.NEWTON_TOL

    @pytest.mark.parametrize("k, M, eps", [(2, 40.0, 0.05), (3, 10.0, 0.0125),
                                           (4, 1.0, 3.125e-5)])
    def test_returned_residuals_are_those_of_the_returned_iterate(self, k, M, eps):
        lap, u0, kappa0, g = predictor(k, M, 64, eps)
        u, kappa, _, pde_res, origin_res = newton_stage(lap, u0, kappa0, eps, g)
        r1, r2 = semilinear._residual(lap, origin_weight_vector(lap.grid), u, kappa, g, eps)
        assert pde_res == float(np.max(np.abs(r1)))
        assert origin_res == abs(r2)

    def test_start_is_left_as_it_was(self):
        lap, u0, kappa0, g = predictor(4, 1.0, 64, 3.125e-5)
        u0.flags.writeable = False
        start = u0.copy()
        u, _, iters, _, _ = newton_stage(lap, u0, kappa0, 3.125e-5, g)
        assert iters > 0 and u is not u0
        assert np.array_equal(u0, start)

    @pytest.mark.parametrize("shape", [(31,), (33,), (32, 1)])
    def test_arc_data_of_the_wrong_shape_is_rejected(self, monkeypatch, shape):
        lap, u0, kappa, _ = predictor(2, 40.0, 32, 0.2)
        inverses = counted_inverses(monkeypatch)
        with pytest.raises(ValueError, match=r"arc data must have shape \(32,\)"):
            newton_stage(lap, u0, kappa, 0.2, np.zeros(shape))
        assert inverses == []

    @pytest.mark.parametrize("k, M, eps", [(2, 40.0, 0.05), (3, 10.0, 0.0125),
                                           (4, 1.0, 3.125e-5)])
    def test_new_iterate_leaves_the_change_of_the_source_as_its_residual(
            self, monkeypatch, k, M, eps):
        """The map's step solves P x1 = [B g + area f_eps(u0); 0], so R1 of x1
        is area (f_eps(u0) - f_eps(u1)) and R2 vanishes, to rounding."""
        lap, u0, kappa0, g = predictor(k, M, 64, eps)
        e, e_sum = semilinear._pin_row(lap.grid)
        areas = cell_arrays(lap).areas
        rhs = np.append(lap.lift(g) + areas * f_eps(u0, eps), 0.0)
        x1 = semilinear._bordered_inverse(lap, e, e_sum, rhs)
        # the program's first step, the second iterate that it evaluates
        iterates, residual = [], semilinear._residual
        monkeypatch.setattr(semilinear, "_residual",
                            lambda lap, e, u, *args: iterates.append(u.copy())
                            or residual(lap, e, u, *args))
        newton_stage(lap, u0, kappa0, eps, g)
        assert len(iterates) > 2
        scale = float(np.max(np.abs(u0)))
        assert np.max(np.abs(iterates[1] - x1[:-1])) <= 1e-13 * scale
        r1, r2 = residual(lap, e, x1[:-1], x1[-1], g, eps)
        change = areas * (f_eps(u0, eps) - f_eps(x1[:-1], eps))
        assert np.max(np.abs(change)) > 1e3 * semilinear.NEWTON_TOL
        assert np.max(np.abs(r1 - change)) <= 1e-13 * float(np.max(lap.diag)) * scale
        assert abs(r2) <= 1e-15 * scale

    @pytest.mark.parametrize("k, M, n, eps", [(2, 1.0, 32, 0.0125), (2, 40.0, 96, 0.025),
                                              (3, 10.0, 128, 0.05), (4, 1.0, 64, 0.0125)])
    def test_converges_from_the_linear_predictor_to_the_lu_newton_solution(
            self, k, M, n, eps):
        grid = build_sector_grid(k, n, n)
        g = M * np.cos(k * grid.phi)
        sol = solve_fixed_point(grid, g, eps)
        u_ref, kappa_ref = lu_newton(grid, g, eps)
        assert sol.u.grid is grid and sol.eps == eps
        assert max(sol.pde_residual, sol.origin_residual) <= semilinear.NEWTON_TOL
        assert max_residual(sol) <= semilinear.NEWTON_TOL
        assert np.max(np.abs(sol.u.values.ravel() - u_ref)) <= 1e-9
        assert abs(sol.kappa - kappa_ref) <= 1e-9 * abs(kappa_ref)

    def test_cross_takes_four_inverses_and_never_mixes(self, monkeypatch):
        # the predictor and three plain steps, each contracting more than tenfold
        grid = build_sector_grid(2, 256, 256)
        inverses = counted_inverses(monkeypatch)
        histories, solves = anderson_allocations(monkeypatch)
        sol = solve_fixed_point(grid, lambda p: 40.0 * np.cos(2.0 * p), 0.0125)
        assert inverses == [grid.size] * 4 and sol.iterations == 3
        assert histories == [] and solves == []

    def test_mixing_starts_once_steps_stop_contracting_fast(self, monkeypatch):
        # the 128^2 asterisk at eps = 3.125e-5: plain steps take twice as many
        lap, u0, kappa0, g = predictor(4, 1.0, 128, 3.125e-5)
        histories, solves = anderson_allocations(monkeypatch)
        u, kappa, iters, _, _ = newton_stage(lap, u0, kappa0, 3.125e-5, g)
        size = lap.grid.size + 1
        assert histories == [(semilinear.ANDERSON_DEPTH, size)] * 2
        assert 0 < len(solves) < iters
        assert {s[1] for s in solves} == set(range(1, semilinear.ANDERSON_DEPTH + 1))
        monkeypatch.setattr(semilinear, "ANDERSON_START", np.inf)
        u_plain, kappa_plain, iters_plain, _, _ = newton_stage(lap, u0, kappa0, 3.125e-5, g)
        assert len(histories) == 2
        assert 2 * iters <= iters_plain
        assert abs(kappa - kappa_plain) <= 1e-9 * kappa_plain
        assert np.max(np.abs(u - u_plain)) <= 1e-9

    def test_asterisk_converges_below_the_eps_plain_steps_reach(self):
        # plain steps stall near this width on the 256^2 asterisk
        grid = build_sector_grid(4, 256, 256)
        sol = solve_fixed_point(grid, lambda p: np.cos(4.0 * p), 7.8125e-6)
        assert max(sol.pde_residual, sol.origin_residual) <= semilinear.NEWTON_TOL
        assert abs(eval_origin(sol.u)) <= 1e-8
        assert sol.iterations <= 60

    @pytest.mark.parametrize("cap", [1, 3, 7])
    def test_iteration_cap_fails_with_its_residual(self, monkeypatch, cap):
        monkeypatch.setattr(semilinear, "MAX_ITERATIONS", cap)
        lap, u0, kappa, g = predictor(4, 1.0, 64, 3.125e-5)
        inverses = counted_inverses(monkeypatch)
        with pytest.raises(StageFailed) as info:
            newton_stage(lap, u0, kappa, 3.125e-5, g)
        assert info.value.iterations == cap and len(inverses) == cap
        assert info.value.residual > semilinear.NEWTON_TOL
        assert info.value.reason == "iteration cap reached"

    def test_zero_cap_fails_before_any_inverse(self, monkeypatch):
        monkeypatch.setattr(semilinear, "MAX_ITERATIONS", 0)
        lap, u0, kappa, g = predictor(2, 40.0, 32, 0.2)
        inverses = counted_inverses(monkeypatch)
        with pytest.raises(StageFailed) as info:
            newton_stage(lap, u0, kappa, 0.2, g)
        assert info.value.iterations == 0 and inverses == []
        assert info.value.reason == "iteration cap reached"

    def test_converged_iterate_returns_under_a_zero_cap(self, monkeypatch):
        # the tolerance is tested before the cap
        lap, u0, kappa, g = predictor(2, 40.0, 32, 0.2)
        u, kappa, _, _, _ = newton_stage(lap, u0, kappa, 0.2, g)
        monkeypatch.setattr(semilinear, "MAX_ITERATIONS", 0)
        u2, kappa2, iters, _, _ = newton_stage(lap, u, kappa, 0.2, g)
        assert iters == 0 and np.array_equal(u, u2) and kappa == kappa2

    @pytest.mark.parametrize("where", ["u_nan", "u_inf", "u_minus_inf", "kappa_nan", "g_nan"])
    def test_non_finite_iterate_fails_at_once(self, monkeypatch, where):
        lap, u0, kappa, g = predictor(2, 40.0, 32, 0.2)
        inverses = counted_inverses(monkeypatch)
        bad = {"u_nan": np.nan, "u_inf": np.inf, "u_minus_inf": -np.inf}
        if where in bad:
            u0[100] = bad[where]
        elif where == "kappa_nan":
            kappa = np.nan
        else:
            g[5] = np.nan
        with pytest.raises(StageFailed) as info:
            newton_stage(lap, u0, kappa, 0.2, g)
        assert info.value.iterations == 0 and inverses == []
        assert not np.isfinite(info.value.residual)
        assert info.value.reason == "non-finite iterate"

    @pytest.mark.parametrize("k, M, eps, offset, kappa_offset", [
        (2, 40.0, 0.2, 1e-2, 0.0),
        (2, 40.0, 0.05, 1e-2, 0.0),
        (2, 40.0, 0.05, 0.0, 0.1),
        (4, 1.0, 0.1, -1e-2, 0.0),
    ])
    def test_start_off_the_pin_converges_to_the_lu_newton_solution(
            self, k, M, eps, offset, kappa_offset):
        # a nonzero offset starts off the pin u(0) = 0, a kappa offset off
        # the predictor's shift
        lap, u0, kappa0, g = predictor(k, M, 64, eps)
        u, kappa, iters, _, _ = newton_stage(lap, u0 + offset, kappa0 + kappa_offset, eps, g)
        u_ref, kappa_ref = lu_newton(lap.grid, g, eps)
        assert iters > 0
        assert np.max(np.abs(u - u_ref)) <= 1e-9
        assert abs(kappa - kappa_ref) <= 1e-9 * abs(kappa_ref)

    @pytest.mark.parametrize("shift", [0.5, -2.0, 10.0])
    def test_arc_data_shifted_by_a_constant_shifts_kappa_alone(self, shift):
        # only g - kappa enters the problem
        grid, g_fn, eps = cross_64()
        g = g_fn(grid.phi)
        sol = solve_fixed_point(grid, g, eps)
        shifted = solve_fixed_point(grid, g + shift, eps)
        assert shifted.kappa - sol.kappa == pytest.approx(shift, abs=1e-9)
        assert np.max(np.abs(shifted.u.values - sol.u.values)) <= 1e-9
        assert shifted.band_cells == sol.band_cells

    def test_unreachable_tolerance_fails_cleanly(self, monkeypatch):
        monkeypatch.setattr(semilinear, "MAX_ITERATIONS", 3)
        monkeypatch.setattr(semilinear, "NEWTON_TOL", 1e-30)
        lap, u0, kappa, g = predictor(2, 0.0, 32, 0.2)
        with pytest.raises(StageFailed):
            newton_stage(lap, u0, kappa, 0.2, g)

    def test_pin_row_is_the_origin_weights_on_their_support(self):
        for grid in (build_sector_grid(2, 8, 8), build_sector_grid(4, 64, 48), PolarGrid(40, 24)):
            e, e_sum = semilinear._pin_row(grid)
            full = origin_weight_vector(grid)
            assert np.array_equal(e, np.trim_zeros(full, "b"))
            assert e.size == 4 * grid.n_phi and e_sum == float(e.sum())

    @pytest.mark.parametrize("n", [32, 256])
    def test_bordered_inverse_inverts_bordered_laplacian(self, n):
        # normwise backward error |P x - v| / (|P| |x|), max norms: a plain
        # relative residual is bounded by cond(A) eps_mach, and at 256^2 even
        # a sparse LU solve of P leaves 4e-12 on a fixed-point residual
        lap, u0, kappa, g = predictor(2, 40.0, n, 0.05)
        grid = lap.grid
        e = origin_weight_vector(grid)
        b1 = lap.lift(np.ones(grid.n_phi))
        P = bordered_laplacian(lap, e, b1)
        p_norm = spla.norm(P, np.inf)
        r1, r2 = semilinear._residual(lap, e, u0, kappa, g, 0.05)
        rng = np.random.default_rng(7)
        for v in (np.append(r1, r2), rng.standard_normal(grid.size + 1),
                  np.append(b1, 1.0), np.append(np.zeros(grid.size), 1.0)):
            x = semilinear._bordered_inverse(lap, *semilinear._pin_row(grid), v)
            assert np.max(np.abs(P @ x - v)) <= 1e-12 * p_norm * np.max(np.abs(x))
            # in place, as each step applies it
            y = v.copy()
            assert semilinear._bordered_inverse(lap, *semilinear._pin_row(grid), y, out=y) is y
            assert np.array_equal(x, y)


def cross_64():
    """(grid, arc data, eps_min) of the 64^2 cross at eps = 0.05."""
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


class TestSolve:
    def test_coarse_cross_solution(self):
        sol = solve_fixed_point(*cross_64())
        assert sol.eps == 0.05
        assert 0 < sol.iterations <= 10
        assert abs(eval_origin(sol.u)) <= 1e-8
        assert 0.0 < sol.kappa < 0.26
        assert max_residual(sol) <= 1e-8
        u = sol.u.values
        assert sol.band_cells == np.count_nonzero((u > -sol.eps) & (u < 0.0)) > 0

    def test_disk_grids_are_rejected(self):
        with pytest.raises(ValueError):
            solve_fixed_point(PolarGrid(32, 32), lambda p: np.cos(2 * p))

    @pytest.mark.parametrize("eps_min", [0.3, 0.0, -0.1, np.nan, np.inf])
    def test_widths_outside_the_accepted_range_are_rejected(self, monkeypatch, eps_min):
        grid = build_sector_grid(2, 32, 32)
        inverses = counted_inverses(monkeypatch)
        with pytest.raises(ValueError, match="need 0 < eps_min <= eps_max = 0.2"):
            solve_fixed_point(grid, lambda p: np.cos(2 * p), eps_min)
        assert inverses == []

    def test_width_at_the_bound_is_accepted(self):
        grid = build_sector_grid(2, 32, 32)
        sol = solve_fixed_point(grid, lambda p: 40.0 * np.cos(2 * p), semilinear.EPS_MAX)
        assert sol.eps == semilinear.EPS_MAX == 0.2
        assert max(sol.pde_residual, sol.origin_residual) <= semilinear.NEWTON_TOL

    def test_solution_keeps_its_arc_data_and_label(self):
        grid, g_fn, eps_min = cross_64()
        sol = solve_fixed_point(grid, g_fn, eps_min, g_label="40*cos(2*phi)")
        assert sol.g_label == "40*cos(2*phi)"
        assert np.array_equal(sol.g_values, g_fn(grid.phi))
        assert sol.g_values.shape == (grid.n_phi,)

    def test_failure_names_the_solve(self, monkeypatch, solutions_built):
        monkeypatch.setattr(semilinear, "MAX_ITERATIONS", 2)
        monkeypatch.setattr(semilinear, "NEWTON_TOL", 1e-30)
        grid = build_sector_grid(2, 32, 32)
        with pytest.raises(StageFailed) as info:
            solve_fixed_point(grid, lambda p: np.cos(2 * p), 0.2)
        assert info.value.eps == 0.2
        assert info.value.iterations == 2
        assert info.value.reason == "iteration cap reached"
        assert (info.value.n_r, info.value.n_phi) == (32, 32)
        assert "on 32x32 cells" in str(info.value)
        assert solutions_built == []

    def test_solution_is_built_once(self, solutions_built):
        sol = solve_fixed_point(*cross_64())
        assert solutions_built == [sol]


def cross_96(M=40.0):
    """(grid, arc data, eps_min) of the 96^2 cross."""
    return build_sector_grid(2, 96, 96), lambda p: M * np.cos(2.0 * p), 0.025


def assert_same_solution(sol, ref):
    assert sol.u.values.tobytes() == ref.u.values.tobytes()
    assert (sol.kappa, sol.pde_residual, sol.iterations) == \
        (ref.kappa, ref.pde_residual, ref.iterations)


def store_bytes():
    return sum(map(poisson._nbytes, poisson._store.values()))


class TestSolverMemory:
    """The store of each grid shape's operator arrays (`poisson._store`)
    stays within its bound and carries nothing from one solve into the
    next."""

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
        grids = [build_sector_grid(2, n, n) for n in (24, 48, 96)]
        g = lambda p: 40.0 * np.cos(2.0 * p)  # noqa: E731
        first = [solve_fixed_point(grid, g, 0.05) for grid in grids]
        assert list(poisson._store) == grids  # least recently used first
        held = {grid: poisson._nbytes(kept) for grid, kept in poisson._store.items()}
        # the two finest shapes fit, not all three
        bound = held[grids[1]] + held[grids[2]]
        monkeypatch.setattr(poisson, "STORE_BYTES", bound)
        poisson._store.clear()
        for grid, sol in zip(grids, first):
            assert_same_solution(solve_fixed_point(grid, g, 0.05), sol)
        assert list(poisson._store) == grids[1:] and store_bytes() <= bound
        # the next solve builds the evicted shape again, within the bound
        assert_same_solution(solve_fixed_point(grids[0], g, 0.05), first[0])
        assert list(poisson._store) == [grids[2], grids[0]] and store_bytes() <= bound

    def test_shape_over_the_bound_is_not_kept(self, monkeypatch):
        grid, g, eps_min = cross_96()
        first = solve_fixed_point(grid, g, eps_min)
        bound = poisson._nbytes(poisson._store[grid]) - 1
        monkeypatch.setattr(poisson, "STORE_BYTES", bound)
        poisson._store.clear()
        assert_same_solution(solve_fixed_point(grid, g, eps_min), first)
        assert grid not in poisson._store and store_bytes() <= bound

    def test_store_keeps_the_operator_arrays_alone(self):
        grid, g, eps_min = cross_64()
        solve_fixed_point(grid, g, eps_min)
        lap = assemble(grid)
        assert list(poisson._store) == [grid]
        kept = poisson._store[grid]
        assert len(kept) == 6
        assert all(a is b for a, b in zip(kept, (lap.radial, lap.angular, lap.diag,
                                                 lap.arc_coeff, lap.areas, lap.modes)))
        assert store_bytes() == poisson._nbytes(poisson._level_arrays(grid))

    def test_bound_holds_a_2048_grid(self):
        # from the shapes alone: the operator arrays of `_level_arrays` (per
        # ring radial: n_r - 1, diag: 2 n_r and areas: n_r; per cell angular
        # and the factor e: size - 1 and the factor d: size)
        level = build_sector_grid(4, 512, 8)
        assert 8 * (3 * level.size + 4 * level.n_r - 3) == poisson._nbytes(
            poisson._level_arrays(level))
        # criterion 7's 65536 x 8 asterisk and one 2048^2 grid fit, a 4096^2 does not
        for n_r, n_phi, mib in ((65536, 8, 14), (2048, 2048, 96)):
            nbytes = 8 * (3 * n_r * n_phi + 4 * n_r - 3)
            assert round(nbytes / 2**20) == mib and nbytes <= poisson.STORE_BYTES
        assert 8 * 3 * 4096**2 > poisson.STORE_BYTES

    def test_cold_solve_stays_within_its_heap_bound(self):
        # the cold 256^2 cross allocates what it keeps in the store (1.5 MiB)
        # and its transients: a tracemalloc peak of 5.03 MiB
        grid = build_sector_grid(2, 256, 256)
        g = 40.0 * np.cos(2.0 * grid.phi)
        tracemalloc.start()
        try:
            solve_fixed_point(grid, g, 0.0125)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20

    def test_threads_solving_one_shape_at_once_match_a_serial_solve(self):
        # three threads, so that on two cores they also compete for a core;
        # the asterisk mixes, so each thread also holds Anderson history
        grid = build_sector_grid(4, 64, 64)
        g = lambda p: np.cos(4.0 * p)  # noqa: E731
        serial = solve_fixed_point(grid, g, 3.125e-5)
        results = [[], [], []]
        all_start = threading.Barrier(3, timeout=30)

        def solve_at_once(i):
            all_start.wait()
            for _ in range(3):
                results[i].append(solve_fixed_point(build_sector_grid(4, 64, 64), g, 3.125e-5))

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
        assert [len(r) for r in results] == [3, 3, 3]
        for sol in sum(results, []):
            assert_same_solution(sol, serial)


class TestExport:
    def test_field_is_written_once_as_vtk(self, tmp_path):
        u = field_from_function(build_sector_grid(2, 32, 16), lambda r, p: r**2 * np.cos(2 * p))
        sol = Solution(u=u, kappa=0.125, eps=0.05, pde_residual=0.0, origin_residual=0.0,
                       iterations=2, g_values=np.zeros(16))
        paths = export_solution(sol, tmp_path)
        assert [os.path.basename(p) for p in paths] == ["solution.vtk", "solution.json"]
        assert sorted(f.name for f in tmp_path.iterdir()) == ["solution.json", "solution.vtk"]
        assert not list(tmp_path.glob("*.csv"))
        assert np.array_equal(read_field(paths[0]).values, u.values)

    def test_sidecar_records_the_solver(self, tmp_path):
        grid, g, eps_min = cross_64()
        sol = solve_fixed_point(grid, g, eps_min)
        paths = export_solution(sol, tmp_path)
        with open(paths[-1], encoding="utf-8") as f:
            sidecar = json.loads(f.read())
        assert set(sidecar) == {"k", "n_r", "n_phi", "g_label", "kappa", "eps", "iterations",
                                "pde_residual", "origin_residual", "band_cells"}
        assert (sidecar["iterations"], sidecar["band_cells"]) == (sol.iterations, sol.band_cells)
        assert (sidecar["n_r"], sidecar["n_phi"], sidecar["eps"]) == (64, 64, 0.05)
