"""Linear solver tests against manufactured solutions.

Two exact references: the radially symmetric response (1 - r^2)/4 to a
unit sink with zero rim data, and the harmonic extension r^2 cos(2 phi)
of its own rim trace on the quarter sector.  Solves happen on sector
grids; disk fields arise later by reflection.  The separable fast solver
is also checked against a sparse LU factorization of the oracle matrix.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy.fft import dct, idct
from scipy.linalg.lapack import dpttrs

import unstablefb
from unstablefb.poisson import SolverError, solve
from unstablefb.semilinear import _smoothstep

from conftest import cell_arrays, coo_assembly, degree2_field, f_eps_oracle

from unstablefb import (
    PolarGrid,
    assemble,
    build_sector_grid,
    eval_origin,
)
from unstablefb.field import field_from_function


def torsion_error(n: int) -> float:
    g = build_sector_grid(2, n, n)
    u = solve(assemble(g), F=-1.0)
    exact = (1.0 - g.r**2) / 4.0
    return float(np.max(np.abs(u.values - exact[:, None])))


def harmonic_error(n: int) -> float:
    g = build_sector_grid(2, n, n)
    u = solve(assemble(g), g_arc=lambda p: np.cos(2.0 * p))
    exact = degree2_field(g)
    return float(np.max(np.abs(u.values - exact.values)))


class TestAssembly:
    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("n_r, n_phi", [(32, 32), (64, 8), (8, 64), (40, 24), (4096, 8)])
    def test_csr_matches_coo_assembly(self, k, n_r, n_phi):
        # the stencil product sums each row as a sorted CSR product does
        grid = build_sector_grid(k, n_r, n_phi)
        lap, ref = assemble(grid), coo_assembly(grid)
        x = np.random.default_rng(n_r + n_phi).standard_normal(grid.size)
        scale = abs(ref) @ np.abs(x)
        assert np.all(np.abs(lap.apply(x) - ref @ x) <= 1e-15 * scale)

    def test_product_is_bitwise_that_of_the_matrix(self):
        grid = build_sector_grid(2, 256, 256)
        lap, ref = assemble(grid), coo_assembly(grid)
        x = np.random.default_rng(5).standard_normal(grid.size)
        x[::3] = 0.0
        assert np.array_equal(lap.apply(x), ref @ x)

    @pytest.mark.parametrize("k, n_r, n_phi", [(2, 64, 8), (4, 8, 64), (2, 8, 8), (4, 4096, 8)])
    def test_product_keeps_the_matrix_signed_zeros_on_thin_grids(self, k, n_r, n_phi):
        # at n_phi = 8 the edge columns, where the per-ring diagonal takes its
        # edge value, are a quarter of the cells; at n_r = 8 the inner ring and
        # the arc ring, whose sums start differently, are a quarter of the rings
        grid = build_sector_grid(k, n_r, n_phi)
        lap, ref = assemble(grid), coo_assembly(grid)
        rng = np.random.default_rng(n_r * n_phi)
        mixed = rng.standard_normal(grid.size)
        mixed[::3] = 0.0
        mixed[1::7] = -0.0
        zeros = np.where(rng.random(grid.size) < 0.5, 0.0, -0.0)
        for x in (frozen(mixed), frozen(zeros)):
            assert_bitwise(lap.apply(x), ref @ x)

    def test_matrix_is_symmetric(self):
        for k in (1, 2, 4):
            lap = assemble(build_sector_grid(k, 16, 16))
            A = np.column_stack([lap.apply(col) for col in np.eye(lap.grid.size)])
            assert np.max(np.abs(A - A.T)) < 1e-15

    def test_matrix_is_positive_definite(self):
        lap = assemble(build_sector_grid(2, 16, 16))
        rng = np.random.default_rng(3)
        for _ in range(5):
            v = rng.standard_normal(lap.grid.size)
            assert v @ lap.apply(v) > 0.0

    def test_src_imports_no_scipy_sparse(self):
        # the program's own import statements, whatever scipy itself loads
        found = []
        for path in Path(unstablefb.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module:
                    names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
                else:
                    continue
                found += [f"{path.name}: {n}" for n in names
                          if n == "scipy.sparse" or n.startswith("scipy.sparse.")]
        assert found == []

    def test_periodic_grids_are_rejected(self):
        with pytest.raises(ValueError):
            assemble(PolarGrid(16, 16))


class TestTorsion:
    def test_center_value(self):
        g = build_sector_grid(2, 256, 256)
        u = solve(assemble(g), F=-1.0)
        assert eval_origin(u) == pytest.approx(0.25, abs=1e-3)

    def test_second_order_convergence(self):
        errs = [torsion_error(n) for n in (16, 32, 64)]
        ratios = [a / b for a, b in zip(errs, errs[1:])]
        assert all(3.5 <= q <= 4.5 for q in ratios), ratios


class TestHarmonic:
    def test_pointwise_error_small(self):
        assert harmonic_error(64) < 2e-4

    def test_second_order_convergence(self):
        errs = [harmonic_error(n) for n in (16, 32, 64)]
        ratios = [a / b for a, b in zip(errs, errs[1:])]
        assert all(3.5 <= q <= 4.5 for q in ratios), ratios

    def test_neumann_edges_respected(self):
        """The edge-even rim data has zero angular flux at both edges."""
        g = build_sector_grid(2, 32, 32)
        u = solve(assemble(g), g_arc=lambda p: np.cos(2.0 * p))
        # first and last angular columns straddle the mirror lines; for an
        # even solution their values match the next column inward closely
        assert np.max(np.abs(u.values[:, 0] - u.values[:, 1])) < 2e-2


def lu_oracle(lap, F, g_arc):
    """Reference solve: sparse LU of the oracle matrix."""
    g = lap.grid
    rhs = lap.lift(g_arc(g.phi)) - cell_arrays(lap).areas * F(g.r[:, None], g.phi[None, :]).ravel()
    return spla.splu(coo_assembly(g)).solve(rhs).reshape(g.shape)


class TestBackends:
    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("n_r, n_phi", [(32, 32), (64, 8), (8, 64), (40, 24)])
    def test_agrees_with_lu_oracle(self, k, n_r, n_phi):
        g = build_sector_grid(k, n_r, n_phi)
        lap = assemble(g)
        F = lambda r, p: np.cos(3.0 * p) * r - 1.0  # noqa: E731
        g_arc = lambda p: 1.0 + np.cos(k * p) + 0.3 * np.sin(5.0 * p)  # noqa: E731
        u = solve(lap, F=field_from_function(g, F), g_arc=g_arc)
        assert np.max(np.abs(u.values - lu_oracle(lap, F, g_arc))) <= 1e-9

    def test_repeat_solves_are_bit_identical(self):
        lap = assemble(build_sector_grid(2, 48, 40))
        rhs = np.random.default_rng(5).standard_normal(lap.grid.size)
        assert np.array_equal(lap.apply_inverse(rhs), lap.apply_inverse(rhs))

    def test_stagnation_raises_with_residual(self):
        lap = assemble(build_sector_grid(2, 16, 16))
        with pytest.raises(SolverError) as info:
            solve(lap, F=-1.0, tol=0.0)
        assert 0.0 < info.value.residual < 1e-12

    def test_rhs_forms_are_equivalent(self):
        g = build_sector_grid(2, 16, 16)
        lap = assemble(g)
        u_scalar = solve(lap, F=-1.0)
        u_array = solve(lap, F=-np.ones(g.size))
        u_field = solve(lap, F=field_from_function(g, lambda r, p: -np.ones_like(r)))
        assert np.array_equal(u_scalar.values, u_array.values)
        assert np.array_equal(u_scalar.values, u_field.values)

    def test_zero_data_gives_zero_solution(self):
        u = solve(assemble(build_sector_grid(2, 16, 16)))
        assert np.max(np.abs(u.values)) == 0.0


# --- the kernels before they ran in place, kept as bitwise oracles -------


def apply_oracle(lap, x):
    n_phi, cells = lap.grid.n_phi, cell_arrays(lap)
    y = np.zeros(x.size)
    np.subtract(y[n_phi:], cells.radial * x[:-n_phi], out=y[n_phi:])
    np.subtract(y[1:], cells.angular * x[:-1], out=y[1:])
    y += cells.diag * x
    np.subtract(y[:-1], cells.angular * x[1:], out=y[:-1])
    np.subtract(y[:-n_phi], cells.radial * x[n_phi:], out=y[:-n_phi])
    return y


def apply_inverse_oracle(lap, rhs):
    n_r, n_phi = lap.grid.shape
    d, e = lap.modes
    coef = dct(rhs.reshape(n_r, n_phi), type=2, axis=1, norm="ortho", workers=1)
    x, _ = dpttrs(d, e, coef.T.reshape(-1, 1))
    x = x.reshape(n_phi, n_r).T
    return idct(x, type=2, axis=1, norm="ortho", workers=1).ravel()


def former_apply_inverse(lap, rhs):
    """The inverse with its mode-major copy: the DCT cell-major, a
    transposed copy for the tridiagonal solve, and the solution copied back."""
    n_r, n_phi = lap.grid.shape
    d, e = lap.modes
    coef = dct(rhs.reshape(n_r, n_phi), type=2, axis=1, norm="ortho", workers=1)
    x, _ = dpttrs(d, e, coef.T.reshape(-1, 1), overwrite_b=True)
    np.copyto(coef, x.reshape(n_phi, n_r).T)
    return idct(coef, type=2, axis=1, norm="ortho", workers=1, overwrite_x=True).ravel()


def assert_bitwise(a, b):
    """Same shape, dtype and bytes: signed zeros and NaN payloads count."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def frozen(x):
    """A read-only copy of x: a kernel that writes into its input raises."""
    x = x.copy()
    x.flags.writeable = False
    return x


class TestInPlaceKernels:
    @pytest.mark.parametrize("n_r, n_phi", [(256, 256), (97, 96), (4096, 8), (8, 64)])
    def test_operator_kernels_match_their_oracles(self, n_r, n_phi):
        lap = assemble(build_sector_grid(2, n_r, n_phi))
        rng = np.random.default_rng(n_r * n_phi)
        x = rng.standard_normal(lap.grid.size)
        x[::3] = 0.0
        x[1::7] = -0.0
        x = frozen(x)
        before = x.copy()
        assert_bitwise(lap.apply(x), apply_oracle(lap, x))
        assert_bitwise(lap.apply_inverse(x), apply_inverse_oracle(lap, x))
        assert_bitwise(x, before)

    @pytest.mark.parametrize("n_r, n_phi", [(256, 256), (8, 64)])
    def test_stencil_sums_of_signed_zeros_match_the_oracle(self, n_r, n_phi):
        # every row sums zeros alone, so only the sum's start decides its sign
        lap = assemble(build_sector_grid(2, n_r, n_phi))
        rng = np.random.default_rng(n_r)
        x = frozen(np.where(rng.random(lap.grid.size) < 0.5, 0.0, -0.0))
        assert_bitwise(lap.apply(x), apply_oracle(lap, x))

    @pytest.mark.parametrize("n_r, n_phi", [(256, 256), (64, 200), (33, 17), (4096, 8)])
    def test_transpose_free_inverse_matches_the_former_kernel(self, n_r, n_phi):
        lap = assemble(build_sector_grid(2, n_r, n_phi))
        rng = np.random.default_rng(n_r + 3 * n_phi)
        x = rng.standard_normal(lap.grid.size)
        x[::5] = -0.0
        x = frozen(x)
        y = lap.apply_inverse(x)
        assert y.flags.c_contiguous
        assert_bitwise(y, former_apply_inverse(lap, x))
        assert_bitwise(lap.apply_inverse(frozen(lap.apply(x))),
                       former_apply_inverse(lap, lap.apply(x)))

    @pytest.mark.parametrize("n_r, n_phi", [(256, 256), (97, 96), (4096, 8), (8, 64)])
    @pytest.mark.parametrize("eps", [0.2, 3.125e-5])
    def test_indicator_kernels_match_their_oracles(self, n_r, n_phi, eps):
        # both plateaus, the band between and its ends, signed zeros included
        z = np.random.default_rng(n_r + n_phi).uniform(-2.0 * eps, eps, n_r * n_phi)
        z[:4] = [-eps, 0.0, -0.0, -0.5 * eps]
        z = frozen(z.reshape(n_r, n_phi))
        before = z.copy()
        assert_bitwise(_smoothstep(z / eps + 1.0), f_eps_oracle(z, eps))
        assert_bitwise(z, before)
