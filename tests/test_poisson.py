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

import unstablefb
from unstablefb import SolverError

from conftest import coo_assembly, degree2_field

from unstablefb import (
    assemble,
    build_disk_grid,
    build_sector_grid,
    eval_origin,
    field_from_function,
    solve,
)


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
        assert np.all(np.abs(lap.apply(np.abs(x), magnitude=True) - scale) <= 1e-15 * scale)

    def test_product_is_bitwise_that_of_the_matrix(self):
        grid = build_sector_grid(2, 256, 256)
        lap, ref = assemble(grid), coo_assembly(grid)
        x = np.random.default_rng(5).standard_normal(grid.size)
        x[::3] = 0.0
        assert np.array_equal(lap.apply(x), ref @ x)
        assert np.array_equal(lap.apply(np.abs(x), magnitude=True), abs(ref) @ np.abs(x))

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
            assemble(build_disk_grid(16, 16))


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
    rhs = lap.lift(g_arc(g.phi)) - lap.areas * F(g.r[:, None], g.phi[None, :]).ravel()
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
