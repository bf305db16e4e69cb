"""Zero-set extraction: circle crossings, marching, and origin-arc fits."""

import json
import math

import numpy as np
import pytest

from conftest import degree2_field

import unstablefb.freeboundary as freeboundary
from unstablefb import (
    ContinuationConfig,
    ScalarField,
    build_disk_grid,
    build_sector_grid,
    crossing_angles,
    extract_zero_set,
    field_from_function,
    fit_arcs_at_origin,
    solve_fixed_point,
    write_arcs_json,
    write_levelset_csv,
)
from unstablefb.mesh import reflect_to_disk

DIAGONALS = np.array([1.0, 3.0, 5.0, 7.0]) * math.pi / 4.0


class TestCrossingAngles:
    def test_single_mode_has_two_crossings(self, disk256):
        u = field_from_function(disk256, lambda r, p: r * np.cos(p))
        got = crossing_angles(u, 0.5)
        assert got.shape == (2,)
        assert np.max(np.abs(got - [math.pi / 2, 3 * math.pi / 2])) < 1e-4

    def test_degree2_mode_crosses_on_diagonals(self, disk256):
        got = crossing_angles(degree2_field(disk256), 0.5)
        assert got.shape == (4,)
        assert np.max(np.abs(got - DIAGONALS)) < 1e-4

    def test_positive_field_has_none(self, disk64):
        u = field_from_function(disk64, lambda r, p: 1.0 + r**2)
        assert crossing_angles(u, 0.5).size == 0

    def test_angles_are_sorted(self, disk256):
        got = crossing_angles(degree2_field(disk256), 0.3)
        assert np.all(np.diff(got) > 0.0)


class TestMarching:
    def test_diameter_line(self, disk256):
        """{x = 0} meets the grid as two radial chains of length ~1 each."""
        u = field_from_function(disk256, lambda r, p: r * np.cos(p))
        ls = extract_zero_set(u)
        assert len(ls.polylines) == 2
        assert sum(ls.lengths) == pytest.approx(2.0, rel=0.03)
        for line in ls.polylines:
            assert np.max(np.abs(line[:, 0])) < 1e-2  # sits on the y axis

    def test_cross_pattern(self, disk256):
        u = degree2_field(disk256)
        ls = extract_zero_set(u)
        assert len(ls.polylines) == 4
        for length in ls.lengths:
            assert 0.9 < length < 1.05
        assert np.max(np.abs(crossing_angles(u, 0.5) - DIAGONALS)) < 1e-4
        # each chain hugs one diagonal: x^2 - y^2 = r^2 cos(2 phi) vanishes
        for line in ls.polylines:
            assert np.max(np.abs(np.abs(line[:, 0]) - np.abs(line[:, 1]))) < 1e-2

    def test_circle_zero_set(self, disk256):
        """{|x| = 1/2} closes into a single loop of length pi."""
        u = field_from_function(disk256, lambda r, p: r - 0.5)
        ls = extract_zero_set(u)
        assert len(ls.polylines) == 1
        assert ls.lengths[0] == pytest.approx(math.pi, rel=1e-3)
        loop = ls.polylines[0]
        assert np.allclose(loop[0], loop[-1])  # closed
        radii = np.hypot(loop[:, 0], loop[:, 1])
        assert np.max(np.abs(radii - 0.5)) < 1e-3

    def test_sign_definite_field_has_empty_zero_set(self, disk64):
        u = field_from_function(disk64, lambda r, p: 1.0 + r)
        ls = extract_zero_set(u)
        assert ls.polylines == [] and ls.lengths == []


def reference_march(disk):
    """The per-cell marching loop that the case-table _march replaced, kept
    verbatim as its oracle."""
    vals = disk.values
    g = disk.grid
    n_r, n_phi = g.shape
    r_nodes = g.r
    phi_nodes = g.phi

    edge_point: dict[tuple, tuple[float, float]] = {}

    def cross_r(i, j):
        """Crossing on the radial edge (i,j)-(i+1,j), logical coords."""
        key = ("r", i, j)
        if key not in edge_point:
            v0, v1 = vals[i, j], vals[i + 1, j]
            t = v0 / (v0 - v1)
            edge_point[key] = (r_nodes[i] + t * g.dr, phi_nodes[j])
        return key

    def cross_a(i, j):
        """Crossing on the angular edge (i,j)-(i,j+1 mod n)."""
        key = ("a", i, j)
        if key not in edge_point:
            v0, v1 = vals[i, j], vals[i, (j + 1) % n_phi]
            t = v0 / (v0 - v1)
            edge_point[key] = (r_nodes[i], phi_nodes[j] + t * g.dphi)
        return key

    inside = vals > 0.0
    segments: list[tuple[tuple, tuple]] = []
    for i in range(n_r - 1):
        for j in range(n_phi):
            jn = (j + 1) % n_phi
            s00, s10 = inside[i, j], inside[i + 1, j]
            s01, s11 = inside[i, jn], inside[i + 1, jn]
            if s00 == s10 == s01 == s11:
                continue
            edges = []
            if s00 != s10:
                edges.append(cross_r(i, j))
            if s01 != s11:
                edges.append(cross_r(i, jn))
            if s00 != s01:
                edges.append(cross_a(i, j))
            if s10 != s11:
                edges.append(cross_a(i + 1, j))
            if len(edges) == 2:
                segments.append((edges[0], edges[1]))
            elif len(edges) == 4:
                # saddle: corner average picks which diagonal the set hugs
                center_in = vals[i, j] + vals[i + 1, j] + vals[i, jn] + vals[i + 1, jn] > 0.0
                left, right = cross_r(i, j), cross_r(i, jn)
                bottom, top = cross_a(i, j), cross_a(i + 1, j)
                if center_in == s00:
                    segments.append((left, top))
                    segments.append((bottom, right))
                else:
                    segments.append((left, bottom))
                    segments.append((top, right))

    # chain segments into polylines by shared edges
    adjacency: dict[tuple, list[int]] = {}
    for sid, (e1, e2) in enumerate(segments):
        adjacency.setdefault(e1, []).append(sid)
        adjacency.setdefault(e2, []).append(sid)

    used = [False] * len(segments)

    def walk(start_edge) -> list[tuple]:
        chain = [start_edge]
        edge = start_edge
        while True:
            nxt = [s for s in adjacency[edge] if not used[s]]
            if not nxt:
                break
            sid = nxt[0]
            used[sid] = True
            e1, e2 = segments[sid]
            edge = e2 if e1 == edge else e1
            chain.append(edge)
            if edge == start_edge:
                break
        return chain

    chains: list[list[tuple]] = []
    open_edges = [e for e, sids in adjacency.items() if len(sids) == 1]
    for e in open_edges:
        if any(not used[s] for s in adjacency[e]):
            chains.append(walk(e))
    for sid in range(len(segments)):
        if not used[sid]:
            used[sid] = True
            e1, e2 = segments[sid]
            chain = walk(e2)
            chains.append([e1] + chain)

    polylines: list[np.ndarray] = []
    lengths: list[float] = []
    for chain in chains:
        pts = np.array(
            [
                (rp * math.cos(ph), rp * math.sin(ph))
                for rp, ph in (edge_point[e] for e in chain)
            ]
        )
        polylines.append(pts)
        lengths.append(float(np.sum(np.hypot(*np.diff(pts, axis=0).T))) if len(pts) > 1 else 0.0)
    return polylines, lengths


def assert_marches_like_reference(disk):
    polylines, lengths = freeboundary._march(disk)
    ref_polylines, ref_lengths = reference_march(disk)
    assert len(polylines) == len(ref_polylines)
    for got, ref in zip(polylines, ref_polylines):
        assert np.array_equal(got, ref)
    assert lengths == ref_lengths


class TestMarchingOracle:
    """The case-table march reproduces the per-cell loop bit for bit: the
    same polylines in the same order, walked from the same ends."""

    @pytest.mark.parametrize("shape", [(64, 64), (40, 24)])
    @pytest.mark.parametrize("seed", range(3))
    def test_standard_normal_fields(self, shape, seed):
        """About 100 to 500 saddles per field, open chains and closed loops."""
        values = np.random.default_rng(seed).standard_normal(shape)
        assert_marches_like_reference(ScalarField(build_disk_grid(*shape), values))

    @pytest.mark.parametrize("seed", range(3))
    def test_integer_fields_with_exact_zeros(self, seed):
        """Zero counts as outside, and a corner sum of exactly zero too."""
        values = np.random.default_rng(seed).integers(-1, 2, (40, 24)).astype(float)
        assert np.any(values == 0.0)
        assert_marches_like_reference(ScalarField(build_disk_grid(40, 24), values))

    def test_sign_definite_field(self, disk64):
        assert_marches_like_reference(field_from_function(disk64, lambda r, p: 1.0 + r))

    def test_reflected_cross_solution(self):
        sol = solve_fixed_point(build_sector_grid(2, 96, 96), lambda p: 40.0 * np.cos(2.0 * p),
                                ContinuationConfig(eps_min=0.05))
        assert_marches_like_reference(reflect_to_disk(sol.u))


class TestArcFit:
    def test_cross_limits_on_diagonals(self, disk256):
        fit = fit_arcs_at_origin(degree2_field(disk256), [0.3, 0.25, 0.2, 0.15, 0.1, 0.05])
        assert len(fit.limit_angles) == 4
        assert not fit.topology_change
        assert np.max(np.abs(fit.limit_angles - DIAGONALS)) < 1e-3
        assert np.allclose(fit.gaps, math.pi / 2, atol=2e-3)
        assert fit.angle_table.shape == (4, 6)

    def test_radii_sorted_descending(self, disk256):
        fit = fit_arcs_at_origin(degree2_field(disk256), [0.05, 0.3, 0.2])  # any order accepted
        assert np.all(np.diff(fit.radii) < 0.0)

    def test_lifted_saddle_truncates_at_topology_change(self, disk256):
        """r^2 cos(2 phi) + c has four crossings only while r^2 >= c."""
        u = field_from_function(disk256,
                                lambda r, p: r**2 * np.cos(2.0 * p) + 0.01)
        fit = fit_arcs_at_origin(u, [0.3, 0.2, 0.15, 0.05])
        assert fit.topology_change
        assert np.array_equal(fit.radii, [0.3, 0.2, 0.15])
        assert len(fit.limit_angles) == 4

    def test_no_crossings_is_an_error(self, disk64):
        u = field_from_function(disk64, lambda r, p: 1.0 + r**2)
        with pytest.raises(ValueError):
            fit_arcs_at_origin(u, [0.3, 0.2])

    def test_needs_two_radii(self, disk256):
        with pytest.raises(ValueError):
            fit_arcs_at_origin(degree2_field(disk256), [0.3])


class TestExport:
    def test_levelset_csv(self, tmp_path, disk256):
        ls = extract_zero_set(degree2_field(disk256))
        path = tmp_path / "fb.csv"
        write_levelset_csv(ls, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "polyline,vertex,x,y"
        assert len(lines) == 1 + sum(len(p) for p in ls.polylines)

    def test_arcs_json(self, tmp_path, disk256):
        fit = fit_arcs_at_origin(degree2_field(disk256), [0.3, 0.2, 0.1])
        path = tmp_path / "arcs.json"
        write_arcs_json(fit, path)
        data = json.loads(path.read_text())
        assert len(data["limit_angles_deg"]) == 4
        assert data["topology_change"] is False
