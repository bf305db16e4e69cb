"""Zero-set extraction: circle crossings, marching, and origin-arc fits."""

import json
import math

import numpy as np
import pytest

from conftest import degree2_field

import unstablefb.freeboundary as freeboundary
from unstablefb import (
    PolarGrid,
    ScalarField,
    build_sector_grid,
    extract_zero_set,
    fit_arcs_at_origin,
    solve_fixed_point,
    write_arcs_json,
    write_levelset_csv,
)
from unstablefb.field import field_from_function
from unstablefb.freeboundary import LevelSet, crossing_angles
from unstablefb.mesh import TWO_PI, reflect_to_disk

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
    verbatim as its oracle but for the polar-to-Cartesian step, which takes
    np.cos and np.sin of each polyline's angles as _march takes them of all."""
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
        rp, ph = (np.array(c) for c in zip(*(edge_point[e] for e in chain)))
        pts = np.column_stack([rp * np.cos(ph), rp * np.sin(ph)])
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
        assert_marches_like_reference(ScalarField(PolarGrid(*shape), values))

    @pytest.mark.parametrize("seed", range(3))
    def test_integer_fields_with_exact_zeros(self, seed):
        """Zero counts as outside, and a corner sum of exactly zero too."""
        values = np.random.default_rng(seed).integers(-1, 2, (40, 24)).astype(float)
        assert np.any(values == 0.0)
        assert_marches_like_reference(ScalarField(PolarGrid(40, 24), values))

    def test_sign_definite_field(self, disk64):
        assert_marches_like_reference(field_from_function(disk64, lambda r, p: 1.0 + r))

    def test_reflected_cross_solution(self, cross96):
        assert_marches_like_reference(reflect_to_disk(cross96))


@pytest.fixture(scope="module")
def cross96():
    return solve_fixed_point(build_sector_grid(2, 96, 96), lambda p: 40.0 * np.cos(2.0 * p),
                             0.05).u


# vertices of the sector march within this of the disk march's (max norm)
VERTEX_TOL = 1e-14


def _same_line(pts, ref, start):
    """pts is ref walked from its vertex start, either way round; a closed
    ref, whose last vertex repeats its first, may be walked from any vertex."""
    if len(pts) != len(ref):
        return False
    if np.array_equal(ref[0], ref[-1]) and len(ref) > 1:
        loop = ref[:-1]
        steps = np.arange(len(ref))
        walks = [loop[(start + steps) % len(loop)], loop[(start - steps) % len(loop)]]
    else:
        walks = [ref] if start == 0 else [ref[::-1]] if start == len(ref) - 1 else []
    return any(np.max(np.abs(pts - walk)) <= VERTEX_TOL for walk in walks)


def assert_same_polylines(got, ref):
    """got and ref, each (polylines, lengths), hold the same polylines as a
    set: the same count, each polyline of got is one of ref's with its
    vertex count and its vertices within VERTEX_TOL, up to orientation and,
    for a closed loop, rotation, and the lengths agree to 1e-12 relative
    (absolute below length 1: a short loop's length is at the rounding of
    its vertices)."""
    (polylines, lengths), (ref_polylines, ref_lengths) = got, ref
    assert len(polylines) == len(ref_polylines)
    if not polylines:
        return
    owner = np.repeat(np.arange(len(ref_polylines)), [len(p) for p in ref_polylines])
    start = np.concatenate([np.arange(len(p)) for p in ref_polylines])
    points = np.concatenate(ref_polylines)
    unmatched = set(range(len(ref_polylines)))
    for pts, length in zip(polylines, lengths):
        near = np.flatnonzero(np.max(np.abs(points - pts[0]), axis=1) <= VERTEX_TOL)
        match = next((owner[v] for v in near if owner[v] in unmatched
                      and _same_line(pts, ref_polylines[owner[v]], start[v])), None)
        assert match is not None, f"no polyline of the disk march matches one of {len(pts)}"
        unmatched.remove(match)
        assert abs(length - ref_lengths[match]) <= 1e-12 * max(ref_lengths[match], 1.0)


def assert_marches_like_disk(u):
    """The sector march of u gives the disk march of its reflected copy."""
    ls = extract_zero_set(u)
    assert_same_polylines((ls.polylines, ls.lengths), freeboundary._march(reflect_to_disk(u)))
    return ls


def sector_field(k, n_r, n_phi, fn):
    return field_from_function(build_sector_grid(k, n_r, n_phi), fn)


class TestSectorMarch:
    """extract_zero_set marches the sector's own quads and places each chain
    in the disk's 2k copies; the march of the reflected disk copy, which the
    per-cell loop checks above, is its reference."""

    def test_cross_solution(self, cross96):
        ls = assert_marches_like_disk(cross96)
        # one arc per quadrant, in the order of the copies
        assert len(ls.polylines) == 4
        for m, line in enumerate(ls.polylines):
            angle = np.arctan2(line[:, 1], line[:, 0]) % TWO_PI
            assert np.all((m * math.pi / 2 < angle) & (angle < (m + 1) * math.pi / 2))

    def test_asterisk_solution(self):
        u = solve_fixed_point(build_sector_grid(4, 64, 64), lambda p: np.cos(4.0 * p), 0.05).u
        assert_marches_like_disk(u)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_circle_crossing_every_sector_edge_is_one_loop(self, k):
        ls = assert_marches_like_disk(sector_field(k, 48, 20, lambda r, p: r - 0.5))
        assert len(ls.polylines) == 1
        loop = ls.polylines[0]
        n = 2 * k * 20  # one vertex per disk column, on r = 1/2 to rounding
        assert len(loop) == n + 1 and np.array_equal(loop[0], loop[-1])
        assert np.allclose(np.hypot(loop[:, 0], loop[:, 1]), 0.5, rtol=0.0, atol=1e-15)
        assert ls.lengths[0] == pytest.approx(n * math.sin(math.pi / n), rel=1e-12)

    def test_chain_across_one_sector_edge_is_open(self):
        """x = 0.6 meets the quarter sector's edge phi = 0: with its mirror
        image it is one open chord, and so is x = -0.6."""
        ls = assert_marches_like_disk(sector_field(2, 64, 32, lambda r, p: r * np.cos(p) - 0.6))
        assert len(ls.polylines) == 2
        for line in ls.polylines:
            assert not np.array_equal(line[0], line[-1])
            assert np.max(np.abs(np.abs(line[:, 0]) - 0.6)) < 1e-2
            assert np.min(line[:, 1]) < 0.0 < np.max(line[:, 1])

    @pytest.mark.parametrize("column", [0, -2], ids=["first", "last"])
    def test_saddle_in_an_edge_column(self, column):
        grid = build_sector_grid(2, 16, 16)
        i = 5
        r0 = 0.5 * (grid.r[i] + grid.r[i + 1]) + 0.3 * grid.dr
        phi_c = 0.5 * (grid.phi[column] + grid.phi[column + 1]) + 0.2 * grid.dphi
        u = field_from_function(grid, lambda r, p: (r - r0) * (p - phi_c))
        corners = u.values[i:i + 2, column:][:, :2] > 0.0
        assert corners[0, 0] == corners[1, 1] != corners[0, 1] == corners[1, 0]
        assert_marches_like_disk(u)

    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("seed", range(2))
    def test_standard_normal_fields(self, k, seed):
        """Many chains, with free ends, ends on one or both sector edges, and loops."""
        values = np.random.default_rng(seed).standard_normal((40, 24))
        assert_marches_like_disk(ScalarField(build_sector_grid(k, 40, 24), values))

    @pytest.mark.parametrize("fn", [lambda r, p: r - 0.5, lambda r, p: r * r * np.cos(2.0 * p)],
                             ids=["circle", "degree2"])
    def test_disk_field_is_marched_periodically(self, disk64, fn):
        u = field_from_function(disk64, fn)
        ls = extract_zero_set(u)
        polylines, lengths = freeboundary._march(u)
        assert len(ls.polylines) == len(polylines)
        assert all(np.array_equal(a, b) for a, b in zip(ls.polylines, polylines))
        assert ls.lengths == lengths


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

    @pytest.mark.parametrize("fn", [
        # four crossings at r = 0.3 and none at 0.2, where r^2 < 0.06
        lambda r, p: r**2 * np.cos(2.0 * p) - 0.06,
        # two crossings on both circles, at +-0.45 and then +-1.16, further
        # than the cap (half the smaller gap, 0.45) from their predecessors
        lambda r, p: np.cos(p) - 10.0 * r**2,
    ], ids=["count_change", "angle_jump"])
    def test_topology_change_at_the_second_radius_keeps_the_first(self, disk64, fn):
        u = field_from_function(disk64, fn)
        fit = fit_arcs_at_origin(u, [0.3, 0.2, 0.1])
        assert fit.topology_change
        assert np.array_equal(fit.radii, [0.3])
        assert np.allclose(fit.limit_angles, crossing_angles(u, 0.3), rtol=0.0, atol=1e-12)
        assert fit.angle_table.shape == (len(fit.limit_angles), 1)

    def test_tracks_the_crossing_angles_of_each_radius(self, disk256, monkeypatch):
        """The fit samples all its radii in one pass; the angles it matches at
        each radius are crossing_angles', bit for bit.  The table adds the
        rounding of unwrapping each arc around its first angle."""
        u = field_from_function(
            disk256, lambda r, p: r**2 * np.cos(2.0 * p - 0.3) + 0.3 * r**3 * np.sin(p))
        radii = [0.3, 0.25, 0.2, 0.15, 0.1, 0.05]
        seen = []  # the first radius's angles, then those matched at each next one
        match = freeboundary._circular_match
        monkeypatch.setattr(freeboundary, "_circular_match", lambda prev, new, cap: (
            seen.append(new) if seen else seen.extend([prev, new])) or match(prev, new, cap))
        fit = fit_arcs_at_origin(u, radii)
        assert not fit.topology_change and np.array_equal(fit.radii, radii)
        assert len(seen) == len(radii)
        for angles, r in zip(seen, radii):
            assert np.array_equal(angles, crossing_angles(u, r))
        for column, r in zip(fit.angle_table.T, radii):
            assert np.allclose(np.sort(column), crossing_angles(u, r), rtol=0.0, atol=4e-15)

    def test_no_crossings_is_an_error(self, disk64):
        u = field_from_function(disk64, lambda r, p: 1.0 + r**2)
        with pytest.raises(ValueError):
            fit_arcs_at_origin(u, [0.3, 0.2])

    def test_needs_two_radii(self, disk256):
        with pytest.raises(ValueError):
            fit_arcs_at_origin(degree2_field(disk256), [0.3])


def reference_write_levelset_csv(ls, path):
    """write_levelset_csv as it was when it called np.savetxt, kept as the
    byte-level reference for the polyline-at-a-time writer."""
    lens = [len(pts) for pts in ls.polylines]
    pid = np.repeat(np.arange(len(lens)), lens)
    vid = np.arange(sum(lens)) - np.repeat(np.cumsum(lens) - lens, lens)
    xy = np.concatenate([np.empty((0, 2)), *ls.polylines])
    np.savetxt(path, np.column_stack([pid, vid, xy]), delimiter=",",
               header="polyline,vertex,x,y", comments="", fmt="%.17g")


def random_levelset(sizes, seed):
    rng = np.random.default_rng(seed)
    return LevelSet(polylines=[rng.standard_normal((n, 2)) for n in sizes],
                    lengths=[0.0] * len(sizes))


class TestExport:
    @pytest.mark.parametrize("sizes", [[], [1], [37], [5, 1, 12, 0, 3]],
                             ids=["empty", "one-vertex", "one-polyline", "several"])
    def test_levelset_csv_bytes_equal_savetxt(self, tmp_path, sizes):
        ls = random_levelset(sizes, seed=len(sizes))
        write_levelset_csv(ls, tmp_path / "new.csv")
        reference_write_levelset_csv(ls, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_levelset_csv_bytes_equal_savetxt_on_special_values(self, tmp_path):
        pts = np.array([[-0.0, 0.0], [5e-324, -2.5e-310], [1e300, -1e300], [3.0, -7.0],
                        [2.0**53, 0.1], [math.nan, math.inf], [-math.inf, 1.0]])
        ls = LevelSet(polylines=[pts, pts[::-1].copy()], lengths=[0.0, 0.0])
        write_levelset_csv(ls, tmp_path / "new.csv")
        reference_write_levelset_csv(ls, tmp_path / "ref.csv")
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "ref.csv").read_bytes()
        assert new.startswith(b"polyline,vertex,x,y\n0,0,-0,0\n")

    def test_levelset_csv_of_a_marched_field(self, tmp_path, disk256):
        ls = extract_zero_set(degree2_field(disk256))
        write_levelset_csv(ls, tmp_path / "new.csv")
        reference_write_levelset_csv(ls, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

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
