"""Zero level set extraction and free-boundary arc geometry.

Marching squares classifies every quad of the logical (r, phi) grid of
the symmetric disk extension in one array pass (nodes are cell centers,
periodic in phi, nothing below the innermost ring); that extension is the
one copy of a sector field the analyses make.  Crossing points are linear
interpolations along grid edges, shared exactly between neighbouring
quads, so polylines chain without seams.  Saddle quads are resolved by
the sign of the corner average, which keeps the extraction deterministic.
Crossing angles on circles read the sector field directly.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import mesh
from .field import ScalarField, sample_circle
from .mesh import TWO_PI


@dataclass
class LevelSet:
    """Polylines of {u = 0} on the disk and their lengths."""

    polylines: list[np.ndarray]
    lengths: list[float]


def crossing_angles(u: ScalarField, r: float, m: int = 2048) -> np.ndarray:
    """Angles where the circle trace changes sign, by linear interpolation.

    The count is even for any sign-changing periodic trace.
    """
    angles, vals = sample_circle(u, r, m)
    inside = vals > 0.0
    s = np.nonzero(inside != np.roll(inside, -1))[0]
    v0, v1 = vals[s], vals[(s + 1) % m]
    return np.sort((angles[s] + v0 / (v0 - v1) * (TWO_PI / m)) % TWO_PI)


def _case_segments(case: int, center_in: int) -> list[tuple[int, int]]:
    """Edge pairs of one quad, padded to two with (-1, -1).

    Bits 0-3 of case are the corner signs s00, s10, s01, s11, where s_ab is
    corner (i + a, j + b).  Edges are 0 left (i, j)-(i+1, j), 1 right
    (i, jn)-(i+1, jn), 2 bottom (i, j)-(i, jn) and 3 top (i+1, j)-(i+1, jn).
    """
    s00, s10, s01, s11 = (case >> np.arange(4)) & 1
    crossed = [e for e, (a, b) in enumerate([(s00, s10), (s01, s11), (s00, s01), (s10, s11)])
               if a != b]
    if len(crossed) == 4:
        # saddle: corner average picks which diagonal the set hugs
        return [(0, 3), (2, 1)] if center_in == s00 else [(0, 2), (3, 1)]
    return [tuple(crossed), (-1, -1)] if crossed else [(-1, -1)] * 2


# Lorensen-Cline case table, indexed by [case, center_in]
_SEGMENTS = np.array([[_case_segments(c, m) for m in (0, 1)] for c in range(16)])


def _march(disk: ScalarField) -> tuple[list[np.ndarray], list[float]]:
    vals = disk.values
    g = disk.grid
    n_phi = g.n_phi
    inside = (vals > 0.0).astype(np.uint8)
    c = inside[:-1] + 2 * inside[1:]
    case = c + 4 * np.roll(c, -1, axis=1)
    qi, qj = np.nonzero((case > 0) & (case < 15))
    jn = (qj + 1) % n_phi
    center_in = vals[qi, qj] + vals[qi + 1, qj] + vals[qi, jn] + vals[qi + 1, jn] > 0.0
    pos = _SEGMENTS[case[qi, qj], center_in.astype(int)]
    # edge id 2*(i*n_phi + j) for the radial edge from (i, j), plus 1 for the angular one
    cell = qi * n_phi
    ids = 2 * np.stack([cell + qj, cell + jn, cell + qj, cell + n_phi + qj], axis=1) + [0, 0, 1, 1]
    # row-major quad order, a saddle's second segment right after its first
    quad, k = np.nonzero(pos[:, :, 0] >= 0)
    segments = ids[quad[:, None], pos[quad, k]]

    # crossing point on each edge, t = v0 / (v0 - v1) along it
    edges, first_seen, seg = np.unique(segments, return_index=True, return_inverse=True)
    angular = edges & 1
    i, j = np.divmod(edges >> 1, n_phi)
    v0, v1 = vals[i, j], vals[i + 1 - angular, (j + angular) % n_phi]
    t = v0 / (v0 - v1)
    rp = np.where(angular, g.r[i], g.r[i] + t * g.dr)
    ph = np.where(angular, g.phi[j] + t * g.dphi, g.phi[j])
    xy = np.array([(a * math.cos(b), a * math.sin(b)) for a, b in zip(rp.tolist(), ph.tolist())])

    polylines = [xy[chain] for chain in _chain(seg.reshape(segments.shape), first_seen)]
    lengths = [float(np.sum(np.hypot(*np.diff(pts, axis=0).T))) for pts in polylines]
    return polylines, lengths


def _chain(seg: np.ndarray, first_seen: np.ndarray) -> list[list[int]]:
    """Chain segments (rows of two edge ids 0..E-1) into edge sequences.

    Every edge borders at most two segments.  Open chains come first, each
    walked from its end that appears first in the segment list; closed
    loops follow by lowest segment id, from that segment's first edge.
    """
    degree = np.bincount(seg.ravel())
    by_edge = np.argsort(seg.ravel(), kind="stable") // 2
    last = np.cumsum(degree) - 1
    # the one or two segments on each edge, lowest id first
    touching = np.stack([by_edge[last - degree + 1], by_edge[last]], axis=1).tolist()
    ends = seg.tolist()
    used = [False] * len(ends)

    def walk(edge: int, sid: int) -> list[int]:
        chain = [edge]
        while not used[sid]:
            used[sid] = True
            a, b = ends[sid]
            edge = b if a == edge else a
            chain.append(edge)
            s0, s1 = touching[edge]
            sid = s1 if s0 == sid else s0
        return chain

    open_ends = np.flatnonzero(degree == 1)
    starts = [(e, touching[e][0]) for e in open_ends[np.argsort(first_seen[open_ends])].tolist()]
    starts += [(a, sid) for sid, (a, _) in enumerate(ends)]
    # each walk marks its segments used, so later starts on the same chain drop out
    return [walk(e, sid) for e, sid in starts if not used[sid]]


def extract_zero_set(u: ScalarField) -> LevelSet:
    """March the zero set of the symmetric disk extension of u."""
    polylines, lengths = _march(mesh.reflect_to_disk(u))
    return LevelSet(polylines=polylines, lengths=lengths)


@dataclass
class ArcFit:
    """Free-boundary rays near the origin, tracked over shrinking circles."""

    radii: np.ndarray
    angle_table: np.ndarray  # (n_arcs, n_radii), radians, row per arc
    limit_angles: np.ndarray  # radians, extrapolated to r = 0, sorted
    gaps: np.ndarray  # consecutive differences of limit angles (radians)
    topology_change: bool


def _circular_match(prev: np.ndarray, new: np.ndarray, cap: float) -> np.ndarray | None:
    """Match each previous angle to the nearest new one within cap, injectively."""
    if len(prev) != len(new):
        return None
    out = np.empty(len(prev))
    taken = set()
    for n, th in enumerate(prev):
        d = np.abs((new - th + math.pi) % TWO_PI - math.pi)
        order = np.argsort(d)
        pick = next((int(c) for c in order if int(c) not in taken), None)
        if pick is None or d[pick] > cap:
            return None
        taken.add(pick)
        out[n] = new[pick]
    return out


def fit_arcs_at_origin(u: ScalarField, radii) -> ArcFit:
    """Track the crossing angles of u inward over radii and extrapolate to r = 0.

    Arcs are matched by angle continuity with a cap of half the minimal
    angular gap; a count change or failed match sets topology_change and
    truncates the tracked window at the largest consistent radii.
    """
    radii = np.asarray(sorted(radii, reverse=True), dtype=float)
    if len(radii) < 2:
        raise ValueError("need at least two radii to extrapolate arcs")
    base = crossing_angles(u, float(radii[0]))
    if len(base) == 0:
        raise ValueError(f"no zero crossings on the circle r={radii[0]:g}")
    gaps = np.diff(np.append(base, base[0] + TWO_PI))
    cap = 0.5 * float(np.min(gaps))

    rows = [base]
    used = [radii[0]]
    topology_change = False
    prev = base
    for r in radii[1:]:
        new = crossing_angles(u, float(r))
        matched = _circular_match(prev, new, cap)
        if matched is None:
            topology_change = True
            break
        rows.append(matched)
        used.append(r)
        prev = matched
    used = np.asarray(used)
    # unwrap each arc around its first sample so the linear fit is smooth
    table = np.asarray(rows).T
    ref = table[:, :1]
    table = ref + (table - ref + math.pi) % TWO_PI - math.pi

    if len(used) >= 2:
        coeff = np.polyfit(used, table.T, 1)
        limits = coeff[1] % TWO_PI
    else:
        limits = table[:, 0] % TWO_PI
    order = np.argsort(limits)
    limits = limits[order]
    table = table[order]
    arc_gaps = np.diff(np.append(limits, limits[0] + TWO_PI))
    return ArcFit(
        radii=used,
        angle_table=table % TWO_PI,
        limit_angles=limits,
        gaps=arc_gaps,
        topology_change=topology_change,
    )


def write_levelset_csv(ls: LevelSet, path) -> None:
    """Columns polyline, vertex, x, y."""
    lens = [len(pts) for pts in ls.polylines]
    pid = np.repeat(np.arange(len(lens)), lens)
    vid = np.arange(sum(lens)) - np.repeat(np.cumsum(lens) - lens, lens)
    xy = np.concatenate([np.empty((0, 2)), *ls.polylines])
    np.savetxt(path, np.column_stack([pid, vid, xy]), delimiter=",",
               header="polyline,vertex,x,y", comments="", fmt="%.17g")


def write_arcs_json(fit: ArcFit, path) -> None:
    payload = {
        "radii": fit.radii.tolist(),
        "angles_deg": np.degrees(fit.angle_table).tolist(),
        "limit_angles_deg": np.degrees(fit.limit_angles).tolist(),
        "gaps_deg": np.degrees(fit.gaps).tolist(),
        "topology_change": fit.topology_change,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
