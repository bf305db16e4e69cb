"""Zero level set extraction and free-boundary arc geometry.

Marching squares classifies every quad of the logical (r, phi) grid in one
array pass (nodes are cell centers, nothing below the innermost ring).  A
disk field's quads wrap around in phi.  A sector field is marched on its
own quads, and its chains are placed in the 2k copies of the sector that
tile the disk, so no analysis copies the field: copy m covers
[m phi0, (m + 1) phi0] and is the sector turned (m even) or mirrored (m
odd).  Crossing points are linear interpolations along grid edges, shared
exactly between neighbouring quads, so polylines chain without seams.
Saddle quads are resolved by the sign of the corner average, which keeps
the extraction deterministic.  Crossing angles on circles read the sector
field through the reflection index map.

Polyline order: the chains of the marched field, open chains first (each
from its end met first in row-major quad order), then closed loops (by
lowest segment); each chain gives its polylines in order of the first
copy m = 0, ..., 2k - 1 each one visits (`_place`).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .field import ScalarField, _circle_samples, check_radii
from .mesh import TWO_PI


@dataclass
class LevelSet:
    """Polylines of {u = 0} on the disk and their lengths."""

    polylines: list[np.ndarray]
    lengths: list[float]


# not public: only tests and the benchmark's traced run (perfbench/spans.py) call it
def crossing_angles(u: ScalarField, r: float) -> np.ndarray:
    """Angles where the circle trace changes sign (`_crossing_angles`)."""
    return _crossing_angles(u, [r])[0]


def _crossing_angles(u: ScalarField, radii) -> list[np.ndarray]:
    """Per radius, the sorted angles where the circle trace, at 2048 samples,
    changes sign, by linear interpolation; an even count on any periodic trace."""
    m = 2048
    angles, vals = _circle_samples(u, radii, m)
    inside = vals > 0.0
    row, s = np.nonzero(inside != np.roll(inside, -1, axis=1))
    v0, v1 = vals[row, s], vals[row, (s + 1) % m]
    theta = (angles[s] + v0 / (v0 - v1) * (TWO_PI / m)) % TWO_PI
    ends = np.cumsum(np.bincount(row, minlength=len(vals)))[:-1]
    return [np.sort(t) for t in np.split(theta, ends)]


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


def _march(field: ScalarField) -> tuple[list[np.ndarray], list[float]]:
    """Polylines of {u = 0} on the disk and their lengths.

    A disk field's quads wrap around in phi.  A sector field's quads stop
    at its first and last columns, and its chains are placed in the disk's
    copies (`_place`).
    """
    vals = field.values
    g = field.grid
    n_phi = g.n_phi
    inside = (vals > 0.0).astype(np.uint8)
    c = inside[:-1] + 2 * inside[1:]
    case = c + 4 * np.roll(c, -1, axis=1) if g.periodic else c[:, :-1] + 4 * c[:, 1:]
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

    chains = _chain(seg.reshape(segments.shape), first_seen)
    # the sector edge a chain may end on: 0 at phi = 0, 1 at phi = phi0
    side = np.full(edges.size, -1)
    if not g.periodic:
        side[(angular == 0) & (j == 0)] = 0
        side[(angular == 0) & (j == n_phi - 1)] = 1
    lines = _place([np.array(chain) for chain in chains], side.tolist(), g.copies)
    if not lines:
        return [], []
    pieces = [piece for line in lines for piece in line]
    vertex = np.concatenate([chain for chain, _ in pieces])
    copy = np.repeat([m for _, m in pieces], [len(chain) for chain, _ in pieces])
    # copy m covers [m phi0, (m + 1) phi0], mirrored when m is odd
    odd = copy & 1
    angle = (copy + odd) * g.phi_total + (1 - 2 * odd) * ph[vertex]
    radius = rp[vertex]
    xy = np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])

    sizes = [sum(len(chain) for chain, _ in line) for line in lines]
    polylines = np.split(xy, np.cumsum(sizes)[:-1])
    lengths = [float(np.sum(np.hypot(*np.diff(pts, axis=0).T))) for pts in polylines]
    return polylines, lengths


def _place(chains: list[np.ndarray], side: list[int], copies: int
           ) -> list[list[tuple[np.ndarray, int]]]:
    """The disk polylines of the chains, as pieces (edge sequence, copy m).

    side[e] is 0 or 1 for a radial edge on the first or last column of a
    sector and -1 elsewhere; on the disk every side is -1 and each chain is
    one polyline of copy 0.  The quad between a column and its mirror image
    has pairwise-equal corners, so its one segment joins the crossing on
    the column's radial edge to its mirror image and adds no vertex.  A
    chain that ends on side s thus continues, reversed, in the copy across
    that sector edge: m + 1 if m is odd and s = 0 or m is even and s = 1,
    else m - 1 (mod copies).  A chain with one such end is walked from its
    other end, into the mirror copy and back; one with two closes into a
    loop over two copies (equal sides) or all of them, which repeats its
    first vertex.
    """
    out = []
    for chain in chains:
        if side[chain[0]] >= 0 and side[chain[-1]] < 0:
            chain = chain[::-1]  # walk from the free end
        first, last = side[chain[0]], side[chain[-1]]
        visited = [False] * copies
        for m in range(copies):
            if visited[m]:
                continue
            line, copy, forward = [], m, True
            while True:
                visited[copy] = True
                line.append((chain if forward else chain[::-1], copy))
                end = last if forward else first
                if end < 0:
                    break
                copy = (copy + (1 if copy % 2 != end else -1)) % copies
                forward = not forward
                if copy == m and forward:
                    line.append((chain[:1], m))
                    break
            out.append(line)
    return out


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
    """March the zero set of u, or of its even extension to the disk (`_march`)."""
    polylines, lengths = _march(u)
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

    Takes at least two radii (`field.check_radii`).  Arcs are matched by
    angle continuity with a cap of half the minimal angular gap; a count
    change or failed match sets topology_change and truncates the tracked
    window at the largest consistent radii.
    """
    radii = check_radii(u.grid, radii)[::-1]
    base, *inner = _crossing_angles(u, radii)
    if len(base) == 0:
        raise ValueError(f"no zero crossings on the circle r={radii[0]:g}")
    gaps = np.diff(np.append(base, base[0] + TWO_PI))
    cap = 0.5 * float(np.min(gaps))

    rows = [base]
    used = [radii[0]]
    topology_change = False
    prev = base
    for r, new in zip(radii[1:], inner):
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
    """Columns polyline, vertex, x, y; one row per vertex.

    The bytes are those of `field.write_table` on the four columns.  Each
    polyline fills one row template with a single % and is written on its
    own, so the text of only one polyline is held at a time.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("polyline,vertex,x,y\n")
        for p, pts in enumerate(ls.polylines):
            n = len(pts)
            rows = np.column_stack([np.arange(n), pts]).ravel().tolist()
            fh.write((f"{p},%d,%.17g,%.17g\n" * n) % tuple(rows))


def write_arcs_json(fit: ArcFit, path) -> None:
    payload = {
        "radii": fit.radii.tolist(),
        "angles_deg": np.degrees(fit.angle_table).tolist(),
        "limit_angles_deg": np.degrees(fit.limit_angles).tolist(),
        "gaps_deg": np.degrees(fit.gaps).tolist(),
        "topology_change": fit.topology_change,
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2))
