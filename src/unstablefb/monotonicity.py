"""Scale-invariant energy functional and the comparison energy bound.

For a planar field u the functional

    Phi(r) = r^-4 * int_{B_r} (|grad u|^2 - 2 max(u, 0))
             - 2 r^-5 * int_{dB_r} u^2

is nondecreasing in r along solutions of Delta u = -chi_{u>0}, with

    Phi(sigma) - Phi(rho) = int_rho^sigma r^-4 int_{dB_r}
                            2 (du/dr - 2u/r)^2 dH dr.

The profile helper evaluates both sides on sampled radii; their mismatch
(the identity defect) measures discretization quality.
"""
from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np

from .field import (
    ScalarField,
    _circle_integrals,
    _gradient_sq_rings,
    _integrate_rings,
    check_radii,
    radial_derivative,
    write_table,
)
from .mesh import build_sector_grid


def _powers(radii: np.ndarray, p: int) -> np.ndarray:
    """r**p per radius in Python floats (libm's pow; numpy's array power differs)."""
    return np.array([r**p for r in radii.tolist()])


def _phi_values(u: ScalarField, radii, du_dr: np.ndarray | None = None) -> np.ndarray:
    """Phi at each radius from one gradient, one square of u and one set of
    per-ring sums of the bulk integrands; _circle_integrals rejects a radius
    outside the window (`field.check_window`).  The gradient is taken on the
    rings the ring rule reads, none past the one after the cut, from du_dr =
    radial_derivative(u).values when the caller has it already."""
    radii = np.asarray(radii, dtype=float)
    n = min(u.grid.n_r, int(radii.max() / u.grid.dr) + 3)
    if du_dr is None:
        du_dr = radial_derivative(u).values
    grad_rows = np.zeros(u.grid.n_r)
    grad_rows[:n] = _gradient_sq_rings(u, du_dr, n).sum(axis=1)
    pos_rows = (2.0 * np.maximum(u.values, 0.0)).sum(axis=1)
    bulk = _integrate_rings(u.grid, grad_rows, radii) - _integrate_rings(u.grid, pos_rows, radii)
    surface = _circle_integrals(u.apply(np.square), radii)
    return bulk / _powers(radii, 4) - 2.0 * surface / _powers(radii, 5)


# not public: only tests and perfbench/spans.py call it; its hook reads float(args[1])
def phi(u: ScalarField, r: float) -> float:
    """Scaled energy of u at radius r (see module docstring).

    On a sector field this is Phi of its even extension to the disk.
    """
    return float(_phi_values(u, [r])[0])


@dataclass
class MonotonicityProfile:
    """Phi on sampled radii plus the per-interval identity defect.

    defects[i] = [phi(r[i+1]) - phi(r[i])] - trapezoid of the boundary
    integrand over [r[i], r[i+1]].  Defects are additive, so the defect
    over any subwindow is the sum of the interval defects inside it.
    """

    radii: np.ndarray
    phi_values: np.ndarray
    boundary_integrand: np.ndarray
    defects: np.ndarray

    def defect_between(self, rho: float, sigma: float) -> float:
        """Defect over [rho, sigma]; ValueError unless rho <= sigma and each
        is a sampled radius (to np.isclose of the nearest one)."""
        if rho > sigma:
            raise ValueError(f"reversed bounds: rho = {rho} > sigma = {sigma}")
        i, j = (int(np.argmin(np.abs(self.radii - x))) for x in (rho, sigma))
        if not (np.isclose(self.radii[i], rho) and np.isclose(self.radii[j], sigma)):
            raise ValueError(f"({rho}, {sigma}) are not sampled radii")
        return float(np.sum(self.defects[i:j]))

    def total_defect(self) -> float:
        return float(np.sum(self.defects))

    def min_increment(self) -> float:
        """Most negative consecutive Phi difference (monotonicity check)."""
        return float(np.min(np.diff(self.phi_values)))


def phi_profile(u: ScalarField, radii, du_dr: np.ndarray | None = None) -> MonotonicityProfile:
    """Evaluate Phi and the identity defect over at least two radii
    (`field.check_radii`), in increasing order, from du_dr =
    radial_derivative(u).values when the caller has it already."""
    radii = check_radii(u.grid, radii)
    if du_dr is None:
        du_dr = radial_derivative(u).values
    phis = _phi_values(u, radii, du_dr)
    # r^-4 int_{dB_r} 2 (du/dr - 2u/r)^2 dH, the rate in the identity
    w = ScalarField(u.grid, (du_dr - 2.0 * u.values / u.grid.r[:, None]) ** 2)
    integrand = 2.0 * _circle_integrals(w, radii) / _powers(radii, 4)
    rhs = 0.5 * (integrand[1:] + integrand[:-1]) * np.diff(radii)
    defects = np.diff(phis) - rhs
    return MonotonicityProfile(
        radii=radii,
        phi_values=phis,
        boundary_integrand=integrand,
        defects=defects,
    )


# --- comparison energy bound ----------------------------------------------

# samples per block of mc_energy_bound: its three float64 buffers and one
# bool buffer (400 KiB) stay in a core's L2 cache whatever the sample count
MC_BLOCK = 1 << 14
# threads of mc_energy_bound: each holds its own 400 KiB of block buffers,
# so two keep a call under 1 MiB, where four (on a 4-core machine) would
# take 1.6 MiB
MC_WORKERS = 2


@functools.lru_cache(maxsize=4)
def _angle_table(n_r: int, n_phi: int) -> tuple:
    """(grid, c, r2) of energy_bound_integral on the n_r x n_phi quarter-sector
    grid, read-only, cached per shape: c is cos(2 phi) over the columns in
    decreasing order and r2 is r^2 over the rings.  A scan or a bisection
    evaluates one shape many times; the table depends on the shape alone."""
    grid = build_sector_grid(2, n_r, n_phi)
    c = -np.sort(-np.cos(2.0 * grid.phi))
    r2 = grid.r**2
    for a in (c, r2, grid.r, grid.phi, grid.r_faces, grid.cell_areas):
        a.flags.writeable = False
    return grid, c, r2


def energy_bound_integral(M: float, C1: float = 0.5, n_r: int = 1024, n_phi: int = 1024) -> float:
    """int_{B_1} [C1^2 - 2*(M*(x1^2 - x2^2) - C1)^+] dx by grid quadrature.

    Negative values certify that the constrained solution with arc data
    M*cos(2 phi) cannot stay sign-definite.  At M = 0 the value is exactly
    pi*C1^2.

    The quadrature is that of _integrate_rings on the n_r x n_phi quarter-sector
    grid, without sampling the field: with the angular values a_j =
    M*cos(2 phi_j) sorted in decreasing order and P their prefix sums,
    ring i's cell sum of 2*(r_i^2 a_j - C1)^+ is 2*(r_i^2 P[k] - C1*k),
    where k counts the a_j above C1/r_i^2.  Cost O(n_r log n_phi).
    The grid, cos(2 phi_j) in decreasing order and r_i^2 come from a
    read-only table cached per (n_r, n_phi) (`_angle_table`), so a call
    sorts nothing: a = M*c for M >= 0 and M*c reversed for M < 0.  Rounding
    is monotone, so multiplying by M keeps (or, for M < 0, reverses) the
    order, and a equals the sorted M*cos(2 phi_j) value for value.
    """
    if C1 <= 0.0:
        raise ValueError(f"torsion bound C1 must be positive, got {C1}")
    if not np.isfinite(M):
        raise ValueError(f"amplitude M must be finite, got {M}")
    grid, c, r2 = _angle_table(n_r, n_phi)
    a = M * (c if M >= 0.0 else c[::-1])
    prefix = np.concatenate(([0.0], np.cumsum(a)))
    k = np.searchsorted(-a, -C1 / r2, side="left")
    row_sums = 2.0 * (r2 * prefix[k] - C1 * k)
    return float(np.pi * C1 * C1 - _integrate_rings(grid, row_sums, [1.0])[0])


def _mc_block_sums(seed: int, samples: int, start: int, stop: int, C1: float,
                   amplitudes: list[float]) -> np.ndarray:
    """Sum of (m*q - C1)^+ over each block of the samples [start, stop):
    one row per block of MC_BLOCK, one column per amplitude m >= 0.

    start is a multiple of MC_BLOCK.  x is read from PCG64(seed) advanced
    by start doubles and y from it advanced by samples + start, so any cut
    of the blocks draws the same doubles as one pass over all of them.
    """
    rng_x = np.random.Generator(np.random.PCG64(seed).advance(start))
    rng_y = np.random.Generator(np.random.PCG64(seed).advance(samples + start))
    size = min(stop - start, MC_BLOCK)
    x_buf, y_buf, v_buf = np.empty(size), np.empty(size), np.empty(size)
    inside_buf = np.empty(size, dtype=bool)
    sums = np.empty((-(-(stop - start) // MC_BLOCK), len(amplitudes)))
    for row, lo in enumerate(range(start, stop, MC_BLOCK)):
        n = min(MC_BLOCK, stop - lo)
        q, y, vals, inside = x_buf[:n], y_buf[:n], v_buf[:n], inside_buf[:n]
        rng_x.random(out=q)  # x, then x^2, then q
        rng_y.random(out=y)
        q *= q
        y *= y
        np.add(q, y, out=vals)
        np.less(vals, 1.0, out=inside)
        q -= y
        np.abs(q, out=q)
        q *= inside  # q >= +0.0, so q*1.0 = q and q*0.0 = +0.0: exact
        for col, m in enumerate(amplitudes):
            # (|M|*q - C1)^+, term by term in place
            np.multiply(m, q, out=vals)
            vals -= C1
            np.maximum(vals, 0.0, out=vals)
            sums[row, col] = vals.sum()
    return sums


def mc_energy_bound(M, C1: float = 0.5, samples: int = 1_000_000, seed: int = 0):
    """Monte-Carlo estimate of energy_bound_integral (seeded, for cross-checks).

    M is one amplitude (a float comes back) or an array of them (an array
    of the same shape comes back).  The estimate is hit-or-miss on the
    unit square: x is the first `samples` doubles of default_rng(seed), y
    the next `samples`, read from a PCG64 advanced past x, and
    q = |x^2 - y^2| inside the quarter disk x^2 + y^2 < 1, 0 outside.
    The integrand is even in x1 and x2, and swapping them negates
    M*(x1^2 - x2^2), so the disk integral is pi*C1^2 minus 4 times the
    quarter-disk integral of (|M|*q - C1)^+.  The estimate is
    pi*C1^2 - 4 * (sum of the block sums) / samples: no square root or
    cosine per sample, even in M, and exactly pi*C1^2 when |M| <= C1
    (q < 1, so such an amplitude skips the per-block work, and a call
    with no other amplitude draws nothing).
    Both streams are walked in blocks of MC_BLOCK, and every amplitude
    shares each block of q, so each estimate equals that of a call with M
    alone, bit for bit.  A block writes the mask x^2 + y^2 < 1 into a bool
    buffer with less(out=) and zeroes q outside it by multiplying by the
    mask, which is exact since q >= +0.0.  The blocks are cut into
    contiguous ranges, one per thread: at most MC_WORKERS, and no more
    than the usable cores (os.sched_getaffinity where the platform has it,
    else os.cpu_count()) or the blocks.  Each range starts its two streams
    with PCG64.advance, and the block sums are added in block order, so
    the estimates do not depend on the number of threads.  Memory is, per
    thread, three float64 buffers of MC_BLOCK (x then q, y, and one reused
    for each amplitude's excess) and one bool buffer: 400 KiB, so 800 KiB
    at most, whatever the sample count.
    """
    if samples < 1:
        raise ValueError(f"need at least one Monte Carlo sample, got {samples}")
    if C1 <= 0.0:
        raise ValueError(f"torsion bound C1 must be positive, got {C1}")
    Ms = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(Ms)):
        raise ValueError(f"amplitude M must be finite, got {Ms[~np.isfinite(Ms)][0]}")
    totals = np.zeros(Ms.shape)
    active = [(idx, abs(m)) for idx, m in np.ndenumerate(Ms) if abs(m) > C1]
    if active:
        blocks = -(-samples // MC_BLOCK)
        # os.sched_getaffinity exists on Linux alone
        cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count() or 1)
        workers = min(MC_WORKERS, cores, blocks)
        cuts = [min(samples, i * blocks // workers * MC_BLOCK) for i in range(workers + 1)]
        amplitudes = [m for _, m in active]
        ranges = [(seed, samples, lo, hi, C1, amplitudes) for lo, hi in zip(cuts, cuts[1:])]
        # imported on first use, so that `import unstablefb` does not load
        # concurrent.futures.thread and queue
        from concurrent.futures import ThreadPoolExecutor

        # the caller's thread takes the first range; no thread starts for one
        with ThreadPoolExecutor(MC_WORKERS - 1) as pool:
            rest = [pool.submit(_mc_block_sums, *r) for r in ranges[1:]]
            parts = [_mc_block_sums(*ranges[0])] + [f.result() for f in rest]
        for block in np.concatenate(parts):  # in block order, as one pass adds them
            for (idx, _), block_sum in zip(active, block):
                totals[idx] += block_sum
    out = np.pi * C1 * C1 - 4.0 * (totals / samples)
    return out if out.ndim else float(out)


def threshold_scan(M_values, C1: float = 0.5, n_r: int = 1024, n_phi: int = 1024
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Bound values over a list of amplitudes (sorted ascending)."""
    Ms = np.asarray(sorted(M_values), dtype=float)
    vals = np.array([energy_bound_integral(M, C1, n_r, n_phi) for M in Ms])
    return Ms, vals


def find_threshold(C1: float, m_lo: float, m_hi: float, tol: float = 1e-6,
                   n_r: int = 1024, n_phi: int = 1024) -> float:
    """Bisect the sign change of the bound value between m_lo and m_hi.

    The bound is continuous and strictly decreasing once the positive part
    activates, so f(m_lo) > 0 >= f(m_hi), the scan's bracket, pins the threshold.
    """
    if not tol > 0.0:
        raise ValueError(f"bisection tolerance must be positive, got {tol}")
    if not m_lo < m_hi:
        raise ValueError(f"bisection bracket must have m_lo < m_hi, got [{m_lo}, {m_hi}]")
    f_lo = energy_bound_integral(m_lo, C1, n_r, n_phi)
    f_hi = energy_bound_integral(m_hi, C1, n_r, n_phi)
    if f_lo <= 0.0 or f_hi > 0.0:
        raise ValueError(
            f"[{m_lo}, {m_hi}] does not bracket a sign change "
            f"(values {f_lo:.4g}, {f_hi:.4g})"
        )
    while m_hi - m_lo > tol:
        mid = 0.5 * (m_lo + m_hi)
        if energy_bound_integral(mid, C1, n_r, n_phi) > 0.0:
            m_lo = mid
        else:
            m_hi = mid
    return 0.5 * (m_lo + m_hi)


def write_profile_csv(profile: MonotonicityProfile, path) -> None:
    """Columns r, phi, boundary_integrand, defect_to_next (nan on last row)."""
    write_table(path, "r,phi,boundary_integrand,defect_to_next",
                [profile.radii, profile.phi_values, profile.boundary_integrand,
                 np.append(profile.defects, np.nan)])
