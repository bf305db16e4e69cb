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

from dataclasses import dataclass

import numpy as np

from .field import (
    ScalarField,
    _integrate_rings,
    as_disk,
    gradient_sq,
    integrate_ball,
    integrate_circle,
    radial_derivative,
)
from .mesh import SectorSpec, build_sector_grid


def check_window(grid, r: float) -> None:
    """Reject radii where derivative stencils and traces are not valid."""
    h = grid.dr
    if not (h < r < 1.0 - h + 1e-12):
        raise ValueError(
            f"radius {r} outside the valid window ({h:g}, {1 - h:g}); "
            "derivative stencils and trace interpolation degrade at the ends"
        )


def phi(u: ScalarField, r: float) -> float:
    """Scaled energy of u at radius r (see module docstring).

    Sector fields are extended to the full disk first, so the angular
    derivative is spectral and the circle integrals see periodic data.
    """
    u = as_disk(u)
    check_window(u.grid, r)
    grad = gradient_sq(u)
    bulk = integrate_ball(grad, None, r) - integrate_ball(
        u, lambda v: 2.0 * np.maximum(v, 0.0), r
    )
    surface = integrate_circle(u.apply(np.square), r)
    return float(bulk / r**4 - 2.0 * surface / r**5)


def _identity_integrand(u: ScalarField, du_dr: ScalarField, r: float) -> float:
    """r^-4 int_{dB_r} 2 (du/dr - 2u/r)^2 dH."""
    w = ScalarField(u.grid, (du_dr.values - 2.0 * u.values / u.grid.r[:, None]) ** 2)
    return 2.0 * integrate_circle(w, r) / r**4


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
    valid_window: tuple[float, float]

    def defect_between(self, rho: float, sigma: float) -> float:
        """Defect over [rho, sigma]; ValueError unless both are sampled radii."""
        i, j = np.minimum(np.searchsorted(self.radii, [rho, sigma]), len(self.radii) - 1)
        if not (np.isclose(self.radii[i], rho) and np.isclose(self.radii[j], sigma)):
            raise ValueError(f"({rho}, {sigma}) are not sampled radii")
        return float(np.sum(self.defects[i:j]))

    def total_defect(self) -> float:
        return float(np.sum(self.defects))

    def min_increment(self) -> float:
        """Most negative consecutive Phi difference (monotonicity check)."""
        return float(np.min(np.diff(self.phi_values)))


def phi_profile(u: ScalarField, radii) -> MonotonicityProfile:
    """Evaluate Phi and the identity defect over increasing radii."""
    u = as_disk(u)
    radii = np.asarray(sorted(radii), dtype=float)
    if len(radii) < 2:
        raise ValueError("need at least two radii for a profile")
    for r in radii:
        check_window(u.grid, r)
    grad = gradient_sq(u)
    du_dr = radial_derivative(u)
    u_sq = u.apply(np.square)

    phis = np.empty(len(radii))
    integrand = np.empty(len(radii))
    for n, r in enumerate(radii):
        bulk = integrate_ball(grad, None, r) - integrate_ball(
            u, lambda v: 2.0 * np.maximum(v, 0.0), r
        )
        phis[n] = bulk / r**4 - 2.0 * integrate_circle(u_sq, r) / r**5
        integrand[n] = _identity_integrand(u, du_dr, r)
    rhs = 0.5 * (integrand[1:] + integrand[:-1]) * np.diff(radii)
    defects = np.diff(phis) - rhs
    h = u.grid.dr
    return MonotonicityProfile(
        radii=radii,
        phi_values=phis,
        boundary_integrand=integrand,
        defects=defects,
        valid_window=(h, 1.0 - h),
    )


# --- comparison energy bound ----------------------------------------------


def energy_bound_integral(M: float, C1: float = 0.5, n_r: int = 1024, n_phi: int = 1024) -> float:
    """int_{B_1} [C1^2 - 2*(M*(x1^2 - x2^2) - C1)^+] dx by grid quadrature.

    Negative values certify that the constrained solution with arc data
    M*cos(2 phi) cannot stay sign-definite.  At M = 0 the value is exactly
    pi*C1^2.

    The quadrature is integrate_ball's on the n_r x n_phi quarter-sector
    grid, without sampling the field: with the angular values a_j =
    M*cos(2 phi_j) sorted in decreasing order and P their prefix sums,
    ring i's cell sum of 2*(r_i^2 a_j - C1)^+ is 2*(r_i^2 P[k] - C1*k),
    where k counts the a_j above C1/r_i^2.  Cost O(n_r log n_phi).
    """
    if C1 <= 0.0:
        raise ValueError(f"torsion bound C1 must be positive, got {C1}")
    if not np.isfinite(M):
        raise ValueError(f"amplitude M must be finite, got {M}")
    grid = build_sector_grid(SectorSpec(2), n_r, n_phi)
    a = -np.sort(-M * np.cos(2.0 * grid.phi))
    prefix = np.concatenate(([0.0], np.cumsum(a)))
    k = np.searchsorted(-a, -C1 / grid.r**2, side="left")
    row_sums = 2.0 * (grid.r**2 * prefix[k] - C1 * k)
    return float(np.pi * C1 * C1 - _integrate_rings(grid, row_sums, 1.0))


def mc_energy_bound(M: float, C1: float = 0.5, samples: int = 1_000_000, seed: int = 0) -> float:
    """Monte-Carlo estimate of energy_bound_integral (seeded, for cross-checks)."""
    if samples < 1:
        raise ValueError(f"need at least one Monte Carlo sample, got {samples}")
    if C1 <= 0.0:
        raise ValueError(f"torsion bound C1 must be positive, got {C1}")
    rng = np.random.default_rng(seed)
    r = np.sqrt(rng.random(samples))
    t = 2.0 * np.pi * rng.random(samples)
    h = M * r * r * np.cos(2.0 * t)
    vals = C1 * C1 - 2.0 * np.maximum(h - C1, 0.0)
    return float(np.pi * vals.mean())


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
    activates, so a bracket with opposite signs pins the threshold.
    """
    if not tol > 0.0:
        raise ValueError(f"bisection tolerance must be positive, got {tol}")
    f_lo = energy_bound_integral(m_lo, C1, n_r, n_phi)
    f_hi = energy_bound_integral(m_hi, C1, n_r, n_phi)
    if f_lo <= 0.0 or f_hi >= 0.0:
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
    defect_col = np.append(profile.defects, np.nan)
    data = np.column_stack(
        [profile.radii, profile.phi_values, profile.boundary_integrand, defect_col]
    )
    np.savetxt(
        path,
        data,
        delimiter=",",
        header="r,phi,boundary_integrand,defect_to_next",
        comments="",
        fmt="%.17g",
    )
