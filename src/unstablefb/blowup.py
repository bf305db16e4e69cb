"""Blow-up surrogates: boundary L2 growth and finite-radius classification.

S(r) = (r^-1 int_{dB_r} u^2)^(1/2) measures the trace amplitude; S(r)/r^2
is the quadratic-scaling ratio whose finite-r trend stands in for the
behaviour of u(r x)/r^2.  Classification is reported as a trend over the
sampled radii, never as a limit claim.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import ScalarField, _circle_integrals, _circle_traces, check_radii, write_table
from .monotonicity import _phi_values

CASE1 = "case1"
CASE3 = "case3"
INCONCLUSIVE = "inconclusive"
# S(r) at or below this fraction of max |u| (or 1) is too small to normalize by
S_FLOOR = 1e-12
# the near-zero band of phi is DELTA_PHI_REL * |phi(r_max)|, at least
# DELTA_PHI_ABS; TREND_SLACK is the relative tolerance on the S(r)/r^2
# endpoint comparison
DELTA_PHI_REL = 0.05
DELTA_PHI_ABS = 1e-3
TREND_SLACK = 0.05
# samples per circle trace, and the modes whose energy share is reported
TRACE_SAMPLES = 256
REPORTED_MODES = (2, 4)


class DegenerateTrace(ValueError):
    """Trace amplitude too small to normalize (a ValueError: the CLI exits 2)."""


@dataclass
class BlowupReport:
    """Per-radius blow-up diagnostics plus the trend classification."""

    radii: np.ndarray
    s_values: np.ndarray
    ratios: np.ndarray  # S(r) / r^2
    # normalized trace coefficients, one row per radius (field._circle_traces)
    a: np.ndarray
    b: np.ndarray
    mode_fractions: dict[int, np.ndarray]
    classification: str
    phi_min_r: float
    phi_max_r: float


# not public: only tests and perfbench/spans.py call it; its hook reads float(args[1])
def s_norm(u: ScalarField, r: float) -> float:
    """Boundary L2 amplitude (r^-1 int_{dB_r} u^2)^(1/2)."""
    return float(_s_values(u.apply(np.square), [r])[0])


def _s_values(u_sq: ScalarField, radii) -> np.ndarray:
    """S at each radius from the squared field u^2."""
    return np.sqrt(np.maximum(_circle_integrals(u_sq, radii) / radii, 0.0))


def _classify(u: ScalarField, radii: np.ndarray, s_small: float, s_large: float,
              du_dr: np.ndarray | None = None) -> tuple[str, float, float]:
    """Trend classification and phi at both end radii, given S at the ends
    (and du_dr = radial_derivative(u).values, when the caller has it).

    case1: phi(r_min) clearly negative and S(r)/r^2 does not decay toward
    the origin (quadratic growth surrogate; a flat ratio counts).
    case3: phi(r_min) within delta of zero and S(r)/r^2 decaying toward the
    origin (degeneracy surrogate).  Anything else is inconclusive.
    """
    phi_min, phi_max = (float(v) for v in _phi_values(u, radii[[0, -1]], du_dr))
    delta = max(DELTA_PHI_REL * abs(phi_max), DELTA_PHI_ABS)
    ratio_small = s_small / radii[0] ** 2
    ratio_large = s_large / radii[-1] ** 2
    decaying_inward = ratio_small < ratio_large * (1.0 - TREND_SLACK)
    classification = INCONCLUSIVE
    if phi_min < -delta and not decaying_inward:
        classification = CASE1
    elif abs(phi_min) <= delta and decaying_inward:
        classification = CASE3
    return classification, phi_min, phi_max


def blowup_report(u: ScalarField, radii, du_dr: np.ndarray | None = None) -> BlowupReport:
    """Assemble S, the normalized trace coefficients (one row per radius),
    mode energies, and the trend classification (`_classify`) over at least
    two radii (`field.check_radii`).  du_dr = radial_derivative(u).values
    spares the classification its own."""
    radii = check_radii(u.grid, radii)
    s_values = _s_values(u.apply(np.square), radii)
    floor = S_FLOOR * max(float(np.max(np.abs(u.values))), 1.0)
    for r, s in zip(radii, s_values):
        if s <= floor:
            raise DegenerateTrace(f"S({r:g}) = {s:.3e} is too small to normalize the trace")
    # each trace over its S(r), of unit L2(dB_1) norm
    samples, a, b = (x / s_values[:, None] for x in _circle_traces(u, radii, TRACE_SAMPLES))
    # share of each trace's L2 energy carried by mode ell >= 1, 0 for a zero trace
    total = 2.0 * math.pi * np.mean(samples**2, axis=1)
    fractions = {
        ell: np.divide(math.pi * (a[:, ell] ** 2 + b[:, ell] ** 2), total,
                       out=np.zeros_like(total), where=total > 0.0)
        for ell in REPORTED_MODES
    }
    classification, phi_min, phi_max = _classify(u, radii, s_values[0], s_values[-1], du_dr)
    return BlowupReport(
        radii=radii,
        s_values=s_values,
        ratios=s_values / radii**2,
        a=a,
        b=b,
        mode_fractions=fractions,
        classification=classification,
        phi_min_r=phi_min,
        phi_max_r=phi_max,
    )


def write_blowup_csv(report: BlowupReport, path) -> None:
    """One row per radius: r, S, S/r^2, normalized a0..a8, b1..b8, fractions."""
    n_modes = report.a.shape[1] - 1
    modes = sorted(report.mode_fractions)
    cols = ["r", "s", "s_over_r2"]
    cols += [f"a{l}" for l in range(n_modes + 1)]
    cols += [f"b{l}" for l in range(1, n_modes + 1)]
    cols += [f"mode{ell}_energy_fraction" for ell in modes]
    write_table(path, ",".join(cols),
                [report.radii, report.s_values, report.ratios, report.a, report.b[:, 1:],
                 *(report.mode_fractions[ell] for ell in modes)])
