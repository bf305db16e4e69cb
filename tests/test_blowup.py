"""Blow-up reports on synthetic fields: rescaled circle traces and the
trend classification.

The classifier sees three regimes here, all with closed-form energies:
 * r^2 cos(2 phi): scaled energy -1, flat S(r)/r^2 = sqrt(pi), so the
   origin keeps quadratic growth (case1).
 * 0.1 r^4 cos(4 phi): scaled energy 2 pi c^2 r^4 - (2c/3) r^2 stays within
   the near-zero band and S(r)/r^2 = sqrt(pi) c r^2 decays inward (case3).
 * r^4 cos(4 phi) with c = 1: the energy leaves the near-zero band while
   the ratio still decays, which the classifier refuses to label.
"""

import math

import numpy as np
import pytest

from conftest import BATCH_GRIDS, batch_radii, degree2_field, saddle_field

from unstablefb import (
    CASE1,
    CASE3,
    INCONCLUSIVE,
    DegenerateTrace,
    PolarGrid,
    ScalarField,
    blowup_report,
    build_sector_grid,
    write_blowup_csv,
)
from unstablefb.blowup import (
    DELTA_PHI_ABS,
    DELTA_PHI_REL,
    TRACE_SAMPLES,
    TREND_SLACK,
    _s_values,
    s_norm,
)
from unstablefb.field import _circle_integrals, _circle_traces, field_from_function
from unstablefb.monotonicity import phi

RADII = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3]


def degree4_field(grid, c=1.0):
    return field_from_function(grid, lambda r, p: c * r**4 * np.cos(4.0 * p))


class TestSNorm:
    def test_degree2_mode(self, disk256):
        u = degree2_field(disk256)
        for r in (0.1, 0.3, 0.5):
            assert s_norm(u, r) == pytest.approx(math.sqrt(math.pi) * r**2, rel=1e-6)

    def test_constant_field(self, disk256):
        c = 0.7
        u = field_from_function(disk256, lambda r, p: np.full_like(r, c))
        assert s_norm(u, 0.4) == pytest.approx(c * math.sqrt(2.0 * math.pi), rel=1e-10)


class TestRescaledTrace:
    def test_normalized_amplitude(self, disk256):
        u = degree2_field(disk256, M=40.0)
        tr = blowup_report(u, [0.2, 0.3]).traces[1]
        # normalization strips the amplitude: a2 = 1/sqrt(pi) regardless of M
        assert tr.a[2] == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-4)
        assert tr.mode_energy_fraction(2) == pytest.approx(1.0, abs=1e-8)

    def test_scale_invariance_across_radii(self, disk256):
        u = degree2_field(disk256)
        a2 = [tr.a[2] for tr in blowup_report(u, (0.2, 0.4, 0.6)).traces]
        assert np.ptp(a2) < 1e-4

    def test_zero_field_is_degenerate(self, disk64):
        u = ScalarField(disk64, np.zeros(disk64.shape))
        with pytest.raises(DegenerateTrace):
            blowup_report(u, [0.2, 0.3])


class TestClassifier:
    def test_quadratic_growth(self, disk256):
        assert blowup_report(degree2_field(disk256), RADII).classification == CASE1

    def test_second_order_degeneracy(self, disk256):
        assert blowup_report(degree4_field(disk256, c=0.1), RADII).classification == CASE3

    def test_mixed_signals_stay_unlabeled(self, disk256):
        rep = blowup_report(degree4_field(disk256, c=1.0), RADII)
        assert rep.classification == INCONCLUSIVE

    def test_needs_two_radii(self, disk256):
        with pytest.raises(ValueError):
            blowup_report(degree2_field(disk256), [0.1])


class TestReport:
    def test_report_fields(self, disk256):
        u = degree2_field(disk256)
        rep = blowup_report(u, RADII)
        assert rep.classification == CASE1
        assert np.array_equal(rep.radii, np.asarray(RADII))
        assert np.allclose(rep.ratios, rep.s_values / rep.radii**2)
        assert len(rep.traces) == len(RADII)
        assert set(rep.mode_fractions) >= {2, 4}
        assert np.all(rep.mode_fractions[2] > 0.99)

    def test_flat_ratio_for_homogeneous_field(self, disk256):
        rep = blowup_report(degree2_field(disk256), RADII)
        assert np.ptp(rep.ratios) / rep.ratios.mean() < 1e-4

    def test_csv_export(self, tmp_path, disk256):
        rep = blowup_report(degree2_field(disk256), RADII)
        path = tmp_path / "blowup.csv"
        write_blowup_csv(rep, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("r,")
        assert len(lines) == 1 + len(RADII)


def reference_trace(u, r, m):
    """S(r) and the normalized trace at one radius, each from its own
    square of u and its own trace."""
    s = math.sqrt(max(_circle_integrals(u.apply(np.square), [r])[0] / r, 0.0))
    tr, = _circle_traces(u, [r], m)
    return s, (tr.radius, tr.angles, tr.samples / s, tr.a / s, tr.b / s)


def reference_classification(u, radii):
    """The trend classification from S and Phi taken one radius at a time."""
    r0, r1 = min(radii), max(radii)
    phi_min, delta = phi(u, r0), max(DELTA_PHI_REL * abs(phi(u, r1)), DELTA_PHI_ABS)
    decaying = s_norm(u, r0) / r0**2 < s_norm(u, r1) / r1**2 * (1.0 - TREND_SLACK)
    if phi_min < -delta and not decaying:
        return CASE1
    if abs(phi_min) <= delta and decaying:
        return CASE3
    return INCONCLUSIVE


class TestSharedWork:
    """blowup_report squares the field once, reuses each S(r) for its trace
    and takes Phi at the end radii from one gradient; every number must be
    that of the per-radius evaluation, bit for bit."""

    @pytest.mark.parametrize("grid", [
        PolarGrid(96, 64),
        build_sector_grid(2, 64, 48),
        build_sector_grid(4, 80, 16),
    ], ids=["disk", "sector_k2", "sector_k4"])
    def test_report_equals_per_radius_evaluation(self, grid):
        u = saddle_field(grid)
        rep = blowup_report(u, RADII[::-1])
        assert np.array_equal(rep.radii, np.asarray(RADII))
        for n, r in enumerate(RADII):
            s_ref, trace_ref = reference_trace(u, r, TRACE_SAMPLES)
            assert rep.s_values[n] == s_norm(u, r) == s_ref
            tr = rep.traces[n]
            got = (tr.radius, tr.angles, tr.samples, tr.a, tr.b)
            assert all(np.array_equal(x, y) for x, y in zip(got, trace_ref))
        assert rep.phi_min_r == phi(u, RADII[0])
        assert rep.phi_max_r == phi(u, RADII[-1])
        assert rep.classification == reference_classification(u, RADII)

    @pytest.mark.parametrize("grid", BATCH_GRIDS, ids=["disk", "sector"])
    def test_s_batch_equals_per_radius_evaluation(self, grid):
        u, radii = saddle_field(grid), batch_radii(grid)
        got = _s_values(u.apply(np.square), radii).tolist()
        assert got == [s_norm(u, r) for r in radii]
        assert got == [reference_trace(u, r, TRACE_SAMPLES)[0] for r in radii]
