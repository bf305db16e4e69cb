"""The analyses run on a sector field as given, against its disk extension.

A sector field stands for its even reflection to the disk.  Every analysis
must read the same numbers from the sector as from reflect_to_disk's copy:
circle samples and crossing angles bit for bit (the same disk columns are
read through the reflection index map), Phi and the identity integrand to
1e-12 relative and S and the mode fractions to 1e-14 (the sums run over
one sector times 2k instead of over 2k sectors, and the sector's cosine
series derivative is the disk's Fourier derivative in another order).
"""

import numpy as np
import pytest

from conftest import saddle_field

from unstablefb import (
    PolarGrid,
    blowup_report,
    build_sector_grid,
    crossing_angles,
    phi_profile,
    sample_circle,
    solve_fixed_point,
)
from unstablefb.mesh import reflect_to_disk

PHI_RADII = [0.25, 0.3125, 0.5, 0.61, 0.7]
BLOWUP_RADII = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3]
CIRCLE_RADII = [0.1, 0.3, 0.55, 0.8]


@pytest.fixture(scope="module", params=["disk", "k2", "k3", "k4", "cross96"])
def field(request):
    if request.param == "cross96":
        sol = solve_fixed_point(build_sector_grid(2, 96, 96),
                                lambda p: 40.0 * np.cos(2.0 * p), 0.05)
        return sol.u
    grid = {
        "disk": PolarGrid(96, 64),
        "k2": build_sector_grid(2, 64, 48),
        "k3": build_sector_grid(3, 72, 24),
        "k4": build_sector_grid(4, 80, 16),
    }[request.param]
    return saddle_field(grid)


def test_circle_samples_and_crossings_are_bit_identical(field):
    disk = reflect_to_disk(field)
    for r in CIRCLE_RADII:
        for m in (256, 2048):
            got, ref = sample_circle(field, r, m), sample_circle(disk, r, m)
            assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])
        assert np.array_equal(crossing_angles(field, r), crossing_angles(disk, r))


def test_phi_profile_matches_disk(field):
    got, ref = phi_profile(field, PHI_RADII), phi_profile(reflect_to_disk(field), PHI_RADII)
    np.testing.assert_allclose(got.phi_values, ref.phi_values, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(got.boundary_integrand, ref.boundary_integrand,
                               rtol=1e-12, atol=0.0)


def test_blowup_report_matches_disk(field):
    got, ref = blowup_report(field, BLOWUP_RADII), blowup_report(reflect_to_disk(field),
                                                                 BLOWUP_RADII)
    np.testing.assert_allclose(got.s_values, ref.s_values, rtol=1e-14, atol=0.0)
    for ell in (2, 4):
        np.testing.assert_allclose(got.mode_fractions[ell], ref.mode_fractions[ell],
                                   rtol=0.0, atol=1e-14)
    assert got.classification == ref.classification
