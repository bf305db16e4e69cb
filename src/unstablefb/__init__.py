"""Numerical laboratory for an unstable obstacle-type problem on the disk.

The package solves the interior equation (Laplacian of u) = -1 on {u > 0}
with smoothed indicator nonlinearity on a symmetry sector of the unit
disk, pins u at the origin through a boundary shift, and provides the
verification toolset: a scale-invariant energy functional with its
monotonicity defect, circle traces with Fourier diagnostics, blow-up
classification, zero level set geometry, and reproducible experiment
drivers with manifests.
"""

__version__ = "0.1.0"

from .mesh import (
    PolarGrid,
    build_sector_grid,
)
from .field import (
    ScalarField,
    eval_origin,
    radial_derivative,
    read_field,
    read_field_csv,
    write_field_vtk,
)
from .poisson import assemble
from .semilinear import (
    Solution,
    StageFailed,
    export_solution,
    initial_guess,
    newton_stage,
    solve_fixed_point,
)
from .monotonicity import (
    energy_bound_integral,
    find_threshold,
    mc_energy_bound,
    phi_profile,
    threshold_scan,
)
from .blowup import (
    CASE1,
    DegenerateTrace,
    CASE3,
    INCONCLUSIVE,
    blowup_report,
    write_blowup_csv,
)
from .freeboundary import (
    LevelSet,
    extract_zero_set,
    fit_arcs_at_origin,
    write_arcs_json,
    write_levelset_csv,
)
from .cli import (
    RunManifest,
    main,
    rerun_manifest,
    run_asterisk,
    run_cross,
    run_solve,
    run_threshold_scan,
)

__all__ = [
    "__version__",
    "PolarGrid", "build_sector_grid",
    "ScalarField", "eval_origin", "radial_derivative",
    "read_field", "read_field_csv", "write_field_vtk",
    "assemble",
    "Solution", "StageFailed",
    "export_solution", "initial_guess",
    "newton_stage", "solve_fixed_point",
    "energy_bound_integral", "find_threshold",
    "mc_energy_bound", "phi_profile", "threshold_scan",
    "CASE1", "CASE3", "INCONCLUSIVE", "DegenerateTrace",
    "blowup_report", "write_blowup_csv",
    "LevelSet", "extract_zero_set",
    "fit_arcs_at_origin", "write_arcs_json", "write_levelset_csv",
    "RunManifest", "main", "rerun_manifest", "run_asterisk", "run_cross",
    "run_solve", "run_threshold_scan",
]
