"""Boundary-integral Stokes flow on triangulated surfaces.

The regularized Stokeslet kernel is integrated analytically over flat
triangles carrying piecewise-linear force densities, which decouples the
regularization length from the mesh spacing and yields second-order
convergence in the mesh size.
"""

from .errors import (
    DegenerateTriangleError,
    FloatingFloorError,
    MeshFormatError,
    SingularSystemError,
    StokesletSurfacesError,
)
from .geometry import (
    MeshStats,
    TriangleFrame,
    TriMesh,
    make_box_mesh,
    make_icosphere,
    make_pipe_mesh,
    make_spheroid_mesh,
    mesh_stats,
    read_mesh,
    triangle_frame,
    write_mesh,
)
from .kernel import (
    KernelParams,
    epsilon_floor,
    point_stokeslet,
    t_table,
    triangle_velocity,
)
from .reference import (
    flux_without_cube,
    l2_error,
    pipe_reference,
    sphere_rotation_reference,
    sphere_translation_reference,
    spheroid_net_torque,
    spheroid_rotation_reference,
    squirmer_slip,
)
from .solver import (
    SwimmerSolution,
    assemble_resistance,
    baseline_mrs_velocity,
    constant_assemble_resistance,
    constant_evaluate_velocity,
    evaluate_velocity,
    net_force,
    net_torque,
    solve_resistance,
    solve_swimmer,
)
from .studies import (
    STUDY_IDS,
    ExperimentReport,
    fit_loglog_slope,
    run_study,
    write_field_csv,
    write_report_csv,
)

__version__ = "0.1.0"
