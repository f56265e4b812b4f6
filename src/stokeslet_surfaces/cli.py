"""Command-line frontend: mesh generation, point evaluation, solves, studies.

Exit codes: 0 success, 2 usage error, 3 regularization below the
floating-point floor, 4 singular linear system, 5 I/O or mesh-format error
(including an empty mesh, a degenerate triangle, and a squirmer mesh with a
vertex at the origin).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import solver, studies
from .errors import (
    DegenerateTriangleError,
    FloatingFloorError,
    MeshFormatError,
    SingularSystemError,
)
from .geometry import (
    make_box_mesh,
    make_icosphere,
    make_pipe_mesh,
    make_spheroid_mesh,
    mesh_stats,
    read_mesh,
    write_mesh,
)
from .kernel import KernelParams

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FLOOR = 3
EXIT_SINGULAR = 4
EXIT_IO = 5


def _list(kind):
    """argparse type of a non-empty comma-separated list of `kind` values."""
    def parse(text):
        values = [kind(t) for t in text.split(",") if t]
        if not values:
            raise ValueError("empty list")
        return values
    parse.__name__ = f"comma-separated {kind.__name__} list"  # for usage errors
    return parse


def _vec3(text):
    parts = _list(float)(text)
    if len(parts) != 3:
        raise ValueError("not three coordinates")
    return np.array(parts)


_vec3.__name__ = "x,y,z point"  # argparse: "invalid x,y,z point value"


# the study keyword each study flag sets (its dest): the flag, its type, help
_STUDY_FLAGS = {
    "f_values": ("--f", _list(int), "comma-separated subdivision frequencies"),
    "eps_values": ("--eps", _list(float), "comma-separated regularizations"),
    "mu": ("--mu", float, None),
    "a": ("--a", float, None),
    "b": ("--b", float, None),
    "grading_values": ("--grading", _list(float), None),
    "h_cube_values": ("--h-cube", _list(float), None),
    "eps_over_h": ("--eps-over-h", _list(float), None),
}


def _parser():
    parser = argparse.ArgumentParser(
        prog="stokeslet-surfaces",
        description="Boundary-integral Stokes flow with analytically "
        "integrated regularized Stokeslets on triangle meshes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_mesh_options(p):
        p.add_argument("--shape", choices=("icosphere", "spheroid", "box", "pipe"),
                       default="icosphere")
        p.add_argument("--f", type=int, default=4,
                       help="icosphere subdivision frequency")
        p.add_argument("--a", type=float, default=1.0, help="radius / z semi-axis")
        p.add_argument("--b", type=float, default=1.0, help="equatorial semi-axis")
        p.add_argument("--grading", type=float, default=0.0,
                       help="polar mesh grading strength (spheroid)")
        p.add_argument("--half-side", type=float, default=0.25, help="box half side")
        p.add_argument("--length", type=float, default=2.5, help="pipe half length")
        p.add_argument("--grid-h", type=float, default=0.1,
                       help="grid spacing for box/pipe walls")
        p.add_argument("--mesh-file", default=None,
                       help="read the mesh from a file instead of generating it")

    p_mesh = sub.add_parser("mesh", help="generate a mesh file")
    add_mesh_options(p_mesh)
    p_mesh.add_argument("--out", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a reference-traction flow field")
    add_mesh_options(p_eval)
    p_eval.add_argument("--traction", choices=("translate", "rotate"),
                        default="translate")
    p_eval.add_argument("--point", type=_vec3, action="append", default=None,
                        help="field point x,y,z (repeatable)")
    p_eval.add_argument("--eps", type=float, default=1e-4)
    p_eval.add_argument("--mu", type=float, default=1.0)
    p_eval.add_argument("--out", default=None, help="write x,y,z,ux,uy,uz CSV")

    p_solve = sub.add_parser("solve", help="resistance or swimmer solve")
    add_mesh_options(p_solve)
    p_solve.add_argument("--problem", choices=("drag", "torque", "squirmer"),
                         default="drag")
    p_solve.add_argument("--eps", type=float, default=1e-4)
    p_solve.add_argument("--mu", type=float, default=1.0)
    p_solve.add_argument("--out", default=None,
                         help="write per-vertex x,y,z,fx,fy,fz CSV")

    # each flag's dest is the study keyword it sets; a flag left out sets
    # nothing, so the study's own default applies, and a flag the study takes
    # no keyword for is rejected by _run_study, named as typed (exit 2)
    p_study = sub.add_parser("study", help="run a validation study",
                             argument_default=argparse.SUPPRESS)
    p_study.add_argument("--id", required=True, choices=studies.STUDY_IDS)
    p_study.add_argument("--out", default=None, help="write the report CSV")
    for dest, (flag, kind, text) in _STUDY_FLAGS.items():
        p_study.add_argument(flag, dest=dest, type=kind, help=text)
    return parser


def parse_args(argv):
    return _parser().parse_args(argv)


def _build_mesh(config):
    if config.mesh_file:
        return read_mesh(config.mesh_file)
    if config.shape == "icosphere":
        return make_icosphere(config.f, radius=config.a)
    if config.shape == "spheroid":
        return make_spheroid_mesh(config.f, config.a, config.b,
                                  grading=config.grading)
    if config.shape == "box":
        return make_box_mesh((0.0, 0.0, 0.0), config.half_side, config.grid_h)
    return make_pipe_mesh(config.length, config.a, config.b, config.grid_h)


def _run_mesh(config):
    mesh = _build_mesh(config)
    stats = mesh_stats(mesh)
    write_mesh(mesh, config.out)
    print(f"mesh {config.shape} vertices={mesh.num_vertices} "
          f"faces={mesh.num_faces} h={stats.h:.6g} -> {config.out}")
    return EXIT_OK


def _run_eval(config):
    mesh = _build_mesh(config)
    params = KernelParams(eps=config.eps, mu=config.mu)
    points = np.array(config.point) if config.point else mesh.vertices
    forces, _ = studies._rigid_sphere(mesh, config.traction, config.a, config.mu)
    u = solver.evaluate_velocity(mesh, forces, points, params)
    for p, v in zip(points, u):
        print(f"u({p[0]:g},{p[1]:g},{p[2]:g}) = ({v[0]:.9g}, {v[1]:.9g}, {v[2]:.9g})")
    if config.out:
        studies.write_field_csv(config.out, points, u)
    return EXIT_OK


def _run_solve(config):
    mesh = _build_mesh(config)
    params = KernelParams(eps=config.eps, mu=config.mu)
    if config.problem == "squirmer":
        slip = studies._squirmer_slip(mesh)
        sol = solver.solve_swimmer(mesh, slip, params, center=np.zeros(3))
        forces = sol.forces
        print(f"squirmer U = ({sol.U[0]:.6g}, {sol.U[1]:.6g}, {sol.U[2]:.6g}) "
              f"Omega = ({sol.Omega[0]:.6g}, {sol.Omega[1]:.6g}, {sol.Omega[2]:.6g})")
    else:
        kind = "translate" if config.problem == "drag" else "rotate"
        _, bc = studies._rigid_sphere(mesh, kind, config.a, config.mu)
        forces = solver.solve_resistance(mesh, bc, params)
        drag = -solver.net_force(mesh, forces)
        torque = -solver.net_torque(mesh, forces, center=np.zeros(3))
        print(f"drag = ({drag[0]:.6g}, {drag[1]:.6g}, {drag[2]:.6g}) "
              f"torque = ({torque[0]:.6g}, {torque[1]:.6g}, {torque[2]:.6g})")
    if config.out:
        studies.write_field_csv(config.out, mesh.vertices, forces, name="f")
    return EXIT_OK


def _run_study(config):
    params = {key: value for key, value in vars(config).items()
              if key not in ("command", "id", "out")}
    settings = studies._settings(config.id)
    if unknown := [_STUDY_FLAGS[key][0] for key in params if key not in settings]:
        own = ", ".join(_STUDY_FLAGS[key][0] for key in settings if key in _STUDY_FLAGS)
        raise ValueError(f"study {config.id!r} takes no {', '.join(unknown)}; "
                         f"its flags are {own}")
    report = studies.run_study(config.id, params)
    for line in report.summary_lines():
        print(line)
    if config.out:
        studies.write_report_csv(report, config.out)
        print(f"report -> {config.out}")
    return EXIT_OK


def run(config) -> int:
    # a missing output directory fails before the work, naming the given path
    if config.out and not os.path.isdir(os.path.dirname(config.out) or "."):
        raise FileNotFoundError(f"no directory for the output file {config.out}")
    if config.command == "mesh":
        return _run_mesh(config)
    if config.command == "eval":
        return _run_eval(config)
    if config.command == "solve":
        return _run_solve(config)
    return _run_study(config)


def main(argv=None) -> int:
    try:
        config = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return run(config)
    except FloatingFloorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FLOOR
    except SingularSystemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except (OSError, MeshFormatError, DegenerateTriangleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
