"""Runnable validation studies producing machine-readable reports.

Each study sweeps a mesh-refinement/regularization grid and adds the metrics
against the closed-form references to the ExperimentReport that `run_study`
returns. Its rows serialize to CSV with the fixed header

    experiment,num_faces,dof,h,eps,metric,value

A study's settings are the keyword arguments of its function (`f_values`,
`eps_values`, `mu`, `a`, ...): their names and defaults are the one table of
settings. `run_study` checks its `params` dict against them and rejects a key
the study does not take; the CLI passes the flags it was given under the same
names. `_sweep` checks every eps and mu of a grid before its first mesh is
built. Point samples go to separate x,y,z,ux,uy,uz or x,y,z,fx,fy,fz CSVs.
"""

from __future__ import annotations

import inspect
import os
import tempfile
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import reference as ref
from . import solver
from .errors import MeshFormatError
from .geometry import (
    _cross,
    make_box_mesh,
    make_icosphere,
    make_pipe_mesh,
    make_spheroid_mesh,
    mesh_stats,
)
from .kernel import KernelParams, epsilon_floor

__all__ = [
    "ExperimentReport",
    "run_study",
    "STUDY_IDS",
    "fit_loglog_slope",
    "write_report_csv",
    "write_field_csv",
]

CSV_HEADER = "experiment,num_faces,dof,h,eps,metric,value"

# Settings no study varies: the squirmer's slip amplitude (swim speed 2 B1/3),
# the frequency of linear-vs-constant's condition numbers, the duct's pressure
# gradient, the half side of the cube in the duct, and the relative change
# below which fit_loglog_slope treats an error as plateaued.
B1 = 1.5
CONDITION_F = 4
DUCT_DP = 1.0
CUBE_HALF_SIDE = 0.25
PLATEAU_TOL = 0.05


@dataclass
class ExperimentReport:
    """Rows of (num_faces, dof, h, eps, metric, value) of one study."""

    experiment: str
    rows: list = field(default_factory=list)

    def add(self, num_faces, dof, h, eps, metric, value):
        value = float(value)
        if not np.isfinite(value):
            raise ValueError(f"non-finite metric {metric!r} in {self.experiment}")
        self.rows.append({"num_faces": int(num_faces), "dof": int(dof), "h": float(h),
                          "eps": float(eps), "metric": str(metric), "value": value})

    def values(self, metric):
        return [r["value"] for r in self.rows if r["metric"] == metric]

    def summary_lines(self):
        return [
            f"{self.experiment} faces={r['num_faces']} dof={r['dof']} "
            f"h={r['h']:.6g} eps={r['eps']:.6g} {r['metric']}={r['value']:.6g}"
            for r in self.rows
        ]


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_report_csv(report: ExperimentReport, path) -> None:
    lines = [CSV_HEADER] + [f"{report.experiment},{r['num_faces']},{r['dof']},"
                            f"{r['h']:.17g},{r['eps']:.17g},{r['metric']},{r['value']:.17g}"
                            for r in report.rows]
    _atomic_write(path, "\n".join(lines) + "\n")


def write_field_csv(path, points, vectors, name: str = "u") -> None:
    rows = np.hstack([np.asarray(points, dtype=float), np.asarray(vectors, dtype=float)])
    lines = [f"x,y,z,{name}x,{name}y,{name}z"]
    lines += [",".join(f"{value:.17g}" for value in row) for row in rows]
    _atomic_write(path, "\n".join(lines) + "\n")


def fit_loglog_slope(h_values, errors):
    """Least-squares slope of log(error) vs log(h), excluding plateaued points.

    A point is flagged as plateaued when the error changed by less than
    PLATEAU_TOL relative to the next-coarser grid (saturation by the
    regularization or conditioning floor). Returns (slope, used_mask).
    """
    h_values = np.asarray(h_values, dtype=float)
    errors = np.asarray(errors, dtype=float)
    order = np.argsort(h_values)[::-1]  # coarse to fine
    used = np.ones(len(h_values), dtype=bool)
    for prev, cur in zip(order[:-1], order[1:]):
        if abs(errors[cur] - errors[prev]) < PLATEAU_TOL * abs(errors[prev]):
            used[cur] = False
    if used.sum() < 2:
        used[:] = True
    slope = np.polyfit(np.log(h_values[used]), np.log(errors[used]), 1)[0]
    return float(slope), used


# ---------------------------------------------------------------------------
# the sphere problems, shared with the CLI


def _rigid_sphere(mesh, kind, a, mu):
    """(tractions, surface velocities) at the vertices of a sphere of radius a
    translating along x (kind "translate") or rotating about z ("rotate")."""
    n = mesh.num_vertices
    if kind == "translate":
        U = np.array([1.0, 0.0, 0.0])
        # the traction is the same at every point: evaluate it at one
        traction = ref.sphere_translation_reference(U, a, U, mu)[0]
        return np.tile(traction, (n, 1)), np.tile(U, (n, 1))
    Om = np.array([0.0, 0.0, 1.0])
    # only the traction is used: the field velocity divides by |x|^3, which
    # is 0/0 at a vertex on the origin (possible in a mesh file)
    with np.errstate(divide="ignore", invalid="ignore"):
        tractions = ref.sphere_rotation_reference(mesh.vertices, a, Om, mu)[0]
    return tractions, _cross(Om, mesh.vertices)


def _squirmer_slip(mesh):
    """Squirmer slip of amplitude B1 at the vertices, shape (N, 3).

    The polar angle is undefined at the origin, so a mesh with a vertex
    there is rejected with MeshFormatError.
    """
    x, y, z = mesh.vertices.T
    r = np.linalg.norm(mesh.vertices, axis=1)
    if np.any(r == 0.0):
        raise MeshFormatError("squirmer slip is undefined at a mesh vertex on "
                              "the origin (the swimmer's center)")
    theta = np.arccos(np.clip(z / r, -1.0, 1.0))
    phi = np.arctan2(y, x)
    return ref.squirmer_slip(theta, phi, B1)


# ---------------------------------------------------------------------------
# individual studies


def _row_key(mesh):
    """(num_faces, dof, h) of the report rows on `mesh`."""
    stats = mesh_stats(mesh)
    return stats.num_faces, stats.dof, stats.h


def _spheres(a, f_values):
    """(f, icosphere of radius a and subdivision f) for each f."""
    for f in f_values:
        yield f, make_icosphere(f, radius=a)


def _sweep(meshes, eps_values, mu):
    """(label, mesh, row key, the kernel parameters of every eps) of each
    mesh; a study's rows take the eps in this order on each mesh. Every eps
    and mu is checked before the first mesh is built."""
    params = [KernelParams(eps=eps, mu=mu) for eps in eps_values]
    for label, mesh in meshes:
        yield label, mesh, _row_key(mesh), params


def _each(values, params):
    """values, the same under every params of a sweep, as an evaluation
    sweep's (E, ...) array."""
    return np.broadcast_to(values, (len(params),) + np.shape(values))


def _vertex_error(u, target):
    """RMS over the vertices of the velocity error |u - target|."""
    return ref.l2_error(np.linalg.norm(u - target, axis=1))


def _forward_sphere(kind, report, *, f_values=range(2, 9), eps_values=(1e-4,),
                    a=1.0, mu=1.0):
    for _, mesh, key, params in _sweep(_spheres(a, f_values), eps_values, mu):
        tractions, target = _rigid_sphere(mesh, kind, a, mu)
        u = solver.evaluate_velocity(mesh, _each(tractions, params), mesh.vertices,
                                     params)
        for kp, u_e in zip(params, u):
            report.add(*key, kp.eps, "l2_error", _vertex_error(u_e, target))
    _add_slope(report, "l2_error")


def _add_slope(report, metric):
    by_h = {}
    for r in report.rows:
        if r["metric"] == metric:
            by_h.setdefault(r["h"], []).append(r["value"])
    if len(by_h) >= 2:
        hs = sorted(by_h)
        errs = [np.mean(by_h[h]) for h in hs]
        slope, _ = fit_loglog_slope(hs, errs)
        report.add(0, 0, 0.0, 0.0, "fit_slope", slope)


def _resistance_sphere(kind, report, *, f_values=range(2, 7), eps_values=(1e-4,),
                       a=1.0, mu=1.0):
    for _, mesh, key, params in _sweep(_spheres(a, f_values), eps_values, mu):
        _, bc = _rigid_sphere(mesh, kind, a, mu)
        for kp in params:
            matrix = solver.assemble_resistance(mesh, kp)
            forces = solver.solve_resistance(mesh, bc, kp, matrix=matrix)
            if kind == "translate":
                drag = -solver.net_force(mesh, forces)
                target = -6.0 * np.pi * mu * a
                report.add(*key, kp.eps, "drag_x_rel_error",
                           abs(drag[0] - target) / abs(target))
                report.add(*key, kp.eps, "drag_y_abs_error", abs(drag[1]))
                report.add(*key, kp.eps, "drag_z_abs_error", abs(drag[2]))
            else:
                torque = -solver.net_torque(mesh, forces, center=np.zeros(3))
                target = -8.0 * np.pi * mu * a**3
                report.add(*key, kp.eps, "torque_z_rel_error",
                           abs(torque[2] - target) / abs(target))
                report.add(*key, kp.eps, "torque_xy_abs_error",
                           float(np.hypot(torque[0], torque[1])))
    metric = "drag_x_rel_error" if kind == "translate" else "torque_z_rel_error"
    _add_slope(report, metric)


def _forward_spheroid(report, *, f_values=(4, 5, 6), eps_values=(1e-4,),
                      grading_values=(0.0,), a=3.0, b=1.0, mu=1.0):
    meshes = ((grading, make_spheroid_mesh(f, a, b, grading=grading))
              for grading in grading_values for f in f_values)
    for grading, mesh, key, params in _sweep(meshes, eps_values, mu):
        tractions = ref.spheroid_rotation_reference(mesh.vertices, a, b, mu)[0]
        target = _cross([0.0, 0.0, 1.0], mesh.vertices)
        zfrac = np.abs(mesh.vertices[:, 2]) / a
        tag = f"grading={grading:g}:"
        u = solver.evaluate_velocity(mesh, _each(tractions, params), mesh.vertices,
                                     params)
        for kp, u_e in zip(params, u):
            point_err = np.linalg.norm(u_e - target, axis=1)
            polar = point_err[zfrac > 0.9]
            equator = point_err[zfrac < 0.3]
            report.add(*key, kp.eps, tag + "l2_error", ref.l2_error(point_err))
            report.add(*key, kp.eps, tag + "polar_max_error",
                       polar.max() if polar.size else 0.0)
            report.add(*key, kp.eps, tag + "equator_median_error",
                       np.median(equator) if equator.size else 0.0)


def _squirmer(report, *, f_values=range(3, 9), eps_values=(1e-4,), a=1.0, mu=1.0):
    for _, mesh, key, params in _sweep(_spheres(a, f_values), eps_values, mu):
        slip = _squirmer_slip(mesh)
        for kp in params:
            sol = solver.solve_swimmer(mesh, slip, kp, center=np.zeros(3))
            report.add(*key, kp.eps, "U_z_error", abs(sol.U[2] - (2.0 / 3.0) * B1))
            report.add(*key, kp.eps, "U_xy", float(np.hypot(*sol.U[:2])))
            report.add(*key, kp.eps, "Omega_norm", float(np.linalg.norm(sol.Omega)))
    _add_slope(report, "U_z_error")


def _linear_vs_constant(report, *, f_values=range(2, 7), eps_values=(1e-4,),
                        a=1.0, mu=1.0):
    for f, mesh, key, params in _sweep(_spheres(a, f_values), eps_values, mu):
        tractions, target = _rigid_sphere(mesh, "rotate", a, mu)
        face_tractions = tractions[mesh.faces].mean(axis=1)
        u_lin = solver.evaluate_velocity(mesh, _each(tractions, params), mesh.vertices,
                                         params)
        u_con = solver.constant_evaluate_velocity(mesh, _each(face_tractions, params),
                                                  mesh.vertices, params)
        for kp, u_lin_e, u_con_e in zip(params, u_lin, u_con):
            report.add(*key, kp.eps, "linear_l2_error", _vertex_error(u_lin_e, target))
            report.add(*key, kp.eps, "constant_l2_error", _vertex_error(u_con_e, target))
            if f == CONDITION_F:
                report.add(*key, kp.eps, "condition_linear",
                           np.linalg.cond(solver.assemble_resistance(mesh, kp)))
                report.add(*key, kp.eps, "condition_constant",
                           np.linalg.cond(solver.constant_assemble_resistance(mesh, kp)))


def _mrs_comparison(report, *, f_values=(4,), eps_values=None,
                    mrs_eps_values=(5e-2, 5e-3), a=1.0, mu=1.0):
    # its own loop: eps_values=None takes those of 1e-4, 1e-6, 1e-8 above each
    # mesh's floor (not 1e-8 at f <= 2); every eps passed in is checked, with
    # mu, before the first mesh is built, and used as given
    mrs_params = [KernelParams(eps=eps, mu=mu) for eps in mrs_eps_values]
    if eps_values is not None:
        surface_params = [KernelParams(eps=eps, mu=mu) for eps in eps_values]
    for _, mesh in _spheres(a, f_values):
        key = _row_key(mesh)
        tractions, target = _rigid_sphere(mesh, "translate", a, mu)
        if eps_values is None:
            floor = epsilon_floor(mesh)
            surface_params = [KernelParams(eps=eps, mu=mu)
                              for eps in (1e-4, 1e-6, 1e-8) if eps > floor]
        u = solver.evaluate_velocity(mesh, _each(tractions, surface_params),
                                     mesh.vertices, surface_params)
        for kp, u_e in zip(surface_params, u):
            report.add(*key, kp.eps, "surfaces_l2_error", _vertex_error(u_e, target))
        for kp in mrs_params:
            u = solver.baseline_mrs_velocity(mesh, tractions, mesh.vertices, kp)
            report.add(*key, kp.eps, "mrs_l2_error", _vertex_error(u, target))


def _triangle_quadrature_points(frame):
    """16-point product rule on each triangle of `frame`; returns (points,
    weights) of shapes (16 F, 3) and (16 F,), face by face.

    The square [0,1]^2 collapses onto the parameter triangle via
    (alpha, beta) = (u, u v) with Jacobian u; weights include the area
    factor BH.
    """
    x, w = np.polynomial.legendre.leggauss(4)
    gu, wu = 0.5 * (x + 1.0), 0.5 * w  # 4-point Gauss-Legendre on [0, 1]
    alpha = np.repeat(gu, 4)[None, :, None]  # u, outer loop of the 16 nodes
    beta = (gu[:, None] * gu[None, :]).reshape(1, 16, 1)  # u v
    L1, L2 = frame.side_L[:, 0, None, None], frame.side_L[:, 1, None, None]
    vhat, what = frame.side_e[:, None, 0], frame.side_e[:, None, 1]
    pts = frame.y0[:, None] - alpha * L1 * vhat - beta * L2 * what
    wts = (wu[:, None] * wu[None, :] * gu[:, None]).reshape(1, 16) * frame.BH[:, None]
    return pts.reshape(-1, 3), wts.reshape(-1)


def _pipe_leak(report, *, h_cube_values=(0.1, 0.05, 0.0333),
               eps_over_h=(1e-2, 1e-1, 0.3, 1.0), h_pipe=0.2, L=2.5, a=1.0, mu=1.0):
    # its own loop: eps = ratio * h_cube depends on the mesh; each eps is
    # checked before the first mesh is built
    flux0 = ref.flux_without_cube(CUBE_HALF_SIDE, a, a, DUCT_DP, mu)
    if a <= CUBE_HALF_SIDE:
        raise ValueError(f"duct half width a must exceed the cube's half side "
                         f"{CUBE_HALF_SIDE}, got {a}")
    params = [[KernelParams(eps=ratio * h_cube, mu=mu) for ratio in eps_over_h]
              for h_cube in h_cube_values]
    pipe = make_pipe_mesh(L, a, a, h_pipe)

    def u_duct(pts):
        u = np.zeros((len(pts), 3))
        u[:, 0] = ref.pipe_reference(pts[:, 1], pts[:, 2], a, a, DUCT_DP, mu)
        return u

    for h_cube, cube_params in zip(h_cube_values, params):
        cube = make_box_mesh((0.0, 0.0, 0.0), CUBE_HALF_SIDE, h_cube)
        mesh = cube.merged_with(pipe)
        bc = np.zeros((mesh.num_vertices, 3))
        bc[:cube.num_vertices] = -u_duct(cube.vertices)
        key = (cube.num_faces, 3 * mesh.num_vertices, mesh_stats(cube).h)
        # the cube's front (x < 0) and back (x > 0) faces, the only ones whose
        # outward normal is -x or +x: that normal, quadrature points and
        # weights, and duct flow at the points
        frames = cube.frames
        sides = []
        for sign in (-1.0, 1.0):
            nhat = np.array([sign, 0.0, 0.0])
            on_side = np.abs(frames.nhat @ nhat - 1.0) <= 1e-12
            qpts, qwts = _triangle_quadrature_points(frames.select(on_side))
            sides.append((nhat, qpts, qwts, u_duct(qpts)))
        forces = []
        for kp in cube_params:
            matrix = solver.assemble_resistance(mesh, kp)
            forces.append(solver.solve_resistance(mesh, bc, kp, matrix=matrix))
        # each side's leak under every eps, from one evaluation of the sweep
        leaks = []
        for nhat, qpts, qwts, u_qpts in sides:
            u = solver.evaluate_velocity(mesh, forces, qpts, cube_params)
            leaks.append([float(np.sum(qwts * np.abs((u_e + u_qpts) @ nhat))) / flux0
                          for u_e in u])
        for kp, front, back in zip(cube_params, *leaks):
            report.add(*key, kp.eps, "leak_front", front)
            report.add(*key, kp.eps, "scaled_leak", front * h_cube ** (-1.5))
            report.add(*key, kp.eps, "leak_back", back)
    # power-law fit of scaled leak vs eps/h across the whole grid
    scaled_rows = [r for r in report.rows if r["metric"] == "scaled_leak"]
    if len(scaled_rows) >= 2:
        ratios = [r["eps"] / r["h"] for r in scaled_rows]
        scaled = [r["value"] for r in scaled_rows]
        coeffs = np.polyfit(np.log(ratios), np.log(scaled), 1)
        report.add(0, 0, 0.0, 0.0, "fit_exponent", coeffs[0])
        report.add(0, 0, 0.0, 0.0, "fit_prefactor", float(np.exp(coeffs[1])))


_STUDIES = {
    # kind is bound positionally, so it is not a setting of the study
    "forward-translate": partial(_forward_sphere, "translate"),
    "forward-rotate": partial(_forward_sphere, "rotate"),
    "resistance-drag": partial(_resistance_sphere, "translate"),
    "resistance-torque": partial(_resistance_sphere, "rotate"),
    "forward-spheroid": _forward_spheroid,
    "squirmer": _squirmer,
    "pipe-leak": _pipe_leak,
    "linear-vs-constant": _linear_vs_constant,
    "mrs-comparison": _mrs_comparison,
}
STUDY_IDS = tuple(_STUDIES)


def _settings(study_id: str) -> tuple:
    """The settings of a study: the keyword-only arguments of its function."""
    if study_id not in _STUDIES:
        raise ValueError(f"unknown study {study_id!r}; choose from {STUDY_IDS}")
    parameters = inspect.signature(_STUDIES[study_id]).parameters.values()
    return tuple(p.name for p in parameters if p.kind is p.KEYWORD_ONLY)


def run_study(study_id: str, params: dict | None = None) -> ExperimentReport:
    """Run one named validation study with the settings in `params` and return
    its report. A key the study takes no keyword argument for raises
    ValueError before any work is done."""
    settings = _settings(study_id)
    params = dict(params or {})
    if unknown := [key for key in params if key not in settings]:
        raise ValueError(f"study {study_id!r} takes no {', '.join(unknown)}; "
                         f"its settings are {', '.join(settings)}")
    report = ExperimentReport(study_id)
    _STUDIES[study_id](report, **params)
    return report
