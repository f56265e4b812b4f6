"""Runnable validation studies producing machine-readable reports.

Each study sweeps a mesh-refinement/regularization grid, computes the
metrics against the closed-form references, and returns an ExperimentReport
whose rows serialize to CSV with the fixed header

    experiment,num_faces,dof,h,eps,metric,value

Velocity field samples are exported separately as x,y,z,ux,uy,uz rows.
"""

from __future__ import annotations

import datetime
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import reference as ref
from . import solver
from .geometry import (
    TriMesh,
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

STUDY_IDS = (
    "forward-translate",
    "forward-rotate",
    "resistance-drag",
    "resistance-torque",
    "forward-spheroid",
    "squirmer",
    "pipe-leak",
    "linear-vs-constant",
    "mrs-comparison",
)

CSV_HEADER = "experiment,num_faces,dof,h,eps,metric,value"


@dataclass
class ExperimentReport:
    """Rows of (num_faces, dof, h, eps, metric, value) plus run metadata."""

    experiment: str
    params: dict = field(default_factory=dict)
    created: str = ""
    rows: list = field(default_factory=list)

    def add(self, num_faces, dof, h, eps, metric, value):
        value = float(value)
        if not np.isfinite(value):
            raise ValueError(f"non-finite metric {metric!r} in {self.experiment}")
        self.rows.append(
            {
                "num_faces": int(num_faces),
                "dof": int(dof),
                "h": float(h),
                "eps": float(eps),
                "metric": str(metric),
                "value": value,
            }
        )

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
    lines = [CSV_HEADER]
    for r in report.rows:
        lines.append(
            f"{report.experiment},{r['num_faces']},{r['dof']},"
            f"{r['h']:.17g},{r['eps']:.17g},{r['metric']},{r['value']:.17g}"
        )
    _atomic_write(path, "\n".join(lines) + "\n")


def write_field_csv(path, points, velocities) -> None:
    points = np.asarray(points, dtype=float)
    velocities = np.asarray(velocities, dtype=float)
    lines = ["x,y,z,ux,uy,uz"]
    for p, u in zip(points, velocities):
        lines.append(
            f"{p[0]:.17g},{p[1]:.17g},{p[2]:.17g},"
            f"{u[0]:.17g},{u[1]:.17g},{u[2]:.17g}"
        )
    _atomic_write(path, "\n".join(lines) + "\n")


def fit_loglog_slope(h_values, errors, plateau_tol=0.05):
    """Least-squares slope of log(error) vs log(h), excluding plateaued points.

    A point is flagged as plateaued when the error changed by less than
    plateau_tol relative to the next-coarser grid (saturation by the
    regularization or conditioning floor). Returns (slope, used_mask).
    """
    h_values = np.asarray(h_values, dtype=float)
    errors = np.asarray(errors, dtype=float)
    order = np.argsort(h_values)[::-1]  # coarse to fine
    used = np.ones(len(h_values), dtype=bool)
    for prev, cur in zip(order[:-1], order[1:]):
        if abs(errors[cur] - errors[prev]) < plateau_tol * abs(errors[prev]):
            used[cur] = False
    if used.sum() < 2:
        used[:] = True
    slope = np.polyfit(np.log(h_values[used]), np.log(errors[used]), 1)[0]
    return float(slope), used


def _report(study, params):
    defaults = dict(params)
    return ExperimentReport(
        experiment=study,
        params=defaults,
        created=datetime.datetime.now(datetime.timezone.utc).isoformat(),
    )


def _grid(params, key, default):
    values = params.get(key, default)
    return list(values)


# ---------------------------------------------------------------------------
# individual studies


def _forward_sphere(report, params, kind):
    mu = params.get("mu", 1.0)
    a = params.get("a", 1.0)
    for f in _grid(params, "f_values", range(2, 9)):
        mesh = make_icosphere(f, radius=a)
        stats = mesh_stats(mesh)
        if kind == "translate":
            U = np.array([1.0, 0.0, 0.0])
            tractions = np.tile(
                ref.sphere_translation_reference(a * np.array([1.0, 0, 0]), a, U, mu)[0],
                (mesh.num_vertices, 1),
            )
            target = np.tile(U, (mesh.num_vertices, 1))
        else:
            Om = np.array([0.0, 0.0, 1.0])
            tractions = ref.sphere_rotation_reference(mesh.vertices, a, Om, mu)[0]
            target = np.cross(Om, mesh.vertices)
        for eps in _grid(params, "eps_values", (1e-4,)):
            kp = KernelParams(eps=eps, mu=mu)
            u = solver.evaluate_velocity(mesh, tractions, mesh.vertices, kp)
            err = ref.l2_error(np.linalg.norm(u - target, axis=1))
            report.add(mesh.num_faces, 3 * mesh.num_vertices, stats.h, eps,
                       "l2_error", err)
    _add_slope(report, "l2_error")
    return report


def _add_slope(report, metric, slope_metric="fit_slope"):
    by_h = {}
    for r in report.rows:
        if r["metric"] == metric:
            by_h.setdefault(r["h"], []).append(r["value"])
    if len(by_h) >= 2:
        hs = sorted(by_h)
        errs = [np.mean(by_h[h]) for h in hs]
        slope, _ = fit_loglog_slope(hs, errs)
        report.add(0, 0, 0.0, 0.0, slope_metric, slope)


def _resistance_sphere(report, params, kind):
    mu = params.get("mu", 1.0)
    a = params.get("a", 1.0)
    for f in _grid(params, "f_values", range(2, 7)):
        mesh = make_icosphere(f, radius=a)
        stats = mesh_stats(mesh)
        for eps in _grid(params, "eps_values", (1e-4,)):
            kp = KernelParams(eps=eps, mu=mu)
            matrix = solver.assemble_resistance(mesh, kp)
            if kind == "drag":
                bc = np.tile([1.0, 0.0, 0.0], (mesh.num_vertices, 1))
                forces = solver.solve_resistance(mesh, bc, kp, matrix=matrix)
                drag = -solver.net_force(mesh, forces)
                target = -6.0 * np.pi * mu * a
                report.add(mesh.num_faces, 3 * mesh.num_vertices, stats.h, eps,
                           "drag_x_rel_error", abs(drag[0] - target) / abs(target))
                report.add(mesh.num_faces, 3 * mesh.num_vertices, stats.h, eps,
                           "drag_y_abs_error", abs(drag[1]))
                report.add(mesh.num_faces, 3 * mesh.num_vertices, stats.h, eps,
                           "drag_z_abs_error", abs(drag[2]))
            else:
                bc = np.cross([0.0, 0.0, 1.0], mesh.vertices)
                forces = solver.solve_resistance(mesh, bc, kp, matrix=matrix)
                torque = -solver.net_torque(mesh, forces, center=np.zeros(3))
                target = -8.0 * np.pi * mu * a**3
                report.add(mesh.num_faces, 3 * mesh.num_vertices, stats.h, eps,
                           "torque_z_rel_error", abs(torque[2] - target) / abs(target))
                report.add(mesh.num_faces, 3 * mesh.num_vertices, stats.h, eps,
                           "torque_xy_abs_error", float(np.hypot(torque[0], torque[1])))
    metric = "drag_x_rel_error" if kind == "drag" else "torque_z_rel_error"
    _add_slope(report, metric)
    return report


def _forward_spheroid(report, params):
    mu = params.get("mu", 1.0)
    a = params.get("a", 3.0)
    b = params.get("b", 1.0)
    for grading in _grid(params, "grading_values", (0.0,)):
        for f in _grid(params, "f_values", (4, 5, 6)):
            mesh = make_spheroid_mesh(f, a, b, grading=grading)
            stats = mesh_stats(mesh)
            tractions = ref.spheroid_rotation_reference(mesh.vertices, a, b, mu)[0]
            target = np.cross([0.0, 0.0, 1.0], mesh.vertices)
            for eps in _grid(params, "eps_values", (1e-4,)):
                kp = KernelParams(eps=eps, mu=mu)
                u = solver.evaluate_velocity(mesh, tractions, mesh.vertices, kp)
                point_err = np.linalg.norm(u - target, axis=1)
                zfrac = np.abs(mesh.vertices[:, 2]) / a
                polar = point_err[zfrac > 0.9]
                equator = point_err[zfrac < 0.3]
                nf, dof = mesh.num_faces, 3 * mesh.num_vertices
                tag = f"grading={grading:g}:"
                report.add(nf, dof, stats.h, eps, tag + "l2_error",
                           ref.l2_error(point_err))
                report.add(nf, dof, stats.h, eps, tag + "polar_max_error",
                           polar.max() if polar.size else 0.0)
                report.add(nf, dof, stats.h, eps, tag + "equator_median_error",
                           np.median(equator) if equator.size else 0.0)
    return report


def _squirmer(report, params):
    mu = params.get("mu", 1.0)
    a = params.get("a", 1.0)
    B1 = params.get("B1", 1.5)
    for f in _grid(params, "f_values", range(3, 9)):
        mesh = make_icosphere(f, radius=a)
        stats = mesh_stats(mesh)
        x, y, z = mesh.vertices.T
        r = np.linalg.norm(mesh.vertices, axis=1)
        theta = np.arccos(np.clip(z / r, -1.0, 1.0))
        phi = np.arctan2(y, x)
        slip = ref.squirmer_slip(theta, phi, B1)
        for eps in _grid(params, "eps_values", (1e-4,)):
            kp = KernelParams(eps=eps, mu=mu)
            sol = solver.solve_swimmer(mesh, slip, kp, center=np.zeros(3))
            nf, dof = mesh.num_faces, 3 * mesh.num_vertices
            report.add(nf, dof, stats.h, eps, "U_z_error",
                       abs(sol.U[2] - (2.0 / 3.0) * B1))
            report.add(nf, dof, stats.h, eps, "U_xy", float(np.hypot(*sol.U[:2])))
            report.add(nf, dof, stats.h, eps, "Omega_norm",
                       float(np.linalg.norm(sol.Omega)))
    _add_slope(report, "U_z_error")
    return report


def _linear_vs_constant(report, params):
    mu = params.get("mu", 1.0)
    a = params.get("a", 1.0)
    Om = np.array([0.0, 0.0, 1.0])
    cond_f = params.get("condition_f", 4)
    for f in _grid(params, "f_values", range(2, 7)):
        mesh = make_icosphere(f, radius=a)
        stats = mesh_stats(mesh)
        tractions = ref.sphere_rotation_reference(mesh.vertices, a, Om, mu)[0]
        target = np.cross(Om, mesh.vertices)
        face_tractions = tractions[mesh.faces].mean(axis=1)
        for eps in _grid(params, "eps_values", (1e-4,)):
            kp = KernelParams(eps=eps, mu=mu)
            u_lin = solver.evaluate_velocity(mesh, tractions, mesh.vertices, kp)
            u_con = solver.constant_evaluate_velocity(
                mesh, face_tractions, mesh.vertices, kp
            )
            nf, dof = mesh.num_faces, 3 * mesh.num_vertices
            err = np.linalg.norm(u_lin - target, axis=1)
            report.add(nf, dof, stats.h, eps, "linear_l2_error", ref.l2_error(err))
            err = np.linalg.norm(u_con - target, axis=1)
            report.add(nf, dof, stats.h, eps, "constant_l2_error", ref.l2_error(err))
            if f == cond_f:
                report.add(nf, dof, stats.h, eps, "condition_linear",
                           solver.condition_number(solver.assemble_resistance(mesh, kp)))
                report.add(nf, dof, stats.h, eps, "condition_constant",
                           solver.condition_number(
                               solver.constant_assemble_resistance(mesh, kp)))
    return report


def _mrs_comparison(report, params):
    mu = params.get("mu", 1.0)
    a = params.get("a", 1.0)
    U = np.array([1.0, 0.0, 0.0])
    f = params.get("f", 4)
    mesh = make_icosphere(f, radius=a)
    stats = mesh_stats(mesh)
    traction = ref.sphere_translation_reference(a * np.array([1.0, 0, 0]), a, U, mu)[0]
    tractions = np.tile(traction, (mesh.num_vertices, 1))
    target = np.tile(U, (mesh.num_vertices, 1))
    nf, dof = mesh.num_faces, 3 * mesh.num_vertices
    # default values at or below the mesh's eps floor are left out (1e-8 at
    # f <= 2); values passed in are used as given and raise there
    floor = epsilon_floor(mesh)
    default_eps = [eps for eps in (1e-4, 1e-6, 1e-8) if eps > floor]
    for eps in _grid(params, "eps_values", default_eps):
        kp = KernelParams(eps=eps, mu=mu)
        u = solver.evaluate_velocity(mesh, tractions, mesh.vertices, kp)
        err = ref.l2_error(np.linalg.norm(u - target, axis=1))
        report.add(nf, dof, stats.h, eps, "surfaces_l2_error", err)
    for eps in _grid(params, "mrs_eps_values", (5e-2, 5e-3)):
        kp = KernelParams(eps=eps, mu=mu)
        u = solver.baseline_mrs_velocity(mesh, tractions, mesh.vertices, kp)
        err = ref.l2_error(np.linalg.norm(u - target, axis=1))
        report.add(nf, dof, stats.h, eps, "mrs_l2_error", err)
    return report


def _gauss_rule_4():
    # 4-point Gauss-Legendre nodes/weights on [0, 1]
    x, w = np.polynomial.legendre.leggauss(4)
    return 0.5 * (x + 1.0), 0.5 * w


def _triangle_quadrature_points(frame):
    """16-point product rule on each triangle of `frame`; returns (points,
    weights) of shapes (16 F, 3) and (16 F,), face by face.

    The square [0,1]^2 collapses onto the parameter triangle via
    (alpha, beta) = (u, u v) with Jacobian u; weights include the area
    factor BH.
    """
    gu, wu = _gauss_rule_4()
    alpha = np.repeat(gu, 4)[None, :, None]  # u, outer loop of the 16 nodes
    beta = (gu[:, None] * gu[None, :]).reshape(1, 16, 1)  # u v
    L1, L2 = frame.L1[:, None, None], frame.L2[:, None, None]
    pts = (frame.y0[:, None] - alpha * L1 * frame.vhat[:, None]
           - beta * L2 * frame.what[:, None])
    wts = (wu[:, None] * wu[None, :] * gu[:, None]).reshape(1, 16) * frame.BH[:, None]
    return pts.reshape(-1, 3), wts.reshape(-1)


def _pipe_leak(report, params):
    mu = params.get("mu", 1.0)
    dP = params.get("dP", 1.0)
    s = params.get("s", 0.25)
    half_length = params.get("L", 2.5)
    duct = params.get("a", 1.0)
    h_pipe = params.get("h_pipe", 0.2)
    nterms = params.get("nterms", 50)
    flux0 = ref.flux_without_cube(s, duct, duct, dP, mu, nterms)
    pipe = make_pipe_mesh(half_length, duct, duct, h_pipe)

    for h_cube in _grid(params, "h_cube_values", (0.1, 0.05, 0.0333)):
        cube = make_box_mesh((0.0, 0.0, 0.0), s, h_cube)
        mesh = cube.merged_with(pipe)
        n_cube = cube.num_vertices
        u_pipe_at = lambda pts: np.column_stack(
            [
                ref.pipe_reference(pts[:, 1], pts[:, 2], duct, duct, dP, mu, nterms),
                np.zeros(len(pts)),
                np.zeros(len(pts)),
            ]
        )
        bc = np.zeros((mesh.num_vertices, 3))
        bc[:n_cube] = -u_pipe_at(cube.vertices)
        stats = mesh_stats(cube)
        frames = cube.frames
        centroid_x = (frames.y0[:, 0] + frames.y1[:, 0] + frames.y2[:, 0]) / 3.0
        for ratio in _grid(params, "eps_over_h", (1e-2, 1e-1, 0.3, 1.0)):
            eps = ratio * h_cube
            kp = KernelParams(eps=eps, mu=mu)
            matrix = solver.assemble_resistance(mesh, kp)
            forces = solver.solve_resistance(mesh, bc, kp, matrix=matrix)
            for face_name, sign in (("front", -1.0), ("back", 1.0)):
                nhat = np.array([sign, 0.0, 0.0])
                on_side = ((np.abs(frames.nhat @ nhat - 1.0) <= 1e-12)
                           & (np.abs(centroid_x - sign * s) <= 1e-9))
                qpts, qwts = _triangle_quadrature_points(frames.select(on_side))
                u = solver.evaluate_velocity(mesh, forces, qpts, kp) + u_pipe_at(qpts)
                flux = float(np.sum(qwts * np.abs(u @ nhat)))
                leak = flux / flux0
                metric = "leak_front" if face_name == "front" else "leak_back"
                report.add(cube.num_faces, 3 * mesh.num_vertices, stats.h, eps,
                           metric, leak)
                if face_name == "front":
                    report.add(cube.num_faces, 3 * mesh.num_vertices, stats.h, eps,
                               "scaled_leak", leak * h_cube ** (-1.5))
    # power-law fit of scaled leak vs eps/h across the whole grid
    scaled_rows = [r for r in report.rows if r["metric"] == "scaled_leak"]
    if len(scaled_rows) >= 2:
        ratios = [r["eps"] / r["h"] for r in scaled_rows]
        scaled = [r["value"] for r in scaled_rows]
        coeffs = np.polyfit(np.log(ratios), np.log(scaled), 1)
        report.add(0, 0, 0.0, 0.0, "fit_exponent", coeffs[0])
        report.add(0, 0, 0.0, 0.0, "fit_prefactor", float(np.exp(coeffs[1])))
    return report


def run_study(study_id: str, params: dict | None = None) -> ExperimentReport:
    """Run one named validation study and return its report."""
    if study_id not in STUDY_IDS:
        raise ValueError(f"unknown study {study_id!r}; choose from {STUDY_IDS}")
    params = dict(params or {})
    report = _report(study_id, params)
    if study_id == "forward-translate":
        return _forward_sphere(report, params, "translate")
    if study_id == "forward-rotate":
        return _forward_sphere(report, params, "rotate")
    if study_id == "resistance-drag":
        return _resistance_sphere(report, params, "drag")
    if study_id == "resistance-torque":
        return _resistance_sphere(report, params, "torque")
    if study_id == "forward-spheroid":
        return _forward_spheroid(report, params)
    if study_id == "squirmer":
        return _squirmer(report, params)
    if study_id == "linear-vs-constant":
        return _linear_vs_constant(report, params)
    if study_id == "mrs-comparison":
        return _mrs_comparison(report, params)
    return _pipe_leak(report, params)
