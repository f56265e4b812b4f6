"""The three closed-loop workloads: one client, one process, one op at a time.

Every input of an op comes from a generator seeded with (seed, op index), so
the same seed gives the same inputs and no two ops share an input or a
result. Set-up builds an op's inputs before the op starts and is timed apart
from it. `check` compares an op's outputs with the analytic reference.

ref_err is the discretization error of the method on the workload's input,
so it must stay inside `ref_err_range`: below the upper limit, and also above
the lower one, because a kernel that is off by a few percent can land closer
to the analytic answer (a 5% scale error drops field-eval's ref_err from
1.5e-1 to 1.1e-1) and a solve that returns no force makes the duct flow
exactly symmetric.

The meshes are small so that one run holds 20 to 30 ops: on a shared host
the speed drifts over tens of seconds, and only a median over many ops a
run is steady from run to run.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial.transform import Rotation

import tracing

MU = 1.0
EPS = 1e-4
B1 = 1.5


def _unit(v):
    return v / np.linalg.norm(v)


def _rel(err, scale):
    return float(np.linalg.norm(err) / scale)


def _all_finite(*arrays) -> bool:
    return all(bool(np.all(np.isfinite(a))) for a in arrays)


class SphereSolve:
    """Resistance and swimmer solves on a rotated f=4 icosphere."""

    name = "sphere-solve"
    ref_err_range = (1.7e-2, 2.3e-2)  # 2.01e-2 on every seed of the seed code
    f = 4

    def setup(self, ss, rng, tracer):
        rot = Rotation.random(random_state=rng).as_matrix()
        U = _unit(rng.normal(size=3))
        Omega = _unit(rng.normal(size=3))
        mesh = ss.make_icosphere(self.f).transformed(rotation=rot)
        mesh.frames  # the first access builds the per-face frames
        with tracer.span(tracing.REF_INPUTS):
            n = mesh.num_vertices
            bc_U = np.tile(U, (n, 1))
            bc_Omega = np.cross(Omega, mesh.vertices)
            # squirmer slip in the body frame, where the swim axis is z
            body = mesh.vertices @ rot
            theta = np.arccos(np.clip(body[:, 2], -1.0, 1.0))
            phi = np.arctan2(body[:, 1], body[:, 0])
            slip_body = np.array([ss.squirmer_slip(t, p, B1) for t, p in zip(theta, phi)])
            slip = slip_body @ rot.T
        return {
            "mesh": mesh, "U": U, "Omega": Omega, "axis": rot[:, 2],
            "bc_U": bc_U, "bc_Omega": bc_Omega, "slip": slip,
        }

    def op(self, ss, x):
        kp = ss.KernelParams(eps=EPS, mu=MU)
        mesh = x["mesh"]
        A = ss.assemble_resistance(mesh, kp)
        f_U = ss.solve_resistance(mesh, x["bc_U"], kp, matrix=A)
        f_Omega = ss.solve_resistance(mesh, x["bc_Omega"], kp, matrix=A)
        drag = -ss.net_force(mesh, f_U)
        torque = -ss.net_torque(mesh, f_Omega, center=np.zeros(3))
        swim = ss.solve_swimmer(mesh, x["slip"], kp, center=np.zeros(3))
        return {"A": A, "f_U": f_U, "f_Omega": f_Omega, "drag": drag,
                "torque": torque, "swim": swim}

    def check(self, x, out):
        swim = out["swim"]
        finite = _all_finite(out["f_U"], out["f_Omega"], out["drag"], out["torque"],
                             swim.forces, swim.U, swim.Omega)
        residual = max(tracing.residual_rel(out["A"], x["bc_U"], out["f_U"]),
                       tracing.residual_rel(out["A"], x["bc_Omega"], out["f_Omega"]))
        swim_speed = 2.0 / 3.0 * B1
        ref_err = max(
            _rel(out["drag"] + 6.0 * math.pi * MU * x["U"], 6.0 * math.pi * MU),
            _rel(out["torque"] + 8.0 * math.pi * MU * x["Omega"], 8.0 * math.pi * MU),
            _rel(swim.U - swim_speed * x["axis"], swim_speed),
        )
        return {"finite": finite, "residual_rel": residual, "ref_err": ref_err}


class FieldEval:
    """Forward evaluation of a rotating-sphere traction at exterior points."""

    name = "field-eval"
    ref_err_range = (1.4e-1, 1.6e-1)  # 1.51e-1 on every seed of the seed code
    f = 2
    points = 6000
    r_min, r_max = 1.1, 4.0

    def setup(self, ss, rng, tracer):
        Omega = _unit(rng.normal(size=3))
        dirs = rng.normal(size=(self.points, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        pts = dirs * rng.uniform(self.r_min, self.r_max, size=self.points)[:, None]
        mesh = ss.make_icosphere(self.f)
        mesh.frames  # the first access builds the per-face frames
        with tracer.span(tracing.REF_INPUTS):
            tractions = np.array(
                [ss.sphere_rotation_reference(v, 1.0, Omega, MU)[0] for v in mesh.vertices]
            )
            exact = np.array(
                [ss.sphere_rotation_reference(p, 1.0, Omega, MU)[1] for p in pts]
            )
        return {"mesh": mesh, "tractions": tractions, "points": pts, "exact": exact}

    def op(self, ss, x):
        kp = ss.KernelParams(eps=EPS, mu=MU)
        return {"u": ss.evaluate_velocity(x["mesh"], x["tractions"], x["points"], kp)}

    def check(self, x, out):
        err = out["u"] - x["exact"]
        ref_err = math.sqrt(np.mean(np.sum(err**2, axis=1))
                            / np.mean(np.sum(x["exact"] ** 2, axis=1)))
        return {"finite": _all_finite(out["u"]), "residual_rel": None,
                "ref_err": ref_err}


class DuctLeak:
    """One pipe-leak study point: a cube in a square duct, two eps/h values."""

    name = "duct-leak"
    ref_err_range = (1.0e-3, 4.0e-3)  # 1.9e-3 to 2.9e-3 on the seed code
    # The asymmetry changes sign near eps/h = 0.9 (4e-4 there, 2.7e-3 at
    # 0.5); drawn from up to 1.0, the large ratio would make ref_err differ
    # between seeds by more than any bound it could be given.
    small_ratio = (0.05, 0.2)
    large_ratio = (0.5, 0.75)

    def setup(self, ss, rng, tracer):
        ratios = [float(rng.uniform(*self.small_ratio)),
                  float(rng.uniform(*self.large_ratio))]
        return {"params": {"h_cube_values": [1.0 / 6.0], "h_pipe": 1.0,
                           "L": 1.0, "eps_over_h": ratios}}

    def op(self, ss, x):
        return {"report": ss.run_study("pipe-leak", x["params"])}

    def check(self, x, out):
        report = out["report"]
        front = np.array(report.values("leak_front"))
        back = np.array(report.values("leak_back"))
        values = [r["value"] for r in report.rows]
        expected = len(x["params"]["eps_over_h"])
        ok_shape = len(front) == expected and len(back) == expected
        # exact Stokes flow is fore-aft symmetric: the two leaks are equal
        ref_err = float(np.max(np.abs(front - back) / front)) if ok_shape else math.inf
        return {"finite": ok_shape and _all_finite(values), "residual_rel": None,
                "ref_err": ref_err}


WORKLOADS = {w.name: w for w in (SphereSolve(), FieldEval(), DuctLeak())}
