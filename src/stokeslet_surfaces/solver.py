"""Boundary-integral Stokes solvers on triangulated surfaces.

Velocity and force live at mesh vertices; each triangle carries the linear
interpolant of its three vertex values and contributes its analytically
integrated velocity field. Collocating at the vertices yields a dense
3N x 3N mobility matrix M with u = M f.

Three problem types are supported:

* forward evaluation: given vertex forces, evaluate velocity anywhere,
* resistance: given vertex velocities, solve for vertex forces,
* free swimmer: given a surface slip velocity, solve for the forces plus
  the rigid translation/rotation that make the body force- and torque-free.

Two lower-order baselines are included for comparison: point Stokeslets
with vertex-lumped quadrature weights, and constant-per-face densities
collocated at triangle centroids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularSystemError
from .geometry import TriMesh
from .kernel import KernelParams, _velocity_blocks

__all__ = [
    "evaluate_velocity",
    "assemble_resistance",
    "solve_resistance",
    "solve_swimmer",
    "SwimmerSolution",
    "condition_number",
    "net_force",
    "net_torque",
    "baseline_mrs_velocity",
    "mrs_assemble_resistance",
    "mrs_solve_resistance",
    "constant_assemble_resistance",
    "baseline_constant_solve",
    "constant_evaluate_velocity",
]


def _as_points(points):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("points must have shape (M, 3)")
    return pts


def evaluate_velocity(mesh: TriMesh, forces, points, params: KernelParams) -> np.ndarray:
    """Velocity at arbitrary points from vertex force densities, shape (M, 3)."""
    params.validate_for_mesh(mesh)
    forces = np.asarray(forces, dtype=float)
    if forces.shape != (mesh.num_vertices, 3):
        raise ValueError("forces must have shape (num_vertices, 3)")
    pts = _as_points(points)
    u = np.zeros_like(pts)
    for face, frame in zip(mesh.faces, mesh.frames):
        M0, M1, M2 = _velocity_blocks(pts, frame, params)
        u += np.einsum("mij,j->mi", M0, forces[face[0]])
        u += np.einsum("mij,j->mi", M1, forces[face[1]])
        u += np.einsum("mij,j->mi", M2, forces[face[2]])
    return u


def assemble_resistance(mesh: TriMesh, params: KernelParams) -> np.ndarray:
    """Dense 3N x 3N matrix mapping stacked vertex forces to vertex velocities."""
    params.validate_for_mesh(mesh)
    n = mesh.num_vertices
    A = np.zeros((n, 3, n, 3))
    pts = mesh.vertices
    for face, frame in zip(mesh.faces, mesh.frames):
        M0, M1, M2 = _velocity_blocks(pts, frame, params)
        A[:, :, face[0], :] += M0
        A[:, :, face[1], :] += M1
        A[:, :, face[2], :] += M2
    return A.reshape(3 * n, 3 * n)


def _dense_solve(A, b):
    try:
        x = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"dense solve failed: {exc}") from None
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("dense solve produced non-finite entries")
    return x


def solve_resistance(mesh: TriMesh, velocities, params: KernelParams,
                     matrix=None) -> np.ndarray:
    """Vertex forces reproducing the prescribed vertex velocities.

    Pass a precomputed `matrix` (from assemble_resistance) to amortize assembly
    across multiple right-hand sides.
    """
    velocities = np.asarray(velocities, dtype=float)
    if velocities.shape != (mesh.num_vertices, 3):
        raise ValueError("velocities must have shape (num_vertices, 3)")
    A = assemble_resistance(mesh, params) if matrix is None else matrix
    f = _dense_solve(A, velocities.reshape(-1))
    return f.reshape(-1, 3)


def condition_number(matrix) -> float:
    """2-norm condition number (via SVD)."""
    return float(np.linalg.cond(np.asarray(matrix, dtype=float)))


def _skew(r):
    """Matrices K with K @ f = r x f, for r of shape (..., 3).

    Row i of K is e_i x r, because (e_i x r) . f = (r x f) . e_i.
    """
    return np.cross(np.eye(3), r[..., None, :])


def _vertex_moments(mesh: TriMesh, center):
    """Force weights w, shape (N,), and torque blocks C, shape (N, 3, 3).

    For vertex force densities f the exact surface integrals of the linear
    interpolant are: net force sum_j w[j] f[j], and net torque about `center`
    sum_j C[j] @ f[j]. On a face of area BH/2 each corner's hat function
    integrates to BH/6, and its first moment is BH/24 (y0 + y1 + y2 + y_j).
    """
    n = mesh.num_vertices
    bh = np.array([frame.BH for frame in mesh.frames])
    corners = mesh.vertices[mesh.faces]  # (F, 3, 3): face, corner, xyz
    center = np.asarray(center, dtype=float)
    lever = corners.sum(axis=1)[:, None, :] + corners - 4.0 * center
    weights = np.zeros(n)
    np.add.at(weights, mesh.faces, (bh / 6.0)[:, None])
    blocks = np.zeros((n, 3, 3))
    np.add.at(blocks, mesh.faces, (bh / 24.0)[:, None, None, None] * _skew(lever))
    return weights, blocks


def net_force(mesh: TriMesh, forces) -> np.ndarray:
    """Total force: integral of the piecewise-linear density over the surface."""
    weights, _ = _vertex_moments(mesh, np.zeros(3))
    return weights @ np.asarray(forces, dtype=float)


def net_torque(mesh: TriMesh, forces, center=None) -> np.ndarray:
    """Total torque about `center` (default: vertex centroid)."""
    yc = mesh.vertex_centroid() if center is None else center
    _, blocks = _vertex_moments(mesh, yc)
    return np.einsum("nij,nj->i", blocks, np.asarray(forces, dtype=float))


@dataclass(frozen=True)
class SwimmerSolution:
    """Forces and rigid-body motion of a force- and torque-free swimmer."""

    forces: np.ndarray  # (N, 3) vertex force densities
    U: np.ndarray       # (3,) rigid translation
    Omega: np.ndarray   # (3,) rigid rotation


def solve_swimmer(mesh: TriMesh, slip, params: KernelParams,
                  center=None) -> SwimmerSolution:
    """Solve for forces and rigid motion given a prescribed surface slip.

    The boundary condition at each vertex is
        u(y_i) = U + Omega x (y_i - c) + slip_i
    augmented by zero net force and zero net torque about the body center c
    (default: vertex centroid), making the (3N + 6) system square.
    """
    slip = np.asarray(slip, dtype=float)
    n = mesh.num_vertices
    if slip.shape != (n, 3):
        raise ValueError("slip must have shape (num_vertices, 3)")
    c = mesh.vertex_centroid() if center is None else np.asarray(center, dtype=float)

    size = 3 * n + 6
    A = np.zeros((size, size))
    A[: 3 * n, : 3 * n] = assemble_resistance(mesh, params)
    A[: 3 * n, 3 * n : 3 * n + 3] = np.tile(-np.eye(3), (n, 1))
    A[: 3 * n, 3 * n + 3 :] = _skew(mesh.vertices - c).reshape(3 * n, 3)
    weights, blocks = _vertex_moments(mesh, c)
    A[3 * n : 3 * n + 3, : 3 * n] = np.kron(weights, np.eye(3))
    A[3 * n + 3 :, : 3 * n] = blocks.transpose(1, 0, 2).reshape(3, 3 * n)

    b = np.zeros(size)
    b[: 3 * n] = slip.reshape(-1)
    x = _dense_solve(A, b)
    return SwimmerSolution(
        forces=x[: 3 * n].reshape(-1, 3),
        U=x[3 * n : 3 * n + 3],
        Omega=x[3 * n + 3 :],
    )


# ---------------------------------------------------------------------------
# baseline 1: point Stokeslets with vertex-lumped quadrature weights


def _stokeslet_batch(pts, sources, eps):
    """Pairwise kernel matrices, shape (M, N, 3, 3)."""
    d = pts[:, None, :] - sources[None, :, :]
    r2 = np.einsum("mnk,mnk->mn", d, d) + eps * eps
    r = np.sqrt(r2)
    r3 = r2 * r
    S = np.zeros((len(pts), len(sources), 3, 3))
    diag = 1.0 / r + eps * eps / r3
    S[..., 0, 0] = diag
    S[..., 1, 1] = diag
    S[..., 2, 2] = diag
    S += d[..., :, None] * d[..., None, :] / r3[..., None, None]
    return S


def baseline_mrs_velocity(mesh: TriMesh, forces, points, params: KernelParams):
    """Velocity from weighted point Stokeslets at the vertices."""
    forces = np.asarray(forces, dtype=float)
    pts = _as_points(points)
    w, _ = _vertex_moments(mesh, np.zeros(3))
    S = _stokeslet_batch(pts, mesh.vertices, params.eps)
    return np.einsum("mnij,nj->mi", S, w[:, None] * forces) / (8.0 * np.pi * params.mu)


def mrs_assemble_resistance(mesh: TriMesh, params: KernelParams) -> np.ndarray:
    params.validate_for_mesh(mesh)
    n = mesh.num_vertices
    w, _ = _vertex_moments(mesh, np.zeros(3))
    S = _stokeslet_batch(mesh.vertices, mesh.vertices, params.eps)
    A = S * w[None, :, None, None] / (8.0 * np.pi * params.mu)
    return A.transpose(0, 2, 1, 3).reshape(3 * n, 3 * n)


def mrs_solve_resistance(mesh: TriMesh, velocities, params: KernelParams,
                         matrix=None) -> np.ndarray:
    velocities = np.asarray(velocities, dtype=float)
    A = mrs_assemble_resistance(mesh, params) if matrix is None else matrix
    f = _dense_solve(A, velocities.reshape(-1))
    return f.reshape(-1, 3)


# ---------------------------------------------------------------------------
# baseline 2: constant force density per face, collocated at centroids


def constant_assemble_resistance(mesh: TriMesh, params: KernelParams) -> np.ndarray:
    """3F x 3F matrix mapping per-face constant forces to centroid velocities."""
    params.validate_for_mesh(mesh)
    nf = mesh.num_faces
    centroids = mesh.face_centroids()
    A = np.zeros((nf, 3, nf, 3))
    for p, frame in enumerate(mesh.frames):
        M0, M1, M2 = _velocity_blocks(centroids, frame, params)
        A[:, :, p, :] = M0 + M1 + M2
    return A.reshape(3 * nf, 3 * nf)


def baseline_constant_solve(mesh: TriMesh, centroid_velocities,
                              params: KernelParams, matrix=None) -> np.ndarray:
    """Per-face constant forces from prescribed centroid velocities, (F, 3)."""
    v = np.asarray(centroid_velocities, dtype=float)
    if v.shape != (mesh.num_faces, 3):
        raise ValueError("centroid_velocities must have shape (num_faces, 3)")
    A = constant_assemble_resistance(mesh, params) if matrix is None else matrix
    f = _dense_solve(A, v.reshape(-1))
    return f.reshape(-1, 3)


def constant_evaluate_velocity(mesh: TriMesh, face_forces, points,
                               params: KernelParams) -> np.ndarray:
    params.validate_for_mesh(mesh)
    face_forces = np.asarray(face_forces, dtype=float)
    pts = _as_points(points)
    u = np.zeros_like(pts)
    for p, frame in enumerate(mesh.frames):
        M0, M1, M2 = _velocity_blocks(pts, frame, params)
        u += np.einsum("mij,j->mi", M0 + M1 + M2, face_forces[p])
    return u
