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

import weakref
from dataclasses import dataclass

import numpy as np

from .errors import SingularSystemError
from .geometry import TriMesh
from .kernel import (KernelParams, _block_map, _coefficient_block, _form_blocks,
                     _velocity, _velocity_blocks, point_stokeslet)

__all__ = [
    "evaluate_velocity",
    "assemble_resistance",
    "solve_resistance",
    "solve_swimmer",
    "SwimmerSolution",
    "net_force",
    "net_torque",
    "baseline_mrs_velocity",
    "constant_assemble_resistance",
    "constant_evaluate_velocity",
]


# Face-point pairs per kernel call, one face at least. Chunks amortize the
# per-call overhead over several faces; this bound keeps a call's
# coefficients and block terms small: the traced peak of an f=4 sphere
# solve (one assembly, two resistance solves and a swimmer solve that
# reuses A) is 6.10 MB with 4096-pair chunks, 8.66 MB with 8192-pair ones.
# A call on a slab of more points holds one face at every point of the slab.
_CHUNK_PAIRS = 4096


def _face_chunks(num_faces, num_points):
    """Slices of consecutive faces, each with at most _CHUNK_PAIRS face-point
    pairs (at least one face)."""
    step = max(1, _CHUNK_PAIRS // max(1, num_points))
    return [slice(start, start + step) for start in range(0, num_faces, step)]


def _point_slabs(num_points, most):
    """Equal slabs of consecutive points of at most `most` each, as slices."""
    num_slabs = -(-num_points // max(1, most))
    size = max(1, -(-num_points // max(1, num_slabs)))  # 1 for no points
    return [slice(p0, min(p0 + size, num_points)) for p0 in range(0, num_points, size)]


def _coefficients(num_faces, slabs, constant, blocks=False, least=0):
    """One coefficient block for all the kernel calls on `slabs`
    (`_coefficient_block`'s `blocks` and `least`). A call on a slab of s
    points holds at most min(F s, max(s, _CHUNK_PAIRS)) pairs, which grows
    with s, and the first slab is the largest (a smaller last slab may still
    make calls of more pairs than the first slab's first)."""
    points = slabs[0].stop - slabs[0].start if slabs else 0
    return _coefficient_block(min(num_faces * points, max(points, _CHUNK_PAIRS)),
                              constant, blocks=blocks, least=least)


def _as_rows(values, rows, name: str) -> np.ndarray:
    """values as a finite float array of shape (rows, 3), where rows=None
    takes any number of rows; anything else raises ValueError."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != 3 or rows not in (None, len(values)):
        expected = "M" if rows is None else rows
        raise ValueError(f"{name} must have shape ({expected}, 3), got {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} must be finite")
    return values


def _as_points(points):
    return _as_rows(np.atleast_2d(points), None, "points")


def _as_center(center) -> np.ndarray:
    """center as one finite float 3-vector; anything else raises ValueError."""
    center = np.asarray(center, dtype=float)
    if center.shape != (3,) or not np.all(np.isfinite(center)):
        raise ValueError(f"center must be one finite 3-vector, got {center!r}")
    return center


def _evaluate(mesh: TriMesh, basis_forces, points, params: KernelParams,
              constant=False):
    """Velocity at points, shape (M, 3), from the force of each face's basis
    functions, shape (F, K, 3): face, basis (the corners, or with `constant`
    the face), xyz."""
    params.validate_for_mesh(mesh)
    pts = _as_points(points)
    u = np.zeros((3, len(pts)))
    # slabs of at most 2 * _CHUNK_PAIRS points bound the memory of a call,
    # about 640 B a point of the slab; the studies and the benchmark
    # evaluate at most 7200 points, one slab
    slabs = _point_slabs(len(pts), 2 * _CHUNK_PAIRS)
    block = _coefficients(mesh.num_faces, slabs, constant)
    for slab in slabs:
        for chunk in _face_chunks(mesh.num_faces, slab.stop - slab.start):
            u[:, slab] += _velocity(pts[slab], mesh.frames.select(chunk),
                                    basis_forces[chunk], params, constant, block)
    return np.ascontiguousarray(u.T)


def _assemble(mesh: TriMesh, points, basis_unknowns, num_unknowns: int,
              params: KernelParams, constant=False) -> np.ndarray:
    """Dense matrix mapping stacked unknown forces to the velocities at
    points; basis_unknowns, shape (F, K), holds the unknown that carries the
    force of each face's basis functions (the corners, or with `constant`
    the face), and unknown j is collocated at points[j]."""
    params.validate_for_mesh(mesh)
    m, n = len(points), num_unknowns
    # slabs of at most _CHUNK_PAIRS // 16 points, so that each kernel call
    # on a slab still spans 16 faces or more
    slabs = _point_slabs(m, _CHUNK_PAIRS // 16)
    # after a slab's kernel calls the block holds the offsets and scratch of
    # the block formation, 4 n values a point
    block = _coefficients(mesh.num_faces, slabs, constant, blocks=True,
                          least=4 * n * slabs[0].stop)
    G = _block_map(mesh.frames, params)
    # one slab's accumulator, reused: unknown, block term, point; each face
    # adds the terms of its basis functions along contiguous runs of points
    acc = np.empty((n, 10, slabs[0].stop))
    A = None
    for slab in slabs:
        ms = slab.stop - slab.start
        part = acc[..., :ms]
        part.fill(0.0)
        for chunk in _face_chunks(mesh.num_faces, ms):
            terms = _velocity_blocks(points[slab], mesh.frames.select(chunk), params,
                                     G[chunk], constant, block)
            by_face = terms.swapaxes(0, 1)  # face, basis, term, point
            # one face at a time: a chunk may repeat an unknown, and a
            # fancy-indexed += would keep only one of the repeated contributions
            for p, unknowns in enumerate(basis_unknowns[chunk]):
                for j, terms_k in zip(unknowns, by_face[p]):
                    part[j] += terms_k
        if A is None:  # not beside the kernel's temporaries in a one-slab run
            A = np.empty((3 * m, 3 * n))
        # each unknown's offsets from its collocation point, 0 at its own
        x = np.subtract(points[slab].T[:, None], points.T[:, :, None],
                        out=block[:3 * n * ms].reshape(3, n, ms))
        # rows (point, velocity component), columns (unknown, force component)
        rows = A[3 * slab.start:3 * slab.stop].reshape(ms, 3, n, 3)
        _form_blocks(part, x, rows.transpose(1, 3, 2, 0),
                     block[3 * n * ms:4 * n * ms].reshape(n, ms))
    return A


def _own_face(mesh: TriMesh) -> np.ndarray:
    """Each face's own index, the unknown of its constant density, shape
    (F, 1)."""
    return np.arange(mesh.num_faces)[:, None]


def evaluate_velocity(mesh: TriMesh, forces, points, params: KernelParams) -> np.ndarray:
    """Velocity at arbitrary points from vertex force densities, shape (M, 3)."""
    forces = _as_rows(forces, mesh.num_vertices, "forces")
    return _evaluate(mesh, forces[mesh.faces], points, params)


# (mesh, params, A) of the last matrix assemble_resistance returned: weak
# references to the mesh and A, and the params, a frozen pair of floats, by
# value so that an equal params object built anew matches. _resistance_matrix
# reuses A while the caller still holds it.
_last_assembly = None


def assemble_resistance(mesh: TriMesh, params: KernelParams) -> np.ndarray:
    """Dense 3N x 3N matrix mapping stacked vertex forces to vertex velocities.

    Always assembles. The matrix is read-only: while the caller holds it,
    `solve_resistance` without `matrix=` and `solve_swimmer` on the same mesh
    object with equal params solve with it instead of assembling again.
    The mesh and the matrix are referenced weakly, so neither stays alive
    for that.
    """
    global _last_assembly
    A = _assemble(mesh, mesh.vertices, mesh.faces, mesh.num_vertices, params)
    A.setflags(write=False)
    _last_assembly = (weakref.ref(mesh), params, weakref.ref(A))
    return A


def _resistance_matrix(mesh: TriMesh, params: KernelParams) -> np.ndarray:
    """The last assembled matrix if it is still alive and was assembled for
    this mesh object with equal params; otherwise a new assembly."""
    if _last_assembly is not None:
        mesh_ref, last_params, matrix_ref = _last_assembly
        A = matrix_ref()
        if A is not None and mesh_ref() is mesh and last_params == params:
            return A
    return assemble_resistance(mesh, params)


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
    across multiple right-hand sides. Without it, the solve reuses a matrix
    the caller still holds as assemble_resistance describes, or assembles.
    """
    velocities = _as_rows(velocities, mesh.num_vertices, "velocities")
    A = _resistance_matrix(mesh, params) if matrix is None else np.asarray(matrix)
    size = 3 * mesh.num_vertices
    if A.shape != (size, size):
        raise ValueError(f"matrix must have shape ({size}, {size}), got {A.shape}")
    f = _dense_solve(A, velocities.reshape(-1))
    return f.reshape(-1, 3)


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
    bh = mesh.frames.BH
    corners = mesh.vertices[mesh.faces]  # (F, 3, 3): face, corner, xyz
    lever = corners.sum(axis=1)[:, None, :] + corners - 4.0 * center
    weights = np.zeros(n)
    np.add.at(weights, mesh.faces, (bh / 6.0)[:, None])
    blocks = np.zeros((n, 3, 3))
    np.add.at(blocks, mesh.faces, (bh / 24.0)[:, None, None, None] * _skew(lever))
    return weights, blocks


def net_force(mesh: TriMesh, forces) -> np.ndarray:
    """Total force: integral of the piecewise-linear density over the surface."""
    forces = _as_rows(forces, mesh.num_vertices, "forces")
    weights, _ = _vertex_moments(mesh, np.zeros(3))
    return weights @ forces


def net_torque(mesh: TriMesh, forces, center) -> np.ndarray:
    """Total torque about the point `center`."""
    forces = _as_rows(forces, mesh.num_vertices, "forces")
    _, blocks = _vertex_moments(mesh, _as_center(center))
    return np.einsum("nij,nj->i", blocks, forces)


@dataclass(frozen=True)
class SwimmerSolution:
    """Forces and rigid-body motion of a force- and torque-free swimmer."""

    forces: np.ndarray  # (N, 3) vertex force densities
    U: np.ndarray       # (3,) rigid translation
    Omega: np.ndarray   # (3,) rigid rotation


def solve_swimmer(mesh: TriMesh, slip, params: KernelParams,
                  center) -> SwimmerSolution:
    """Solve for forces and rigid motion given a prescribed surface slip.

    The boundary condition at each vertex is
        u(y_i) = U + Omega x (y_i - c) + slip_i
    closed by zero net force and zero net torque about the body center
    c = `center`. With R the vertex velocities of the six unit rigid motions
    m = (U, Omega), the forces are A^-1 slip + A^-1 R m, and m solves the
    6 x 6 balance of the net-force and net-torque rows C of those forces.
    A is reused as assemble_resistance describes, or assembled.
    """
    n = mesh.num_vertices
    slip = _as_rows(slip, n, "slip")
    c = _as_center(center)

    rhs = np.column_stack([slip.reshape(-1), np.tile(np.eye(3), (n, 1)),
                           -_skew(mesh.vertices - c).reshape(3 * n, 3)])
    Y = _dense_solve(_resistance_matrix(mesh, params), rhs)
    weights, blocks = _vertex_moments(mesh, c)
    C = np.vstack([np.kron(weights, np.eye(3)),
                   blocks.transpose(1, 0, 2).reshape(3, 3 * n)])
    CY = C @ Y
    m = _dense_solve(CY[:, 1:], -CY[:, 0])
    forces = Y[:, 0] + Y[:, 1:] @ m
    return SwimmerSolution(forces=forces.reshape(-1, 3), U=m[:3], Omega=m[3:])


# ---------------------------------------------------------------------------
# baseline 1: point Stokeslets with vertex-lumped quadrature weights


def baseline_mrs_velocity(mesh: TriMesh, forces, points, params: KernelParams):
    """Velocity from weighted point Stokeslets at the vertices."""
    forces = _as_rows(forces, mesh.num_vertices, "forces")
    pts = _as_points(points)
    w, _ = _vertex_moments(mesh, np.zeros(3))
    S = point_stokeslet(pts[:, None, :], mesh.vertices[None, :, :], params)
    return np.einsum("mnij,nj->mi", S, w[:, None] * forces) / (8.0 * np.pi * params.mu)


# ---------------------------------------------------------------------------
# baseline 2: constant force density per face, collocated at centroids


def constant_assemble_resistance(mesh: TriMesh, params: KernelParams) -> np.ndarray:
    """3F x 3F matrix mapping per-face constant forces to centroid velocities."""
    return _assemble(mesh, mesh.face_centroids(), _own_face(mesh), mesh.num_faces,
                     params, constant=True)


def constant_evaluate_velocity(mesh: TriMesh, face_forces, points,
                               params: KernelParams) -> np.ndarray:
    face_forces = _as_rows(face_forces, mesh.num_faces, "face_forces")
    return _evaluate(mesh, face_forces[:, None], points, params, constant=True)
