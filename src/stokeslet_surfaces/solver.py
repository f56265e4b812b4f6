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
from .geometry import TriMesh, _cross
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
    """Equal slabs of consecutive points (or unknowns) of at most `most`
    each, as slices."""
    num_slabs = -(-num_points // max(1, most))
    size = max(1, -(-num_points // max(1, num_slabs)))  # 1 for no points
    return [slice(p0, min(p0 + size, num_points)) for p0 in range(0, num_points, size)]


def _coefficients(num_faces, slabs):
    """One coefficient block (`_coefficient_block`) for all the kernel calls
    on `slabs`, of either element kind. A call on a slab of s points holds
    at most min(F s, max(s, _CHUNK_PAIRS)) pairs, which grows with s, and
    the first slab is the largest (a smaller last slab may still make calls
    of more pairs than the first slab's first)."""
    points = slabs[0].stop - slabs[0].start if slabs else 0
    return _coefficient_block(min(num_faces * points, max(points, _CHUNK_PAIRS)), float)


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


def _as_sweep(params, values, rows, name: str):
    """The params of an evaluation as a list of E KernelParams, and `values`
    as one finite array of shape (E, rows, 3). One KernelParams is a sweep
    of one, whose values have shape (rows, 3); a sequence of E takes values
    of shape (E, rows, 3). Other values raise ValueError, and an entry of
    the sequence that is not a KernelParams TypeError."""
    if isinstance(params, KernelParams):
        return [params], _as_rows(values, rows, name)[None]
    params = list(params)
    if not all(isinstance(kp, KernelParams) for kp in params):
        raise TypeError("params must be one KernelParams or a sequence of them")
    values = np.asarray(values, dtype=float)
    if values.ndim != 3 or len(values) != len(params):
        raise ValueError(f"{name} of a sweep over {len(params)} params must have shape "
                         f"({len(params)}, {rows}, 3), got {values.shape}")
    for part in values:
        _as_rows(part, rows, name)
    return params, values


def _evaluate(mesh: TriMesh, basis_forces, points, params):
    """Velocity at points, shape (E, M, 3), for each of the E KernelParams in
    `params` from its force of each face's basis functions, basis_forces of
    shape (E, F, K, 3): params, face, basis (the three corners, or K = 1 for
    the face's constant density), xyz. Every eps passes the floor check
    before the first kernel call; each kernel call forms the eps-free
    geometry of its face chunk and point slab once for all E."""
    for kp in params:
        kp.validate_for_mesh(mesh)
    pts = _as_points(points)
    u = np.zeros((len(params), 3, len(pts)))
    # slabs of at most 2 * _CHUNK_PAIRS points bound the memory of a call,
    # about 800 B a point of the slab; the studies and the benchmark
    # evaluate at most 7200 points, one slab
    slabs = _point_slabs(len(pts), 2 * _CHUNK_PAIRS)
    block = _coefficients(mesh.num_faces, slabs)
    for slab in slabs:
        for chunk in _face_chunks(mesh.num_faces, slab.stop - slab.start):
            velocities = _velocity(pts[slab], mesh.frames.select(chunk),
                                   basis_forces[:, chunk], params, block)
            for u_e, velocity in zip(u, velocities):
                u_e[:, slab] += velocity
    return np.ascontiguousarray(u.transpose(0, 2, 1))


def _assemble(mesh: TriMesh, points, basis_unknowns, num_unknowns: int,
              params: KernelParams) -> np.ndarray:
    """Dense matrix mapping stacked unknown forces to the velocities at
    points; basis_unknowns, shape (F, K), holds the unknown that carries the
    force of each face's basis functions (the corners, or K = 1 for the
    face's constant density), and unknown j is collocated at points[j]."""
    params.validate_for_mesh(mesh)
    m, n, constant = len(points), num_unknowns, basis_unknowns.shape[1] == 1
    # slabs of at most _CHUNK_PAIRS // 16 points, so that each kernel call
    # on a slab still spans 16 faces or more
    slabs = _point_slabs(m, _CHUNK_PAIRS // 16)
    block = _coefficients(mesh.num_faces, slabs)
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
        # rows (point, velocity component), columns (unknown, force component)
        rows = A[3 * slab.start:3 * slab.stop].reshape(ms, 3, n, 3)
        # the block formation's offsets and scratch, 4 values an unknown and
        # a point, go into the block in groups of unknowns that fit it
        for group in _point_slabs(n, len(block) // (4 * ms)):
            _form_blocks(part[group], points[slab], points[group],
                         rows[:, :, group].transpose(1, 3, 2, 0), block)
    return A


def _own_face(mesh: TriMesh) -> np.ndarray:
    """Each face's own index, the unknown of its constant density, shape
    (F, 1)."""
    return np.arange(mesh.num_faces)[:, None]


def evaluate_velocity(mesh: TriMesh, forces, points, params) -> np.ndarray:
    """Velocity at arbitrary points from vertex force densities, shape (M, 3).

    `params` may also be a sequence of E KernelParams, with forces of shape
    (E, N, 3): the result, shape (E, M, 3), holds at e the velocity of
    forces[e] under params[e], bit for bit the one-params evaluation. The
    eps-free part of the kernel is then computed once for all E.
    """
    sweep, forces = _as_sweep(params, forces, mesh.num_vertices, "forces")
    u = _evaluate(mesh, forces[:, mesh.faces], points, sweep)
    return u[0] if isinstance(params, KernelParams) else u


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

    Pass a precomputed real, finite `matrix` (from assemble_resistance) to
    amortize assembly across multiple right-hand sides. Without it, the
    solve reuses a matrix the caller still holds as assemble_resistance
    describes, or assembles.
    """
    velocities = _as_rows(velocities, mesh.num_vertices, "velocities")
    if matrix is None:
        A = _resistance_matrix(mesh, params)
    else:
        A, size = np.asarray(matrix), 3 * mesh.num_vertices
        if A.shape != (size, size):
            raise ValueError(f"matrix must have shape ({size}, {size}), got {A.shape}")
        if A.dtype.kind not in "fiu" or not np.all(np.isfinite(A)):
            raise ValueError(f"matrix must be real and finite, got dtype {A.dtype}")
    f = _dense_solve(A, velocities.reshape(-1))
    return f.reshape(-1, 3)


def _skew(r):
    """Matrices K with K @ f = r x f, for r of shape (..., 3).

    Row i of K is e_i x r, because (e_i x r) . f = (r x f) . e_i.
    """
    return _cross(np.eye(3), r[..., None, :])


def _vertex_weights(mesh: TriMesh):
    """Force weights w, shape (N,): each corner's hat function integrates to
    BH/6 on its face. Each sum adds in face order from 0, as a scatter-add
    over mesh.faces does, and so do the torque blocks' (`_torque_blocks`)."""
    return np.bincount(mesh.faces.ravel(), np.repeat(mesh.frames.BH / 6.0, 3),
                       minlength=mesh.num_vertices)


def _torque_blocks(mesh: TriMesh, center):
    """Torque blocks C, shape (N, 3, 3): for vertex force densities f the
    exact net torque of the linear interpolant about `center` is
    sum_j C[j] @ f[j]. On a face of area BH/2 each corner's hat function
    has the first moment BH/24 (y0 + y1 + y2 + y_j)."""
    corners = mesh.vertices[mesh.faces]  # (F, 3, 3): face, corner, xyz
    lever = corners.sum(axis=1)[:, None, :] + corners - 4.0 * center
    moments = (mesh.frames.BH / 24.0)[:, None, None, None] * _skew(lever)
    entries = 9 * mesh.faces[..., None] + np.arange(9)  # vertex, then 3x3 entry
    blocks = np.bincount(entries.ravel(), moments.ravel(),
                         minlength=9 * mesh.num_vertices)
    return blocks.reshape(-1, 3, 3)


def net_force(mesh: TriMesh, forces) -> np.ndarray:
    """Total force: integral of the piecewise-linear density over the surface."""
    forces = _as_rows(forces, mesh.num_vertices, "forces")
    return _vertex_weights(mesh) @ forces


def net_torque(mesh: TriMesh, forces, center) -> np.ndarray:
    """Total torque about the point `center`."""
    forces = _as_rows(forces, mesh.num_vertices, "forces")
    return np.einsum("nij,nj->i", _torque_blocks(mesh, _as_center(center)), forces)


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
    C = np.vstack([np.kron(_vertex_weights(mesh), np.eye(3)),
                   _torque_blocks(mesh, c).transpose(1, 0, 2).reshape(3, 3 * n)])
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
    w = _vertex_weights(mesh)
    S = point_stokeslet(pts[:, None, :], mesh.vertices[None, :, :], params)
    return np.einsum("mnij,nj->mi", S, w[:, None] * forces) / (8.0 * np.pi * params.mu)


# ---------------------------------------------------------------------------
# baseline 2: constant force density per face, collocated at centroids


def constant_assemble_resistance(mesh: TriMesh, params: KernelParams) -> np.ndarray:
    """3F x 3F matrix mapping per-face constant forces to centroid velocities."""
    return _assemble(mesh, mesh.face_centroids(), _own_face(mesh), mesh.num_faces, params)


def constant_evaluate_velocity(mesh: TriMesh, face_forces, points,
                               params) -> np.ndarray:
    """Velocity at arbitrary points from per-face constant force densities,
    shape (M, 3); a sequence of E params takes face_forces of shape
    (E, F, 3) and gives shape (E, M, 3), as `evaluate_velocity` does."""
    sweep, face_forces = _as_sweep(params, face_forces, mesh.num_faces, "face_forces")
    u = _evaluate(mesh, face_forces[:, :, None], points, sweep)
    return u[0] if isinstance(params, KernelParams) else u
