"""Triangle meshes and their per-triangle geometric frames.

Meshes are indexed triangle surfaces. A mesh caches one struct-of-arrays
frame of its faces with the quantities the analytic kernel needs: the two
edge directions vhat (y0 - y1) and what (y1 - y2), the edge lengths L1, L2,
twice the triangle area BH, and the unit normal nhat.

Closed surfaces (sphere, spheroid, box) are oriented counter-clockwise seen
from outside, so nhat points into the surrounding fluid. Pipe walls are the
exception: their normals point into the interior, where the fluid lives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.spatial import cKDTree

from .errors import DegenerateTriangleError, MeshFormatError

__all__ = [
    "TriangleFrame",
    "TriMesh",
    "MeshStats",
    "triangle_frame",
    "make_icosphere",
    "make_spheroid_mesh",
    "make_box_mesh",
    "make_pipe_mesh",
    "mesh_stats",
    "read_mesh",
    "write_mesh",
]


@dataclass(frozen=True)
class TriangleFrame:
    """Geometry of F flat triangles (y0, y1, y2), one row per triangle.

    y0, y1, y2, vhat, what and nhat have shape (F, 3); L1, L2 and BH have
    shape (F,).
    """

    y0: np.ndarray
    y1: np.ndarray
    y2: np.ndarray
    vhat: np.ndarray  # unit vectors along y0 - y1
    what: np.ndarray  # unit vectors along y1 - y2
    L1: np.ndarray
    L2: np.ndarray
    BH: np.ndarray  # twice the triangle areas
    nhat: np.ndarray  # unit normals, right-handed for (y0, y1, y2)

    def select(self, index) -> "TriangleFrame":
        """The frames of the triangles picked by a slice, mask or index array."""
        return TriangleFrame(*(getattr(self, f.name)[index] for f in fields(self)))


def _row_dot(a, b):
    """Dot products of the rows of a, shape (F, M, 3), with b, shape (F, 3).

    Returns shape (F, M). Computed as the matrix products a[p] @ b[p], so
    the values equal those of a per-face `a[p] @ b[p]` exactly.
    """
    return (a @ b[:, :, None])[..., 0]


def triangle_frame(y0, y1, y2) -> TriangleFrame:
    """Frames of triangles with corners of shape (F, 3), or (3,) for one.

    One triangle gives the one-face frame (F = 1). Degenerate geometry in
    any triangle is rejected.
    """
    y0 = np.atleast_2d(np.asarray(y0, dtype=float))
    y1 = np.atleast_2d(np.asarray(y1, dtype=float))
    y2 = np.atleast_2d(np.asarray(y2, dtype=float))
    e1 = y0 - y1
    e2 = y1 - y2
    L1 = np.sqrt(_row_dot(e1[:, None], e1)[:, 0])
    L2 = np.sqrt(_row_dot(e2[:, None], e2)[:, 0])
    if np.any(L1 == 0.0) or np.any(L2 == 0.0):
        raise DegenerateTriangleError("triangle has a zero-length side")
    vhat = e1 / L1[:, None]
    what = e2 / L2[:, None]
    cross = np.cross(y1 - y0, y2 - y0)
    BH = np.sqrt(_row_dot(cross[:, None], cross)[:, 0])
    c = _row_dot(vhat[:, None], what)[:, 0]
    if np.any((c * c >= 1.0 - 1e-12) | (BH < 1e-14 * L1 * L2)):
        raise DegenerateTriangleError("triangle vertices are (near-)collinear")
    nhat = cross / BH[:, None]
    return TriangleFrame(y0, y1, y2, vhat, what, L1, L2, BH, nhat)


@dataclass(frozen=True)
class MeshStats:
    num_faces: int
    num_vertices: int
    dof: int  # 3 * num_vertices
    h: float  # sqrt(mean(BH)) over faces


class TriMesh:
    """Immutable indexed triangle surface with cached face frames."""

    def __init__(self, vertices, faces, validate: bool = True):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.faces = np.ascontiguousarray(faces, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise MeshFormatError("vertices must be an (N, 3) array")
        if self.faces.ndim != 2 or self.faces.shape[1] != 3:
            raise MeshFormatError("faces must be an (F, 3) array")
        if validate:
            self._validate()
        self._frames: TriangleFrame | None = None
        self.vertices.setflags(write=False)
        self.faces.setflags(write=False)

    def _validate(self):
        if not np.all(np.isfinite(self.vertices)):
            raise MeshFormatError("non-finite vertex coordinate")
        nv = len(self.vertices)
        if self.faces.size and (self.faces.min() < 0 or self.faces.max() >= nv):
            raise MeshFormatError("face index out of range")
        f = self.faces
        if f.size and (
            np.any(f[:, 0] == f[:, 1])
            or np.any(f[:, 1] == f[:, 2])
            or np.any(f[:, 0] == f[:, 2])
        ):
            raise MeshFormatError("face repeats a vertex")
        if nv >= 2:
            span = self.vertices.max(axis=0) - self.vertices.min(axis=0)
            tol = 1e-12 * float(np.linalg.norm(span))
            if tol > 0 and cKDTree(self.vertices).query_pairs(tol):
                raise MeshFormatError("duplicate vertices within tolerance")

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_faces(self) -> int:
        return len(self.faces)

    @property
    def frames(self) -> TriangleFrame:
        """Frames of all faces, row p for face p."""
        if self._frames is None:
            v = self.vertices[self.faces]
            self._frames = triangle_frame(v[:, 0], v[:, 1], v[:, 2])
        return self._frames

    def face_centroids(self) -> np.ndarray:
        return self.vertices[self.faces].mean(axis=1)

    def vertex_centroid(self) -> np.ndarray:
        return self.vertices.mean(axis=0)

    def max_side_length(self) -> float:
        v = self.vertices[self.faces]
        sides = np.stack(
            [
                np.linalg.norm(v[:, 0] - v[:, 1], axis=1),
                np.linalg.norm(v[:, 1] - v[:, 2], axis=1),
                np.linalg.norm(v[:, 2] - v[:, 0], axis=1),
            ]
        )
        return float(sides.max())

    def transformed(self, rotation=None, translation=None) -> "TriMesh":
        """Rigidly rotate and/or translate the mesh."""
        v = self.vertices
        if rotation is not None:
            v = v @ np.asarray(rotation, dtype=float).T
        if translation is not None:
            v = v + np.asarray(translation, dtype=float)
        return TriMesh(v, self.faces, validate=False)

    def merged_with(self, other: "TriMesh") -> "TriMesh":
        """Concatenate two disjoint surfaces into one mesh."""
        verts = np.vstack([self.vertices, other.vertices])
        faces = np.vstack([self.faces, other.faces + self.num_vertices])
        return TriMesh(verts, faces, validate=False)


def mesh_stats(mesh: TriMesh) -> MeshStats:
    """Face/vertex counts, degrees of freedom, and spacing h = sqrt(mean(BH))."""
    if mesh.num_faces == 0:
        raise ValueError("empty mesh")
    return MeshStats(
        num_faces=mesh.num_faces,
        num_vertices=mesh.num_vertices,
        dof=3 * mesh.num_vertices,
        h=float(np.sqrt(mesh.frames.BH.mean())),
    )


# ---------------------------------------------------------------------------
# icosphere


def _icosahedron():
    p = (1.0 + math.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            (-1, p, 0), (1, p, 0), (-1, -p, 0), (1, -p, 0),
            (0, -1, p), (0, 1, p), (0, -1, -p), (0, 1, -p),
            (p, 0, -1), (p, 0, 1), (-p, 0, -1), (-p, 0, 1),
        ],
        dtype=float,
    )
    verts /= np.linalg.norm(verts[0])
    faces = np.array(
        [
            (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
            (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
            (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
            (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
        ],
        dtype=np.int64,
    )
    return verts, faces


def _orient_outward(vertices, faces, center):
    """Flip faces whose normal points toward `center`."""
    v = vertices[faces]
    normals = np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])
    centroids = v.mean(axis=1) - center
    flip = np.einsum("ij,ij->i", normals, centroids) < 0
    faces = faces.copy()
    faces[flip] = faces[flip][:, [0, 2, 1]]
    return faces


def make_icosphere(f: int, radius: float = 1.0) -> TriMesh:
    """Subdivided-icosahedron sphere mesh with 20*f**2 faces.

    Each icosahedron face is split into f**2 sub-triangles on the
    barycentric lattice; the lattice points are projected to the sphere.
    Shared edge/corner points are deduplicated by exact integer barycentric
    bookkeeping, so the mesh is bit-reproducible.
    """
    if f < 1:
        raise ValueError("subdivision factor f must be >= 1")
    if radius <= 0:
        raise ValueError("radius must be positive")
    base_v, base_f = _icosahedron()

    verts: list[np.ndarray] = []
    index: dict[tuple, int] = {}

    def lattice_point(face, i, j):
        # barycentric integer weights on the face corners, summing to f
        a, b, c = face
        weights = ((int(a), f - i), (int(b), i - j), (int(c), j))
        key = tuple(sorted(w for w in weights if w[1] > 0))
        idx = index.get(key)
        if idx is None:
            p = sum(base_v[vid] * w for vid, w in weights) / f
            p *= radius / np.linalg.norm(p)
            idx = len(verts)
            verts.append(p)
            index[key] = idx
        return idx

    faces = []
    for face in base_f:
        grid = [[lattice_point(face, i, j) for j in range(i + 1)] for i in range(f + 1)]
        for i in range(f):
            for j in range(i + 1):
                faces.append((grid[i][j], grid[i + 1][j], grid[i + 1][j + 1]))
                if j < i:
                    faces.append((grid[i][j], grid[i + 1][j + 1], grid[i][j + 1]))
    vertices = np.array(verts)
    faces = _orient_outward(vertices, np.array(faces, dtype=np.int64), np.zeros(3))
    return TriMesh(vertices, faces)


def make_spheroid_mesh(f: int, a: float, b: float, grading: float = 0.0) -> TriMesh:
    """Spheroid x^2/b^2 + y^2/b^2 + z^2/a^2 = 1 from a remapped icosphere.

    With grading = 0 the unit icosphere is scaled directly (x, y by b and z
    by a). With grading > 0 the polar angle is remapped toward the poles
    before scaling, which shrinks the polar triangles. This grading is a
    stand-in for a true graded mesh generator; it reproduces the qualitative
    pole refinement, not any particular published mesh.
    """
    if b <= 0 or a < b:
        raise ValueError("spheroid requires a >= b > 0")
    if grading < 0:
        raise ValueError("grading must be >= 0")
    sphere = make_icosphere(f, 1.0)
    if grading == 0.0:
        verts = sphere.vertices * np.array([b, b, a])
    else:
        # theta' = theta - k*sin(2*theta); k < 1/2 keeps the remap monotone
        k = min(0.4 * grading, 0.49)
        x, y, z = sphere.vertices.T
        theta = np.arccos(np.clip(z, -1.0, 1.0))
        phi = np.arctan2(y, x)
        theta = theta - k * np.sin(2.0 * theta)
        verts = np.column_stack(
            [
                b * np.sin(theta) * np.cos(phi),
                b * np.sin(theta) * np.sin(phi),
                a * np.cos(theta),
            ]
        )
    faces = _orient_outward(verts, sphere.faces, np.zeros(3))
    return TriMesh(verts, faces)


# ---------------------------------------------------------------------------
# grid-triangulated box and pipe


def _grid_quad_faces(point_index, n1, n2, flip):
    """Triangulate an n1 x n2 grid of quads; point_index(i, j) -> vertex id."""
    faces = []
    for i in range(n1):
        for j in range(n2):
            p00 = point_index(i, j)
            p10 = point_index(i + 1, j)
            p01 = point_index(i, j + 1)
            p11 = point_index(i + 1, j + 1)
            if flip:
                faces.append((p00, p01, p11))
                faces.append((p00, p11, p10))
            else:
                faces.append((p00, p10, p11))
                faces.append((p00, p11, p01))
    return faces


class _VertexPool:
    """Deduplicates grid vertices by exact integer lattice keys."""

    def __init__(self):
        self.verts: list[tuple] = []
        self.index: dict[tuple, int] = {}

    def add(self, key, xyz) -> int:
        idx = self.index.get(key)
        if idx is None:
            idx = len(self.verts)
            self.verts.append(xyz)
            self.index[key] = idx
        return idx

    def array(self) -> np.ndarray:
        return np.array(self.verts, dtype=float)


def make_box_mesh(center, half_side: float, grid_h: float) -> TriMesh:
    """Closed cube of half-side `half_side`, each face an n x n right-triangle grid."""
    if half_side <= 0 or grid_h <= 0:
        raise ValueError("half_side and grid_h must be positive")
    if grid_h > 2 * half_side:
        raise ValueError("grid_h must not exceed the side length")
    center = np.asarray(center, dtype=float)
    n = max(1, round(2 * half_side / grid_h))
    step = 2 * half_side / n
    pool = _VertexPool()
    faces = []
    # each cube face: fixed axis at -/+ half_side, grid over the other two
    for axis in range(3):
        u_axis, v_axis = (axis + 1) % 3, (axis + 2) % 3
        for side in (0, n):
            def pt(i, j, axis=axis, u_axis=u_axis, v_axis=v_axis, side=side):
                lat = [0, 0, 0]
                lat[axis] = side
                lat[u_axis] = i
                lat[v_axis] = j
                xyz = center + np.array(lat) * step - half_side
                return pool.add(tuple(lat), tuple(xyz))

            faces.extend(_grid_quad_faces(pt, n, n, flip=(side == 0)))
    vertices = pool.array()
    faces = _orient_outward(vertices, np.array(faces, dtype=np.int64), center)
    return TriMesh(vertices, faces)


def make_pipe_mesh(L: float, a: float, b: float, grid_h: float) -> TriMesh:
    """Four lateral walls y = +-a, z = +-b over x in [-L, L], ends open.

    Wall normals point into the pipe interior, where the fluid is.
    """
    if L <= 0 or a <= 0 or b <= 0 or grid_h <= 0:
        raise ValueError("all pipe dimensions must be positive")
    nx = max(1, round(2 * L / grid_h))
    ny = max(1, round(2 * a / grid_h))
    nz = max(1, round(2 * b / grid_h))
    dx, dy, dz = 2 * L / nx, 2 * a / ny, 2 * b / nz
    pool = _VertexPool()
    faces = []

    def add_wall(fixed_axis, fixed_idx, free_axis, free_n, flip):
        def pt(i, j):
            lat = [0, 0, 0]
            lat[0] = i
            lat[fixed_axis] = fixed_idx
            lat[free_axis] = j
            xyz = (
                -L + lat[0] * dx,
                -a + lat[1] * dy,
                -b + lat[2] * dz,
            )
            return pool.add(tuple(lat), xyz)

        faces.extend(_grid_quad_faces(pt, nx, free_n, flip=flip))

    # walls y = -a, y = +a (grid over x, z); walls z = -b, z = +b (over x, y)
    add_wall(1, 0, 2, nz, flip=True)
    add_wall(1, ny, 2, nz, flip=False)
    add_wall(2, 0, 1, ny, flip=False)
    add_wall(2, nz, 1, ny, flip=True)
    vertices = pool.array()
    faces = np.array(faces, dtype=np.int64)
    # orient normals toward the pipe axis (into the fluid)
    v = vertices[faces]
    normals = np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])
    centroids = v.mean(axis=1)
    inward = -centroids * np.array([0.0, 1.0, 1.0])  # toward the centerline
    flip = np.einsum("ij,ij->i", normals, inward) < 0
    faces[flip] = faces[flip][:, [0, 2, 1]]
    return TriMesh(vertices, faces)


# ---------------------------------------------------------------------------
# plain-text mesh format: "nV nF" header, vertex lines, 0-based face lines


def write_mesh(mesh: TriMesh, path) -> None:
    lines = [f"{mesh.num_vertices} {mesh.num_faces}"]
    lines += [f"{x:.17g} {y:.17g} {z:.17g}" for x, y, z in mesh.vertices]
    lines += [f"{a} {b} {c}" for a, b, c in mesh.faces]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_mesh(path) -> TriMesh:
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise MeshFormatError("missing mesh header")
    try:
        nv, nf = int(tokens[0]), int(tokens[1])
        values = [float(t) for t in tokens[2 : 2 + 3 * nv]]
        indices = [int(t) for t in tokens[2 + 3 * nv : 2 + 3 * nv + 3 * nf]]
    except ValueError as exc:
        raise MeshFormatError(f"unparseable mesh file: {exc}") from None
    if len(values) != 3 * nv or len(indices) != 3 * nf:
        raise MeshFormatError("mesh file truncated")
    if len(tokens) > 2 + 3 * nv + 3 * nf:
        raise MeshFormatError("unexpected tokens after the face list")
    vertices = np.array(values).reshape(nv, 3)
    faces = np.array(indices, dtype=np.int64).reshape(nf, 3)
    return TriMesh(vertices, faces)
