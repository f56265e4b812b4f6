"""Triangle meshes and their per-triangle geometric frames.

Meshes are indexed triangle surfaces. A mesh builds, when it is constructed,
one struct-of-arrays frame of its faces with the quantities the analytic
kernel needs: each side's length, unit direction and in-plane outward
normal, twice the triangle area BH, and the unit normal nhat. A mesh whose
indices or triangles are invalid is rejected then, never later.

The generators wind each face as they build it. Closed surfaces (sphere,
spheroid, box) are counter-clockwise seen from outside, so nhat points into
the surrounding fluid. Pipe walls are the exception: their normals point
into the interior, where the fluid lives.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields

import numpy as np

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


# Largest |coordinate| of a mesh vertex. The frames square side lengths and
# the norms of corner cross products, |n|**2 ~ L**4, which stay finite for
# sides up to 2 sqrt(3) _MAX_COORDINATE; so does the duplicate tolerance.
_MAX_COORDINATE = 1e75


@dataclass(frozen=True)
class TriangleFrame:
    """Geometry of F flat triangles (y0, y1, y2), one row per triangle.

    Side s runs from corner a = s to corner b = s + 1 (mod 3). y0, y1, y2
    and nhat have shape (F, 3), side_L (F, 3) and side_e, side_n
    (F, 3, 3): face, side, xyz. BH has shape (F,).
    """

    y0: np.ndarray
    y1: np.ndarray
    y2: np.ndarray
    side_L: np.ndarray  # side lengths |y_a - y_b|
    side_e: np.ndarray  # unit vectors along y_a - y_b
    side_n: np.ndarray  # in-plane unit normals pointing out of the triangle
    BH: np.ndarray  # twice the triangle areas
    nhat: np.ndarray  # unit normals, right-handed for (y0, y1, y2)

    def select(self, index) -> "TriangleFrame":
        """The frames of the triangles picked by a slice, mask or index array."""
        return TriangleFrame(*(getattr(self, f.name)[index] for f in fields(self)))

    def centroids(self) -> np.ndarray:
        """Centroids of the triangles, shape (F, 3)."""
        return (self.y0 + self.y1 + self.y2) / 3.0


def _row_dot(a, b):
    """Dot products of the rows of a, shape (F, M, 3), with b, shape (F, 3).

    Returns shape (F, M). Computed as the matrix products a[p] @ b[p], so
    the values equal those of a per-face `a[p] @ b[p]` exactly.
    """
    return (a @ b[:, :, None])[..., 0]


def triangle_frame(y0, y1, y2) -> TriangleFrame:
    """Frames of triangles with corners of shape (F, 3), or (3,) for one.

    One triangle gives the one-face frame (F = 1). The frame keeps a
    floating input dtype wider than float64 (np.longdouble); anything else
    becomes float64. Degenerate geometry in any triangle is rejected.
    """
    corners = [np.atleast_2d(np.asarray(y)) for y in (y0, y1, y2)]
    dtype = np.result_type(*corners, np.float64)
    y0, y1, y2 = corners = [y.astype(dtype, copy=False) for y in corners]
    d = [corners[s] - corners[(s + 1) % 3] for s in range(3)]  # y_a - y_b
    side_L = np.stack([np.sqrt(_row_dot(ds[:, None], ds)[:, 0]) for ds in d], axis=1)
    if np.any(side_L == 0.0):
        raise DegenerateTriangleError("triangle has a zero-length side")
    side_e = np.stack(d, axis=1) / side_L[:, :, None]
    cross = np.cross(y1 - y0, y2 - y0)
    BH = np.sqrt(_row_dot(cross[:, None], cross)[:, 0])
    c = _row_dot(side_e[:, 0, None], side_e[:, 1])[:, 0]
    if np.any((c * c >= 1.0 - 1e-12) | (BH < 1e-14 * side_L[:, 0] * side_L[:, 1])):
        raise DegenerateTriangleError("triangle vertices are (near-)collinear")
    nhat = cross / BH[:, None]
    # nhat x e = (y_b - y_a) x nhat / L, which points out of the triangle
    # because nhat is right-handed for (y0, y1, y2)
    side_n = np.cross(nhat[:, None], side_e)
    return TriangleFrame(y0, y1, y2, side_L, side_e, side_n, BH, nhat)


@dataclass(frozen=True)
class MeshStats:
    num_faces: int
    num_vertices: int
    dof: int  # 3 * num_vertices
    h: float  # sqrt(mean(BH)) over faces


class TriMesh:
    """Immutable indexed triangle surface with its face frames.

    Construction, also by `transformed` and `merged_with`, raises
    MeshFormatError for a mesh without faces, non-integer face indices, a
    non-finite vertex, a coordinate beyond +-1e75 (`_MAX_COORDINATE`), a
    face index out of range, a face repeating a vertex, or two vertices at
    most 1e-12 times the bounding-box diagonal apart (merged surfaces
    sharing a vertex), and DegenerateTriangleError for a face with a
    zero-length side or (near-)collinear corners. It then builds the frames of
    all faces.
    """

    def __init__(self, vertices, faces):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        faces = np.asarray(faces)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise MeshFormatError("vertices must be an (N, 3) array")
        if faces.ndim != 2 or faces.shape[1] != 3 or faces.dtype.kind not in "iu":
            raise MeshFormatError("faces must be an (F, 3) array of integers")
        self.faces = np.ascontiguousarray(faces, dtype=np.int64)
        self._validate()
        v = self.vertices[self.faces]
        self._frames = triangle_frame(v[:, 0], v[:, 1], v[:, 2])
        self.vertices.setflags(write=False)
        self.faces.setflags(write=False)

    def _validate(self):
        f = self.faces
        if len(f) == 0:
            raise MeshFormatError("mesh has no faces")
        if not np.all(np.isfinite(self.vertices)):
            raise MeshFormatError("non-finite vertex coordinate")
        if np.abs(self.vertices).max() > _MAX_COORDINATE:
            raise MeshFormatError(
                f"vertex coordinate beyond +-{_MAX_COORDINATE:g}, too large for "
                "the triangle frames")
        if f.min() < 0 or f.max() >= len(self.vertices):
            raise MeshFormatError("face index out of range")
        if (np.any(f[:, 0] == f[:, 1]) or np.any(f[:, 1] == f[:, 2])
                or np.any(f[:, 0] == f[:, 2])):
            raise MeshFormatError("face repeats a vertex")
        # a face of three distinct in-range vertices leaves N >= 3 here
        span = self.vertices.max(axis=0) - self.vertices.min(axis=0)
        tol = 1e-12 * float(np.linalg.norm(span))
        if tol > 0 and _has_close_pair(self.vertices, tol):
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
        return self._frames

    def face_centroids(self) -> np.ndarray:
        # the frame's own, so that the kernel's offset from a face's
        # centroid is exactly 0 at the centroid
        return self._frames.centroids()

    def transformed(self, rotation=None, translation=None) -> "TriMesh":
        """Rigidly rotate and/or translate the mesh. `rotation` must be a
        finite 3x3 matrix R with R^T R = I to 1e-12 and det R > 0, so that
        faces keep their winding, and `translation` one finite 3-vector;
        anything else raises ValueError."""
        v = self.vertices
        if rotation is not None:
            R = np.asarray(rotation, dtype=float)
            if (R.shape != (3, 3) or not np.all(np.isfinite(R))
                    or np.abs(R.T @ R - np.eye(3)).max() > 1e-12 or np.linalg.det(R) <= 0):
                raise ValueError(f"rotation must be a proper 3x3 rotation matrix, got {R!r}")
            v = v @ R.T
        if translation is not None:
            t = np.asarray(translation, dtype=float)
            if t.shape != (3,) or not np.all(np.isfinite(t)):
                raise ValueError(f"translation must be one finite 3-vector, got {t!r}")
            v = v + t
        return TriMesh(v, self.faces)

    def merged_with(self, other: "TriMesh") -> "TriMesh":
        """Concatenate two disjoint surfaces into one mesh."""
        verts = np.vstack([self.vertices, other.vertices])
        faces = np.vstack([self.faces, other.faces + self.num_vertices])
        return TriMesh(verts, faces)


# Cell keys for _has_close_pair: cell c has key c . (1, P, P**2) modulo 2**64,
# so a neighbour c + d has key + d . (1, P, P**2). Distinct cells may share a
# key, which only adds candidate pairs; with 3 <= P and P**2 + P + 1 < 2**63
# no step d != 0 has key 0 modulo 2**64, so no point pairs with itself.
_P = 1_000_003
_CELL_KEY = np.array([1, _P, _P * _P], dtype=np.uint64)
# the cell itself, then one of each pair of opposite neighbours (13)
_STEPS = [d for d in itertools.product((-1, 0, 1), repeat=3) if d >= (0, 0, 0)]
_STEP_KEYS = np.array([(dx + dy * _P + dz * _P * _P) % 2**64 for dx, dy, dz in _STEPS],
                      dtype=np.uint64)[:, None]


def _has_close_pair(points, tol) -> bool:
    """Whether two of the points, shape (N >= 2, 3), lie within distance
    tol > 0: whether some pair has (dx*dx + dy*dy) + dz*dz <= tol*tol."""
    # a pair within tol lies in one cell of side 2 tol or in two neighbouring
    # ones (2 tol, not tol, so that rounding cannot put it two cells apart)
    cells = np.floor((points - points.min(axis=0)) / (2 * tol)).astype(np.uint64)
    key = cells @ _CELL_KEY
    order = np.argsort(key)
    key, points = key[order], points[order]
    targets = key + _STEP_KEYS
    lo = np.searchsorted(key, targets, side="left")
    hi = np.searchsorted(key, targets, side="right")
    lo[0] = np.arange(1, len(key) + 1)  # in its own cell: the points after it
    step, i = np.nonzero(hi > lo)
    lo, n = lo[step, i], hi[step, i] - lo[step, i]
    # each point i against the positions lo .. lo + n - 1 of its range
    j = np.repeat(lo - np.cumsum(n) + n, n) + np.arange(n.sum())
    d = points[np.repeat(i, n)] - points[j]
    return bool(np.any((d * d).sum(axis=1) <= tol * tol))


def mesh_stats(mesh: TriMesh) -> MeshStats:
    """Face/vertex counts, degrees of freedom, and spacing h = sqrt(mean(BH))."""
    return MeshStats(num_faces=mesh.num_faces, num_vertices=mesh.num_vertices,
                     dof=3 * mesh.num_vertices, h=float(np.sqrt(mesh.frames.BH.mean())))


def _require_positive(**sizes):
    """Raise ValueError naming the first size that is not positive and finite."""
    for name, value in sizes.items():
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")


# ---------------------------------------------------------------------------
# icosphere


def _icosahedron():
    p = (1.0 + math.sqrt(5.0)) / 2.0
    verts = np.array([(-1, p, 0), (1, p, 0), (-1, -p, 0), (1, -p, 0),
                      (0, -1, p), (0, 1, p), (0, -1, -p), (0, 1, -p),
                      (p, 0, -1), (p, 0, 1), (-p, 0, -1), (-p, 0, 1)], dtype=float)
    verts /= np.linalg.norm(verts[0])
    faces = np.array([(0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
                      (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
                      (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
                      (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1)],
                     dtype=np.int64)
    return verts, faces


def make_icosphere(f: int, radius: float = 1.0) -> TriMesh:
    """Subdivided-icosahedron sphere mesh with 20*f**2 faces.

    Each icosahedron face is split into f**2 sub-triangles on the
    barycentric lattice; the lattice points are projected to the sphere.
    Shared edge/corner points are deduplicated by exact integer barycentric
    bookkeeping, so the mesh is bit-reproducible.
    """
    if f < 1:
        raise ValueError("subdivision factor f must be >= 1")
    _require_positive(radius=radius)
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
    # each sub-triangle winds as its icosahedron face does, counter-clockwise
    # seen from outside: normals point away from the center
    return TriMesh(np.array(verts), faces)


def make_spheroid_mesh(f: int, a: float, b: float, grading: float = 0.0) -> TriMesh:
    """Spheroid x^2/b^2 + y^2/b^2 + z^2/a^2 = 1 from a remapped icosphere.

    With grading = 0 the unit icosphere is scaled directly (x, y by b and z
    by a). With grading > 0 the polar angle is remapped toward the poles
    before scaling, which shrinks the polar triangles. This grading is a
    stand-in for a true graded mesh generator; it reproduces the qualitative
    pole refinement, not any particular published mesh.
    """
    _require_positive(a=a, b=b)
    if a < b:
        raise ValueError("spheroid requires a >= b > 0")
    if not 0 <= grading < math.inf:
        raise ValueError(f"grading must be finite and >= 0, got {grading}")
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
        verts = np.column_stack([b * np.sin(theta) * np.cos(phi),
                                 b * np.sin(theta) * np.sin(phi), a * np.cos(theta)])
    # positive scaling and the monotone remap keep the outward winding
    return TriMesh(verts, sphere.faces)


# ---------------------------------------------------------------------------
# grid-triangulated box and pipe


def _lattice_walls(position, walls):
    """Vertices and faces of grid-triangulated walls on an integer lattice.

    Each wall is (axis, index, u_axis, nu, v_axis, nv, flip): the lattice
    plane lat[axis] = index, cut into nu x nv quads along u_axis and v_axis,
    each quad split into two triangles whose winding `flip` reverses.
    position(lat) gives the coordinates of lattice point lat. Points shared
    by walls become one vertex, deduplicated by their exact integer keys.
    """
    verts = []
    index: dict[tuple, int] = {}
    faces = []
    for axis, fixed, u_axis, nu, v_axis, nv, flip in walls:
        def pt(i, j):
            lat = [0, 0, 0]
            lat[axis], lat[u_axis], lat[v_axis] = fixed, i, j
            key = tuple(lat)
            if key not in index:
                index[key] = len(verts)
                verts.append(position(lat))
            return index[key]

        for i in range(nu):
            for j in range(nv):
                p00, p10 = pt(i, j), pt(i + 1, j)
                p01, p11 = pt(i, j + 1), pt(i + 1, j + 1)
                if flip:
                    faces += [(p00, p01, p11), (p00, p11, p10)]
                else:
                    faces += [(p00, p10, p11), (p00, p11, p01)]
    return np.array(verts, dtype=float), np.array(faces, dtype=np.int64)


def make_box_mesh(center, half_side: float, grid_h: float) -> TriMesh:
    """Closed cube of half-side `half_side`, each face an n x n right-triangle grid."""
    _require_positive(half_side=half_side, grid_h=grid_h)
    if grid_h > 2 * half_side:
        raise ValueError("grid_h must not exceed the side length")
    center = np.asarray(center, dtype=float)
    n = max(1, round(2 * half_side / grid_h))
    step = 2 * half_side / n
    # each cube face: fixed axis at -/+ half_side, grid over the other two;
    # normals point out of the box (u x v is +axis, flipped on the low side)
    walls = [(axis, side, (axis + 1) % 3, n, (axis + 2) % 3, n, side == 0)
             for axis in range(3) for side in (0, n)]
    return TriMesh(*_lattice_walls(
        lambda lat: center + np.array(lat) * step - half_side, walls))


def make_pipe_mesh(L: float, a: float, b: float, grid_h: float) -> TriMesh:
    """Four lateral walls y = +-a, z = +-b over x in [-L, L], ends open.

    Wall normals point into the pipe interior, where the fluid is.
    """
    _require_positive(L=L, a=a, b=b, grid_h=grid_h)
    nx = max(1, round(2 * L / grid_h))
    ny = max(1, round(2 * a / grid_h))
    nz = max(1, round(2 * b / grid_h))
    dx, dy, dz = 2 * L / nx, 2 * a / ny, 2 * b / nz
    # walls y = -a, y = +a (grid over x, z); walls z = -b, z = +b (over x, y);
    # normals point into the pipe (u x v is -y and +z, flipped on y = -a, z = +b)
    walls = [(1, 0, 0, nx, 2, nz, True), (1, ny, 0, nx, 2, nz, False),
             (2, 0, 0, nx, 1, ny, False), (2, nz, 0, nx, 1, ny, True)]
    return TriMesh(*_lattice_walls(
        lambda lat: (-L + lat[0] * dx, -a + lat[1] * dy, -b + lat[2] * dz), walls))


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
