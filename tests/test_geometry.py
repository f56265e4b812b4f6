import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial import cKDTree
from scipy.spatial.transform import Rotation

import stokeslet_surfaces

from stokeslet_surfaces import (
    DegenerateTriangleError,
    MeshFormatError,
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
from stokeslet_surfaces.geometry import _cross, _has_close_pair


@pytest.mark.parametrize("f", [1, 2, 4, 6, 8])
def test_icosphere_counts(f):
    mesh = make_icosphere(f)
    assert mesh.num_faces == 20 * f**2
    assert mesh.num_vertices == 10 * f**2 + 2


@pytest.mark.parametrize("f,h", [(6, 0.1860), (8, 0.1398), (9, 0.1243)])
def test_icosphere_mesh_size(f, h):
    stats = mesh_stats(make_icosphere(f))
    assert stats.h == pytest.approx(h, abs=5e-4)


def test_icosphere_on_unit_sphere():
    mesh = make_icosphere(5, radius=2.5)
    r = np.linalg.norm(mesh.vertices, axis=1)
    assert np.allclose(r, 2.5, atol=1e-12)


@pytest.mark.parametrize("center,maker", [
    ((0, 0, 0), lambda: make_icosphere(1)),
    ((0, 0, 0), lambda: make_icosphere(3)),
    ((0, 0, 0), lambda: make_icosphere(5)),
    ((0, 0, 0), lambda: make_spheroid_mesh(4, 3.0, 1.0, grading=0.0)),
    ((0, 0, 0), lambda: make_spheroid_mesh(4, 3.0, 1.0, grading=1.0)),
    ((0, 0, 0), lambda: make_spheroid_mesh(4, 3.0, 1.0, grading=3.0)),
    ((0, 0, 0), lambda: make_box_mesh((0, 0, 0), 0.25, 0.1)),
    ((0.3, -1, 2), lambda: make_box_mesh((0.3, -1, 2), 0.5, 0.25)),
], ids=["icosphere-f1", "icosphere-f3", "icosphere-f5", "spheroid-grading0",
        "spheroid-grading1", "spheroid-grading3", "box-origin", "box-off-origin"])
def test_closed_mesh_normals_point_away_from_center(center, maker):
    # the generators wind every face as they build it; nothing flips it later
    fr = maker().frames
    centroid = (fr.y0 + fr.y1 + fr.y2) / 3.0
    assert np.all(np.einsum("ij,ij->i", fr.nhat, centroid - center) > 0)


@pytest.mark.parametrize("maker", [
    lambda: make_icosphere(4),
    lambda: make_spheroid_mesh(4, 3.0, 1.0),
    lambda: make_box_mesh((0, 0, 0), 0.25, 0.1),
    lambda: make_pipe_mesh(2.5, 1.0, 1.0, 0.25),
])
def test_closed_mesh_normal_sum(maker):
    # area-weighted normals of any closed surface sum to zero
    mesh = maker()
    areas = mesh.frames.BH / 2.0
    total = areas @ mesh.frames.nhat
    scale = areas.sum()
    assert np.linalg.norm(total) < 1e-12 * scale


def test_triangle_frame_mapping():
    rng = np.random.default_rng(3)
    v = rng.normal(size=(3, 3))
    fr = triangle_frame(*v)
    # parameter corners land on the vertices
    (L1, L2, _), (vhat, what, _) = fr.side_L[0], fr.side_e[0]
    assert np.allclose(fr.y0[0] - 1 * L1 * vhat - 0 * L2 * what, v[1])
    assert np.allclose(fr.y0[0] - 1 * L1 * vhat - 1 * L2 * what, v[2])
    # BH is twice the area
    area = 0.5 * np.linalg.norm(np.cross(v[1] - v[0], v[2] - v[0]))
    assert fr.BH.shape == (1,)
    assert fr.BH[0] == pytest.approx(2 * area, rel=1e-13)


def test_degenerate_triangle_rejected():
    with pytest.raises(DegenerateTriangleError):
        triangle_frame([0, 0, 0], [1, 0, 0], [2, 0, 0])


def test_mesh_with_a_collinear_face_rejected_when_built():
    verts = [[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [0, 1.0, 0]]
    with pytest.raises(DegenerateTriangleError, match="collinear"):
        TriMesh(verts, [[0, 1, 3], [0, 1, 2]])


@pytest.mark.parametrize("value", [0.0, -1.0, np.inf, np.nan])
@pytest.mark.parametrize("name,make", [
    ("radius", lambda x: make_icosphere(2, radius=x)),
    ("a", lambda x: make_spheroid_mesh(2, x, 1.0)),
    ("b", lambda x: make_spheroid_mesh(2, 3.0, x)),
    ("half_side", lambda x: make_box_mesh((0, 0, 0), x, 0.1)),
    ("grid_h", lambda x: make_box_mesh((0, 0, 0), 0.25, x)),
    ("L", lambda x: make_pipe_mesh(x, 1.0, 1.0, 0.5)),
    ("a", lambda x: make_pipe_mesh(1.0, x, 1.0, 0.5)),
    ("b", lambda x: make_pipe_mesh(1.0, 1.0, x, 0.5)),
    ("grid_h", lambda x: make_pipe_mesh(1.0, 1.0, 1.0, x)),
], ids=["icosphere-radius", "spheroid-a", "spheroid-b", "box-half_side",
        "box-grid_h", "pipe-L", "pipe-a", "pipe-b", "pipe-grid_h"])
def test_generator_size_that_is_not_positive_and_finite_rejected(name, make, value):
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
        make(value)


@pytest.mark.parametrize("grading", [-0.5, np.inf, np.nan])
def test_spheroid_grading_that_is_not_finite_and_nonnegative_rejected(grading):
    with pytest.raises(ValueError, match="grading"):
        make_spheroid_mesh(2, 3.0, 1.0, grading=grading)


def test_mesh_validation_rejects_bad_faces():
    verts = np.eye(3)
    with pytest.raises(MeshFormatError):
        TriMesh(verts, [[0, 1, 5]])
    with pytest.raises(MeshFormatError):
        TriMesh(verts, [[0, 1, 1]])
    with pytest.raises(MeshFormatError, match="no faces"):
        TriMesh(verts, np.zeros((0, 3), dtype=int))


@pytest.mark.parametrize("faces", [[[0, 1.7, 2]], [[0.0, 1.0, 2.0]], [["0", "1", "2"]],
                                   [[0, np.nan, 2]], [[True, False, True]]])
def test_face_indices_that_are_not_integers_rejected(faces):
    # a float index is not truncated, nor a string parsed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MeshFormatError, match="of integers"):
            TriMesh(np.eye(3), faces)


def test_mesh_validation_rejects_duplicate_vertices():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [1.0, 0, 0]])
    with pytest.raises(MeshFormatError):
        TriMesh(verts, [[0, 1, 2], [0, 3, 2]])


def _duplicate_tol(points):
    """TriMesh's duplicate-vertex tolerance: 1e-12 times the bounding-box diagonal."""
    return 1e-12 * float(np.linalg.norm(points.max(axis=0) - points.min(axis=0)))


def _has_close_pair_brute_force(points, tol):
    d = points[:, None] - points[None]
    i, j = np.triu_indices(len(points), k=1)
    return bool(np.any((d * d).sum(axis=-1)[i, j] <= tol * tol))


@settings(max_examples=300, deadline=None)
@given(shape=st.sampled_from(["cloud", "box", "pipe"]), seed=st.integers(0, 2**32 - 1),
       ratio=st.sampled_from([0.0, 0.5, 0.999, 1.001, 1.5, 2.5]),
       planted=st.integers(2, 6), on_cell_corner=st.booleans())
def test_close_pair_check_matches_brute_force(shape, seed, ratio, planted,
                                              on_cell_corner):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-4, 4)
    if shape == "cloud":
        points = scale * (rng.normal(size=(rng.integers(3, 40), 3)) - rng.uniform(0, 5, 3))
    elif shape == "box":
        points = make_box_mesh(-scale * rng.uniform(0, 5, 3), scale, scale / 4).vertices
    else:
        points = scale * make_pipe_mesh(1.0, 0.5, 0.25, 0.25).vertices
    tol = _duplicate_tol(points)
    # points on a sphere of diameter ratio * tol about a point inside the
    # bounding box, the first two opposite; on a corner of the check's cells
    # (side 2 tol from the low corner) they straddle a cell boundary along
    # every axis, and several of them share cells
    lo, span = points.min(axis=0), points.max(axis=0) - points.min(axis=0)
    centre = lo + rng.uniform(0.1, 0.9, 3) * span
    if on_cell_corner:
        centre = lo + np.round((centre - lo) / (2 * tol)) * 2 * tol
    u = rng.normal(size=(planted, 3))
    u[1] = -u[0]
    u *= 0.5 * ratio * tol / np.linalg.norm(u, axis=1)[:, None]
    points = np.vstack([points, centre + rng.permutation(u)])
    assert _duplicate_tol(points) == tol
    expected = _has_close_pair_brute_force(points, tol)
    assert _has_close_pair(points, tol) == expected
    assert bool(cKDTree(points).query_pairs(tol)) == expected


def test_close_pair_found_behind_other_points_of_a_cell():
    # the check's cells have side 2 tol from the low corner: p lies in cell
    # (0, 0, 0), and its neighbour (1, 0, 0) holds five points, of which only
    # the last is within tol of p
    tol = 1e-12 * np.sqrt(3.0)
    p = [1.9, 1.0, 1.0]
    neighbours = [[3.9, 0.1, 0.1], [3.9, 1.9, 1.9], [3.9, 0.1, 1.9], [3.9, 1.9, 0.1],
                  [2.5, 1.0, 1.0]]
    points = np.vstack([np.zeros(3), tol * np.array([p] + neighbours), np.ones(3)])
    assert _duplicate_tol(points) == tol
    assert _has_close_pair(points, tol)
    assert not _has_close_pair(np.delete(points, 6, axis=0), tol)


def test_vertex_exactly_tolerance_apart_rejected():
    # (tol, 0, 0) lies tol from the origin in exact arithmetic: the bound is
    # inclusive
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [1e-12 * np.sqrt(2.0), 0, 0]])
    assert _duplicate_tol(verts) == verts[3, 0]
    with pytest.raises(MeshFormatError, match="duplicate vertices"):
        TriMesh(verts, [[0, 1, 2]])


@pytest.mark.parametrize("direction", [(1, 0, 0), (0, -1, 0), (0, 0, 1), (1, -1, 1),
                                       (-0.3, 2.0, 0.7)])
@pytest.mark.parametrize("make", [
    lambda: make_box_mesh((-2.0, -1.0, -0.5), 0.25, 0.125),
    lambda: make_pipe_mesh(1.0, 0.5, 0.25, 0.25),
    lambda: make_icosphere(3).transformed(translation=(-1.0, -2.0, -3.0)),
])
def test_vertex_copy_rejected_exactly_within_tolerance(make, direction):
    mesh = make()
    tol = _duplicate_tol(mesh.vertices)
    u = np.asarray(direction) / np.linalg.norm(direction)
    for k in (0, mesh.num_vertices // 2, mesh.num_vertices - 1):
        for ratio, rejected in ((0.5, True), (0.999, True), (1.001, False)):
            copy = mesh.vertices[k] + ratio * tol * u
            verts = np.vstack([mesh.vertices, copy])
            assert _duplicate_tol(verts) == pytest.approx(tol, rel=1e-9)
            if rejected:
                with pytest.raises(MeshFormatError, match="duplicate vertices"):
                    TriMesh(verts, mesh.faces)
            else:
                TriMesh(verts, mesh.faces)


@pytest.mark.parametrize("far", [1e76, 1e100, 1e200, 1e308, -1e308])
def test_mesh_with_too_large_coordinates_rejected(far):
    # past 1e75 the frames' |n|**2 ~ L**4 overflows (from about 1e77), and
    # from about 1e154 so does the duplicate tolerance; the suite turns the
    # RuntimeWarning of an overflow into an error, so none may happen first
    verts = np.array([[0, 1.0, 0], [0, 0, 1.0], [far, 0, 0]])
    with pytest.raises(MeshFormatError, match="coordinate beyond"):
        TriMesh(verts, [[0, 1, 2]])
    with pytest.raises(MeshFormatError, match="coordinate beyond"):
        TriMesh(np.array([[1e308, 0, 0], [0, 1e200, 0], [far, 0, 0]]), [[0, 1, 2]])


def test_mesh_at_the_coordinate_limit_builds():
    verts = 1e75 * np.array([[1.0, -1, 0], [-1, 1, 1], [1, 1, -1]])
    mesh = TriMesh(verts, [[0, 1, 2]])
    assert np.all(np.isfinite(mesh.frames.BH)) and np.all(mesh.frames.BH > 0)


def _scipy_modules_after(code, *args):
    """The scipy modules loaded once `code` has run in a fresh interpreter
    that imports the package from this source tree."""
    code += """
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""
    src = str(Path(stokeslet_surfaces.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code, *args],
                         env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                         text=True, check=True, timeout=120)
    return out.stdout.strip()


def test_mesh_construction_imports_no_scipy(tmp_path):
    code = """
import sys
import stokeslet_surfaces as ss
mesh = ss.make_icosphere(2)
moved = mesh.transformed(rotation=[[0, -1, 0], [1, 0, 0], [0, 0, 1]],
                         translation=(3.0, 0.0, 0.0))
pair = mesh.merged_with(moved)
ss.write_mesh(pair, sys.argv[1])
assert ss.read_mesh(sys.argv[1]).num_vertices == pair.num_vertices
"""
    assert _scipy_modules_after(code, str(tmp_path / "pair.mesh")) == "[]"


def test_solves_and_evaluations_import_no_scipy():
    # assembly, a drag solve, the squirmer swimmer, evaluation at more than
    # 4096 points and the constant elements, with numpy alone
    code = """
import sys
import numpy as np
import stokeslet_surfaces as ss
from stokeslet_surfaces.studies import _squirmer_slip
mesh = ss.make_icosphere(2)
params = ss.KernelParams(eps=1e-2)
A = ss.assemble_resistance(mesh, params)
forces = ss.solve_resistance(mesh, np.tile([1.0, 0.0, 0.0], (mesh.num_vertices, 1)),
                             params, matrix=A)
swimmer = ss.solve_swimmer(mesh, _squirmer_slip(mesh), params, center=np.zeros(3))
dirs = np.random.default_rng(0).normal(size=(5000, 3))
points = 2.0 * dirs / np.linalg.norm(dirs, axis=1)[:, None]
u = ss.evaluate_velocity(mesh, forces, points, params)
C = ss.constant_assemble_resistance(mesh, params)
u_constant = ss.constant_evaluate_velocity(mesh, np.ones((mesh.num_faces, 3)), points,
                                           params)
assert all(np.all(np.isfinite(a)) for a in
           (A, forces, swimmer.forces, swimmer.U, u, C, u_constant))
"""
    assert _scipy_modules_after(code) == "[]"


def test_transformed_keeps_rigid_motions():
    mesh = make_icosphere(1)
    Q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))
    Q[:, 0] *= np.sign(np.linalg.det(Q))
    quarter_turn = [[0, -1, 0], [1, 0, 0], [0, 0, 1]]
    scipy_rotation = Rotation.from_rotvec([0.3, -1.2, 0.5]).as_matrix()
    for rotation in (Q, quarter_turn, scipy_rotation):
        moved = mesh.transformed(rotation=rotation, translation=(1.0, 2.0, 3.0))
        R = np.asarray(rotation, dtype=float)
        assert np.array_equal(moved.vertices, mesh.vertices @ R.T + (1.0, 2.0, 3.0))
        # the winding stays outward: nhat points away from the moved center
        radial = moved.face_centroids() - (1.0, 2.0, 3.0)
        assert np.all(np.einsum("fi,fi->f", moved.frames.nhat, radial) > 0)


@pytest.mark.parametrize("name, value", [
    pytest.param("rotation", np.diag([2.0, 1.0, 1.0]), id="stretch"),
    pytest.param("rotation", np.diag([-1.0, 1.0, 1.0]), id="mirror"),
    pytest.param("rotation", np.eye(2), id="2x2"),
    pytest.param("rotation", np.full((3, 3), np.nan), id="nan"),
    pytest.param("translation", np.ones((42, 3)), id="per-vertex"),
    pytest.param("translation", (1.0, 2.0), id="2-vector"),
    pytest.param("translation", (1.0, np.inf, 0.0), id="inf"),
])
def test_transformed_rejects_non_rigid_input(name, value):
    # a stretch deforms the mesh, a mirror turns its normals inward, and an
    # (N, 3) translation moves each vertex its own way
    with pytest.raises(ValueError, match=name):
        make_icosphere(1).transformed(**{name: value})


def test_spheroid_vertices_on_surface():
    a, b = 3.0, 1.0
    for grading in (0.0, 1.0):
        mesh = make_spheroid_mesh(4, a, b, grading=grading)
        x, y, z = mesh.vertices.T
        q = x**2 / b**2 + y**2 / b**2 + z**2 / a**2
        assert np.allclose(q, 1.0, atol=1e-10)


def test_spheroid_grading_concentrates_poles():
    a, b = 3.0, 1.0
    uniform = make_spheroid_mesh(6, a, b, grading=0.0)
    graded = make_spheroid_mesh(6, a, b, grading=1.0)
    cap = lambda m: np.sum(np.abs(m.vertices[:, 2]) > 0.9 * a)
    assert cap(graded) > cap(uniform)


def test_box_mesh_counts_and_h():
    mesh = make_box_mesh((0, 0, 0), 0.25, 0.05)
    n = 10  # 0.5 / 0.05
    assert mesh.num_faces == 12 * n**2
    assert mesh_stats(mesh).h == pytest.approx(0.05, rel=1e-12)


def test_pipe_mesh_counts_and_orientation():
    mesh = make_pipe_mesh(2.5, 1.0, 1.0, 0.2)
    assert mesh.num_faces == 2000  # 4 walls x 25 x 10 quads x 2
    fr = mesh.frames
    centroid = (fr.y0 + fr.y1 + fr.y2) / 3.0
    inward = -centroid * np.array([0.0, 1.0, 1.0])
    # walls face the fluid interior
    assert np.all(np.einsum("ij,ij->i", fr.nhat, inward) > 0)


def test_mesh_stats_definition():
    mesh = make_icosphere(3)
    bh = mesh.frames.BH
    stats = mesh_stats(mesh)
    assert stats.h == pytest.approx(np.sqrt(bh.mean()), rel=1e-13)
    assert stats.dof == 3 * mesh.num_vertices


def test_mesh_io_roundtrip(tmp_path):
    mesh = make_icosphere(2)
    path = tmp_path / "m.mesh"
    write_mesh(mesh, path)
    back = read_mesh(path)
    assert np.array_equal(back.faces, mesh.faces)
    assert np.allclose(back.vertices, mesh.vertices, atol=0)
    header = path.read_text().split("\n", 1)[0].split()
    assert [int(t) for t in header] == [mesh.num_vertices, mesh.num_faces]


def test_mesh_io_rejects_malformed(tmp_path):
    path = tmp_path / "bad.mesh"
    path.write_text("3 1\n0 0 0\n1 0 0\n")
    with pytest.raises(MeshFormatError):
        read_mesh(path)
    path.write_text("x y\n")
    with pytest.raises(MeshFormatError):
        read_mesh(path)
    path.write_text("3 1\n0 0 0\n1 0 0\n0 1 0\n0 1 2\n7\n")
    with pytest.raises(MeshFormatError):
        read_mesh(path)


def test_merged_mesh_offsets_faces():
    a = make_icosphere(1)
    b = a.transformed(translation=(5.0, 0.0, 0.0))
    merged = a.merged_with(b)
    assert merged.num_vertices == 2 * a.num_vertices
    assert merged.num_faces == 2 * a.num_faces
    assert np.array_equal(merged.faces[a.num_faces:], b.faces + a.num_vertices)


def test_merging_surfaces_that_share_a_vertex_rejected():
    # the icosahedron holds -v for each vertex v: b's copy of -v lands on v
    a = make_icosphere(1)
    b = a.transformed(translation=2.0 * a.vertices[0])
    with pytest.raises(MeshFormatError, match="duplicate vertices"):
        a.merged_with(b)


# The operand shapes the package passes to _cross, N = None: one vector and
# one vector or N points (the references, the studies' rigid motions),
# _skew's identity against levers of shape (N, 1, 3) or (N, 3, 1, 3), and
# the frames' per-face rows, (F, 3) x (F, 3) and (F, 1, 3) x (F, 3, 3).
_CROSS_SHAPES = (((3,), (3,)), ((3,), (None, 3)), ((3, 3), (None, 1, 3)),
                 ((3, 3), (None, 3, 1, 3)), ((None, 3), (None, 3)),
                 ((None, 1, 3), (None, 3, 3)))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), shapes=st.sampled_from(_CROSS_SHAPES), n=st.integers(0, 5),
       dtypes=st.sampled_from([(np.float64, np.float64), (np.longdouble, np.longdouble),
                               (np.float64, np.longdouble)]),
       swap=st.booleans(), listed=st.booleans())
def test_cross_equals_numpys_cross_bit_for_bit(data, shapes, n, dtypes, swap, listed):
    # bounded so that no product overflows; the longdouble operands are
    # divided by 3 in longdouble, which fills its wider mantissa
    elements = st.floats(-1e100, 1e100)
    a, b = (data.draw(hnp.arrays(np.float64, tuple(n if d is None else d for d in shape),
                                 elements=elements)).astype(dtype) / dtype(3)
            for shape, dtype in zip(shapes, dtypes))
    if swap:
        a, b = b, a
    if listed and a.ndim == 1:  # a list, as the studies pass the rotation axis
        a = a.tolist()
    got, want = _cross(a, b), np.cross(a, b)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
