import numpy as np
import pytest

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


def test_icosphere_oriented_outward():
    mesh = make_icosphere(3)
    fr = mesh.frames
    centroid = (fr.y0 + fr.y1 + fr.y2) / 3.0
    assert np.all(np.einsum("ij,ij->i", fr.nhat, centroid) > 0)


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
    assert np.allclose(fr.y0 - 1 * fr.L1 * fr.vhat - 0 * fr.L2 * fr.what, v[1])
    assert np.allclose(fr.y0 - 1 * fr.L1 * fr.vhat - 1 * fr.L2 * fr.what, v[2])
    # BH is twice the area
    area = 0.5 * np.linalg.norm(np.cross(v[1] - v[0], v[2] - v[0]))
    assert fr.BH.shape == (1,)
    assert fr.BH[0] == pytest.approx(2 * area, rel=1e-13)


def test_degenerate_triangle_rejected():
    with pytest.raises(DegenerateTriangleError):
        triangle_frame([0, 0, 0], [1, 0, 0], [2, 0, 0])


def test_mesh_validation_rejects_bad_faces():
    verts = np.eye(3)
    with pytest.raises(MeshFormatError):
        TriMesh(verts, [[0, 1, 5]])
    with pytest.raises(MeshFormatError):
        TriMesh(verts, [[0, 1, 1]])


def test_mesh_validation_rejects_duplicate_vertices():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [1.0, 0, 0]])
    with pytest.raises(MeshFormatError):
        TriMesh(verts, [[0, 1, 2], [0, 3, 2]])


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
