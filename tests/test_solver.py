import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stokeslet_surfaces import (
    FloatingFloorError,
    KernelParams,
    SingularSystemError,
    assemble_resistance,
    baseline_constant_solve,
    baseline_mrs_velocity,
    condition_number,
    constant_assemble_resistance,
    constant_evaluate_velocity,
    evaluate_velocity,
    make_icosphere,
    mesh_stats,
    mrs_assemble_resistance,
    net_force,
    net_torque,
    solve_resistance,
    solve_swimmer,
    sphere_rotation_reference,
    sphere_translation_reference,
    squirmer_slip,
    triangle_frame,
    triangle_velocity,
    TriMesh,
)
from stokeslet_surfaces.solver import _face_chunks, _velocity_blocks, _vertex_moments


@pytest.fixture(scope="module")
def small_sphere():
    return make_icosphere(3)


def test_zero_forces_zero_velocity(small_sphere):
    params = KernelParams(eps=1e-2)
    f = np.zeros((small_sphere.num_vertices, 3))
    u = evaluate_velocity(small_sphere, f, [[2.0, 0.0, 0.0]], params)
    assert np.allclose(u, 0.0)


def test_single_triangle_mesh_matches_triangle_velocity():
    verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.2, 0.9, 0.1]])
    mesh = TriMesh(verts, [[0, 1, 2]])
    params = KernelParams(eps=0.05)
    forces = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
    xf = np.array([0.5, 0.5, 0.7])
    u = evaluate_velocity(mesh, forces, xf[None, :], params)
    expect = triangle_velocity(xf, triangle_frame(*verts), *forces, params)
    assert np.allclose(u[0], expect, rtol=1e-13, atol=0)


def test_assemble_matches_evaluate(small_sphere):
    params = KernelParams(eps=1e-2)
    M = assemble_resistance(small_sphere, params)
    assert M.shape == (3 * small_sphere.num_vertices,) * 2
    rng = np.random.default_rng(0)
    f = rng.normal(size=(small_sphere.num_vertices, 3))
    via_matrix = (M @ f.reshape(-1)).reshape(-1, 3)
    direct = evaluate_velocity(small_sphere, f, small_sphere.vertices, params)
    assert np.allclose(via_matrix, direct, rtol=1e-12, atol=1e-14)


def test_system_size_f8():
    mesh = make_icosphere(8)
    assert 3 * mesh.num_vertices == 1926  # +6 swimmer unknowns gives 1932


def test_chunked_assembly_matches_one_face_blocks():
    # f=2: 42 points, so chunks of 48 faces that share vertices
    mesh = make_icosphere(2)
    params = KernelParams(eps=1e-3)
    first = mesh.faces[_face_chunks(mesh.num_faces, mesh.num_vertices)[0]]
    assert len(first) == 48 and len(np.unique(first)) < first.size
    n = mesh.num_vertices
    stacked = np.zeros((n, 3, n, 3))
    for p, face in enumerate(mesh.faces):
        blocks = _velocity_blocks(mesh.vertices, mesh.frames.select(slice(p, p + 1)),
                                  params)
        for vertex, Mk in zip(face, blocks):
            stacked[:, :, vertex, :] += Mk[0]
    stacked = stacked.reshape(3 * n, 3 * n)
    A = assemble_resistance(mesh, params)
    assert np.abs(A - stacked).max() <= 1e-13 * np.abs(stacked).max()


@settings(max_examples=12, deadline=None)
@given(f=st.integers(1, 2), seed=st.integers(0, 2**32 - 1),
       log_eps=st.floats(-4.0, -1.0))
def test_assembled_matrix_matches_evaluation_on_random_meshes(f, seed, log_eps):
    # rotated icosphere with vertices jittered by up to 0.1 h
    rng = np.random.default_rng(seed)
    sphere = make_icosphere(f)
    jitter = 0.1 * mesh_stats(sphere).h * rng.uniform(-1, 1, sphere.vertices.shape)
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    mesh = TriMesh((sphere.vertices + jitter) @ Q.T, sphere.faces)
    params = KernelParams(eps=10.0**log_eps)
    forces = rng.normal(size=(mesh.num_vertices, 3))
    via_matrix = (assemble_resistance(mesh, params) @ forces.reshape(-1)).reshape(-1, 3)
    direct = evaluate_velocity(mesh, forces, mesh.vertices, params)
    np.testing.assert_allclose(via_matrix, direct, rtol=1e-12,
                               atol=1e-12 * np.abs(direct).max())


def test_evaluation_at_no_points(small_sphere):
    params = KernelParams(eps=1e-2)
    none = np.zeros((0, 3))
    forces = np.ones((small_sphere.num_vertices, 3))
    assert evaluate_velocity(small_sphere, forces, none, params).shape == (0, 3)
    face_forces = np.ones((small_sphere.num_faces, 3))
    u = constant_evaluate_velocity(small_sphere, face_forces, none, params)
    assert u.shape == (0, 3)


def test_resistance_round_trip(small_sphere):
    params = KernelParams(eps=1e-2)
    rng = np.random.default_rng(1)
    f = rng.normal(size=(small_sphere.num_vertices, 3))
    u = evaluate_velocity(small_sphere, f, small_sphere.vertices, params)
    back = solve_resistance(small_sphere, u, params)
    assert np.allclose(back, f, rtol=1e-8, atol=1e-10)


def test_resistance_residual(small_sphere):
    params = KernelParams(eps=1e-4)
    M = assemble_resistance(small_sphere, params)
    u = np.tile([1.0, 0.0, 0.0], (small_sphere.num_vertices, 1))
    f = solve_resistance(small_sphere, u, params, matrix=M)
    resid = np.abs(M @ f.reshape(-1) - u.reshape(-1)).max()
    assert resid <= 1e-10 * np.abs(u).max()


def test_sphere_drag_and_off_axis_components():
    mesh = make_icosphere(6)
    params = KernelParams(eps=1e-4)
    M = assemble_resistance(mesh, params)
    u = np.tile([1.0, 0.0, 0.0], (mesh.num_vertices, 1))
    f = solve_resistance(mesh, u, params, matrix=M)
    drag = -net_force(mesh, f)
    assert drag[0] == pytest.approx(-6.0 * np.pi, rel=1e-2)
    assert abs(drag[1]) < 1e-4 and abs(drag[2]) < 1e-4

    urot = np.cross([0.0, 0.0, 1.0], mesh.vertices)
    frot = solve_resistance(mesh, urot, params, matrix=M)
    torque = -net_torque(mesh, frot, center=np.zeros(3))
    assert torque[2] == pytest.approx(-8.0 * np.pi, rel=1e-2)
    assert abs(torque[0]) < 1e-4 and abs(torque[1]) < 1e-4


def test_drag_rotational_equivariance():
    # diag(-1,-1,1) maps the icosphere vertex set to itself
    mesh = make_icosphere(2)
    Q = np.diag([-1.0, -1.0, 1.0])
    mapped = np.round(mesh.vertices @ Q.T, 12)
    original = np.round(mesh.vertices, 12)
    assert {tuple(v) for v in mapped} == {tuple(v) for v in original}

    params = KernelParams(eps=1e-3)
    M = assemble_resistance(mesh, params)
    U = np.array([1.0, 0.0, 0.0])
    drag_u = -net_force(
        mesh, solve_resistance(mesh, np.tile(U, (mesh.num_vertices, 1)), params,
                               matrix=M)
    )
    drag_qu = -net_force(
        mesh, solve_resistance(mesh, np.tile(Q @ U, (mesh.num_vertices, 1)), params,
                               matrix=M)
    )
    assert np.allclose(drag_qu, Q @ drag_u, rtol=1e-8, atol=1e-10)


def test_forward_translate_exterior_field():
    mesh = make_icosphere(8)
    params = KernelParams(eps=1e-4)
    U = np.array([1.0, 0.0, 0.0])
    traction, _ = sphere_translation_reference([1.0, 0, 0], 1.0, U, 1.0)
    forces = np.tile(traction, (mesh.num_vertices, 1))
    pts = np.array([[2.0, 0.3, -0.4], [0.0, 0.0, 3.0], [10.0, 0.0, 0.0]])
    u = evaluate_velocity(mesh, forces, pts, params)
    for p, got in zip(pts, u):
        _, expect = sphere_translation_reference(p, 1.0, U, 1.0)
        assert np.allclose(got, expect, rtol=0, atol=1e-2 * np.linalg.norm(expect))


def test_solve_singular_system_raises(small_sphere):
    params = KernelParams(eps=1e-2)
    n = 3 * small_sphere.num_vertices
    with pytest.raises(SingularSystemError):
        solve_resistance(
            small_sphere,
            np.zeros((small_sphere.num_vertices, 3)),
            params,
            matrix=np.zeros((n, n)),
        )


@pytest.mark.parametrize(
    "entry",
    [
        lambda mesh, params: assemble_resistance(mesh, params),
        lambda mesh, params: evaluate_velocity(
            mesh, np.ones((mesh.num_vertices, 3)), [[2.0, 0.0, 0.0]], params
        ),
        lambda mesh, params: constant_evaluate_velocity(
            mesh, np.ones((mesh.num_faces, 3)), [[2.0, 0.0, 0.0]], params
        ),
    ],
    ids=["assemble_resistance", "evaluate_velocity", "constant_evaluate_velocity"],
)
def test_floor_validation_in_assembly(small_sphere, entry):
    with pytest.raises(FloatingFloorError):
        entry(small_sphere, KernelParams(eps=1e-12))


def test_condition_number_basics():
    assert condition_number(np.eye(5)) == pytest.approx(1.0)
    assert condition_number(np.diag([10.0, 1.0, 0.1])) == pytest.approx(100.0)


def test_swimmer_quiescent(small_sphere):
    params = KernelParams(eps=1e-3)
    sol = solve_swimmer(small_sphere, np.zeros((small_sphere.num_vertices, 3)), params)
    assert np.allclose(sol.forces, 0.0, atol=1e-12)
    assert np.allclose(sol.U, 0.0, atol=1e-12)
    assert np.allclose(sol.Omega, 0.0, atol=1e-12)


def _squirmer_slip_field(mesh, flip=False):
    x, y, z = mesh.vertices.T
    if flip:
        z = -z
    r = np.linalg.norm(mesh.vertices, axis=1)
    theta = np.arccos(np.clip(z / r, -1.0, 1.0))
    phi = np.arctan2(y, x)
    slip = np.array([squirmer_slip(t, p) for t, p in zip(theta, phi)])
    if flip:
        slip[:, 2] = -slip[:, 2]
    return slip


def test_swimmer_squirmer(small_sphere):
    params = KernelParams(eps=1e-4)
    slip = _squirmer_slip_field(small_sphere)
    sol = solve_swimmer(small_sphere, slip, params, center=np.zeros(3))
    assert sol.U[2] == pytest.approx(1.0, abs=0.05)
    assert np.hypot(*sol.U[:2]) < 1e-6
    assert np.linalg.norm(sol.Omega) < 1e-6
    # force- and torque-free by construction
    assert np.linalg.norm(net_force(small_sphere, sol.forces)) < 1e-10
    assert np.linalg.norm(net_torque(small_sphere, sol.forces,
                                     center=np.zeros(3))) < 1e-10


def test_swimmer_mirror_symmetry(small_sphere):
    # reflecting the slip through the equator flips the swim direction
    params = KernelParams(eps=1e-3)
    up = solve_swimmer(small_sphere, _squirmer_slip_field(small_sphere), params,
                       center=np.zeros(3))
    down = solve_swimmer(small_sphere, _squirmer_slip_field(small_sphere, flip=True),
                         params, center=np.zeros(3))
    assert down.U[2] == pytest.approx(-up.U[2], rel=1e-8)
    assert np.allclose(down.U[:2], up.U[:2], atol=1e-10)


def test_mrs_weights_sum_to_area(small_sphere):
    w, _ = _vertex_moments(small_sphere, np.zeros(3))
    total_area = (small_sphere.frames.BH / 2.0).sum()
    assert w.sum() == pytest.approx(total_area, rel=1e-12)


def test_mrs_zero_forces(small_sphere):
    params = KernelParams(eps=5e-2)
    u = baseline_mrs_velocity(
        small_sphere, np.zeros((small_sphere.num_vertices, 3)),
        [[1.0, 1.0, 1.0]], params
    )
    assert np.allclose(u, 0.0)


def test_mrs_error_grows_when_eps_below_h():
    mesh = make_icosphere(9)  # h ~ 0.1243
    U = np.array([1.0, 0.0, 0.0])
    traction, _ = sphere_translation_reference([1.0, 0, 0], 1.0, U, 1.0)
    forces = np.tile(traction, (mesh.num_vertices, 1))
    target = np.tile(U, (mesh.num_vertices, 1))

    def l2(eps):
        u = baseline_mrs_velocity(mesh, forces, mesh.vertices,
                                  KernelParams(eps=eps))
        return np.sqrt(np.mean(np.sum((u - target) ** 2, axis=1)))

    assert l2(0.05) < l2(0.005)


def test_mrs_resistance_solves(small_sphere):
    params = KernelParams(eps=5e-2)
    M = mrs_assemble_resistance(small_sphere, params)
    u = np.tile([1.0, 0.0, 0.0], (small_sphere.num_vertices, 1))
    from stokeslet_surfaces import mrs_solve_resistance

    forces = mrs_solve_resistance(small_sphere, u, params, matrix=M)
    assert np.all(np.isfinite(forces))


def test_constant_forward_matches_linear_with_equal_forces(small_sphere):
    params = KernelParams(eps=1e-2)
    rng = np.random.default_rng(4)
    face_forces = rng.normal(size=(small_sphere.num_faces, 3))
    pts = np.array([[1.5, 0.2, 0.1], [0.1, -2.0, 0.4]])
    u_const = constant_evaluate_velocity(small_sphere, face_forces, pts, params)
    # equivalent linear evaluation: sum triangle terms with f0 = f1 = f2
    u_lin = np.zeros_like(pts)
    for j, ff in enumerate(face_forces):
        frame = small_sphere.frames.select(slice(j, j + 1))
        for k, p in enumerate(pts):
            u_lin[k] += triangle_velocity(p, frame, ff, ff, ff, params)
    assert np.allclose(u_const, u_lin, rtol=1e-11, atol=1e-14)


def test_constant_solve_and_conditioning():
    mesh = make_icosphere(4)
    params = KernelParams(eps=1e-4)
    centroids = mesh.face_centroids()
    v = np.tile([1.0, 0.0, 0.0], (mesh.num_faces, 1))
    f = baseline_constant_solve(mesh, v, params)
    assert f.shape == (mesh.num_faces, 3)
    cond_lin = condition_number(assemble_resistance(mesh, params))
    cond_con = condition_number(constant_assemble_resistance(mesh, params))
    assert cond_con / cond_lin >= 100.0
