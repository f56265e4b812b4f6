import dataclasses
import os
import platform
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stokeslet_surfaces import (
    FloatingFloorError,
    KernelParams,
    SingularSystemError,
    assemble_resistance,
    baseline_mrs_velocity,
    constant_assemble_resistance,
    constant_evaluate_velocity,
    epsilon_floor,
    evaluate_velocity,
    make_box_mesh,
    make_icosphere,
    make_pipe_mesh,
    make_spheroid_mesh,
    mesh_stats,
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
from stokeslet_surfaces import kernel, solver
from stokeslet_surfaces.studies import B1
from stokeslet_surfaces.solver import (_own_face, _torque_blocks, _velocity_blocks,
                                       _vertex_weights)

import oracles


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
    assert 3 * mesh.num_vertices == 1926


@pytest.mark.parametrize("elements", ["linear", "constant"])
@pytest.mark.parametrize("budget", [pytest.param(None, id="default"),
                                    pytest.param(128, id="small"),
                                    pytest.param(132, id="uneven")])
def test_chunked_assembly_matches_one_face_blocks(elements, budget, monkeypatch):
    # f=3 (92 vertices, 180 faces): chunks of faces that share unknowns
    # (linear elements; a constant density is one unknown of its face
    # alone); the small budgets also split the points into slabs of at most
    # 8. With 132 pairs the last slab, of 4 points, makes larger calls
    # (33 faces, 132 pairs) than the first slabs (16 faces, 128 pairs)
    mesh = make_icosphere(3)
    params = KernelParams(eps=1e-3)
    constant = elements == "constant"
    if constant:
        assemble, points, unknowns = (constant_assemble_resistance,
                                      mesh.face_centroids(), _own_face(mesh))
    else:
        assemble, points, unknowns = assemble_resistance, mesh.vertices, mesh.faces
    default = assemble(mesh, params)
    calls = []

    def recorded(xf, frame, *args):
        calls.append((len(xf), len(frame.BH)))
        return _velocity_blocks(xf, frame, *args)

    if budget is not None:
        monkeypatch.setattr(solver, "_CHUNK_PAIRS", budget)
    monkeypatch.setattr(solver, "_velocity_blocks", recorded)
    A = assemble(mesh, params)
    slab, faces = calls[0]
    assert (slab < len(points)) == (budget is not None)
    assert faces == min(mesh.num_faces, solver._CHUNK_PAIRS // slab)
    first = unknowns[:faces]
    assert len(first) < mesh.num_faces
    assert (len(np.unique(first)) < first.size) != constant
    assert sum(m * f for m, f in calls) == len(points) * mesh.num_faces
    assert np.array_equal(A, default)

    stacked = _one_face_matrix(mesh, points, unknowns, params, constant)
    assert np.abs(A - stacked).max() <= 1e-13 * np.abs(stacked).max()


def _one_face_matrix(mesh, points, unknowns, params, constant):
    """The assembled matrix from the one-face blocks of every face at all the
    points (`oracles.basis_blocks`), the faces added in order."""
    n = unknowns.max() + 1
    stacked = np.zeros((len(points), 3, n, 3))
    for p, face_unknowns in enumerate(unknowns):
        blocks = oracles.basis_blocks(points, mesh.frames.select(slice(p, p + 1)), params,
                                      constant)
        for j, Mk in zip(face_unknowns, blocks):
            stacked[:, :, j, :] += Mk[:, :, 0].transpose(2, 0, 1)
    return stacked.reshape(3 * len(points), 3 * n)


@pytest.mark.parametrize("elements", ["linear", "constant"])
def test_kernel_calls_of_one_assembly_or_evaluation_share_one_block(elements,
                                                                   monkeypatch):
    # Each assembly and each evaluation allocates one coefficient block, and
    # every kernel call of it writes its eps-free geometry, the corner
    # offsets among it, and its coefficients there. Assembly on f=3 in slabs
    # of 8 points and chunks of 16 faces (a budget of 128 pairs), and
    # evaluation at 5000 points, one face a call, both equal one kernel call
    # a face, each with a block of its own:
    # evaluation bit for bit, and assembly, which forms each unknown's block
    # from terms summed over its faces, within 1.3e-15 (linear) and 2.5e-16
    # (constant) of max|A| of the one-face blocks, bounded here by 2e-15.
    mesh = make_icosphere(3)
    params = KernelParams(eps=1e-3)
    constant = elements == "constant"
    rng = np.random.default_rng(11)
    if constant:
        assemble, evaluate = constant_assemble_resistance, constant_evaluate_velocity
        points, unknowns = mesh.face_centroids(), _own_face(mesh)
    else:
        assemble, evaluate = assemble_resistance, evaluate_velocity
        points, unknowns = mesh.vertices, mesh.faces
    forces = rng.normal(size=(unknowns.max() + 1, 3))
    dirs = rng.normal(size=(5000, 3))
    field = 2.0 * dirs / np.linalg.norm(dirs, axis=1)[:, None]
    geometry = kernel._geometry

    def writes(run):
        """The output of run() and the (block, t, x) of each kernel call."""
        calls = []

        def recorded(xf, frame, constant, block):
            g = geometry(xf, frame, constant, block)
            calls.append((block, g.t, g.x))
            return g

        with monkeypatch.context() as patch:
            patch.setattr(kernel, "_geometry", recorded)
            return run(), calls

    with monkeypatch.context() as patch:
        patch.setattr(solver, "_CHUNK_PAIRS", 128)
        A, assembly = writes(lambda: assemble(mesh, params))
    u, evaluation = writes(lambda: evaluate(mesh, forces, field, params))
    # 11 slabs (constant: 22) of 8 points in 12 chunks, and one of 4 in 6
    assert len(assembly) == (138 if elements == "linear" else 270)
    assert len(evaluation) == mesh.num_faces
    for calls in (assembly, evaluation):
        first = calls[0][0]
        assert all(block is first for block, _, _ in calls)
        assert all(np.shares_memory(t, first) and np.shares_memory(x, first)
                   for _, t, x in calls)

    stacked = _one_face_matrix(mesh, points, unknowns, params, constant)
    assert np.abs(A - stacked).max() <= 2e-15 * np.abs(stacked).max()
    basis_forces = forces[:, None] if constant else forces[mesh.faces]
    one_face = np.zeros((3, len(field)))
    for p in range(mesh.num_faces):
        one_face += kernel._velocity(field, mesh.frames.select(slice(p, p + 1)),
                                     basis_forces[None, p:p + 1], [params])[0]
    assert np.array_equal(u, one_face.T)


def test_assembly_forms_its_blocks_within_the_kernel_calls_block(monkeypatch):
    # The block formation's offsets and scratch, 4 values an unknown and a
    # point, go into the block in groups of unknowns. Sized for all 362
    # unknowns of f=6 at once, at 181 points a slab, the block grew from
    # the kernel calls' 1.67 MB to 2.10 MB (4.4 MB at f=8). The groups
    # change no value of A.
    mesh, params = make_icosphere(6), KernelParams(eps=1e-3)
    sizes = []
    block_for = solver._coefficient_block

    def recorded(num_pairs, *args, scale=1, **kwargs):
        block = block_for(scale * num_pairs, *args, **kwargs)
        sizes.append(block.size)
        return block

    monkeypatch.setattr(solver, "_coefficient_block", recorded)
    A = assemble_resistance(mesh, params)
    assert sizes == [17 * 3 * solver._CHUNK_PAIRS]
    # a block twice as large holds all the unknowns in one group
    monkeypatch.setattr(solver, "_coefficient_block",
                        lambda *args, **kwargs: recorded(*args, scale=2, **kwargs))
    assert np.array_equal(assemble_resistance(mesh, params), A)
    assert sizes[1] >= 4 * mesh.num_vertices * 181


def test_evaluation_memory_is_bounded_by_its_slabs():
    # Points beyond 2 * _CHUNK_PAIRS go in slabs, so a 50 000-point
    # evaluation on f=1 holds one slab's kernel temporaries and its output:
    # a traced peak of 6.7 MB, against 23.2 MB with every point in each call.
    mesh = make_icosphere(1)
    params = KernelParams(eps=1e-2)
    rng = np.random.default_rng(5)
    forces = rng.normal(size=(mesh.num_vertices, 3))
    dirs = rng.normal(size=(50_000, 3))
    points = 2.0 * dirs / np.linalg.norm(dirs, axis=1)[:, None]
    tracemalloc.start()
    try:
        evaluate_velocity(mesh, forces, points, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the bound is measured with glibc's allocator")
def test_evaluation_does_not_fault_its_heap_in_again_on_every_call():
    # A kernel call's largest arrays go into the evaluation's one block.
    # Allocated anew by each call, they and the T table's temporaries were
    # given back to the system and faulted in again by every call: 55k
    # minor page faults an evaluation at 6000 points around an f=2 sphere,
    # against 5 with the block (median of 6 in a fresh process). Constant
    # elements took 0.8k while their block was smaller than the linear
    # one, and take 5 in the same layout.
    code = """
import resource, statistics, sys
import numpy as np
import stokeslet_surfaces as ss
mesh = ss.make_icosphere(2)
params = ss.KernelParams(eps=1e-2)
rng = np.random.default_rng(0)
if sys.argv[1] == "constant":
    evaluate, rows = ss.constant_evaluate_velocity, mesh.num_faces
else:
    evaluate, rows = ss.evaluate_velocity, mesh.num_vertices
forces = rng.normal(size=(rows, 3))
dirs = rng.normal(size=(6000, 3))
points = 2.0 * dirs / np.linalg.norm(dirs, axis=1)[:, None]
faults = []
for _ in range(6):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    evaluate(mesh, forces, points, params)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(statistics.median(faults))
"""
    src = str(Path(solver.__file__).resolve().parents[1])
    for elements, bound in (("linear", 5000), ("constant", 500)):
        out = subprocess.run([sys.executable, "-c", code, elements],
                             env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                             text=True, check=True, timeout=120)
        assert float(out.stdout) < bound, elements


def _rotation(rng):
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


def _jittered(mesh, rng):
    """The mesh rotated, its vertices jittered by up to 0.1 h; and h."""
    h = mesh_stats(mesh).h
    jitter = 0.1 * h * rng.uniform(-1, 1, mesh.vertices.shape)
    return TriMesh((mesh.vertices + jitter) @ _rotation(rng).T, mesh.faces), h


def _jittered_sphere(f, rng):
    """A rotated icosphere with its vertices jittered by up to 0.1 h, and h."""
    return _jittered(make_icosphere(f), rng)


def _assert_matrix_matches_evaluation(elements, mesh, params, rng):
    """A.f against the directly evaluated velocity at the collocation points,
    for random forces, to 1e-12."""
    if elements == "linear":
        forces = rng.normal(size=(mesh.num_vertices, 3))
        A = assemble_resistance(mesh, params)
        direct = evaluate_velocity(mesh, forces, mesh.vertices, params)
    else:
        forces = rng.normal(size=(mesh.num_faces, 3))
        A = constant_assemble_resistance(mesh, params)
        direct = constant_evaluate_velocity(mesh, forces, mesh.face_centroids(), params)
    via_matrix = (A @ forces.reshape(-1)).reshape(-1, 3)
    np.testing.assert_allclose(via_matrix, direct, rtol=1e-12,
                               atol=1e-12 * np.abs(direct).max())


@pytest.mark.parametrize("elements", ["linear", "constant"])
@settings(max_examples=12, deadline=None)
@given(f=st.integers(1, 2), seed=st.integers(0, 2**32 - 1),
       log_eps=st.floats(-4.0, -1.0))
def test_assembled_matrix_matches_evaluation_on_random_meshes(elements, f, seed,
                                                              log_eps):
    rng = np.random.default_rng(seed)
    mesh, _ = _jittered_sphere(f, rng)
    _assert_matrix_matches_evaluation(elements, mesh, KernelParams(eps=10.0**log_eps),
                                      rng)


@pytest.mark.parametrize("elements", ["linear", "constant"])
@pytest.mark.parametrize("f", [1, 2])
@pytest.mark.parametrize("eps", [1e-5, 1e-6, 1e-7])
def test_assembled_matrix_matches_evaluation_at_small_eps(elements, f, eps):
    # At eps << h the T moments about corner 0 cancel terms of relative size
    # h/eps. Each basis block is taken about its own collocation point, so
    # that cancellation sits in coefficients that assembly and evaluation
    # share, and the offset is exactly 0 at the collocation points: the two
    # agree to 1.5e-15 of max|u| or better at h/eps up to 1e7. Constants
    # taken through the three corner blocks instead of one centroid block
    # read 3e-12 to 5e-12 of max|u| at 1e-5 and 6e-10 at 1e-7.
    rng = np.random.default_rng(1000 * f + round(-np.log10(eps)))
    mesh, _ = _jittered_sphere(f, rng)
    _assert_matrix_matches_evaluation(elements, mesh, KernelParams(eps=eps), rng)


@pytest.mark.parametrize("elements", ["linear", "constant"])
def test_evaluation_calls_the_kernel_once_per_face_chunk(elements, monkeypatch):
    # The points go in equal slabs of at most 2 * _CHUNK_PAIRS, one slab
    # up to 8192 points and two of 4500 at 9000. One call per
    # _face_chunks(F, M) chunk of a slab, each at all M points of the slab:
    # one face a call at 9000 and 5000 > _CHUNK_PAIRS points,
    # _CHUNK_PAIRS // M faces a call (the last chunk fewer) at 300. u
    # matches the kernel summed over two point halves to 2e-15 of max|u|:
    # on this f=1 mesh bit-identical at 9000 (the halves are the slabs) and
    # at 5000 to 7200 points, and within 8.3e-16 at 4097, where the SIMD
    # tails of log and arctan2 fall at other points.
    mesh = make_icosphere(1)
    params = KernelParams(eps=1e-2)
    rng = np.random.default_rng(7)
    if elements == "linear":
        evaluate, rows = evaluate_velocity, mesh.num_vertices
    else:
        evaluate, rows = constant_evaluate_velocity, mesh.num_faces
    forces = rng.normal(size=(rows, 3))
    kernel_velocity = solver._velocity

    def no_blocks(*args):
        raise AssertionError("evaluation formed velocity blocks")

    for num_points in (9000, 5000, 300):
        dirs = rng.normal(size=(num_points, 3))
        pts = 2.0 * dirs / np.linalg.norm(dirs, axis=1)[:, None]
        half = num_points // 2
        halves = np.vstack([evaluate(mesh, forces, pts[:half], params),
                            evaluate(mesh, forces, pts[half:], params)])
        calls = []

        def recorded(xf, frame, *args):
            calls.append((xf, frame.y0))
            return kernel_velocity(xf, frame, *args)

        with monkeypatch.context() as patch:
            patch.setattr(solver, "_velocity", recorded)
            patch.setattr(solver, "_velocity_blocks", no_blocks)
            u = evaluate(mesh, forces, pts, params)
        slabs = np.split(pts, -(-num_points // (2 * solver._CHUNK_PAIRS)))
        per_slab = len(calls) // len(slabs)
        faces = [len(y0) for _, y0 in calls[:per_slab]]
        if len(slabs[0]) > solver._CHUNK_PAIRS:
            assert faces == [1] * mesh.num_faces
        else:
            step = solver._CHUNK_PAIRS // num_points
            assert faces[:-1] == [step] * (len(faces) - 1)
            assert 1 <= faces[-1] <= step
        # each face-point pair exactly once: slab by slab, every call at all
        # the points of its slab, the faces in order and each once
        assert len(calls) == per_slab * len(slabs)
        for k, slab in enumerate(slabs):
            group = calls[k * per_slab:(k + 1) * per_slab]
            assert all(np.array_equal(xf, slab) for xf, _ in group)
            assert np.array_equal(np.vstack([y0 for _, y0 in group]), mesh.frames.y0)
        assert np.abs(u - halves).max() <= 2e-15 * np.abs(u).max()


def _longdouble_frames(mesh):
    """The mesh's face frames, built by triangle_frame in np.longdouble."""
    corners = mesh.vertices.astype(np.longdouble)[mesh.faces]
    frames = triangle_frame(corners[:, 0], corners[:, 1], corners[:, 2])
    assert all(getattr(frames, f.name).dtype == np.longdouble
               for f in dataclasses.fields(frames))
    return frames


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="np.longdouble is no wider than float64 here")
@settings(max_examples=30, deadline=None)
@given(f=st.integers(1, 2), seed=st.integers(0, 2**32 - 1),
       log_eps=st.floats(-4.0, -1.0))
def test_float64_velocities_match_extended_precision_kernel(f, seed, log_eps):
    # The same kernel run on np.longdouble frames and points (64-bit
    # mantissa) is the reference for float64 assembly and evaluation. The
    # T moments about corner 0 cancel terms of relative size h/eps, so
    # float64 rounding reaches about (h/eps) ulps of max|u|: at most 5.6
    # (1 + h/eps) ulps over 100 such meshes, for both A.f and the direct
    # evaluation. The bound 32 (1 + h/eps) ulps leaves a fivefold margin.
    rng = np.random.default_rng(seed)
    mesh, h = _jittered_sphere(f, rng)
    params = KernelParams(eps=10.0**log_eps)
    forces = rng.normal(size=(mesh.num_vertices, 3))
    blocks = oracles.basis_blocks(mesh.vertices.astype(np.longdouble),
                                  _longdouble_frames(mesh), params)
    assert blocks.dtype == np.longdouble
    exact = np.einsum("kijfm,fkj->mi", blocks,
                      forces.astype(np.longdouble)[mesh.faces])
    bound = 32.0 * (1.0 + h / params.eps) * np.finfo(float).eps
    bound *= float(np.abs(exact).max())
    via_matrix = assemble_resistance(mesh, params) @ forces.reshape(-1)
    direct = evaluate_velocity(mesh, forces, mesh.vertices, params)
    assert float(np.abs(via_matrix.reshape(-1, 3) - exact).max()) <= bound
    assert float(np.abs(direct - exact).max()) <= bound


@settings(max_examples=10, deadline=None)
@given(f=st.integers(1, 2), seed=st.integers(0, 2**32 - 1),
       log_eps=st.floats(-2.0, -1.0))
def test_rigid_motion_equivariance_on_random_meshes(f, seed, log_eps):
    # Rotating by Q and translating by t maps the matrix to
    # (I x Q) A (I x Q)^T and the field to Q u. This catches component
    # mix-ups that A.f-vs-evaluation and the symmetric blocks cannot show,
    # such as permuted components of an edge direction. At eps >= 1e-2 the
    # rounding stays below 3e-13 max|.| over 100 draws; at eps ~ 1e-4 the
    # collocated A rounds at ~h/eps ulps, above this tolerance.
    rng = np.random.default_rng(seed)
    mesh, _ = _jittered_sphere(f, rng)
    Q, t = _rotation(rng), rng.normal(size=3)
    moved = mesh.transformed(rotation=Q, translation=t)
    params = KernelParams(eps=10.0**log_eps)
    A = assemble_resistance(mesh, params)
    block_Q = np.kron(np.eye(mesh.num_vertices), Q)
    np.testing.assert_allclose(assemble_resistance(moved, params),
                               block_Q @ A @ block_Q.T,
                               rtol=0, atol=1e-11 * np.abs(A).max())
    forces = rng.normal(size=(mesh.num_vertices, 3))
    dirs = rng.normal(size=(16, 3))
    pts = dirs / np.linalg.norm(dirs, axis=1)[:, None] * rng.uniform(1.2, 3.0, (16, 1))
    u = evaluate_velocity(mesh, forces, pts, params)
    u_moved = evaluate_velocity(moved, forces @ Q.T, pts @ Q.T + t, params)
    np.testing.assert_allclose(u_moved, u @ Q.T, rtol=0, atol=1e-11 * np.abs(u).max())


def test_evaluation_at_no_points(small_sphere):
    params = KernelParams(eps=1e-2)
    none = np.zeros((0, 3))
    forces = np.ones((small_sphere.num_vertices, 3))
    assert evaluate_velocity(small_sphere, forces, none, params).shape == (0, 3)
    face_forces = np.ones((small_sphere.num_faces, 3))
    u = constant_evaluate_velocity(small_sphere, face_forces, none, params)
    assert u.shape == (0, 3)


_SWEEP_MESHES = {
    "icosphere": lambda: make_icosphere(1),
    "graded-spheroid": lambda: make_spheroid_mesh(2, 3.0, 1.0, grading=0.5),
    "box-in-pipe": lambda: make_box_mesh((0.1, 0.1, 0.1), 0.25, 0.5).merged_with(
        make_pipe_mesh(1.0, 0.5, 0.5, 1.0)),
}


@pytest.mark.parametrize("elements", ["linear", "constant"])
@pytest.mark.parametrize("shape", list(_SWEEP_MESHES))
def test_sweep_entries_equal_one_params_evaluations(shape, elements, monkeypatch):
    # A sweep over E params forms each kernel call's eps-free geometry once
    # and each params' coefficients from it: entry e equals the evaluation
    # of forces[e] under params[e] alone bit for bit, for E = 1, 2 and 4.
    # 8300 points make two slabs, each in one-face chunks.
    mesh = _SWEEP_MESHES[shape]()
    rng = np.random.default_rng(23)
    if elements == "linear":
        evaluate, rows = evaluate_velocity, mesh.num_vertices
    else:
        evaluate, rows = constant_evaluate_velocity, mesh.num_faces
    params = [KernelParams(eps=eps, mu=mu)
              for eps, mu in ((1e-4, 1.0), (3e-2, 0.7), (1e-3, 1.0), (0.4, 2.5))]
    forces = rng.normal(size=(len(params), rows, 3))
    dirs = rng.normal(size=(8300, 3))
    points = dirs * (rng.uniform(0.05, 3.0, 8300) / np.linalg.norm(dirs, axis=1))[:, None]
    alone = [evaluate(mesh, f, points, kp) for f, kp in zip(forces, params)]
    calls = []
    kernel_velocity = solver._velocity

    def recorded(xf, frame, *args):
        calls.append(len(frame.BH))
        return kernel_velocity(xf, frame, *args)

    monkeypatch.setattr(solver, "_velocity", recorded)
    for E in (1, 2, 4):
        calls.clear()
        u = evaluate(mesh, forces[:E], points, params[:E])
        assert u.shape == (E, len(points), 3)
        assert all(np.array_equal(u_e, want) for u_e, want in zip(u, alone))
        assert calls == [1] * (2 * mesh.num_faces)  # two slabs of one-face calls
    assert not np.array_equal(alone[0], alone[1])


@pytest.mark.parametrize("elements", ["linear", "constant"])
def test_sweep_checks_every_eps_before_any_kernel_call(small_sphere, elements,
                                                      monkeypatch):
    # one eps at the floor stops the sweep before any kernel work is done
    floor = epsilon_floor(small_sphere)
    params = [KernelParams(eps=1e-2), KernelParams(eps=floor), KernelParams(eps=1e-3)]
    rows = small_sphere.num_vertices if elements == "linear" else small_sphere.num_faces
    evaluate = evaluate_velocity if elements == "linear" else constant_evaluate_velocity
    calls = []
    monkeypatch.setattr(solver, "_velocity", lambda *args: calls.append(args))
    with pytest.raises(FloatingFloorError):
        evaluate(small_sphere, np.ones((3, rows, 3)), [[2.0, 0.0, 0.0]], params)
    assert calls == []


@pytest.mark.parametrize("shape", ["(3, N, 3)", "(N, 3)", "(1, N, 3)", "(2, N)"])
def test_sweep_with_forces_of_another_length_rejected(small_sphere, shape):
    n = small_sphere.num_vertices
    forces = np.ones({"(3, N, 3)": (3, n, 3), "(N, 3)": (n, 3), "(1, N, 3)": (1, n, 3),
                      "(2, N)": (2, n)}[shape])
    params = [KernelParams(eps=1e-2), KernelParams(eps=1e-3)]
    with pytest.raises(ValueError, match="must have shape"):
        evaluate_velocity(small_sphere, forces, [[2.0, 0.0, 0.0]], params)


def test_sweep_of_anything_but_kernel_params_rejected(small_sphere):
    forces = np.ones((2, small_sphere.num_vertices, 3))
    with pytest.raises(TypeError, match="KernelParams"):
        evaluate_velocity(small_sphere, forces, [[2.0, 0.0, 0.0]],
                          [KernelParams(eps=1e-2), 1e-3])


def test_sweep_of_no_params_evaluates_nothing(small_sphere):
    forces = np.zeros((0, small_sphere.num_vertices, 3))
    u = evaluate_velocity(small_sphere, forces, [[2.0, 0.0, 0.0]], [])
    assert u.shape == (0, 1, 3)


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


_ROW_ENTRIES = {
    "evaluate_velocity": (lambda mesh, values, params:
                          evaluate_velocity(mesh, values, [[2.0, 0.0, 0.0]], params)),
    "solve_resistance": solve_resistance,
    "solve_swimmer": (lambda mesh, values, params:
                      solve_swimmer(mesh, values, params, center=np.zeros(3))),
    "net_force": lambda mesh, values, params: net_force(mesh, values),
    "net_torque": (lambda mesh, values, params:
                   net_torque(mesh, values, center=np.zeros(3))),
    "baseline_mrs_velocity": (lambda mesh, values, params:
                              baseline_mrs_velocity(mesh, values, [[2.0, 0.0, 0.0]],
                                                    params)),
    "constant_evaluate_velocity": (lambda mesh, values, params:
                                   constant_evaluate_velocity(
                                       mesh, values, [[2.0, 0.0, 0.0]], params)),
}


@pytest.mark.parametrize("shape", ["(3,)", "(1, 3)", "(rows,)", "(1, rows, 3)"])
@pytest.mark.parametrize("entry", list(_ROW_ENTRIES))
def test_malformed_force_arrays_rejected(entry, shape):
    # per-vertex (per-face for the constant elements) arrays must be (rows, 3),
    # also where one KernelParams is given to an evaluation that takes sweeps
    mesh = make_icosphere(1)
    rows = mesh.num_faces if "constant" in entry else mesh.num_vertices
    values = np.ones({"(3,)": (3,), "(1, 3)": (1, 3), "(rows,)": (rows,),
                      "(1, rows, 3)": (1, rows, 3)}[shape])
    with pytest.raises(ValueError, match="must have shape"):
        _ROW_ENTRIES[entry](mesh, values, KernelParams(eps=1e-2))


@pytest.mark.parametrize("entry", list(_ROW_ENTRIES))
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_force_arrays_rejected(entry, bad):
    mesh = make_icosphere(1)
    rows = mesh.num_faces if "constant" in entry else mesh.num_vertices
    values = np.ones((rows, 3))
    values[1, 2] = bad
    with pytest.raises(ValueError, match="must be finite"):
        _ROW_ENTRIES[entry](mesh, values, KernelParams(eps=1e-2))


@pytest.mark.parametrize("entry", [evaluate_velocity, baseline_mrs_velocity])
def test_non_finite_points_rejected(entry):
    mesh = make_icosphere(1)
    forces = np.ones((mesh.num_vertices, 3))
    with pytest.raises(ValueError, match="points must be finite"):
        entry(mesh, forces, [[2.0, 0.0, 0.0], [np.nan, 0.0, 0.0]],
              KernelParams(eps=1e-2))


@pytest.mark.parametrize("center", [[0.0, 0.0], [[0.0, 0.0, 0.0]], np.nan,
                                    [0.0, np.inf, 0.0]],
                         ids=["(2,)", "(1, 3)", "nan", "inf"])
def test_malformed_center_rejected(center):
    mesh = make_icosphere(1)
    values = np.ones((mesh.num_vertices, 3))
    with pytest.raises(ValueError, match="center must be one finite 3-vector"):
        net_torque(mesh, values, center=center)
    with pytest.raises(ValueError, match="center must be one finite 3-vector"):
        solve_swimmer(mesh, values, KernelParams(eps=1e-2), center=center)


def test_solve_resistance_rejects_malformed_matrix():
    mesh = make_icosphere(1)
    velocities = np.ones((mesh.num_vertices, 3))
    params = KernelParams(eps=1e-2)
    with pytest.raises(ValueError, match="matrix must have shape"):
        solve_resistance(mesh, velocities, params, matrix=np.eye(5))
    # unchecked, an inf at A[0, 0] gave finite forces (86% off at f=2 and
    # eps = 1e-3), a complex matrix complex forces, and a NaN
    # SingularSystemError
    A = assemble_resistance(mesh, params)
    for bad in (np.inf, np.nan):
        B = A.copy()
        B[0, 0] = bad
        with pytest.raises(ValueError, match="matrix must be real and finite"):
            solve_resistance(mesh, velocities, params, matrix=B)
    for dtype in (complex, object, bool):
        with pytest.raises(ValueError, match="matrix must be real and finite"):
            solve_resistance(mesh, velocities, params, matrix=A.astype(dtype))


def test_swimmer_quiescent(small_sphere):
    params = KernelParams(eps=1e-3)
    sol = solve_swimmer(small_sphere, np.zeros((small_sphere.num_vertices, 3)), params,
                        center=np.zeros(3))
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
    slip = np.array([squirmer_slip(t, p, B1) for t, p in zip(theta, phi)])
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


def _swimmer_cases():
    for f in (2, 3, 4):
        mesh = make_icosphere(f)
        yield pytest.param(mesh, _squirmer_slip_field(mesh), np.zeros(3),
                           id=f"squirmer-f{f}")
    # a random slip about a center off the origin and off the box's centroid
    box = make_box_mesh((0.3, -0.2, 0.1), 0.25, 0.125)
    slip = np.random.default_rng(5).normal(size=(box.num_vertices, 3))
    yield pytest.param(box, slip, np.array([0.35, -0.15, 0.15]), id="box-random")


@pytest.mark.parametrize("mesh, slip, center", list(_swimmer_cases()))
def test_swimmer_matches_augmented_system(mesh, slip, center):
    # the bordered solve (A^-1 on seven columns, then a 6 x 6 balance)
    # against the one (3N + 6) system of the same equations
    params = KernelParams(eps=1e-4)
    sol = solve_swimmer(mesh, slip, params, center=center)
    forces, U, Omega = oracles.augmented_swimmer_reference(mesh, slip, params, center)
    speed = 2.0 / 3.0 * B1
    assert np.abs(sol.U - U).max() <= 1e-12 * speed
    assert np.abs(sol.Omega - Omega).max() <= 1e-12 * speed
    assert np.abs(sol.forces - forces).max() <= 1e-12 * np.abs(forces).max()


def test_swimmer_solves_the_resistance_matrix_and_a_6x6_balance(small_sphere,
                                                                 monkeypatch):
    assemblies, solves = [], []

    def assemble(mesh, params):
        assemblies.append(mesh)
        return assemble_resistance(mesh, params)

    dense_solve = solver._dense_solve

    def recorded(A, b):
        solves.append((np.shape(A), np.shape(b)))
        return dense_solve(A, b)

    monkeypatch.setattr(solver, "assemble_resistance", assemble)
    monkeypatch.setattr(solver, "_dense_solve", recorded)
    n = 3 * small_sphere.num_vertices
    solve_swimmer(small_sphere, _squirmer_slip_field(small_sphere),
                  KernelParams(eps=1e-3), center=np.zeros(3))
    assert assemblies == [small_sphere]
    assert solves == [((n, n), (n, 7)), ((6, 6), (6,))]


def _count_assemblies(monkeypatch):
    """The meshes of the solver._assemble calls from now on; they still run."""
    meshes = []
    assemble = solver._assemble

    def counted(mesh, *args, **kwargs):
        meshes.append(mesh)
        return assemble(mesh, *args, **kwargs)

    monkeypatch.setattr(solver, "_assemble", counted)
    return meshes


def _translation(mesh):
    return np.tile([0.3, -0.2, 1.0], (mesh.num_vertices, 1))


def test_sphere_solve_sequence_assembles_once(monkeypatch):
    # the benchmark's sphere-solve op: two resistance solves with the
    # assembled matrix, then the squirmer swimmer on the same mesh
    params = KernelParams(eps=1e-4)
    mesh = make_icosphere(2)
    assemblies = _count_assemblies(monkeypatch)
    A = assemble_resistance(mesh, params)
    solve_resistance(mesh, _translation(mesh), params, matrix=A)
    solve_resistance(mesh, np.cross([0.0, 0.0, 1.0], mesh.vertices), params, matrix=A)
    sol = solve_swimmer(mesh, _squirmer_slip_field(mesh), params, center=np.zeros(3))
    assert assemblies == [mesh]
    fresh_mesh = make_icosphere(2)
    fresh = solve_swimmer(fresh_mesh, _squirmer_slip_field(fresh_mesh), params,
                          center=np.zeros(3))
    assert assemblies == [mesh, fresh_mesh]
    assert np.array_equal(sol.U, fresh.U)
    assert np.array_equal(sol.Omega, fresh.Omega)
    assert np.array_equal(sol.forces, fresh.forces)


def test_resistance_solve_without_matrix_reuses_the_live_one(monkeypatch):
    mesh = make_icosphere(2)
    assemblies = _count_assemblies(monkeypatch)
    A = assemble_resistance(mesh, KernelParams(eps=1e-3))
    # equal params need not be the same object
    forces = solve_resistance(mesh, _translation(mesh), KernelParams(eps=1e-3))
    assert assemblies == [mesh]
    assert np.array_equal(
        forces, solve_resistance(mesh, _translation(mesh), KernelParams(eps=1e-3),
                                 matrix=A))


@pytest.mark.parametrize("change", ["matrix deleted", "other eps", "equal mesh"])
def test_solve_assembles_again_unless_the_matrix_fits(monkeypatch, change):
    mesh, params = make_icosphere(2), KernelParams(eps=1e-3)
    assemblies = _count_assemblies(monkeypatch)
    A = assemble_resistance(mesh, params)
    solve_resistance(mesh, _translation(mesh), params)
    assert len(assemblies) == 1
    if change == "matrix deleted":
        del A
    elif change == "other eps":
        params = KernelParams(eps=2e-3)
    else:
        mesh = make_icosphere(2)
    solve_resistance(mesh, _translation(mesh), params)
    assert len(assemblies) == 2


def test_assembled_matrix_is_read_only(small_sphere):
    A = assemble_resistance(small_sphere, KernelParams(eps=1e-2))
    with pytest.raises(ValueError, match="read-only"):
        A += 1.0


def test_reuse_keeps_nothing_alive(monkeypatch):
    mesh, params = make_icosphere(2), KernelParams(eps=1e-3)
    assemblies = _count_assemblies(monkeypatch)
    A = assemble_resistance(mesh, params)
    solve_swimmer(mesh, _squirmer_slip_field(mesh), params, center=np.zeros(3))
    assert len(assemblies) == 1
    refs = [weakref.ref(A), weakref.ref(mesh)]
    assemblies.clear()
    del A, mesh
    assert [ref() for ref in refs] == [None, None]


@pytest.mark.parametrize("shape", ["icosphere", "spheroid", "box-in-pipe"])
def test_vertex_moments_equal_the_scatter_add_bit_for_bit(shape):
    if shape == "icosphere":
        mesh = make_icosphere(4).transformed(translation=(0.3, -0.2, 0.1))
    elif shape == "spheroid":
        mesh = make_spheroid_mesh(3, 3.0, 1.0, grading=0.5)
    else:
        mesh = make_box_mesh((0.1, 0.1, 0.1), 0.25, 0.1).merged_with(
            make_pipe_mesh(1.0, 0.5, 0.5, 0.25))
    center = np.array([0.05, -0.3, 0.2])
    want_weights, want_blocks = oracles.scatter_vertex_moments(mesh, center)
    assert np.array_equal(_vertex_weights(mesh), want_weights)
    assert np.array_equal(_torque_blocks(mesh, center), want_blocks)


def test_mrs_weights_sum_to_area(small_sphere):
    w = _vertex_weights(small_sphere)
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


@pytest.mark.parametrize("f", [2, 3])
def test_constant_elements_skip_only_moments_they_never_read(f):
    # constant elements leave out T[1,0,1], T[0,1,1] and the cubic moments:
    # at the points where assembly and evaluation take them, their table
    # holds the seven moments of the f0 basis, each the linear table's to
    # the last bit
    mesh = make_icosphere(f)
    pts = np.vstack([_points_off_the_unit_sphere(np.random.default_rng(f)),
                     mesh.face_centroids()])
    linear, constant = (kernel._t_table_arrays(kernel._geometry(pts, mesh.frames, kind),
                                               1e-3) for kind in (False, True))
    assert len(linear) == 13
    assert set(constant) == set(kernel._BASIS_KEYS[0])
    for key, value in constant.items():
        assert np.array_equal(value, linear[key])


def _points_off_the_unit_sphere(rng):
    """30 points with r < 0.3 and 30 with 1.5 < r < 3."""
    dirs = rng.normal(size=(60, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    radii = np.concatenate([rng.uniform(0.0, 0.3, 30), rng.uniform(1.5, 3.0, 30)])
    return dirs * radii[:, None]


def _points_near_sides(mesh, h, rng):
    """One point per face, on a random side, moved 1e-12 h .. 1e-1 h from it
    in a random direction."""
    faces = np.arange(mesh.num_faces)
    corner = rng.integers(0, 3, mesh.num_faces)
    corners = mesh.vertices[mesh.faces]
    a, b = corners[faces, corner], corners[faces, (corner + 1) % 3]
    dirs = rng.normal(size=(mesh.num_faces, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    dist = h * 10.0 ** rng.uniform(-12.0, -1.0, (mesh.num_faces, 1))
    return a + rng.uniform(0.0, 1.0, (mesh.num_faces, 1)) * (b - a) + dist * dirs


_NULL_VECTOR_MESHES = {
    "icosphere-2": lambda: make_icosphere(2),
    "icosphere-3": lambda: make_icosphere(3),
    "box": lambda: make_box_mesh((0.0, 0.0, 0.0), 1.0, 0.5),
}


def _check_null_vector(shape, jitter, seed, eps):
    # the regularized Stokeslet is divergence-free, so by the divergence
    # theorem the closed surface integral of S(x - y) n(y) vanishes at every
    # x, for any eps and any closed mesh of flat faces: an exact oracle of
    # the constant-element moments on whole meshes (T[0,0,3] cancels out of
    # normal forces, so it checks the contour terms and the q = 3 moments)
    rng = np.random.default_rng(seed)
    off = _points_off_the_unit_sphere(rng)
    mesh = _NULL_VECTOR_MESHES[shape]()
    if jitter:
        mesh, h = _jittered(mesh, rng)
    else:
        h = mesh_stats(mesh).h
    # an eps below the floor is taken just above it
    params = KernelParams(eps=max(eps, 1.01 * epsilon_floor(mesh)))
    nhat = mesh.frames.nhat
    upper = np.where(mesh.face_centroids()[:, 2:] >= 0.0, nhat, 0.0)
    dirs = rng.normal(size=(20, 3))
    # far from a face the closed forms lose about (r/h)^2 ulps (1e-9 of the
    # hemisphere at r = 1000), so "far" stops at six radii
    far = dirs / np.linalg.norm(dirs, axis=1)[:, None] * rng.uniform(3.0, 6.0, (20, 1))
    # on the surface the moments about corner 0 cancel terms of relative
    # size h/eps, as in the extended-precision kernel tests
    on = 32.0 * (1.0 + h / params.eps) * np.finfo(float).eps
    for points, bound in [
        (off, 1e-13),
        (far, 1e-13),
        (mesh.vertices, on),
        (mesh.face_centroids(), on),
        (_points_near_sides(mesh, h, rng), on),
    ]:
        u = constant_evaluate_velocity(mesh, nhat, points, params)
        scale = np.abs(constant_evaluate_velocity(mesh, upper, points, params)).max()
        assert np.abs(u).max() <= bound * scale


@pytest.mark.parametrize("shape", list(_NULL_VECTOR_MESHES))
@pytest.mark.parametrize("eps", [1e-1, 1e-3, 1e-6])
def test_face_normals_are_a_null_vector_of_the_single_layer(shape, eps):
    # the fixed examples of the property below: the meshes as generated
    _check_null_vector(shape, False, 0, eps)


@settings(max_examples=30, deadline=None)
@given(shape=st.sampled_from(list(_NULL_VECTOR_MESHES)), jitter=st.booleans(),
       seed=st.integers(0, 2**32 - 1), log_eps=st.floats(-9.0, 0.0))
def test_face_normals_are_a_null_vector_on_random_meshes(shape, jitter, seed,
                                                         log_eps):
    _check_null_vector(shape, jitter, seed, 10.0**log_eps)


def test_constant_solve_and_conditioning():
    mesh = make_icosphere(4)
    params = KernelParams(eps=1e-4)
    cond_lin = np.linalg.cond(assemble_resistance(mesh, params))
    cond_con = np.linalg.cond(constant_assemble_resistance(mesh, params))
    assert cond_con / cond_lin >= 100.0
