import numpy as np
import pytest

from stokeslet_surfaces import (
    FloatingFloorError,
    KernelParams,
    TriMesh,
    epsilon_floor,
    make_icosphere,
    net_force,
    net_torque,
    point_stokeslet,
    t_table,
    triangle_frame,
    triangle_velocity,
)
from stokeslet_surfaces.kernel import (
    _boundary_ab,
    _segment_tables,
    _t001_arrays,
    _t003_arrays,
)

import oracles

T_KEYS = [
    (0, 0, 1), (0, 0, 3), (1, 0, 1), (1, 0, 3), (0, 1, 1), (0, 1, 3),
    (2, 0, 3), (1, 1, 3), (0, 2, 3), (3, 0, 3), (2, 1, 3), (1, 2, 3), (0, 3, 3),
]


def test_point_stokeslet_structure():
    params = KernelParams(eps=0.1, mu=2.0)
    S = point_stokeslet([1.0, 2.0, 3.0], [0.5, 0.5, 0.5], params)
    assert np.allclose(S, S.T)
    # coincident points stay finite thanks to the regularization
    S0 = point_stokeslet([1.0, 1.0, 1.0], [1.0, 1.0, 1.0], params)
    assert np.allclose(S0, 2.0 / 0.1 * np.eye(3))


def _segment(xf, a, b, eps, with_s1m1=False):
    """Segment integrals S[m, q] of one segment at one field point, as floats."""
    table = _segment_tables(np.asarray(xf, dtype=float)[None, :],
                            np.atleast_2d(a), np.atleast_2d(b), eps,
                            with_s1m1=with_s1m1)
    assert all(v.shape == (1, 1) for v in table.values())
    return {k: float(v[0, 0]) for k, v in table.items()}


@pytest.mark.parametrize("seed", range(5))
def test_segment_base_matches_quadrature(seed):
    rng = np.random.default_rng(seed)
    a, b, xf = rng.normal(size=(3, 3))
    eps = 10 ** rng.uniform(-2, 0)
    s = _segment(xf, a, b, eps)
    s0m1, s0p1 = s[(0, -1)], s[(0, 1)]
    assert s0m1 == pytest.approx(
        oracles.segment_integral_quadrature(xf, a, b, eps, 0, -1), rel=1e-10
    )
    assert s0p1 == pytest.approx(
        oracles.segment_integral_quadrature(xf, a, b, eps, 0, 1), rel=1e-10
    )


@pytest.mark.parametrize("seed", range(5))
def test_segment_recurse_matches_quadrature(seed):
    rng = np.random.default_rng(100 + seed)
    a, b, xf = rng.normal(size=(3, 3))
    eps = 10 ** rng.uniform(-2, 0)
    s = _segment(xf, a, b, eps, with_s1m1=True)
    for (m, q) in [(1, 1), (2, 1), (1, -1)]:
        ref = oracles.segment_integral_quadrature(xf, a, b, eps, m, q)
        assert s[(m, q)] == pytest.approx(ref, rel=1e-9, abs=1e-13)


def test_segment_base_near_collinear_field_point():
    # field point close to the segment's carrier line: stable log/arctanh path
    a = np.array([0.0, 0.0, 0.0])
    b = np.array([1.0, 0.0, 0.0])
    xf = np.array([1.7, 1e-9, 0.0])
    eps = 1e-2
    s = _segment(xf, a, b, eps)
    s0m1, s0p1 = s[(0, -1)], s[(0, 1)]
    assert np.isfinite(s0m1) and np.isfinite(s0p1)
    assert s0m1 == pytest.approx(
        oracles.segment_integral_quadrature(xf, a, b, eps, 0, -1), rel=1e-9
    )
    assert s0p1 == pytest.approx(
        oracles.segment_integral_quadrature(xf, a, b, eps, 0, 1), rel=1e-9
    )


def _sides(frame):
    """The sides y0->y1 (e1), y1->y2 (e2) and y2->y0 (d) in traversal order."""
    return ((frame.y0, frame.y1), (frame.y1, frame.y2), (frame.y2, frame.y0))


def _side_bases(frame, xf, eps):
    return dict(zip(("e1", "e2", "d"),
                    (_segment(xf, a, b, eps) for a, b in _sides(frame))))


@pytest.mark.parametrize("seed", range(3))
def test_boundary_ab_matches_direct_combination(seed):
    # A and B are alternating-binomial combinations of per-side integrals
    rng = np.random.default_rng(200 + seed)
    frame, xf, _, eps = oracles.random_triangle_case(rng)
    bases = _side_bases(frame, xf, eps)
    import math

    for (m, n) in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:
        A, B = _boundary_ab(m, n, 1, bases["e1"], bases["e2"], bases["d"])
        dsum = sum(
            math.comb(m + n, k) * (-1) ** k * bases["d"][(k, 1)]
            for k in range(m + n + 1)
        )
        assert A == pytest.approx(bases["e2"][(n, 1)] - dsum, rel=1e-12, abs=1e-14)
        if n == 0:
            expected = -bases["e1"][(m, 1)] + sum(
                math.comb(m, k) * (-1) ** k * bases["d"][(k, 1)]
                for k in range(m + 1)
            )
        else:
            expected = dsum
        assert B == pytest.approx(expected, rel=1e-12, abs=1e-14)


def _t003(xf, frame, eps):
    value, _ = _t003_arrays(np.asarray(xf, dtype=float)[None, :], frame, eps)
    return float(value[0, 0])


@pytest.mark.parametrize("seed", range(4))
def test_t003_t001_match_quadrature(seed):
    rng = np.random.default_rng(300 + seed)
    frame, xf, _, eps = oracles.random_triangle_case(rng)
    xb = xf[None, :]
    t003_values, gamma = _t003_arrays(xb, frame, eps)
    assert t003_values.shape == gamma.shape == (1, 1)
    v3 = float(t003_values[0, 0])
    assert v3 == pytest.approx(
        oracles.t_integral_quadrature(xf, frame, eps, 0, 0, 3), rel=1e-9
    )
    side_s0p1 = [_segment_tables(xb, a, b, eps)[(0, 1)] for a, b in _sides(frame)]
    v1 = float(_t001_arrays(xb, frame, eps, t003_values, gamma, side_s0p1)[0, 0])
    assert v1 == pytest.approx(
        oracles.t_integral_quadrature(xf, frame, eps, 0, 0, 1), rel=1e-9
    )


def test_t003_in_plane_point():
    # field point in the plane of the triangle, near the centroid
    frame = triangle_frame([0.0, 0, 0], [1.0, 0, 0], [0.3, 0.9, 0])
    xf = np.array([0.41, 0.33, 0.0])
    eps = 0.05
    got = _t003(xf, frame, eps)
    assert got == pytest.approx(
        oracles.t_integral_quadrature(xf, frame, eps, 0, 0, 3), rel=1e-8
    )


def test_t003_far_field_limit():
    frame = triangle_frame([0.0, 0, 0], [0.1, 0, 0], [0.0, 0.1, 0])
    centroid = np.array([0.1 / 3, 0.1 / 3, 0.0])
    xf = centroid + np.array([0.0, 0.0, 50.0])
    d = np.linalg.norm(xf - centroid)
    # the parameter-space integral tends to (1/2) / d^3 at large distance
    assert _t003(xf, frame, 1e-3) == pytest.approx(0.5 / d**3, rel=1e-4)


@pytest.mark.parametrize("seed", range(6))
def test_t_table_matches_quadrature(seed):
    rng = np.random.default_rng(400 + seed)
    frame, xf, _, eps = oracles.random_triangle_case(rng)
    table = t_table(xf, frame, eps)
    for key in T_KEYS:
        ref = oracles.t_integral_quadrature(xf, frame, eps, *key)
        assert table[key] == pytest.approx(ref, rel=1e-9), key


@pytest.mark.parametrize("seed", range(4))
def test_triangle_velocity_matches_quadrature(seed):
    rng = np.random.default_rng(500 + seed)
    frame, xf, forces, eps = oracles.random_triangle_case(rng)
    mu = 1.0 + rng.random()
    u = triangle_velocity(xf, frame, *forces, KernelParams(eps=eps, mu=mu))
    ref = oracles.triangle_velocity_quadrature(xf, frame, *forces, eps, mu)
    assert np.allclose(u, ref, rtol=1e-9, atol=1e-13)


def test_triangle_velocity_self_point_finite():
    # collocation on the triangle itself with a small regularization
    frame = triangle_frame([0, 0, 0], [0.01, 0, 0], [0.004, 0.008, 0.0])
    xf = (frame.y0 + frame.y1 + frame.y2)[0] / 3.0
    forces = np.ones((3, 3))
    u = triangle_velocity(xf, frame, *forces, KernelParams(eps=1e-5))
    assert np.all(np.isfinite(u))


def test_triangle_velocity_linearity():
    rng = np.random.default_rng(42)
    frame, xf, forces, eps = oracles.random_triangle_case(rng)
    params = KernelParams(eps=eps)
    other = rng.normal(size=(3, 3))
    u1 = triangle_velocity(xf, frame, *forces, params)
    u2 = triangle_velocity(xf, frame, *other, params)
    u12 = triangle_velocity(xf, frame, *(2.5 * forces - other), params)
    assert np.allclose(u12, 2.5 * u1 - u2, rtol=1e-11, atol=1e-14)


def test_triangle_velocity_vertex_relabel_invariance():
    rng = np.random.default_rng(7)
    verts = rng.normal(size=(3, 3))
    forces = rng.normal(size=(3, 3))
    xf = rng.normal(size=3)
    params = KernelParams(eps=0.05)
    u0 = triangle_velocity(xf, triangle_frame(*verts), *forces, params)
    cycled_v = np.roll(verts, -1, axis=0)
    cycled_f = np.roll(forces, -1, axis=0)
    u1 = triangle_velocity(xf, triangle_frame(*cycled_v), *cycled_f, params)
    assert np.allclose(u0, u1, rtol=1e-10, atol=1e-13)


def test_triangle_velocity_rigid_motion_equivariance():
    rng = np.random.default_rng(8)
    verts = rng.normal(size=(3, 3))
    forces = rng.normal(size=(3, 3))
    xf = rng.normal(size=3)
    params = KernelParams(eps=0.07)
    # random rotation via QR, det fixed to +1
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    t = rng.normal(size=3)
    u = triangle_velocity(xf, triangle_frame(*verts), *forces, params)
    u_rot = triangle_velocity(
        Q @ xf + t, triangle_frame(*(verts @ Q.T + t)), *(forces @ Q.T), params
    )
    assert np.allclose(u_rot, Q @ u, rtol=1e-10, atol=1e-13)


def _p_expansion_velocity(xf, frame, f0, f1, f2, params):
    """The velocity formula written term by term: 13 T integrals, each times
    the vector coefficient P[m,n] of alpha**m beta**n in the cubic expansion
    of (eps**2 I + (x - y)(x - y)^T) f. Reference for the block combination."""
    eps = params.eps
    T = t_table(xf, frame, eps)
    x0 = np.asarray(xf, dtype=float) - frame.y0[0]
    fa, fb = f1 - f0, f2 - f1
    v, w = frame.vhat[0], frame.what[0]
    L1, L2 = frame.L1[0], frame.L2[0]
    e2 = eps * eps
    P00 = e2 * f0 + (f0 @ x0) * x0
    P10 = e2 * fa + (L1 * (f0 @ v) + fa @ x0) * x0 + L1 * (f0 @ x0) * v
    P01 = e2 * fb + (L2 * (f0 @ w) + fb @ x0) * x0 + L2 * (f0 @ x0) * w
    P20 = L1 * (fa @ v) * x0 + (L1**2 * (f0 @ v) + L1 * (fa @ x0)) * v
    P11 = ((L1 * (fb @ v) + L2 * (fa @ w)) * x0
           + (L1 * L2 * (f0 @ w) + L1 * (fb @ x0)) * v
           + (L1 * L2 * (f0 @ v) + L2 * (fa @ x0)) * w)
    P02 = L2 * (fb @ w) * x0 + (L2**2 * (f0 @ w) + L2 * (fb @ x0)) * w
    P30 = L1**2 * (fa @ v) * v
    P21 = (L1 * L2 * (fa @ w) + L1**2 * (fb @ v)) * v + L1 * L2 * (fa @ v) * w
    P12 = (L1 * L2 * (fb @ v) + L2**2 * (fa @ w)) * w + L1 * L2 * (fb @ w) * v
    P03 = L2**2 * (fb @ w) * w
    total = (
        f0 * T[(0, 0, 1)] + P00 * T[(0, 0, 3)]
        + fa * T[(1, 0, 1)] + P10 * T[(1, 0, 3)]
        + fb * T[(0, 1, 1)] + P01 * T[(0, 1, 3)]
        + P20 * T[(2, 0, 3)] + P11 * T[(1, 1, 3)] + P02 * T[(0, 2, 3)]
        + P30 * T[(3, 0, 3)] + P21 * T[(2, 1, 3)]
        + P12 * T[(1, 2, 3)] + P03 * T[(0, 3, 3)]
    )
    return frame.BH[0] / (8.0 * np.pi * params.mu) * total


def test_velocity_blocks_match_triangle_velocity():
    rng = np.random.default_rng(9)
    frame, xf, forces, eps = oracles.random_triangle_case(rng)
    params = KernelParams(eps=eps, mu=1.7)
    via_blocks = triangle_velocity(xf, frame, *forces, params)
    direct = _p_expansion_velocity(xf, frame, *forces, params)
    assert np.allclose(via_blocks, direct, rtol=1e-12, atol=1e-15)


def test_velocity_divergence_free():
    rng = np.random.default_rng(10)
    frame, _, forces, _ = oracles.random_triangle_case(rng)
    params = KernelParams(eps=0.1)
    x0 = np.array([0.8, -1.1, 0.9])
    h = 1e-5
    div = 0.0
    for i in range(3):
        step = np.zeros(3)
        step[i] = h
        up = triangle_velocity(x0 + step, frame, *forces, params)
        dn = triangle_velocity(x0 - step, frame, *forces, params)
        div += (up[i] - dn[i]) / (2 * h)
    scale = np.linalg.norm(triangle_velocity(x0, frame, *forces, params))
    assert abs(div) < 1e-6 * max(scale, 1.0)


def test_net_force_and_torque_match_quadrature():
    from scipy.integrate import dblquad

    rng = np.random.default_rng(11)
    frame, _, forces, _ = oracles.random_triangle_case(rng)
    yc = rng.normal(size=3)
    mesh = TriMesh(np.concatenate([frame.y0, frame.y1, frame.y2]), [[0, 1, 2]])
    F = net_force(mesh, forces)
    T = net_torque(mesh, forces, center=yc)
    f0, fa, fb = forces[0], forces[1] - forces[0], forces[2] - forces[1]

    def quad_vec(fn):
        out = np.zeros(3)
        for i in range(3):
            out[i], _ = dblquad(
                lambda beta, alpha, i=i: fn(alpha, beta)[i] * frame.BH[0],
                0.0, 1.0, 0.0, lambda a: a, epsabs=1e-13, epsrel=1e-12,
            )
        return out

    Fref = quad_vec(lambda a, b: f0 + a * fa + b * fb)
    Tref = quad_vec(
        lambda a, b: np.cross(
            oracles.triangle_param_point(frame, a, b) - yc, f0 + a * fa + b * fb
        )
    )
    assert np.allclose(F, Fref, rtol=1e-12, atol=1e-14)
    assert np.allclose(T, Tref, rtol=1e-11, atol=1e-13)


def test_epsilon_floor_and_params_validation():
    mesh = make_icosphere(2)
    floor = epsilon_floor(mesh)
    assert floor == pytest.approx(np.sqrt(np.spacing(mesh.max_side_length())))
    KernelParams(eps=2 * floor).validate_for_mesh(mesh)  # fine
    with pytest.raises(FloatingFloorError):
        KernelParams(eps=0.5 * floor).validate_for_mesh(mesh)
    with pytest.raises(ValueError):
        KernelParams(eps=0.0)
    with pytest.raises(ValueError):
        KernelParams(eps=1e-4, mu=-1.0)
