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
from stokeslet_surfaces.kernel import _frame_floor, _geometry, _reversed, _sides

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
    # points (..., 3) broadcast: one matrix per pair, equal to the single calls
    rng = np.random.default_rng(1)
    xs, ys = rng.normal(size=(4, 3)), rng.normal(size=(5, 3))
    batch = point_stokeslet(xs[:, None, :], ys[None, :, :], params)
    assert batch.shape == (4, 5, 3, 3)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            assert np.allclose(batch[i, j], point_stokeslet(x, y, params),
                               rtol=1e-14, atol=0)


def _sides_at(frame, xf, eps, s=0):
    """Segment integrals S[m, q] of side s (corner s to corner s + 1 mod 3)
    of a one-face frame at one field point, and the side's c001 term, as
    floats."""
    g = _geometry(np.asarray(xf, dtype=float)[None], frame)
    R = np.sqrt(g.r2 + eps * eps)  # (3, 1, 1)
    S, c001 = _sides(g, R, eps)
    assert all(v.shape == (3, 1, 1) for v in (*S.values(), c001))
    return {k: float(v[s, 0, 0]) for k, v in S.items()}, float(c001[s, 0, 0])


def _side_segment(frame, s, xf, eps):
    """Segment integrals S[m, q] of side s of a one-face frame at one field
    point, as floats."""
    return _sides_at(frame, xf, eps, s)[0]


def _segment(xf, a, b, eps):
    """Segment integrals S[m, q] from a to b, read from side 0 -> 1 of a
    triangle (a, b, c) with c off the segment's line."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    off = np.cross(b - a, [1.0, 0.0, 0.0])
    if np.linalg.norm(off) < 0.1 * np.linalg.norm(b - a):
        off = np.cross(b - a, [0.0, 1.0, 0.0])
    frame = triangle_frame(a, b, 0.5 * (a + b) + off)
    return _side_segment(frame, 0, xf, eps)


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
    s = _segment(xf, a, b, eps)
    for (m, q) in [(1, 1), (2, 1)]:
        ref = oracles.segment_integral_quadrature(xf, a, b, eps, m, q)
        assert s[(m, q)] == pytest.approx(ref, rel=1e-9, abs=1e-13)


def test_segment_base_near_collinear_field_point():
    # field point close to the segment's carrier line: stable log path
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


def _side_integrals_mp(a, b, xf, eps, n):
    """S[m, q] along a -> b and the side's c001 term for the outward normal
    n, in 40-digit arithmetic from the float inputs taken as exact.

    With t = theta L - p the arc length past the foot of the perpendicular
    from xf, R = sqrt(t**2 + c**2), where c**2 = |(xf - a) x e|**2 + eps**2
    comes without cancellation; the antiderivatives are those of 1/R, R,
    t/R and t**2/R in t. Also returns |xf - a| |D|, with D = L S[0, 1], the
    size of the terms of c001 = -xn D."""
    import mpmath as mp

    with mp.workdps(40):
        a, b, xf, n = ([mp.mpf(float(v)) for v in p] for p in (a, b, xf, n))
        ab = [bk - ak for ak, bk in zip(a, b)]
        L = mp.sqrt(sum(v * v for v in ab))
        e = [v / L for v in ab]
        xa = [xk - ak for xk, ak in zip(xf, a)]
        p = sum(xk * ek for xk, ek in zip(xa, e))
        cross = [xa[1] * e[2] - xa[2] * e[1], xa[2] * e[0] - xa[0] * e[2],
                 xa[0] * e[1] - xa[1] * e[0]]
        c2 = sum(v * v for v in cross) + mp.mpf(eps) ** 2
        c = mp.sqrt(c2)
        t0, t1 = -p, L - p
        r0, r1 = mp.sqrt(t0 * t0 + c2), mp.sqrt(t1 * t1 + c2)
        D = mp.asinh(t1 / c) - mp.asinh(t0 / c)
        S = {(0, -1): (t1 * r1 - t0 * r0 + c2 * D) / (2 * L),
             (0, 1): D / L,
             (1, 1): (r1 - r0 + p * D) / L**2,
             (2, 1): ((t1 * r1 - t0 * r0 - c2 * D) / 2 + 2 * p * (r1 - r0)
                      + p * p * D) / L**3}
        xn = sum(xk * nk for xk, nk in zip(xa, n))
        scale = mp.sqrt(sum(v * v for v in xa)) * abs(D)
        return ({k: float(v) for k, v in S.items()}, float(-xn * D), float(scale))


@pytest.mark.parametrize("placement", ["both-negative", "straddling", "both-positive"])
def test_sides_match_extended_precision(placement):
    # Field points at 1e-9 L to 1e-1 L from the line of side 0 (a -> b),
    # with their foot of the perpendicular beyond b (u0, u1 < 0), between a
    # and b, or before a (u0, u1 > 0); eps from 1e-1 down to 4 times the
    # floor. Bound, relative (for c001, to the size of its terms):
    # - 1e-12 where the segment stays on one side of the foot;
    # - plus 4 ulp R**2 / c**2 where it straddles the foot, since then
    #   log c**2 enters D, and c**2 = R**2 - u**2 is formed from rounded R
    #   and u with ulp R**2 of absolute error.
    ulp = np.finfo(float).eps
    rng = np.random.default_rng(["both-negative", "straddling", "both-positive"]
                                .index(placement) + 31)
    lo, hi = {"both-negative": (1.05, 3.0), "straddling": (0.05, 0.95),
              "both-positive": (-2.0, -0.05)}[placement]
    for case in range(200):
        y = rng.normal(size=(3, 3))
        frame = triangle_frame(*y)
        a, b = y[0], y[1]
        L = np.linalg.norm(b - a)
        perp = np.cross(b - a, rng.normal(size=3))
        perp /= np.linalg.norm(perp)
        dist = L * 10.0 ** rng.uniform(-9.0, -1.0)
        xf = a + rng.uniform(lo, hi) * (b - a) + dist * perp
        eps = 10.0 ** rng.uniform(np.log10(4.0 * _frame_floor(frame)), -1.0)
        S, c001 = _sides_at(frame, xf, eps)
        ref, ref_c001, c001_scale = _side_integrals_mp(a, b, xf, eps, frame.side_n[0, 0])
        bound = 1e-12
        if placement == "straddling":
            R2 = max(np.sum((xf - a) ** 2), np.sum((xf - b) ** 2)) + eps * eps
            bound += 4.0 * ulp * R2 / (dist * dist + eps * eps)
        for key, value in ref.items():
            assert abs(S[key] - value) <= bound * abs(value), (case, key, S[key], value)
        assert abs(c001 - ref_c001) <= bound * c001_scale, (case, c001, ref_c001)


def _side_bases(frame, xf, eps):
    """Segment integrals of the sides y0->y1 (e1), y1->y2 (e2) and y2->y0 (d)."""
    return {name: _side_segment(frame, s, xf, eps)
            for s, name in enumerate(("e1", "e2", "d"))}


@pytest.mark.parametrize("seed", range(3))
def test_boundary_ab_matches_direct_combination(seed):
    # the contour integrals A and B take the side d = y2 -> y0 run
    # backwards, whose integrals are alternating-binomial combinations of d's
    rng = np.random.default_rng(200 + seed)
    frame, xf, _, eps = oracles.random_triangle_case(rng)
    d = _side_bases(frame, xf, eps)["d"]
    import math

    reversed_d = _reversed(*(d[(k, 1)] for k in range(3)))
    y0_to_y2 = _segment(xf, frame.y0[0], frame.y2[0], eps)
    for j in range(3):
        dsum = sum(math.comb(j, k) * (-1) ** k * d[(k, 1)] for k in range(j + 1))
        assert reversed_d[j] == pytest.approx(dsum, rel=1e-12, abs=1e-14)
        assert reversed_d[j] == pytest.approx(y0_to_y2[(j, 1)], rel=1e-9, abs=1e-13)


def _t003(xf, frame, eps):
    return t_table(xf, frame, eps)[(0, 0, 3)]


@pytest.mark.parametrize("seed", range(4))
def test_t003_t001_match_quadrature(seed):
    rng = np.random.default_rng(300 + seed)
    frame, xf, _, eps = oracles.random_triangle_case(rng)
    table = t_table(xf, frame, eps)
    assert table[(0, 0, 3)] == pytest.approx(
        oracles.t_integral_quadrature(xf, frame, eps, 0, 0, 3), rel=1e-9
    )
    assert table[(0, 0, 1)] == pytest.approx(
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
    v, w = frame.side_e[0, 0], frame.side_e[0, 1]
    L1, L2 = frame.side_L[0, 0], frame.side_L[0, 1]
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
    corners = mesh.vertices[mesh.faces]
    longest = np.linalg.norm(corners - np.roll(corners, -1, axis=1), axis=2).max()
    assert floor == pytest.approx(np.sqrt(np.spacing(longest)))
    KernelParams(eps=2 * floor).validate_for_mesh(mesh)  # fine
    with pytest.raises(FloatingFloorError):
        KernelParams(eps=0.5 * floor).validate_for_mesh(mesh)
    with pytest.raises(ValueError):
        KernelParams(eps=0.0)
    with pytest.raises(ValueError):
        KernelParams(eps=1e-4, mu=-1.0)


def test_one_face_entry_points_check_the_floor():
    # t_table and triangle_velocity apply epsilon_floor's rule to their
    # frame up front, as assembly and evaluation do for a mesh (criterion 8)
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.3, 0.9, 0.0]])
    frame = triangle_frame(*verts)
    floor = epsilon_floor(TriMesh(verts, [[0, 1, 2]]))
    forces = np.ones((3, 3))
    # in-plane points inside, on a side and at a corner, and one off the plane
    for xf in ([0.41, 0.33, 0.0], [0.5, 0.0, 0.0], [1.0, 0.0, 0.0], [0.2, 0.1, 0.3]):
        with pytest.raises(FloatingFloorError):
            t_table(xf, frame, 0.5 * floor)
        with pytest.raises(FloatingFloorError):
            triangle_velocity(xf, frame, *forces, KernelParams(eps=0.5 * floor))
        table = t_table(xf, frame, 4.0 * floor)
        assert all(np.isfinite(v) for v in table.values())
        u = triangle_velocity(xf, frame, *forces, KernelParams(eps=4.0 * floor))
        assert np.all(np.isfinite(u))


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="np.longdouble is no wider than float64 here")
def test_in_plane_t003_matches_extended_precision():
    # Field points in the plane of the triangle (z = 0), where T[0,0,3]
    # grows like 1/eps: inside, outside, on a side's line and at a corner.
    # The same code on np.longdouble frames and points is the reference.
    rng = np.random.default_rng(13)
    for case in range(240):
        y = rng.normal(size=(3, 3))
        a, b = rng.uniform(-0.5, 1.5, size=2)
        if case % 4 == 1:
            b = 0.0  # on the line of side y0 -> y1
        xf = y[0] + a * (y[1] - y[0]) + b * (y[2] - y[0])
        if case % 4 == 2:
            xf = y[case % 3].copy()
        eps = 10.0 ** rng.uniform(-7.0, -3.0)
        got = _t003(xf, triangle_frame(*y), eps)
        wide = triangle_frame(*y.astype(np.longdouble))
        assert wide.side_n.dtype == np.longdouble
        ref = _t003(xf.astype(np.longdouble), wide, eps)
        assert got == pytest.approx(ref, rel=1e-9), (case, eps)


def test_t_table_far_along_a_side_line():
    # far along a side's line R - u rounds to zero once eps**2 is below the
    # spacing of u**2; the log arguments never divide by it. The contour
    # form of T[0,0,3] that the solid angle replaced was 1e-3 off here.
    frame = triangle_frame([0.0, 0, 0], [1.0, 0, 0], [0.3, 0.9, 0])
    xf = np.array([-100.0, 0.0, 0.0])
    table = t_table(xf, frame, 1e-7)
    for key in ((0, 0, 1), (0, 0, 3), (1, 0, 1)):
        assert table[key] == pytest.approx(
            oracles.t_integral_quadrature(xf, frame, 1e-7, *key), rel=1e-9), key
