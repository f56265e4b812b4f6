"""Independent oracles used by the test suite.

The quadrature oracles integrate the defining expressions directly with
adaptive quadrature; they reuse none of the closed forms under test. The
swimmer reference solves the augmented system that the bordered swimmer
solve replaced. The one-face blocks are the slow reference for assembly,
formed entry by entry from the kernel's shared coefficients.
"""

import numpy as np
from scipy.integrate import dblquad, quad


def triangle_param_point(frame, alpha, beta):
    """The point y(alpha, beta), shape (3,), of a one-face frame."""
    L, e = frame.side_L[0], frame.side_e[0]
    return frame.y0[0] - alpha * L[0] * e[0] - beta * L[1] * e[1]


def t_integral_quadrature(xf, frame, eps, m, n, q, epsrel=1e-11):
    """T[m,n,q] = int over {0 <= beta <= alpha <= 1} alpha^m beta^n / R^q."""
    xf = np.asarray(xf, dtype=float)

    def integrand(beta, alpha):
        y = triangle_param_point(frame, alpha, beta)
        R = np.sqrt(np.sum((xf - y) ** 2) + eps * eps)
        return alpha**m * beta**n / R**q

    val, _ = dblquad(integrand, 0.0, 1.0, 0.0, lambda a: a,
                     epsabs=1e-13, epsrel=epsrel)
    return val


def segment_integral_quadrature(xf, a, b, eps, m, q, epsrel=1e-12):
    """S[m,q] = int_0^1 theta^m R^(-q) along the segment from a to b."""
    xf = np.asarray(xf, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)

    def integrand(theta):
        y = a + theta * (b - a)
        R = np.sqrt(np.sum((xf - y) ** 2) + eps * eps)
        return theta**m * R ** (-q)

    val, _ = quad(integrand, 0.0, 1.0, epsabs=1e-14, epsrel=epsrel, limit=200)
    return val


def triangle_velocity_quadrature(xf, frame, f0, f1, f2, eps, mu, epsrel=1e-10):
    """Velocity integral of the regularized kernel times the linear density."""
    xf = np.asarray(xf, dtype=float)
    f0 = np.asarray(f0, dtype=float)
    fa = np.asarray(f1, dtype=float) - f0
    fb = np.asarray(f2, dtype=float) - np.asarray(f1, dtype=float)

    def component(i):
        def integrand(beta, alpha):
            y = triangle_param_point(frame, alpha, beta)
            f = f0 + alpha * fa + beta * fb
            d = xf - y
            r2 = d @ d + eps * eps
            r = np.sqrt(r2)
            S = (1.0 / r + eps * eps / (r2 * r)) * np.eye(3) + np.outer(d, d) / (r2 * r)
            return (S @ f)[i]

        val, _ = dblquad(integrand, 0.0, 1.0, 0.0, lambda a: a,
                         epsabs=1e-13, epsrel=epsrel)
        return val

    return frame.BH[0] / (8.0 * np.pi * mu) * np.array([component(i) for i in range(3)])


def triangle_velocity_gauss(xf, frame, f0, f1, f2, eps, mu, n):
    """The same velocity integral by an n x n Gauss-Legendre product rule on
    the unit square, mapped to the triangle by alpha = u, beta = u v
    (Jacobian u)."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    t, wt = 0.5 * (nodes + 1.0), 0.5 * weights
    u, v = (a.ravel() for a in np.meshgrid(t, t, indexing="ij"))
    w = np.outer(wt, wt).ravel() * u
    alpha, beta = u, u * v
    L, e = frame.side_L[0], frame.side_e[0]
    y = frame.y0[0] - (alpha * L[0])[:, None] * e[0] - (beta * L[1])[:, None] * e[1]
    f0 = np.asarray(f0, dtype=float)
    fa = np.asarray(f1, dtype=float) - f0
    fb = np.asarray(f2, dtype=float) - np.asarray(f1, dtype=float)
    f = f0 + alpha[:, None] * fa + beta[:, None] * fb
    d = np.asarray(xf, dtype=float) - y
    r2 = np.sum(d * d, axis=1) + eps * eps
    r = np.sqrt(r2)
    Sf = ((1.0 / r + eps * eps / (r2 * r))[:, None] * f
          + d * (np.sum(d * f, axis=1) / (r2 * r))[:, None])
    return frame.BH[0] / (8.0 * np.pi * mu) * (w @ Sf)


def triangle_velocity_reference(xf, frame, f0, f1, f2, eps, mu, tol=1e-11):
    """The velocity integral from the n = 128 Gauss product rule where it
    agrees with n = 64 within tol relative, else from adaptive `dblquad`
    (`triangle_velocity_quadrature`, epsrel 1e-10). The product rule
    converges geometrically for a field point well off the triangle; the
    n = 64 value misses by about the n = 64 - n = 128 difference, and n = 128
    by much less. Returns (velocity, whether dblquad was used)."""
    coarse = triangle_velocity_gauss(xf, frame, f0, f1, f2, eps, mu, 64)
    fine = triangle_velocity_gauss(xf, frame, f0, f1, f2, eps, mu, 128)
    if np.linalg.norm(fine - coarse) <= tol * np.linalg.norm(fine):
        return fine, False
    return triangle_velocity_quadrature(xf, frame, f0, f1, f2, eps, mu,
                                        epsrel=1e-10), True


def basis_blocks(xf, frame, params, constant=False):
    """Each basis function's block M_k = s (c_k I + [x_k v w] S_k [x_k v w]^T),
    shape (K, 3, 3, F, M): basis, velocity component, force component, face,
    point, formed entry by entry from `kernel._basis_terms` of the frame's
    `kernel._geometry` at xf, in the dtype of xf and the frame. Assembly
    instead adds the terms of the blocks over the faces around each
    collocation point and forms each block once."""
    from stokeslet_surfaces import kernel

    geometry = kernel._geometry(xf, frame, constant)
    t, x, v, w, s = kernel._basis_terms(geometry, frame, params, constant)
    c, S = t[:, 0] + params.eps**2 * t[:, 1], t[:, 1:]
    cols = (x, np.broadcast_to(v, x.shape), np.broadcast_to(w, x.shape))
    blocks = np.zeros((len(x), 3, 3) + x.shape[2:], dtype=x.dtype)
    for a, row in enumerate(kernel._S_ROWS):
        for b, entry in enumerate(row):
            blocks += S[:, entry, None, None] * cols[a][:, :, None] * cols[b][:, None]
    for i in range(3):
        blocks[:, i, i] += c
    return s * blocks


def scatter_vertex_moments(mesh, center):
    """(weights, torque blocks) of `solver._vertex_moments`, each summed by
    a scatter-add of every corner's term into its vertex, face by face, and
    the lever arms' cross products taken by numpy's cross."""
    n = mesh.num_vertices
    bh = mesh.frames.BH
    corners = mesh.vertices[mesh.faces]  # (F, 3, 3): face, corner, xyz
    lever = corners.sum(axis=1)[:, None, :] + corners - 4.0 * center
    weights = np.zeros(n)
    np.add.at(weights, mesh.faces, (bh / 6.0)[:, None])
    blocks = np.zeros((n, 3, 3))
    skew = np.cross(np.eye(3), lever[..., None, :])
    np.add.at(blocks, mesh.faces, (bh / 24.0)[:, None, None, None] * skew)
    return weights, blocks


def random_triangle_case(rng, eps_range=(1e-2, 1.0), scale=1.0):
    """A well-separated random triangle, field point, forces and eps."""
    from stokeslet_surfaces.geometry import triangle_frame

    while True:
        verts = rng.normal(size=(3, 3)) * scale
        e1 = verts[1] - verts[0]
        e2 = verts[2] - verts[0]
        area2 = np.linalg.norm(np.cross(e1, e2))
        if area2 > 1e-2 * scale**2:
            break
    frame = triangle_frame(*verts)
    xf = rng.normal(size=3) * scale
    forces = rng.normal(size=(3, 3))
    lo, hi = np.log(eps_range[0]), np.log(eps_range[1])
    eps = float(np.exp(rng.uniform(lo, hi)))
    return frame, xf, forces, eps


def augmented_swimmer_reference(mesh, slip, params, center):
    """(forces, U, Omega) of the free swimmer from one (3N + 6) square system:
    the resistance matrix A bordered by the rigid-motion columns,
        A f - U + (y_i - c) x Omega = slip_i,
    and by the net-force and net-torque rows about c = center, with a zero
    right-hand side on those six rows. This is the construction the bordered
    `solver.solve_swimmer` replaced; it shares A and the moment rows with it,
    not the elimination."""
    from stokeslet_surfaces.solver import _skew, _vertex_moments, assemble_resistance

    n = mesh.num_vertices
    c = np.asarray(center, dtype=float)
    size = 3 * n + 6
    A = np.zeros((size, size))
    A[: 3 * n, : 3 * n] = assemble_resistance(mesh, params)
    A[: 3 * n, 3 * n : 3 * n + 3] = np.tile(-np.eye(3), (n, 1))
    A[: 3 * n, 3 * n + 3 :] = _skew(mesh.vertices - c).reshape(3 * n, 3)
    weights, blocks = _vertex_moments(mesh, c)
    A[3 * n : 3 * n + 3, : 3 * n] = np.kron(weights, np.eye(3))
    A[3 * n + 3 :, : 3 * n] = blocks.transpose(1, 0, 2).reshape(3, 3 * n)
    b = np.zeros(size)
    b[: 3 * n] = np.asarray(slip, dtype=float).reshape(-1)
    x = np.linalg.solve(A, b)
    return x[: 3 * n].reshape(-1, 3), x[3 * n : 3 * n + 3], x[3 * n + 3 :]
