"""Independent quadrature oracles used by the test suite.

Everything here integrates the defining expressions directly with adaptive
quadrature; nothing reuses the closed forms under test.
"""

import numpy as np
from scipy.integrate import dblquad, quad


def triangle_param_point(frame, alpha, beta):
    """The point y(alpha, beta), shape (3,), of a one-face frame."""
    y = frame.y0 - alpha * frame.L1 * frame.vhat - beta * frame.L2 * frame.what
    return y[0]


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
