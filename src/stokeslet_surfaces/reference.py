"""Closed-form reference solutions and error norms for the validation studies.

Tractions returned here are the single-layer force densities that reproduce
the corresponding exterior Stokes flow through the forward velocity map
u(x) = (1/8 pi mu) * integral of S . f: that is, the force the body exerts on
the fluid. The drag/torque exerted by the fluid on the body is the negative
of the integral of these densities.

Functions of a surface or field point take one point of shape (3,) or an
array of points of shape (..., 3), and return arrays of matching shape.
"""

from __future__ import annotations

import numpy as np

from .geometry import _cross, _require_positive

# Indices of the 50 terms of the duct series (truncation about 5e-7 at walls).
_DUCT_N = np.arange(1, 51)
_DUCT_ALPHA = (_DUCT_N - 0.5) * np.pi

__all__ = [
    "l2_error",
    "sphere_translation_reference",
    "sphere_rotation_reference",
    "spheroid_rotation_reference",
    "spheroid_net_torque",
    "squirmer_slip",
    "pipe_reference",
    "flux_without_cube",
]


def l2_error(errors) -> float:
    """Root-mean-square of a non-empty list of pointwise error magnitudes."""
    errors = np.asarray(errors, dtype=float)
    if errors.size == 0:
        raise ValueError("empty error list")
    return float(np.sqrt(np.mean(errors**2)))


def sphere_translation_reference(x, a: float, U, mu: float):
    """(traction, velocity) for a rigid sphere of radius a translating at U.

    The traction is the constant density (3 mu / 2a) U; the velocity is the
    classical exterior solution, valid for |x| >= a (equal to U on the
    surface).
    """
    _require_positive(radius=a)
    x = np.asarray(x, dtype=float)
    U = np.asarray(U, dtype=float)
    traction = np.broadcast_to(3.0 * mu / (2.0 * a) * U, x.shape).copy()
    r = np.linalg.norm(x, axis=-1, keepdims=True)
    u = (a / (4.0 * r)) * (3.0 + a**2 / r**2) * U + (
        3.0 * a * (x @ U)[..., None] / (4.0 * r**2)
    ) * (1.0 - a**2 / r**2) * x / r
    return traction, u


def sphere_rotation_reference(x, a: float, Omega, mu: float):
    """(traction, velocity) for a rigid sphere of radius a rotating at Omega.

    traction = (3 mu / a) Omega x X on the surface; velocity is the rotlet
    field a^3 (Omega x X) / r^3, equal to Omega x X on the surface.
    """
    _require_positive(radius=a)
    x = np.asarray(x, dtype=float)
    swirl = _cross(np.asarray(Omega, dtype=float), x)
    r = np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True))
    return 3.0 * mu / a * swirl, a**3 * swirl / r**3


def spheroid_net_torque(a: float, b: float, mu: float) -> np.ndarray:
    """Torque the fluid exerts on a prolate spheroid (semi-axes a > b along z)
    rotating with unit angular speed about z."""
    if not a > b:
        raise ValueError("requires a > b (prolate spheroid)")
    e = np.sqrt(a**2 - b**2) / a
    beta0 = a**2 * e**2 / (2.0 * e / (1.0 - e**2) - np.log((1.0 + e) / (1.0 - e)))
    return np.array([0.0, 0.0, -(32.0 / 3.0) * np.pi * mu * a * e * beta0])


def spheroid_rotation_reference(x, a: float, b: float, mu: float):
    """(traction, net torque on body) for a prolate spheroid (z semi-axis a,
    equatorial semi-axis b) rotating with unit angular speed about z.

    traction(x) = -3 (n . x) / (8 pi a b^4) * M x X with M the net torque on
    the body; the minus sign converts it to force-on-fluid. The surface
    velocity target is z_hat x X.
    """
    x = np.asarray(x, dtype=float)
    M = spheroid_net_torque(a, b, mu)
    # outward normal of x^2/b^2 + y^2/b^2 + z^2/a^2 = 1
    grad = x / np.array([b**2, b**2, a**2])
    nhat = grad / np.linalg.norm(grad, axis=-1, keepdims=True)
    n_dot_x = np.sum(nhat * x, axis=-1, keepdims=True)
    traction = -3.0 * n_dot_x / (8.0 * np.pi * a * b**4) * _cross(M, x)
    return traction, M


def squirmer_slip(theta, phi, B1: float) -> np.ndarray:
    """Cartesian slip velocity B1 * V1(cos theta) * theta_hat on the unit
    sphere, with V1(c) = sqrt(1 - c^2). theta and phi are floats, giving
    shape (3,), or 1-D arrays of one length N, giving shape (N, 3)."""
    that = np.array(
        [np.cos(theta) * np.cos(phi), np.cos(theta) * np.sin(phi), -np.sin(theta)]
    )
    return (B1 * np.sin(theta) * that).T


def pipe_reference(y, z, a: float, b: float, dP: float, mu: float):
    """Axial velocity of pressure-driven flow in a rectangular duct
    |y| <= a, |z| <= b, as a cosh/cos series truncated at 50 terms. a, b and
    mu must be positive and finite."""
    _require_positive(a=a, b=b, mu=mu)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    series = np.sum(
        (-1.0) ** _DUCT_N
        / _DUCT_ALPHA**3
        * np.cosh(_DUCT_ALPHA * y[..., None] / b)
        / np.cosh(_DUCT_ALPHA * a / b)
        * np.cos(_DUCT_ALPHA * z[..., None] / b),
        axis=-1,
    )
    u = dP / (2.0 * mu) * (b**2 - z**2 + 4.0 * b**2 * series)
    return u if u.ndim else float(u)


def flux_without_cube(s: float, a: float, b: float, dP: float, mu: float) -> float:
    """Flux of the unobstructed duct flow through the square |y|,|z| <= s; a,
    b and mu must be positive and finite."""
    _require_positive(a=a, b=b, mu=mu)
    series = np.sum(
        (-1.0) ** _DUCT_N
        / _DUCT_ALPHA**5
        * np.sinh(_DUCT_ALPHA * s / b)
        / np.cosh(_DUCT_ALPHA * a / b)
        * np.sin(_DUCT_ALPHA * s / b)
    )
    return float(
        -(2.0 / 3.0) * dP / mu * s**2 * (-3.0 * b**2 + s**2)
        + dP / (2.0 * mu) * 16.0 * b**4 * series
    )
