"""Analytic integration of the regularized Stokeslet kernel over triangles.

The velocity induced at a field point by a linearly varying force density on
a flat triangle reduces to a 13-term sum of moment integrals

    T[m, n, q] = integral over {0 <= beta <= alpha <= 1} of
                 alpha**m * beta**n / R**q,   R**2 = |xf - y(alpha, beta)|**2 + eps**2

with q in {1, 3} and m + n <= q. The two scalar base cases T[0,0,1] and
T[0,0,3] come from contour integrals around the triangle; every other entry
follows from index recursions driven by closed-form line-segment integrals
along the three sides. Each call forms the corner offsets xf - y_j and
distances once and visits each side once (`_side`), which yields the side's
segment integrals and its terms of both contour sums.

All functions here are pure and broadcast over a chunk of F faces (one
struct-of-arrays TriangleFrame) times a batch of M field points. Scalars
have shape (F, M); vectors are component-major, (3, F, M), and blocks
(3, 3, F, M), so that every array operation runs over contiguous F*M runs.
Each corner block is formed in rank-3 form from one set of vectors p, q, r
(`_corner_terms`), which both the blocks and the force contraction of
forward evaluation use. `t_table` and `triangle_velocity` evaluate one face
at one point through the same path that assembly uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FloatingFloorError
from .geometry import TriangleFrame, TriMesh, _row_dot

__all__ = [
    "KernelParams",
    "point_stokeslet",
    "t_table",
    "triangle_velocity",
    "epsilon_floor",
]

_ATANH_LIMIT = 1.0 - 4.0 * np.spacing(1.0)
_SIDE_SKIP_REL = 1e-14


@dataclass(frozen=True)
class KernelParams:
    """Regularization length eps and dynamic viscosity mu."""

    eps: float
    mu: float = 1.0

    def __post_init__(self):
        if not (self.eps > 0.0 and math.isfinite(self.eps)):
            raise ValueError("eps must be positive and finite")
        if not (self.mu > 0.0 and math.isfinite(self.mu)):
            raise ValueError("mu must be positive and finite")

    def validate_for_mesh(self, mesh: TriMesh) -> None:
        floor = epsilon_floor(mesh)
        if self.eps <= floor:
            raise FloatingFloorError(
                f"eps = {self.eps:g} is at or below the floating-point floor "
                f"{floor:g} for this mesh (requires eps**2 > ulp spacing of "
                "the largest triangle side length)"
            )


def epsilon_floor(mesh: TriMesh) -> float:
    """Smallest admissible eps: sqrt of the ulp spacing at the longest side."""
    if mesh.num_faces == 0:
        raise ValueError("empty mesh")
    return float(np.sqrt(np.spacing(mesh.max_side_length())))


def point_stokeslet(x, y, params: KernelParams) -> np.ndarray:
    """Regularized Stokeslet matrices S for point forces at y, evaluated at x.

    x and y are points of shape (3,) or (..., 3) that broadcast against each
    other; S has shape (..., 3, 3).
    """
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    eps2 = params.eps * params.eps
    r2 = np.einsum("...k,...k->...", d, d) + eps2
    r = np.sqrt(r2)
    r3 = r2 * r
    S = np.zeros(d.shape + (3,))
    diag = 1.0 / r + eps2 / r3
    for i in range(3):
        S[..., i, i] = diag
    S += d[..., :, None] * d[..., None, :] / r3[..., None, None]
    return S


# ---------------------------------------------------------------------------
# one pass per side: segment integrals S[m, q] = int_0^1 theta**m * R**(-q)
# dtheta, q = -1, 1, and the side's terms of the T[0,0,3]/T[0,0,1] contours


def _guarded_atanh(u):
    """arctanh with the near-unity clamp that signals a regularization floor."""
    mag = np.abs(u)
    if np.any(mag - _ATANH_LIMIT > 1e-9):
        raise FloatingFloorError(
            "arctanh argument degenerated; eps is below the admissible floor"
        )
    return np.arctanh(np.clip(u, -_ATANH_LIMIT, _ATANH_LIMIT))


def _dot(a, b):
    """Dot products over the leading component axis of a and b, which
    broadcast against each other: (3, F, M) with (3, F, 1) gives (F, M)."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _columns(rows):
    """Per-face vectors of shape (F, 3) as component-major (3, F, 1)."""
    return rows.T[:, :, None]


def _side(frame: TriangleFrame, a: int, b: int, x, R, gamma, eps):
    """Everything the T table needs from the side running from corner a to b.

    x[j] = xf - y_j, shape (3, F, M), and R[j] = sqrt(|x[j]|**2 + eps**2),
    shape (F, M), for the corners j = 0, 1, 2 of the frame; gamma is
    sqrt(z**2 + eps**2), z the height of xf above the face plane.

    Returns (S, c003, c001), each value of shape (F, M): S maps (m, q) to
    the segment integral S[m, q] along a -> b; c003 and c001 are the side's
    terms of the contour sums that give BH * T[0,0,3] and the boundary part
    of BH * T[0,0,1]. A side whose line passes through the in-plane
    projection of xf contributes no contour terms.
    """
    corners = (frame.y0, frame.y1, frame.y2)
    ya, yb, yc = corners[a], corners[b], corners[3 - a - b]
    x0, R0, R1 = x[a], R[a], R[b]
    L = np.sqrt(_row_dot((ya - yb)[:, None], ya - yb))  # (F, 1)
    if np.any(L == 0.0):
        raise ValueError("zero-length segment")
    # unit direction from the theta = 1 endpoint (b) back to theta = 0 (a),
    # and the in-plane unit normal pointing out of the face
    e = (ya - yb) / L
    n_side = np.cross(e, frame.nhat)
    inward = _row_dot((yc - ya)[:, None], n_side) > 0
    n_side = np.where(inward, -n_side, n_side)

    u0 = _dot(x0, _columns(e))
    u1 = u0 + L
    P = u0 / L
    # squared distance from the segment line plus eps^2; >= eps^2 > 0
    c2 = np.maximum(R0 * R0 - u0 * u0, eps * eps)
    # stable log argument u + R = c2 / (R - u) when u < 0
    la0 = np.where(u0 < 0.0, c2 / (R0 - u0), u0 + R0)
    la1 = np.where(u1 < 0.0, c2 / (R1 - u1), u1 + R1)
    s0m1 = ((u1 * R1 + c2 * np.log(la1)) - (u0 * R0 + c2 * np.log(la0))) / (2.0 * L)
    s0p1 = (_guarded_atanh(u1 / R1) - _guarded_atanh(u0 / R0)) / L
    s1p1 = (R1 - R0) / L**2 - P * s0p1
    s2p1 = R1 / L**2 - s0m1 / L**2 - P * s1p1
    S = {(0, -1): s0m1, (0, 1): s0p1, (1, 1): s1p1, (2, 1): s2p1}

    xn = _dot(x0, _columns(n_side))
    xnL2 = (xn / L) ** 2
    gL = gamma / L
    Qsq = xnL2 + gL * gL
    Q = np.sqrt(Qsq)
    # 1 - gamma/(L*Q) computed through the stable difference of squares
    one_m_g = xnL2 / (Qsq + Q * gL)
    one_p_g = 1.0 + gL / Q
    s = np.sqrt(one_m_g / one_p_g)
    r1 = np.tan(0.5 * np.arctan(np.abs(P) / Q))
    r2 = np.tan(0.5 * np.arctan(np.abs(1.0 + P) / Q))

    def atan_term(r):
        # arctan(r*s)/s, continuous through s -> 0
        return np.where(s > 1e-150, np.arctan(r * s) / np.where(s > 0, s, 1.0), r)

    sgn1 = np.where(P >= 0.0, -1.0, 1.0)
    sgn2 = np.where(P <= -1.0, -1.0, 1.0)
    integral = (2.0 / (Q * one_p_g)) * (sgn2 * atan_term(r2) + sgn1 * atan_term(r1))
    skip = np.abs(xn) < _SIDE_SKIP_REL * L
    c003 = np.where(skip, 0.0, -(xn / (gamma * L)) * integral)
    c001 = np.where(skip, 0.0, -xn * L * s0p1)
    return S, c003, c001


def _boundary_ab(m, n, q, e1, e2, d):
    """Contour integrals (A, B) from per-side segment tables (array-friendly).

    e1, e2, d map (m, q) keys to values for the sides y0->y1, y1->y2 and
    y2->y0 respectively.
    """
    alt = sum(
        math.comb(m + n, k) * (-1) ** k * d[(k, q)] for k in range(m + n + 1)
    )
    A = e2[(n, q)] - alt
    if n == 0:
        B = -e1[(m, q)] + sum(
            math.comb(m, k) * (-1) ** k * d[(k, q)] for k in range(m + 1)
        )
    else:
        B = alt
    return A, B


# ---------------------------------------------------------------------------
# full T table via the index recursions


def _t_table_arrays(xf, frame: TriangleFrame, eps: float):
    """All 13 T integrals for F faces and the M field points xf, shape (M, 3),
    values (F, M), and the offsets xf - y0, shape (3, F, M)."""
    corners = np.stack([_columns(y) for y in (frame.y0, frame.y1, frame.y2)])
    x = xf.T[None, :, None, :] - corners  # corner, xyz, face, point
    sq = x * x
    R = np.sqrt(sq[:, 0] + sq[:, 1] + sq[:, 2] + eps * eps)
    z0 = _dot(x[0], _columns(frame.nhat))
    gamma = np.sqrt(z0 * z0 + eps * eps)
    (seg1, c1, k1), (seg2, c2, k2), (seg3, c3, k3) = (
        _side(frame, a, b, x, R, gamma, eps) for a, b in ((0, 1), (1, 2), (2, 0))
    )  # sides e1, e2 and d

    BH = frame.BH[:, None]
    T003 = (c1 + c2 + c3) / BH
    T001 = (k1 + k2 + k3 - gamma * gamma * BH * T003) / BH

    L1, L2 = frame.L1[:, None], frame.L2[:, None]
    c = _row_dot(frame.vhat[:, None], frame.what)
    denom = c * c - 1.0
    x0v = _dot(x[0], _columns(frame.vhat))
    x0w = _dot(x[0], _columns(frame.what))
    cv = (x0v - c * x0w) / L1
    cw = (x0w - c * x0v) / L2

    # first-index / second-index steps at q = 1 (boundary data at q = -1)
    A, B = _boundary_ab(0, 0, -1, seg1, seg2, seg3)
    T101 = (-A / L1**2 + c * B / (L1 * L2) + cv * T001) / denom
    T011 = (-B / L2**2 + c * A / (L1 * L2) + cw * T001) / denom

    def step_m(A, B, m, n, Tm1n, Tmn1, Tmn3):
        # raises the first index at q = 3 (boundary data at q = 1)
        return (
            A / L1**2
            - c * B / (L1 * L2)
            - m * Tm1n / L1**2
            + c * n * Tmn1 / (L1 * L2)
            + cv * Tmn3
        ) / denom

    def step_n(A, B, m, n, Tm1n, Tmn1, Tmn3):
        # raises the second index at q = 3 (boundary data at q = 1)
        return (
            B / L2**2
            - c * A / (L1 * L2)
            - n * Tmn1 / L2**2
            + c * m * Tm1n / (L1 * L2)
            + cw * Tmn3
        ) / denom

    ab = {
        (m, n): _boundary_ab(m, n, 1, seg1, seg2, seg3)
        for (m, n) in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    }
    T103 = step_m(*ab[(0, 0)], 0, 0, 0.0, 0.0, T003)
    T013 = step_n(*ab[(0, 0)], 0, 0, 0.0, 0.0, T003)
    T203 = step_m(*ab[(1, 0)], 1, 0, T001, 0.0, T103)
    T113 = step_n(*ab[(1, 0)], 1, 0, T001, 0.0, T103)
    T023 = step_n(*ab[(0, 1)], 0, 1, 0.0, T001, T013)
    T303 = step_m(*ab[(2, 0)], 2, 0, T101, 0.0, T203)
    T213 = step_n(*ab[(2, 0)], 2, 0, T101, 0.0, T203)
    T123 = step_n(*ab[(1, 1)], 1, 1, T011, T101, T113)
    T033 = step_n(*ab[(0, 2)], 0, 2, 0.0, T011, T023)

    T = {
        (0, 0, 1): T001, (0, 0, 3): T003,
        (1, 0, 1): T101, (1, 0, 3): T103,
        (0, 1, 1): T011, (0, 1, 3): T013,
        (2, 0, 3): T203, (1, 1, 3): T113, (0, 2, 3): T023,
        (3, 0, 3): T303, (2, 1, 3): T213, (1, 2, 3): T123, (0, 3, 3): T033,
    }
    return T, x[0]


def t_table(xf, frame: TriangleFrame, eps: float) -> dict:
    """All 13 moment integrals of a one-face frame at one field point."""
    arrays, _ = _t_table_arrays(np.asarray(xf, dtype=float)[None, :], frame, eps)
    return {k: float(v[0, 0]) for k, v in arrays.items()}


# ---------------------------------------------------------------------------
# the velocity formula in rank-3 form: per corner k, u = M_k f_k with
# M_k = c_k I + x0 p_k^T + v q_k^T + w r_k^T

# T keys of the seven coefficients (t1, tE, tXv, tXw, tVv, tVw, tWw) that the
# bases f0, fa = f1 - f0 and fb = f2 - f1 of the linear density carry in
#   t1 I + tE (eps^2 I + x0 x0^T) + L1 tXv (x0 v^T + v x0^T)
#   + L2 tXw (x0 w^T + w x0^T) + L1^2 tVv v v^T
#   + L1 L2 tVw (v w^T + w v^T) + L2^2 tWw w w^T
_BASIS_KEYS = (
    ((0, 0, 1), (0, 0, 3), (1, 0, 3), (0, 1, 3), (2, 0, 3), (1, 1, 3), (0, 2, 3)),
    ((1, 0, 1), (1, 0, 3), (2, 0, 3), (1, 1, 3), (3, 0, 3), (2, 1, 3), (1, 2, 3)),
    ((0, 1, 1), (0, 1, 3), (1, 1, 3), (0, 2, 3), (2, 1, 3), (1, 2, 3), (0, 3, 3)),
)
# the symmetric coefficient matrix [[a, b, d], [b, e, g], [d, g, h]] of
# (x0, v, w), stored as (a, b, d, e, g, h): p, q and r take these entries
_PQR_ENTRIES = ((0, 1, 2), (1, 3, 4), (2, 4, 5))


def _corner_terms(xf, frame: TriangleFrame, params: KernelParams):
    """The three corner blocks of F faces at the M points xf in rank-3 form.

    Returns (c, x0, v, w, pqr) with u = sum over corners k of
    c[k] f_k + x0 (p_k . f_k) + v (q_k . f_k) + w (r_k . f_k):
    c has shape (3, F, M), one row per corner; x0 = xf - y0 has shape
    (3, F, M) and the edge directions v, w have shape (3, F, 1); pqr has
    shape (3, 3, 3, F, M): corner k, vector p/q/r, xyz. The 1/(8 pi mu)
    prefactor and the area Jacobian are included.

    The T moments about corner 0 carry a large cancellation at eps << h. The
    blocks and the contraction of forward evaluation both go through these
    rounded p, q, r, so assembled and evaluated velocities agree to rounding.
    """
    T, x0 = _t_table_arrays(xf, frame, params.eps)
    t = np.empty((3, 7) + x0.shape[1:], dtype=x0.dtype)  # corner, coefficient
    for i, (key0, key_a, key_b) in enumerate(zip(*_BASIS_KEYS)):
        np.subtract(T[key0], T[key_a], out=t[0, i])
        np.subtract(T[key_a], T[key_b], out=t[1, i])
        t[2, i] = T[key_b]
    del T  # keeps the peak memory of a call down
    scale = frame.BH[:, None] / (8.0 * np.pi * params.mu)
    L1, L2 = frame.L1[:, None], frame.L2[:, None]
    c = scale * (t[:, 0] + params.eps**2 * t[:, 1])
    coef = t[:, 1:]  # corner, (a, b, d, e, g, h), face, point
    coef *= np.stack([scale, scale * L1, scale * L2,
                      scale * L1**2, scale * (L1 * L2), scale * L2**2])
    v, w = _columns(frame.vhat), _columns(frame.what)
    pqr = np.empty((3, 3) + x0.shape, dtype=x0.dtype)
    for row, (i0, i1, i2) in enumerate(_PQR_ENTRIES):
        out = pqr[:, row]
        np.multiply(coef[:, i0, None], x0, out=out)
        out += coef[:, i1, None] * v
        out += coef[:, i2, None] * w
    return c, x0, v, w, pqr


def _velocity_blocks(xf, frame: TriangleFrame, params: KernelParams):
    """Per corner, face and point the 3x3 matrix M_k with u = M_0 f_0 +
    M_1 f_1 + M_2 f_2, shape (3, 3, 3, F, M): corner, velocity component,
    force component, face, point."""
    c, x0, v, w, pqr = _corner_terms(xf, frame, params)
    blocks = np.empty_like(pqr)
    for i in range(3):
        row = blocks[:, i]  # velocity component i: corner, j, face, point
        np.multiply(x0[i], pqr[:, 0], out=row)
        row += v[i] * pqr[:, 1]
        row += w[i] * pqr[:, 2]
        row[:, i] += c
    return blocks


def triangle_velocity(xf, frame: TriangleFrame, f0, f1, f2, params: KernelParams):
    """Velocity at xf induced by the linear force density (f0, f1, f2) on
    a one-face frame."""
    M = _velocity_blocks(np.asarray(xf, dtype=float)[None, :], frame, params)[..., 0, 0]
    return (
        M[0] @ np.asarray(f0, dtype=float)
        + M[1] @ np.asarray(f1, dtype=float)
        + M[2] @ np.asarray(f2, dtype=float)
    )
