"""Analytic integration of the regularized Stokeslet kernel over triangles.

The velocity induced at a field point by a linearly varying force density on
a flat triangle reduces to a 13-term sum of moment integrals

    T[m, n, q] = integral over {0 <= beta <= alpha <= 1} of
                 alpha**m * beta**n / R**q,   R**2 = |xf - y(alpha, beta)|**2 + eps**2

with q in {1, 3} and m + n <= q. The two scalar base cases T[0,0,1] and
T[0,0,3] come from contour integrals around the triangle; every other entry
follows from index recursions driven by closed-form line-segment integrals
along the three sides.

All functions here are pure and vectorized over a batch of field points;
`t_table` and `triangle_velocity` evaluate one point through the same path
that assembly uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FloatingFloorError
from .geometry import TriangleFrame, TriMesh

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
    """Regularized Stokeslet matrix S for a point force at y, evaluated at x."""
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    r2 = d @ d + params.eps**2
    r = np.sqrt(r2)
    r3 = r2 * r
    return (1.0 / r + params.eps**2 / r3) * np.eye(3) + np.outer(d, d) / r3


# ---------------------------------------------------------------------------
# line-segment integrals S[m, q] = int_0^1 theta**m * R**(-q) dtheta, q = -1, 1


def _guarded_atanh(u):
    """arctanh with the near-unity clamp that signals a regularization floor."""
    mag = np.abs(u)
    if np.any(mag - _ATANH_LIMIT > 1e-9):
        raise FloatingFloorError(
            "arctanh argument degenerated; eps is below the admissible floor"
        )
    return np.arctanh(np.clip(u, -_ATANH_LIMIT, _ATANH_LIMIT))


def _segment_tables(xf, a, b, eps, with_s1m1=False):
    """Closed-form segment integrals for the segment traversed from a to b.

    xf has shape (M, 3). Returns a dict holding L, the projections and
    endpoint R values used by callers, and the integral entries keyed by
    (m, q). The direction convention has ell pointing from the theta = 1
    endpoint (b) back to the theta = 0 endpoint (a).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    L = float(np.linalg.norm(b - a))
    if L == 0.0:
        raise ValueError("zero-length segment")
    ell = (a - b) / L
    x0 = xf - a
    x1 = xf - b
    u0 = x0 @ ell
    u1 = u0 + L
    R0 = np.sqrt(np.einsum("ij,ij->i", x0, x0) + eps * eps)
    R1 = np.sqrt(np.einsum("ij,ij->i", x1, x1) + eps * eps)
    # squared distance from the segment line plus eps^2; >= eps^2 > 0
    c2 = np.maximum(R0 * R0 - u0 * u0, eps * eps)
    # stable log argument u + R = c2 / (R - u) when u < 0
    la0 = np.where(u0 < 0.0, c2 / (R0 - u0), u0 + R0)
    la1 = np.where(u1 < 0.0, c2 / (R1 - u1), u1 + R1)
    s0m1 = ((u1 * R1 + c2 * np.log(la1)) - (u0 * R0 + c2 * np.log(la0))) / (2.0 * L)
    s0p1 = (_guarded_atanh(u1 / R1) - _guarded_atanh(u0 / R0)) / L
    s1p1 = (R1 - R0) / L**2 - (u0 / L) * s0p1
    s2p1 = R1 / L**2 - s0m1 / L**2 - (u0 / L) * s1p1
    out = {
        "L": L,
        "u0": u0,
        "R0": R0,
        "R1": R1,
        (0, -1): s0m1,
        (0, 1): s0p1,
        (1, 1): s1p1,
        (2, 1): s2p1,
    }
    if with_s1m1:
        out[(1, -1)] = (R1**3 - R0**3) / (3.0 * L**2) - (u0 / L) * s0m1
    return out


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
# contour base cases T[0,0,3] and T[0,0,1]


def _side_geometry(frame: TriangleFrame):
    """Per-side (start, end, opposite) vertex triples in traversal order."""
    return (
        (frame.y0, frame.y1, frame.y2),
        (frame.y1, frame.y2, frame.y0),
        (frame.y2, frame.y0, frame.y1),
    )


def _t003_arrays(xf, frame: TriangleFrame, eps: float):
    """Parameter-space T[0,0,3] for a batch of field points, shape (M,)."""
    z0 = (xf - frame.y0) @ frame.nhat
    gamma = np.sqrt(z0 * z0 + eps * eps)
    total = np.zeros(len(xf))
    for ya, yb, yc in _side_geometry(frame):
        L = float(np.linalg.norm(ya - yb))
        e = (ya - yb) / L
        n_side = np.cross(e, frame.nhat)
        if n_side @ (yc - ya) > 0:
            n_side = -n_side
        x0 = xf - ya
        x0n = x0 @ n_side
        x0v = x0 @ e
        P = x0v / L
        gL = gamma / L
        Qsq = (x0n / L) ** 2 + gL * gL
        Q = np.sqrt(Qsq)
        # 1 - gamma/(L*Q) computed through the stable difference of squares
        one_m_g = (x0n / L) ** 2 / (Qsq + Q * gL)
        one_p_g = 1.0 + gL / Q
        s = np.sqrt(one_m_g / one_p_g)
        r1 = np.tan(0.5 * np.arctan(np.abs(P) / Q))
        r2 = np.tan(0.5 * np.arctan(np.abs(1.0 + P) / Q))

        def atan_term(r, s=s):
            # arctan(r*s)/s, continuous through s -> 0
            return np.where(s > 1e-150, np.arctan(r * s) / np.where(s > 0, s, 1.0), r)

        sgn1 = np.where(P >= 0.0, -1.0, 1.0)
        sgn2 = np.where(P <= -1.0, -1.0, 1.0)
        integral = (2.0 / (Q * one_p_g)) * (sgn2 * atan_term(r2) + sgn1 * atan_term(r1))
        contrib = -(x0n / (gamma * L)) * integral
        total += np.where(np.abs(x0n) < _SIDE_SKIP_REL * L, 0.0, contrib)
    return total / frame.BH, gamma


def _t001_arrays(xf, frame: TriangleFrame, eps: float, t003_param, gamma, side_s0p1):
    """Parameter-space T[0,0,1]; reuses segment S[0,1] values for the sides."""
    contour = np.zeros(len(xf))
    for (ya, yb, yc), s0p1 in zip(_side_geometry(frame), side_s0p1):
        L = float(np.linalg.norm(ya - yb))
        e = (ya - yb) / L
        n_side = np.cross(e, frame.nhat)
        if n_side @ (yc - ya) > 0:
            n_side = -n_side
        x0n = (xf - ya) @ n_side
        contrib = -x0n * L * s0p1
        contour += np.where(np.abs(x0n) < _SIDE_SKIP_REL * L, 0.0, contrib)
    return (contour - gamma * gamma * frame.BH * t003_param) / frame.BH


# ---------------------------------------------------------------------------
# full T table via the index recursions


def _t_table_arrays(xf, frame: TriangleFrame, eps: float) -> dict:
    """All 13 T integrals for a batch of field points; values shaped (M,)."""
    seg1 = _segment_tables(xf, frame.y0, frame.y1, eps)  # e1
    seg2 = _segment_tables(xf, frame.y1, frame.y2, eps)  # e2
    seg3 = _segment_tables(xf, frame.y2, frame.y0, eps)  # d

    T003, gamma = _t003_arrays(xf, frame, eps)
    T001 = _t001_arrays(
        xf, frame, eps, T003, gamma, [seg1[(0, 1)], seg2[(0, 1)], seg3[(0, 1)]]
    )

    L1, L2 = frame.L1, frame.L2
    c = float(frame.vhat @ frame.what)
    denom = c * c - 1.0
    x0 = xf - frame.y0
    x0v = x0 @ frame.vhat
    x0w = x0 @ frame.what
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

    return {
        (0, 0, 1): T001, (0, 0, 3): T003,
        (1, 0, 1): T101, (1, 0, 3): T103,
        (0, 1, 1): T011, (0, 1, 3): T013,
        (2, 0, 3): T203, (1, 1, 3): T113, (0, 2, 3): T023,
        (3, 0, 3): T303, (2, 1, 3): T213, (1, 2, 3): T123, (0, 3, 3): T033,
    }


def t_table(xf, frame: TriangleFrame, eps: float) -> dict:
    """All 13 moment integrals for one field point, keyed by (m, n, q)."""
    arrays = _t_table_arrays(np.asarray(xf, dtype=float)[None, :], frame, eps)
    return {k: float(v[0]) for k, v in arrays.items()}


# ---------------------------------------------------------------------------
# the velocity formula as 3x3 blocks acting on the vertex forces


def _velocity_blocks(xf, frame: TriangleFrame, params: KernelParams):
    """Per-point 3x3 matrices (M0, M1, M2) with u = M0 f0 + M1 f1 + M2 f2.

    xf has shape (M, 3); each output has shape (M, 3, 3). The 1/(8 pi mu)
    prefactor and the area Jacobian are included.
    """
    T = _t_table_arrays(xf, frame, params.eps)
    eps2 = params.eps**2
    v, w = frame.vhat, frame.what
    L1, L2 = frame.L1, frame.L2
    x0 = xf - frame.y0  # (M, 3)
    eye = np.eye(3)
    E = eps2 * eye + x0[:, :, None] * x0[:, None, :]
    Xv = x0[:, :, None] * v[None, None, :] + v[None, :, None] * x0[:, None, :]
    Xw = x0[:, :, None] * w[None, None, :] + w[None, :, None] * x0[:, None, :]
    Vv = np.outer(v, v)
    Ww = np.outer(w, w)
    Vw = np.outer(v, w) + np.outer(w, v)

    def combo(t1, tE, tXv, tXw, tVv, tVw, tWw):
        out = t1[:, None, None] * eye
        out += tE[:, None, None] * E
        out += (L1 * tXv)[:, None, None] * Xv
        out += (L2 * tXw)[:, None, None] * Xw
        out += (L1**2 * tVv)[:, None, None] * Vv
        out += (L1 * L2 * tVw)[:, None, None] * Vw
        out += (L2**2 * tWw)[:, None, None] * Ww
        return out

    A_f0 = combo(T[(0, 0, 1)], T[(0, 0, 3)], T[(1, 0, 3)], T[(0, 1, 3)],
                 T[(2, 0, 3)], T[(1, 1, 3)], T[(0, 2, 3)])
    A_fa = combo(T[(1, 0, 1)], T[(1, 0, 3)], T[(2, 0, 3)], T[(1, 1, 3)],
                 T[(3, 0, 3)], T[(2, 1, 3)], T[(1, 2, 3)])
    A_fb = combo(T[(0, 1, 1)], T[(0, 1, 3)], T[(1, 1, 3)], T[(0, 2, 3)],
                 T[(2, 1, 3)], T[(1, 2, 3)], T[(0, 3, 3)])
    scale = frame.BH / (8.0 * np.pi * params.mu)
    M0 = scale * (A_f0 - A_fa)
    M1 = scale * (A_fa - A_fb)
    M2 = scale * A_fb
    return M0, M1, M2


def triangle_velocity(xf, frame: TriangleFrame, f0, f1, f2, params: KernelParams):
    """Velocity at xf induced by the linear force density (f0, f1, f2)."""
    M0, M1, M2 = _velocity_blocks(np.asarray(xf, dtype=float)[None, :], frame, params)
    return (
        M0[0] @ np.asarray(f0, dtype=float)
        + M1[0] @ np.asarray(f1, dtype=float)
        + M2[0] @ np.asarray(f2, dtype=float)
    )
