"""Analytic integration of the regularized Stokeslet kernel over triangles.

The velocity induced at a field point by a linearly varying force density on
a flat triangle reduces to a 13-term sum of moment integrals

    T[m, n, q] = integral over {0 <= beta <= alpha <= 1} of
                 alpha**m * beta**n / R**q,   R**2 = |xf - y(alpha, beta)|**2 + eps**2

with q in {1, 3} and m + n <= q. T[0,0,3] = Omega / (gamma BH), where Omega
is the solid angle that the triangle subtends from the field point lifted
to the height gamma = sqrt(z**2 + eps**2) above its plane; it takes the
one-arctan2 form of van Oosterom and Strackee (IEEE Trans. Biomed. Eng.
BME-30 (1983) 125-126). T[0,0,1] comes from a contour integral around the
triangle, and every other entry follows from index recursions driven by
closed-form line-segment integrals along the three sides (R. Cortez,
J. Comput. Phys. 375 (2018) 783-796).

The table is formed in two stages. The geometry stage (`_geometry`) forms
what does not depend on eps: the corner offsets xf - y_j, their squared
lengths and pairwise dot products, the squared height above the plane,
each side's ends along it and offset across it, and the index recursions'
coefficients. The regularization stage (`_t_table_arrays`) takes that
geometry and one eps, and takes all three sides in one pass over a stacked
side axis (`_sides`), which yields each side's segment integrals and its
term of the T[0,0,1] contour sum. These read the logarithms log(u + R) at
a side's two ends only through their difference, taken as
asinh(u1/c) - asinh(u0/c) with c the regularized distance from the side's
line, which cancels for neither sign of u. An evaluation over several eps
at the same points (`_velocity`) runs the geometry stage once and the
regularization stage once per eps. The side lengths, directions and
outward normals come with the frame. No array is divided by a per-face
one: the reciprocals of the side lengths, of BH and of the index
recursions' denominators are formed once per call and multiplied in.

All functions here are pure, apart from writing into arrays the caller
passes (below), and broadcast over a chunk of F faces (one
struct-of-arrays TriangleFrame) times a batch of M field points. Scalars
have shape (F, M) and vectors are component-major, (3, F, M), so that
every array operation runs over contiguous F*M runs. Each basis function's
block has rank-3 form about its own collocation point, the corner of a
linear hat or the centroid of a constant density, with coefficients
(`_basis_terms`) that assembly and forward evaluation share. Evaluation
(`_velocity`) contracts them with the forces into each face's velocity,
which the caller adds in face order, so that a point's velocity does not
depend on the other faces and points of its call. Assembly maps them in one
batched matmul to ten terms free of the offset x from the collocation
point (`_block_map`, `_velocity_blocks`), sums those over the faces around
each collocation point, and forms each unknown's block once a point
(`_form_blocks`); it runs one eps a call. Both element kinds take this
path; past the geometry stage, each stage reads the kind from the number
of basis functions. A call's largest arrays, the geometry among them, go
into a flat block (`_coefficient_block`) of one layout for both, that the
caller allocates once for all the calls of an assembly or an evaluation.
`t_table` and `triangle_velocity` evaluate one face at one point by
evaluation's path, after its floor check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FloatingFloorError
from .geometry import TriangleFrame, TriMesh, _require_positive, _row_dot

__all__ = [
    "KernelParams",
    "point_stokeslet",
    "t_table",
    "triangle_velocity",
    "epsilon_floor",
]


@dataclass(frozen=True)
class KernelParams:
    """Regularization length eps and dynamic viscosity mu."""

    eps: float
    mu: float = 1.0

    def __post_init__(self):
        _require_positive(eps=self.eps, mu=self.mu)

    def validate_for_mesh(self, mesh: TriMesh) -> None:
        _check_floor(self.eps, epsilon_floor(mesh))


def _frame_floor(frame: TriangleFrame) -> float:
    """Smallest admissible eps for a frame: sqrt of the ulp spacing at its
    longest side."""
    return float(np.sqrt(np.spacing(frame.side_L.max())))


def _check_floor(eps: float, floor: float) -> None:
    if eps <= floor:
        raise FloatingFloorError(
            f"eps = {eps:g} is at or below the floating-point floor "
            f"{floor:g} for this geometry (requires eps**2 > ulp spacing of "
            "the largest triangle side length)"
        )


def epsilon_floor(mesh: TriMesh) -> float:
    """Smallest admissible eps: sqrt of the ulp spacing at the longest side."""
    return _frame_floor(mesh.frames)


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
    return ((1.0 / r + eps2 / r3)[..., None, None] * np.eye(3)
            + d[..., :, None] * d[..., None, :] / r3[..., None, None])


# ---------------------------------------------------------------------------
# the eps-free stage: what the T table takes from the corner offsets alone


def _dot(a, b, out=None):
    """Dot products over the leading component axis of a and b, which
    broadcast against each other: (3, F, M) with (3, F, 1) gives (F, M),
    written into `out` if it is given."""
    if out is None:
        return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
    np.multiply(a[0], b[0], out=out)
    out += a[1] * b[1]
    out += a[2] * b[2]
    return out


def _columns(rows):
    """Per-face vectors of shape (F, 3) as component-major (3, F, 1)."""
    return rows.T[:, :, None]


# values a face-point pair holds in the eps-free stage: the corner offsets
# (9), |x_j|^2 (3), z0^2 (1), each side's u0, u1 and xn (9), x_i . x_j (3),
# cv and cw (2)
_GEOMETRY = 27


@dataclass(frozen=True)
class _Geometry:
    """The eps-free stage of a kernel call on F faces and M field points.

    Per pair, shape (F, M), or (3, F, M) with corner or side s first (side
    s runs from corner s to corner s + 1 mod 3): x, the offsets of the basis
    functions' collocation points (K, 3, F, M), which are the corner offsets
    xf - y_j for the linear hats; r2 = |xf - y_j|^2; z0sq, the squared
    height above the plane; u0 and u1 = u0 + L, each side's ends along its
    unit vector; xn, the offset along the side's inward normal; dots, the
    corner offsets' x0 . x1, x0 . x2 and x1 . x2; and cv, cw, the index
    recursions' coefficients of T[m, n, q]. Per face: inv_L, inv_Lsq (3, F,
    1), 1/BH, BH (F, 1) and the recursions' k11, k22, k12. t is room for
    the seven coefficients of each basis function (K, 7, F, M), which each
    eps of the call rewrites (`_basis_terms`).
    """

    t: np.ndarray
    x: np.ndarray
    r2: np.ndarray
    z0sq: np.ndarray
    u0: np.ndarray
    u1: np.ndarray
    xn: np.ndarray
    dots: np.ndarray
    cv: np.ndarray
    cw: np.ndarray
    inv_L: np.ndarray
    inv_Lsq: np.ndarray
    BH: np.ndarray
    inv_BH: np.ndarray
    k11: np.ndarray
    k22: np.ndarray
    k12: np.ndarray


def _geometry(xf, frame: TriangleFrame, constant=False, block=None) -> _Geometry:
    """The eps-free stage for F faces and the M field points xf, shape
    (M, 3), written into `block` (from `_coefficient_block`) after the
    coefficients' room of 21 values a pair, or into a new block. With
    `constant`, t is room for one basis function, and x holds the offsets
    from the centroids, which replace the corner ones once they are used."""
    K, F, M = 1 if constant else 3, len(frame.BH), len(xf)
    if block is None:
        block = _coefficient_block(F * M, np.result_type(xf, frame.y0))
    n = F * M
    t = block[:7 * K * n].reshape(K, 7, F, M)
    pair = block[21 * n:(21 + _GEOMETRY) * n].reshape(_GEOMETRY, F, M)
    x, r2, z0sq = pair[:9].reshape(3, 3, F, M), pair[9:12], pair[12]
    u0, u1, xn, dots, cv, cw = (pair[13:16], pair[16:19], pair[19:22], pair[22:25],
                                pair[25], pair[26])

    corners = np.stack([_columns(y) for y in (frame.y0, frame.y1, frame.y2)])
    # corner, xyz, face, point; the points are copied component-major
    # first: at M = 6000 the broadcast subtraction from the strided xf.T
    # takes about five times as long as the copy and subtraction together
    np.subtract(np.ascontiguousarray(xf.T)[None, :, None, :], corners, out=x)
    xs = x.swapaxes(0, 1)  # xyz, corner (= side), face, point
    _dot(xs, xs, out=r2)
    z0 = _dot(x[0], _columns(frame.nhat))
    np.multiply(z0, z0, out=z0sq)
    del z0
    # e runs from the theta = 1 endpoint (b) back to theta = 0 (a)
    L = frame.side_L.T[:, :, None]  # side, face, 1
    _dot(xs, frame.side_e.T[..., None], out=u0)
    np.add(u0, L, out=u1)
    _dot(xs, -frame.side_n.T[..., None], out=xn)
    for k, (i, j) in enumerate(((0, 1), (0, 2), (1, 2))):
        _dot(x[i], x[j], out=dots[k])

    # each index step divides by c^2 - 1 and by L1^2, L2^2 or L1 L2, all per
    # face: their reciprocals are formed once, k11 = 1 / (L1^2 (c^2 - 1)),
    # k22 = 1 / (L2^2 (c^2 - 1)) and k12 = c / (L1 L2 (c^2 - 1))
    L1, L2 = frame.side_L[:, 0, None], frame.side_L[:, 1, None]
    vhat, what = frame.side_e[:, 0], frame.side_e[:, 1]  # along y0 - y1, y1 - y2
    c = _row_dot(vhat[:, None], what)
    inv_denom = 1.0 / (c * c - 1.0)
    x0v, x0w = u0[0], _dot(x[0], _columns(what))
    np.multiply(x0v - c * x0w, inv_denom / L1, out=cv)
    np.multiply(x0w - c * x0v, inv_denom / L2, out=cw)
    del x0w

    if constant:  # the three hats sum to one: the f0 basis, about the centroid
        x = np.subtract(np.ascontiguousarray(xf.T)[:, None, :],
                        _columns(frame.centroids()), out=x[:1])
    inv_L = 1.0 / L
    BH = frame.BH[:, None]
    return _Geometry(t, x, r2, z0sq, u0, u1, xn, dots, cv, cw, inv_L, inv_L * inv_L,
                     BH, 1.0 / BH, inv_denom / L1**2, inv_denom / L2**2,
                     c * inv_denom / (L1 * L2))


# ---------------------------------------------------------------------------
# the regularization stage: one pass over the three sides, stacked on a
# leading side axis, gives the segment integrals
# S[m, q] = int_0^1 theta**m * R**(-q) dtheta, q = -1, 1, and each side's
# term of the T[0,0,1] contour; the index recursions give the rest


def _sides(g: _Geometry, R, eps):
    """Everything the T table needs from the three sides at one eps, from
    the geometry g and R[j] = sqrt(|xf - y_j|**2 + eps**2), shape (3, F, M).

    Returns (S, c001): S maps (m, q) to the segment integral S[m, q] along
    a -> b, and c001 is the side's term of the contour sum that gives the
    boundary part of BH * T[0,0,1], each of shape (3, F, M) with side s
    first.
    """
    R0, R1 = R, R[[1, 2, 0]]
    u0, u1, inv_L, inv_Lsq = g.u0, g.u1, g.inv_L, g.inv_Lsq
    # squared distance from the segment line plus eps^2; >= eps^2 > 0
    c2 = np.maximum(R0 * R0 - u0 * u0, eps * eps)
    # D = log(u1 + R1) - log(u0 + R0), the antiderivative of 1/R in u
    # between the ends, as asinh(u1 / c) - asinh(u0 / c): asinh is odd, so
    # neither end cancels whatever the sign of u, and no select is needed
    inv_c = 1.0 / np.sqrt(c2)
    D = np.arcsinh(u1 * inv_c) - np.arcsinh(u0 * inv_c)
    del inv_c
    s0m1 = (u1 * R1 - u0 * R0 + c2 * D) * (0.5 * inv_L)
    s0p1 = D * inv_L
    P = u0 * inv_L
    s1p1 = (R1 - R0) * inv_Lsq - P * s0p1
    s2p1 = (R1 - s0m1) * inv_Lsq - P * s1p1
    S = {(0, -1): s0m1, (0, 1): s0p1, (1, 1): s1p1, (2, 1): s2p1}
    return S, g.xn * D  # c001 = -xn L s0p1


def _reversed(d0, d1, d2):
    """Segment integrals S[j, q], j = 0, 1, 2, of a side run backwards, from
    its S[k, q] forwards: theta -> 1 - theta gives the alternating binomial
    sums sum_k C(j, k) (-1)**k S[k, q]."""
    return d0, d0 - d1, d0 - 2 * d1 + d2


def _t_table_arrays(g: _Geometry, eps: float):
    """All 13 T integrals at one eps from the geometry g, values (F, M); for
    the one basis function of a constant density (len(g.t) == 1), only the
    seven integrals it reads (`_BASIS_KEYS[0]`)."""
    constant = len(g.t) == 1
    eps2 = eps * eps
    R = np.sqrt(g.r2 + eps2)
    gamma = np.sqrt(g.z0sq + eps2)
    seg, c001 = _sides(g, R, eps)

    # seen from the point lifted to height gamma, the corners are
    # a_j = x_j + (gamma - z0) nhat, with |a_j| = R_j, a_i . a_j =
    # x_i . x_j + eps^2 and |a_0 . (a_1 x a_2)| = gamma BH, so that
    # tan(Omega / 2) = gamma BH / den
    gBH = gamma * g.BH
    x01, x02, x12 = g.dots
    den = (R[0] * R[1] * R[2] + (x01 + eps2) * R[2]
           + (x02 + eps2) * R[1] + (x12 + eps2) * R[0])
    Omega = 2.0 * np.arctan2(gBH, den)
    T003 = Omega / gBH
    T001 = (c001[0] + c001[1] + c001[2] - gamma * Omega) * g.inv_BH
    del Omega

    # contour integrals A and B from the sides e1 (y0 -> y1), e2 (y1 -> y2)
    # and d (y2 -> y0), with d' the side d run backwards: A[m, n] =
    # e2[n] - d'[m + n], B[m, 0] = d'[m] - e1[m], B[m, n] = d'[m + n]
    e1, e2, d = ([seg[(k, 1)][s] for k in range(3)] for s in range(3))
    d_rev = _reversed(*d)
    k11, k22, k12, cv, cw = g.k11, g.k22, g.k12, g.cv, g.cw

    def ab(m, n):
        return (e2[n] - d_rev[m + n],
                d_rev[m] - e1[m] if n == 0 else d_rev[m + n])

    T = {(0, 0, 1): T001, (0, 0, 3): T003}
    # first-index / second-index steps at q = 1 (boundary data at q = -1);
    # constant elements read no moment that needs them
    if not constant:
        s0m1 = seg[(0, -1)]
        A, B = s0m1[1] - s0m1[2], s0m1[2] - s0m1[0]
        T[1, 0, 1] = k12 * B - k11 * A + cv * T001
        T[0, 1, 1] = k12 * A - k22 * B + cw * T001

    # the same steps at q = 3 (boundary data at q = 1): T[m + 1, n, 3], or
    # T[m, n + 1, 3] if second, from T[m, n, 3], T[m - 1, n, 1] and
    # T[m, n - 1, 1]; a term with the factor m or n is left out where it is 0
    def step(m, n, second):
        A, B = ab(m, n)
        Tm1n, Tmn1, Tmn3 = T.get((m - 1, n, 1)), T.get((m, n - 1, 1)), T[m, n, 3]
        if second:  # the first-index step with the two indices swapped
            A, B, m, n, Tm1n, Tmn1 = B, A, n, m, Tmn1, Tm1n
        k, cx = (k22, cw) if second else (k11, cv)
        if m:
            A = A - (Tm1n if m == 1 else m * Tm1n)
        if n:
            B = B - (Tmn1 if n == 1 else n * Tmn1)
        return k * A - k12 * B + cx * Tmn3

    # the first five steps give every moment of order <= 2 at q = 3, the
    # last four the cubic ones, which only the linear density reads
    steps = ((0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1), (0, 1, 1),
             (2, 0, 0), (2, 0, 1), (1, 1, 1), (0, 2, 1))
    for m, n, second in steps[:5] if constant else steps:
        T[m + 1 - second, n + second, 3] = step(m, n, second)
    return T


def _one_point(xf, frame: TriangleFrame, eps: float):
    """xf as a (1, 3) batch in the frame's dtype, once eps passes the
    frame's floor check."""
    _check_floor(eps, _frame_floor(frame))
    return np.asarray(xf, dtype=frame.y0.dtype)[None, :]


def t_table(xf, frame: TriangleFrame, eps: float) -> dict:
    """All 13 moment integrals of a one-face frame at one field point."""
    xf = _one_point(xf, frame, eps)
    arrays = _t_table_arrays(_geometry(xf, frame), eps)
    return {k: float(v[0, 0]) for k, v in arrays.items()}


# ---------------------------------------------------------------------------
# the velocity formula in rank-3 form, each basis function's block taken
# about its own collocation point xc: u = M_k g_k with
# M_k = s (c_k I + [x_k v w] S_k [x_k v w]^T), x_k = xf - xc

# T keys of the seven coefficients (t1, tE, tXv, tXw, tVv, tVw, tWw) that the
# bases f0, fa = f1 - f0 and fb = f2 - f1 of the linear density carry in
#   t1 I + tE (eps^2 I + x0 x0^T) + tXv (x0 v^T + v x0^T)
#   + tXw (x0 w^T + w x0^T) + tVv v v^T + tVw (v w^T + w v^T) + tWw w w^T
# with the edges v = y0 - y1 and w = y1 - y2: xf - y = x0 + alpha v + beta w
_BASIS_KEYS = (
    ((0, 0, 1), (0, 0, 3), (1, 0, 3), (0, 1, 3), (2, 0, 3), (1, 1, 3), (0, 2, 3)),
    ((1, 0, 1), (1, 0, 3), (2, 0, 3), (1, 1, 3), (3, 0, 3), (2, 1, 3), (1, 2, 3)),
    ((0, 1, 1), (0, 1, 3), (1, 1, 3), (0, 2, 3), (2, 1, 3), (1, 2, 3), (0, 3, 3)),
)
# the symmetric S_k = [[tE, tXv, tXw], [tXv, tVv, tVw], [tXw, tVw, tWw]],
# stored as (tE, tXv, tXw, tVv, tVw, tWw): row i of S_k takes these entries
_S_ROWS = ((0, 1, 2), (1, 3, 4), (2, 4, 5))


def _shift(t, sigma, tau):
    """Move the coefficients t, shape (7, F, M), in place from moments about
    y0 to moments about xc = y0 + sigma (y1 - y0) + tau (y2 - y1): with
    x0 = (xf - xc) - (sigma v + tau w), alpha becomes alpha - sigma and
    beta becomes beta - tau in every moment. A unit factor costs no array
    operation, and a zero one skips its terms."""
    _, tE, tXv, tXw, tVv, tVw, tWw = t

    def times(k, a):
        return a if k == 1 else k * a

    # the quadratic moments first: they take the unshifted linear ones
    if sigma:
        tVv += times(sigma * sigma, tE) - times(2 * sigma, tXv)
        tVw -= times(sigma, tXw)
    if tau:
        tWw += times(tau * tau, tE) - times(2 * tau, tXw)
        tVw += times(sigma * tau, tE) - times(tau, tXv)
        tXw -= times(tau, tE)
    if sigma:
        tXv -= times(sigma, tE)


def _coefficient_block(num_pairs, dtype):
    """Flat room for a kernel call on up to num_pairs = F M face-point pairs,
    51 values a pair in one layout for either element kind: 21 for the
    coefficients t of up to three basis functions, shape (K, 7, F, M), then
    30 for the eps-free geometry (`_geometry`, 27 values a pair, the corner
    offsets among it) or the block terms of `_velocity_blocks` (10 K), which
    take the geometry's place once the coefficients are formed: a call's
    largest arrays. A caller that makes many calls passes one block to
    each, so that the calls do not give the heap back to the system and
    fault it in again (README, "Frames, kernel shapes and chunking")."""
    return np.empty((21 + max(_GEOMETRY, 30)) * num_pairs, dtype=dtype)


def _edges(frame: TriangleFrame, params: KernelParams):
    """The edges v = y0 - y1 and w = y1 - y2, shape (F, 3), and the area
    Jacobian BH times the prefactor 1/(8 pi mu), shape (F,)."""
    L = frame.side_L[:, :2, None]
    s = frame.BH / (8.0 * np.pi * params.mu)
    return L[:, 0] * frame.side_e[:, 0], L[:, 1] * frame.side_e[:, 1], s


def _basis_terms(g: _Geometry, eps: float):
    """Each basis function's seven coefficients (t1, tE, tXv, tXw, tVv, tVw,
    tWw) of the F faces at the M points of the geometry g (`_geometry`), at
    one eps, shape (K, 7, F, M), K = 3 or 1. With x = g.x[k] = xf - xc_k,
    the offset from the collocation point, and the edges v, w and scale s of
    `_edges`, basis k's block is M_k = s ((t1 + eps^2 tE) I + [x v w] S_k
    [x v w]^T), whose S_k has the last six coefficients as entries, in the
    order of _S_ROWS.

    The bases are the three corner hats of the linear density, each taken
    about its own corner, or the constant density of the face, taken about
    its centroid, as g holds room for three or one. t is written into g's
    room for it, so a call for the next eps of a sweep overwrites it.

    The T moments about corner 0 carry a large cancellation at eps << h.
    The shift to each collocation point takes it once, in coefficients that
    assembly and evaluation share, and at a collocation point x[k] is
    exactly 0, so assembled and evaluated velocities agree to rounding.
    """
    t = g.t
    T = _t_table_arrays(g, eps)
    if len(t) == 1:  # a constant density: the three hats sum to one, f0
        for i, key in enumerate(_BASIS_KEYS[0]):
            t[0, i] = T[key]
        shifts = ((2.0 / 3.0, 1.0 / 3.0),)  # the centroid
    else:
        for i, (key0, key_a, key_b) in enumerate(zip(*_BASIS_KEYS)):
            np.subtract(T[key0], T[key_a], out=t[0, i])
            np.subtract(T[key_a], T[key_b], out=t[1, i])
            t[2, i] = T[key_b]
        # corner k is y0 + sigma (y1 - y0) + tau (y2 - y1)
        shifts = ((0, 0), (1, 0), (1, 1))
    del T  # keeps the peak memory of a call down
    for tk, (sigma, tau) in zip(t, shifts):
        _shift(tk, sigma, tau)
    return t


# the entries (i, j), i <= j, of a symmetric 3x3 block, in the order of the
# six Q rows of the block terms; Q00, Q11 and Q22 are rows 4, 7 and 9
_UPPER = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


def _block_map(frame: TriangleFrame, params: KernelParams):
    """Per face the map G, shape (F, 10, 7), from a basis function's seven
    shifted coefficients (t1, tE, tXv, tXw, tVv, tVw, tWw) to the ten terms
    (E/2, a, Q) of its block about its collocation point,
    M = E x x^T + x a^T + a x^T + Q, with E = s tE, a = s (tXv v + tXw w) and
    Q = s ((t1 + eps^2 tE) I + tVv v v^T + tVw (v w^T + w v^T) + tWw w w^T)
    (the entries in the order of _UPPER). No term depends on x, which the
    faces around a collocation point share, so assembly adds the terms over
    those faces and forms each block once (`_form_blocks`)."""
    v, w, s = _edges(frame, params)
    i, j = np.array(_UPPER).T
    G = np.zeros((len(s), 10, 7), dtype=s.dtype)
    G[:, 0, 1] = 0.5
    G[:, 1:4, 2], G[:, 1:4, 3] = v, w
    G[:, 4:, 4:] = np.stack([v[:, i] * v[:, j], v[:, i] * w[:, j] + w[:, i] * v[:, j],
                             w[:, i] * w[:, j]], axis=2)
    G[:, [4, 7, 9], :2] = 1.0, params.eps**2
    return s[:, None, None] * G


def _velocity_blocks(xf, frame: TriangleFrame, params: KernelParams, G, constant, block):
    """The block terms of each basis function (the corners, or with
    `constant` the face), face and point, shape (K, F, 10, M), from the
    frame's G (`_block_map`), written into `block` (`_coefficient_block`)
    after the coefficients, where the geometry was. `bench/tracing.py`
    wraps `solver._velocity_blocks` by this name until the package emits
    its own spans (ROADMAP item 2)."""
    t = _basis_terms(_geometry(xf, frame, constant, block), params.eps)
    K, _, F, M = t.shape
    out = block[21 * F * M:(21 + 10 * K) * F * M].reshape(K, F, 10, M)
    return np.matmul(G, t.transpose(0, 2, 1, 3), out=out)


def _form_blocks(terms, xf, xc, out, scratch):
    """Write M_ij = x_i d_j + d_i x_j + Q_ij, d = a + (E/2) x, into out[i, j],
    shape (N, M), for N unknowns collocated at xc, shape (N, 3), at the M
    points xf, shape (M, 3), from their terms summed over their faces, shape
    (N, 10, M), which it uses up. The offsets x = xf - xc, 0 at an unknown's
    own point, and a temporary take the first 4 N M values of scratch."""
    N, M = len(xc), len(xf)
    x = np.subtract(xf.T[:, None], xc.T[:, :, None],
                    out=scratch[:3 * N * M].reshape(3, N, M))
    tmp = scratch[3 * N * M:4 * N * M].reshape(N, M)
    half_E, d, Q = terms[:, 0], terms[:, 1:4], terms[:, 4:]
    for j in range(3):
        d[:, j] += np.multiply(half_E, x[j], out=tmp)
    for r, (i, j) in enumerate(_UPPER):
        Mij = Q[:, r]
        Mij += np.multiply(x[i], d[:, j], out=tmp)
        Mij += np.multiply(d[:, i], x[j], out=tmp)
        out[i, j] = Mij
        if i != j:
            out[j, i] = Mij


def _contract(t, x, edges, forces, eps):
    """Velocity at the M points of each of the F faces, shape (3, F, M), from
    the coefficients t of `_basis_terms` at `eps`, the offsets x from the
    collocation points (the geometry's), the edges and scale of `_edges`,
    and the force of each face's basis functions, shape (F, K, 3).

    Each block is contracted with its scaled force g_k = s f_k before any
    3x3 entry is formed: with X = x_k . g_k, V = v . g_k and W = w . g_k,
    the rows of S_k (X, V, W) give P_k, Q_k and R_k, and
    u = sum over k of (c_k g_k + x_k P_k) + v sum Q_k + w sum R_k.
    """
    v, w, s = _columns(edges[0]), _columns(edges[1]), edges[2][:, None]
    c, S = t[:, 0] + eps**2 * t[:, 1], t[:, 1:]
    g = s * forces.transpose(1, 2, 0)[..., None]  # basis, xyz, face, 1
    X, V, W = (_dot(a, g.swapaxes(0, 1)) for a in (x.swapaxes(0, 1), v, w))
    P, Q, R = (S[:, i0] * X + S[:, i1] * V + S[:, i2] * W for i0, i1, i2 in _S_ROWS)
    u = v * Q.sum(axis=0)
    u += w * R.sum(axis=0)
    for k in range(len(x)):
        u += x[k] * P[k]
        u += c[k] * g[k]
    return u


def _velocity(xf, frame: TriangleFrame, forces, params, block=None):
    """Velocity at the M points xf of each of the F faces of the frame, for
    each of the E params of a sweep and its force of each face's basis
    functions, forces of shape (E, F, K, 3), K = 1 for constant elements: a
    list of E arrays of shape (3, F, M), which the caller adds over the
    faces in face order. The eps-free geometry is formed once, into `block`
    as `_geometry` takes it, and each params forms its coefficients from it
    and contracts them with its forces (`_contract`)."""
    g = _geometry(xf, frame, forces.shape[2] == 1, block)
    return [_contract(_basis_terms(g, kp.eps), g.x, _edges(frame, kp), basis_forces,
                      kp.eps) for basis_forces, kp in zip(forces, params)]


def triangle_velocity(xf, frame: TriangleFrame, f0, f1, f2, params: KernelParams):
    """Velocity at xf induced by the linear force density (f0, f1, f2) on
    a one-face frame."""
    forces = np.asarray([f0, f1, f2], dtype=float)[None, None]  # params, face, corner
    return _velocity(_one_point(xf, frame, params.eps), frame, forces, [params])[0][:, 0, 0]
