import numpy as np
import pytest
from scipy.integrate import dblquad

from stokeslet_surfaces import (
    flux_without_cube,
    l2_error,
    pipe_reference,
    sphere_rotation_reference,
    sphere_translation_reference,
    spheroid_net_torque,
    spheroid_rotation_reference,
    squirmer_slip,
)
from stokeslet_surfaces.studies import B1


def test_l2_error_basics():
    assert l2_error([5.0]) == 5.0
    assert l2_error([3.0, 4.0]) == pytest.approx(np.sqrt(12.5))
    assert l2_error(np.zeros(7)) == 0.0
    with pytest.raises(ValueError):
        l2_error([])


def test_sphere_translation_surface_and_far_field():
    U = np.array([1.0, 0.0, 0.0])
    traction, u = sphere_translation_reference([0.0, 1.0, 0.0], 1.0, U, 1.0)
    assert np.allclose(u, U)  # no-slip on the surface
    assert np.allclose(traction, [1.5, 0.0, 0.0])
    # decays like 1/r
    _, far = sphere_translation_reference([200.0, 0.0, 0.0], 1.0, U, 1.0)
    assert np.linalg.norm(far) == pytest.approx(3.0 / (2 * 200.0), rel=1e-3)


def test_sphere_translation_net_force():
    # total of the constant density over the sphere is the Stokes drag scale
    traction, _ = sphere_translation_reference([1.0, 0, 0], 1.0, [1.0, 0, 0], 1.0)
    total = 4.0 * np.pi * traction
    assert np.allclose(total, [6.0 * np.pi, 0.0, 0.0])


def test_sphere_rotation_surface_and_poles():
    Om = np.array([0.0, 0.0, 1.0])
    x = np.array([1.0, 0.0, 0.0])
    traction, u = sphere_rotation_reference(x, 1.0, Om, 1.0)
    assert np.allclose(u, np.cross(Om, x))
    assert np.allclose(traction, 3.0 * np.cross(Om, x))
    tp, up = sphere_rotation_reference([0.0, 0.0, 1.0], 1.0, Om, 1.0)
    assert np.allclose(tp, 0.0) and np.allclose(up, 0.0)


def test_sphere_rotation_at_one_point_is_its_row_of_an_array_call():
    # the benchmark's field evaluation calls the reference point by point
    rng = np.random.default_rng(11)
    x = rng.normal(size=(40, 3)) * rng.uniform(0.5, 5.0, size=(40, 1))
    Om = rng.normal(size=3)
    tractions, velocities = sphere_rotation_reference(x, 1.3, Om, 0.7)
    for p, traction, u in zip(x, tractions, velocities):
        one = sphere_rotation_reference(p, 1.3, Om, 0.7)
        assert one[0].shape == one[1].shape == (3,)
        assert np.array_equal(one[0], traction) and np.array_equal(one[1], u)


@pytest.mark.parametrize("x, Om", [([1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 1.0]),
                                   ([[1.0, 2.0, 3.0, 4.0]] * 2, [0.0, 0.0, 1.0]),
                                   ([1.0, 2.0, 3.0], [0.0, 0.0, 1.0, 0.0]),
                                   ([1.0, 2.0], [0.0, 0.0, 1.0])])
def test_sphere_rotation_rejects_vectors_not_of_length_3(x, Om):
    with pytest.raises(ValueError, match="3-vectors"):
        sphere_rotation_reference(x, 1.0, Om, 1.0)


def test_sphere_rotation_magnitude():
    rng = np.random.default_rng(0)
    v = rng.normal(size=3)
    x = v / np.linalg.norm(v)
    sinphi = np.sqrt(1.0 - x[2] ** 2)
    traction, _ = sphere_rotation_reference(x, 1.0, [0, 0, 1.0], 1.0)
    assert np.linalg.norm(traction) == pytest.approx(3.0 * sinphi, rel=1e-12)


@pytest.mark.parametrize("reference", [sphere_translation_reference,
                                       sphere_rotation_reference])
@pytest.mark.parametrize("a", [0.0, -1.0, np.inf, np.nan])
def test_sphere_radius_must_be_positive_and_finite(reference, a):
    with pytest.raises(ValueError, match="radius"):
        reference([1.0, 0.0, 0.0], a, [1.0, 0.0, 0.0], 1.0)


@pytest.mark.parametrize("name", ["a", "b", "mu"])
@pytest.mark.parametrize("value", [0.0, -1.0, np.inf, np.nan])
def test_duct_size_and_viscosity_must_be_positive_and_finite(name, value):
    sizes = {"a": 1.0, "b": 1.0, "mu": 1.0, name: value}
    a, b, mu = sizes["a"], sizes["b"], sizes["mu"]
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
        pipe_reference(0.1, 0.2, a, b, 1.0, mu)
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
        flux_without_cube(0.25, a, b, 1.0, mu)


def test_spheroid_torque_independent_evaluation():
    a, b, mu = 3.0, 1.0, 1.0
    e = np.sqrt(a**2 - b**2) / a
    assert e == pytest.approx(np.sqrt(8.0) / 3.0)
    bracket = 2.0 * e / (1.0 - e**2) - np.log((1.0 + e) / (1.0 - e))
    beta0 = a**2 * e**2 / bracket
    M = spheroid_net_torque(a, b, mu)
    assert M[2] == pytest.approx(-(32.0 / 3.0) * np.pi * mu * a * e * beta0, rel=1e-13)
    assert M[0] == M[1] == 0.0


def test_spheroid_traction_poles_vanish():
    traction, _ = spheroid_rotation_reference([0.0, 0.0, 3.0], 3.0, 1.0, 1.0)
    assert np.allclose(traction, 0.0)


def test_spheroid_requires_prolate():
    with pytest.raises(ValueError):
        spheroid_net_torque(1.0, 1.0, 1.0)


def test_point_arrays_match_single_points():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(6, 3))
    theta, phi = rng.uniform(0.0, np.pi, size=(2, 6))

    def evaluate(x, th, ph):
        return {
            "translate": sphere_translation_reference(x, 1.0, [1.0, 0.2, 0.0], 1.3),
            "rotate": sphere_rotation_reference(x, 1.0, [0.0, 0.3, 1.0], 1.3),
            "spheroid": spheroid_rotation_reference(x, 3.0, 1.0, 1.3)[:1],
            "slip": (squirmer_slip(th, ph, 1.2),),
        }

    batch = evaluate(pts, theta, phi)
    for i in range(6):
        for key, single in evaluate(pts[i], theta[i], phi[i]).items():
            for got, expect in zip(batch[key], single):
                assert expect.shape == (3,), key
                assert np.allclose(got[i], expect, rtol=1e-14, atol=0), key


def test_squirmer_slip_poles_and_direction():
    assert np.allclose(squirmer_slip(0.0, 0.3, B1), 0.0)
    s = squirmer_slip(np.pi / 2, 0.0, B1)
    assert np.allclose(s, [0.0, 0.0, -B1])  # tangential, toward the south pole


def test_pipe_reference_wall_and_truncation():
    # walls vanish up to the alternating-series truncation level (~5e-7)
    assert abs(pipe_reference(1.0, 0.3, 1, 1, 1, 1)) < 1e-6
    assert abs(pipe_reference(-1.0, -0.8, 1, 1, 1, 1)) < 1e-6
    assert abs(pipe_reference(0.5, 1.0, 1, 1, 1, 1)) < 1e-6


def test_pipe_reference_matches_finite_difference_poisson():
    # independent oracle: 5-point Laplacian on the square cross-section
    from scipy.sparse import diags, identity, kron
    from scipy.sparse.linalg import spsolve

    N = 201
    h = 2.0 / (N - 1)
    m = N - 2
    T = diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(m, m)) / h**2
    A = kron(identity(m), T) + kron(T, identity(m))
    u = spsolve(A.tocsr(), -np.ones(m * m))
    center_fd = u.reshape(m, m)[m // 2, m // 2]
    assert pipe_reference(0.0, 0.0, 1, 1, 1, 1) == pytest.approx(center_fd, abs=1e-5)


def test_flux_without_cube_matches_quadrature():
    s = 0.25
    val = flux_without_cube(s, 1.0, 1.0, 1.0, 1.0)
    num, _ = dblquad(
        lambda z, y: pipe_reference(y, z, 1.0, 1.0, 1.0, 1.0),
        -s, s, -s, s, epsabs=1e-12, epsrel=1e-12,
    )
    assert val == pytest.approx(num, abs=1e-8)
