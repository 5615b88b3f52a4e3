import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latspec.conformal import dist_to_band, lambda_of_z, z_of_lambda
from latspec.determinant import circle_grid


def _disc_points():
    return st.tuples(
        st.floats(min_value=1e-3, max_value=0.999),
        st.floats(min_value=0.0, max_value=2.0 * math.pi),
    ).map(lambda rt: rt[0] * cmath.exp(1j * rt[1]))


@settings(max_examples=200, deadline=None)
@given(_disc_points(), st.integers(min_value=1, max_value=4))
def test_map_is_inverse_pair(z, d):
    lam = lambda_of_z(z, d)
    assert abs(z_of_lambda(lam, d) - z) <= 1e-9 * max(1.0, abs(z))


@settings(max_examples=200, deadline=None)
@given(_disc_points(), st.integers(min_value=1, max_value=4))
def test_image_avoids_band(z, d):
    lam = lambda_of_z(z, d)
    if abs(lam.imag) < 1e-12:
        assert abs(lam.real) >= d - 1e-9


@settings(max_examples=300, deadline=None)
@given(_disc_points(), st.integers(min_value=1, max_value=4))
def test_map_is_exactly_odd_and_conjugate_equivariant(z, d):
    # bitwise, in IEEE arithmetic: mirrored sample points of the disc
    # circles must map to exact mirror images, which the Green memo folds
    lam = lambda_of_z(z, d)
    assert lambda_of_z(-z, d) == -lam
    assert lambda_of_z(z.conjugate(), d) == lam.conjugate()
    assert lambda_of_z(-z.conjugate(), d) == -lam.conjugate()


def test_z_of_lambda_lands_inside_disc():
    for lam in (3.2, -4.0, 1.0 + 0.5j, -2.0 - 0.3j, 17.0 + 0j):
        z = z_of_lambda(lam, 3)
        assert abs(z) < 1.0
        assert lambda_of_z(z, 3) == pytest.approx(lam, rel=1e-12)


def test_z_of_lambda_on_band_two_sides():
    # approaching the open band from above/below gives conjugate points next
    # to the unit circle: lam + i0 lands in the lower half disc, at
    # e^(-it) with d cos t = lam; the band itself is refused
    d = 3
    up = z_of_lambda(1.0 + 1e-12j, d)
    dn = z_of_lambda(1.0 - 1e-12j, d)
    assert up == pytest.approx(dn.conjugate(), rel=1e-6)
    assert abs(up) == pytest.approx(1.0, abs=1e-9) and up.imag < 0.0
    assert up == pytest.approx(cmath.exp(-1j * math.acos(1.0 / d)), abs=1e-6)
    with pytest.raises(ValueError, match="lies on the band"):
        z_of_lambda(1.0, d)

def test_dist_to_band():
    assert dist_to_band(3.5, 3) == pytest.approx(0.5, abs=1e-14)
    assert dist_to_band(-4.0, 3) == pytest.approx(1.0, abs=1e-14)
    assert dist_to_band(0.0 + 2.0j, 3) == pytest.approx(2.0, abs=1e-14)
    assert dist_to_band(1.0, 3) == 0.0
    assert dist_to_band(4.0 + 3.0j, 3) == pytest.approx(math.hypot(1.0, 3.0), abs=1e-12)


def test_joukowski_circle_to_ellipse():
    # |z| = r maps onto an ellipse with semi-axes (d/2)(1/r +- r)
    d, r = 3, 0.5
    t = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    lam = np.array([lambda_of_z(r * cmath.exp(1j * tk), d) for tk in t])
    a = 0.5 * d * (1.0 / r + r)
    b = 0.5 * d * (1.0 / r - r)
    assert np.max(np.abs((lam.real / a) ** 2 + (lam.imag / b) ** 2 - 1.0)) < 1e-12


def _bits(x):
    # IEEE bit patterns, so that -0.0 and 0.0 differ
    return np.asarray(x, dtype=complex).view(np.uint64)


def _map_points():
    pts = [circle_grid(r, 256) for r in (1e-3, 0.5, 0.95, 0.999)]
    # both axes, both signs, both signs of the zero part
    for x in (1e-3, 0.3, 0.5, 0.999):
        for s in (1.0, -1.0):
            for zero in (0.0, -0.0):
                pts.append(np.array([complex(s * x, zero), complex(zero, s * x)]))
    rng = np.random.default_rng(2024)
    r, t = rng.uniform(1e-3, 0.999, 2000), rng.uniform(0.0, 2.0 * math.pi, 2000)
    pts.append(r * np.exp(1j * t))
    pts.append(rng.uniform(-0.7, 0.7, 500) + 1j * rng.uniform(-0.7, 0.7, 500))
    return np.concatenate(pts)


def test_array_map_is_bitwise_the_pointwise_and_python_forms():
    # lambda_of_z and dist_to_band on an array against each point alone and
    # against the Python forms 0.5*d*(z + 1/z) and |lam - clip(Re lam)|,
    # bit for bit with the sign of zero
    z = _map_points()
    for d in (1, 2, 3, 4):
        lam = lambda_of_z(z, d)
        assert np.array_equal(_bits(lam), _bits([lambda_of_z(p, d) for p in z.tolist()]))
        assert np.array_equal(_bits(lam), _bits([0.5 * d * (p + 1 / p) for p in z.tolist()]))
        dist = dist_to_band(lam, d)
        python = [abs(x - min(max(x.real, -float(d)), float(d))) for x in lam.tolist()]
        assert np.array_equal(dist.view(np.uint64), np.array(python).view(np.uint64))
        assert np.array_equal(dist, [dist_to_band(x, d) for x in lam.tolist()])
        # mirrored points map to exact mirror images, up to the sign of a
        # zero part (as in the Python form), which the memo's image ignores
        assert np.array_equal(lambda_of_z(-z, d), -lam)
        assert np.array_equal(lambda_of_z(z.conj(), d), lam.conj())
        assert np.array_equal(lambda_of_z(-z.conj(), d), -lam.conj())
    assert type(lambda_of_z(0.3 + 0.1j, 3)) is complex
    assert type(dist_to_band(4.0, 3)) is float


def test_array_map_refuses_like_a_point():
    with pytest.raises(ZeroDivisionError):
        lambda_of_z(np.array([0.5, 0.0]), 3)
    with pytest.raises(ValueError, match="1.5 >= 1"):
        lambda_of_z(np.array([0.5, 1.5j]), 3)
    with pytest.raises(TypeError):
        dist_to_band(np.array([4.0]), 3.0)


def test_inverse_map_on_arrays_is_bitwise_pointwise():
    # z_of_lambda on an array against each point alone (bit for bit, sign
    # of zero included) and as the inverse of lambda_of_z
    z = _map_points()
    for d in (1, 2, 3, 4):
        lam = lambda_of_z(z, d)
        back = z_of_lambda(lam, d)
        assert np.array_equal(_bits(back), _bits([z_of_lambda(p, d) for p in lam.tolist()]))
        assert np.abs(back - z).max() <= 1e-9
    assert type(z_of_lambda(4.0 - 1.0j, 3)) is complex


def test_inverse_map_on_arrays_refuses_like_a_point():
    with pytest.raises(ValueError, match=r"lambda=\(1\+0j\) lies on the band"):
        z_of_lambda(np.array([5.0, 1.0, 2.0]), 3)
    with pytest.raises(TypeError):
        z_of_lambda(np.array([5.0]), 3.0)
