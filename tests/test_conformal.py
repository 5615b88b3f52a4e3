import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latspec.conformal import dist_to_band, lambda_of_z, z_of_lambda


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
    # approaching the open band from above/below gives conjugate points on
    # the unit circle, and the one-sided limits pick them: lam + i0 lands
    # in the lower half disc
    d = 3
    up = z_of_lambda(1.0 + 1e-12j, d, side="auto")
    dn = z_of_lambda(1.0 - 1e-12j, d, side="auto")
    assert up == pytest.approx(dn.conjugate(), rel=1e-6)
    plus = z_of_lambda(1.0, d, side="plus")
    minus = z_of_lambda(1.0, d, side="minus")
    assert plus == pytest.approx(minus.conjugate(), rel=1e-12)
    assert abs(plus) == pytest.approx(1.0, abs=1e-15) and plus.imag < 0.0
    assert plus == pytest.approx(up, abs=1e-6)

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
