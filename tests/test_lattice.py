import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latspec.lattice import (
    MomentSet,
    Potential,
    brute_force_moments,
    quasi_norm,
    trace_moments,
    validate_dimension,
)


def test_validate_dimension():
    assert validate_dimension(3) == 3
    for bad in (0, -1, 2.5):
        with pytest.raises((ValueError, TypeError)):
            validate_dimension(bad)


def test_potential_drops_zero_entries_and_orders_support():
    V = Potential(2, [((1, 1), 0.0), ((0, 0), 2.0), ((-1, 3), 1j)])
    assert (1, 1) not in V.support
    assert V.support == tuple(sorted(V.support))
    assert V.as_dict()[(0, 0)] == 2.0


def test_potential_rejects_wrong_arity_sites():
    with pytest.raises(ValueError):
        Potential(3, [((0, 0), 1.0)])


def test_potential_duplicate_sites_rejected():
    with pytest.raises(ValueError):
        Potential(1, [((0,), 1.0), ((0,), 2.0)])


def test_potential_scale_and_reality():
    V = Potential(1, [((0,), 2.0), ((3,), -1.0)])
    W = V.scale(0.5)
    assert W.as_dict()[(0,)] == 1.0
    assert V.is_real() and W.is_real()
    assert not Potential(1, [((0,), 1j)]).is_real()


def test_from_json_round_trip_and_errors():
    V = Potential(3, [((0, 1, -2), 0.5 - 0.25j)])
    W = Potential.from_json('{"d": 3, "entries": [{"site": [0, 1, -2], "re": 0.5, "im": -0.25}]}')
    assert W.d == 3 and W.as_dict() == V.as_dict()
    with pytest.raises(ValueError):
        Potential.from_json("[1, 2]")
    with pytest.raises(ValueError):
        Potential.from_json('{"entries": []}')


def test_quasi_norm_single_site_and_scaling():
    V = Potential(3, [((0, 0, 0), 3.0)])
    assert quasi_norm(V) == pytest.approx(3.0, rel=1e-14)
    # (sum |v|^(2/3))^(3/2) is 1-homogeneous
    W = V.scale(0.4)
    assert quasi_norm(W) == pytest.approx(1.2, rel=1e-14)


def test_quasi_norm_two_sites():
    V = Potential(1, [((0,), 1.0), ((5,), 1.0)])
    assert quasi_norm(V) == pytest.approx(2.0 ** 1.5, rel=1e-14)


def test_trace_moments_single_site_closed_form():
    # lone site value v: Tr(H^n - H0^n) has a short expansion in v and the
    # return amplitudes of the free walk
    v = 0.7 - 0.2j
    V = Potential(3, [((0, 0, 0), v)])
    ms = trace_moments(V)
    bf = brute_force_moments(V)
    got = ms.as_tuple()
    for n in range(4):
        assert got[n] == pytest.approx(bf[n], rel=1e-12, abs=1e-12)
    assert ms.d1 == pytest.approx(v, rel=1e-14)


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.data())
def test_trace_moments_match_brute_force(d, data):
    n_sites = data.draw(st.integers(min_value=1, max_value=3))
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=10 ** 6)))
    sites = set()
    while len(sites) < n_sites:
        sites.add(tuple(int(c) for c in rng.integers(-1, 2, d)))
    vals = rng.uniform(-0.5, 0.5, n_sites) + 1j * rng.uniform(-0.5, 0.5, n_sites)
    V = Potential(d, list(zip(sorted(sites), map(complex, vals))))
    got = trace_moments(V).as_tuple()
    bf = brute_force_moments(V)
    for n in range(4):
        assert got[n] == pytest.approx(bf[n], rel=1e-10, abs=1e-12)


def test_brute_force_box_radius_converged():
    # by n = 4 the walk cannot leave a box of radius 2 around the support,
    # so enlarging the box must not change anything
    V = Potential(2, [((0, 0), 1.0), ((1, -1), -0.5j)])
    a = brute_force_moments(V, box_radius=5)
    b = brute_force_moments(V, box_radius=7)
    for x, y in zip(a, b):
        assert x == pytest.approx(y, rel=0, abs=1e-13)
    # a box that can clip the walk is rejected outright
    with pytest.raises(ValueError):
        brute_force_moments(V, box_radius=3)


def test_moment_set_tuple_roundtrip():
    ms = MomentSet(1 + 0j, 2 + 0j, 3 + 0j, 4 + 0j)
    assert ms.as_tuple() == (1 + 0j, 2 + 0j, 3 + 0j, 4 + 0j)
