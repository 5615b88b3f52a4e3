import cmath
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latspec import lattice
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


def _dense_box_moments(V, h0, h02, index):
    # the dense oracle that brute_force_moments replaced: H0, its square
    # and the site index on a box [-radius, radius]^d that holds every
    # closed walk of length 4 through the support, H^2 from H0^2 by row and
    # column scalings, Tr(A^3) = sum(A^2 * A^T) and Tr(A^4) = sum(A^2 * (A^2)^T)
    vdiag = np.zeros(h0.shape[0], dtype=complex)
    for site, val in V.entries:
        vdiag[index[site]] = val
    h = h0 + np.diag(vdiag)
    h2 = h02 + h0 * vdiag[None, :] + vdiag[:, None] * h0 + np.diag(vdiag * vdiag)
    return [
        complex(np.sum(vdiag)),
        complex(np.trace(h2) - np.trace(h02)),
        complex(np.sum(h2 * h.T) - np.sum(h02 * h0.T)),
        complex(np.sum(h2 * h2.T) - np.sum(h02 * h02.T)),
    ]


def _dense_box(d, radius):
    sites = list(itertools.product(range(-radius, radius + 1), repeat=d))
    index = {s: i for i, s in enumerate(sites)}
    h0 = np.zeros((len(sites), len(sites)))
    for s, i in index.items():
        for j in range(d):
            for sgn in (1, -1):
                nb = s[:j] + (s[j] + sgn,) + s[j + 1:]
                if nb in index:
                    h0[i, index[nb]] = 0.5
    return h0, h0 @ h0, index


def test_brute_force_matches_a_dense_box():
    # supports in [-1, 1]^d need a box of radius 3; radius 5 is generous.
    # The walk and the box sum in different orders, so they agree to
    # rounding, not bit for bit
    rng = np.random.default_rng(7)
    for d in (1, 2, 3):
        box = _dense_box(d, 5)
        for _ in range(10):
            n_sites = int(rng.integers(1, min(3 ** d, 6) + 1))
            cube = list(itertools.product((-1, 0, 1), repeat=d))
            sites = [cube[i] for i in rng.choice(len(cube), size=n_sites, replace=False)]
            vals = rng.normal(size=n_sites) + 1j * rng.normal(size=n_sites)
            V = Potential(d, list(zip(sites, map(complex, vals))))
            ref = _dense_box_moments(V, *box)
            got = brute_force_moments(V)
            scale = max(1.0, max(map(abs, ref)))
            assert max(abs(a - b) for a, b in zip(got, ref)) <= 1e-12 * scale, (d, V)


def _decaying_cube(R):
    # ROADMAP item 12's family: a = 7.2, seed 5
    rnd = random.Random(5)
    return Potential(3, [(n, 7.2 * (1.0 + math.sqrt(sum(c * c for c in n))) ** -3
                          * cmath.exp(1j * rnd.uniform(0.0, 2.0 * math.pi)))
                         for n in itertools.product(range(-R, R + 1), repeat=3)])


def test_brute_force_matches_the_closed_forms_on_large_and_spread_supports():
    # the decaying cubes of 27, 125 and 343 sites, two sites far apart in
    # three dimensions, and a pair of neighbours at d = 4..10: a dense box
    # bounded at 13^3 sites refused all but the two smaller cubes, and took
    # 334 MB on the 125-site one
    potentials = [_decaying_cube(R) for R in (1, 2, 3)]
    potentials += [Potential(3, [((0, 0, 0), 3.0), (far, v)])
                   for far, v in (((6, 0, 0), 3.0), ((8, 0, 0), 1.0 + 0.5j), ((40, 0, 0), 3.0))]
    potentials += [Potential(d, [((0,) * d, 0.7 - 0.2j), ((1,) + (0,) * (d - 1), -1.1 + 0.3j)])
                   for d in range(4, 11)]
    for V in potentials:
        got = brute_force_moments(V)
        for a, b in zip(got, trace_moments(V).as_tuple()):
            assert abs(a - b) <= 1e-12 * abs(b), (V.d, len(V.entries))


def test_brute_force_box_is_centred_on_the_support():
    # the traces are translation-invariant, and the walks start from the
    # sites near the support in the same order wherever it lies, so a
    # translated potential gives the same moments bit for bit
    for entries in ([((0, 0, 0), 3.0)], [((0, 0, 0), 3.0), ((1, 1, 0), -2.5 + 0.5j)]):
        ref = brute_force_moments(Potential(3, entries))
        for shift in ((4, 0, 0), (8, 0, 0), (-7, 3, 50)):
            moved = [(tuple(c + s for c, s in zip(site, shift)), v) for site, v in entries]
            assert brute_force_moments(Potential(3, moved)) == ref
    assert brute_force_moments(Potential(3)) == [0j] * 4


def test_brute_force_refuses_an_oversized_box_before_building_it(monkeypatch):
    # one site at d = 3 walks from the 25 sites of its l1 ball of radius 2,
    # each over such a ball: 625 entries.  Above the bound the input is
    # refused before numpy is touched
    V = Potential(3, [((0, 0, 0), 3.0)])
    ref = brute_force_moments(V)
    monkeypatch.setattr(lattice, "_WALK_MAX_ENTRIES", 625)
    assert brute_force_moments(V) == ref
    monkeypatch.setattr(lattice, "_WALK_MAX_ENTRIES", 624)
    monkeypatch.setattr(lattice, "np", None)
    with pytest.raises(ValueError, match="take 625 entries, more than 624"):
        brute_force_moments(V)


def test_moment_set_tuple_roundtrip():
    ms = MomentSet(1 + 0j, 2 + 0j, 3 + 0j, 4 + 0j)
    assert ms.as_tuple() == (1 + 0j, 2 + 0j, 3 + 0j, 4 + 0j)
