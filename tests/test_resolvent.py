import cmath
import itertools
import math

import numpy as np
import pytest

from latspec.conformal import dist_to_band, z_of_lambda
from latspec.lattice import validate_dimension
from latspec import resolvent
from latspec.resolvent import green_auto, green_boundary, green_time, green_torus


def _watson_band_edge() -> float:
    # classical closed form for the simple-cubic return integral, by Gamma
    # factors; the kernel value at the band edge is minus one third of it
    g = math.gamma
    w = math.sqrt(6.0) / (32.0 * math.pi ** 3)
    return -w * g(1 / 24) * g(5 / 24) * g(7 / 24) * g(11 / 24) / 3.0


def test_watson_band_edge_value():
    got = green_boundary((0, 0, 0), 3.0, "plus", 3)
    assert got.value.real == pytest.approx(_watson_band_edge(), abs=1e-8)
    assert abs(got.value.imag) < 1e-10


def test_torus_matches_time_far_from_band(rng):
    worst = 0.0
    for _ in range(12):
        lam = complex(rng.uniform(-5, 5), rng.uniform(-3, 3))
        if dist_to_band(lam, 3) < 0.5:
            lam += 2j * (1 if lam.imag >= 0 else -1)
        n = tuple(int(c) for c in rng.integers(-2, 3, 3))
        a = green_torus(n, lam, 3).value
        b = green_time(n, lam, 3).value
        worst = max(worst, abs(a - b))
    assert worst <= 1e-8


def test_conjugation_symmetry():
    lam = 1.3 + 0.8j
    for n in ((0, 0, 0), (1, 0, 0), (1, -2, 1)):
        up = green_auto(n, lam, 3).value
        dn = green_auto(n, lam.conjugate(), 3).value
        assert dn == pytest.approx(up.conjugate(), rel=1e-12)


def test_lattice_symmetry():
    # G depends on |n_j| only, in any coordinate order
    lam = 0.4 + 1.1j
    vals = [green_auto(n, lam, 3).value for n in ((1, 2, 0), (2, 1, 0), (-1, 0, -2), (0, -2, 1))]
    for v in vals[1:]:
        assert v == pytest.approx(vals[0], rel=1e-11)


def test_defining_difference_equation():
    # sum of neighbor values / 2 minus lam * G must reproduce delta_0
    lam = 0.7 + 0.9j
    d = 3

    def g(n):
        return green_auto(n, lam, d).value

    for n in ((0, 0, 0), (1, 0, 0), (1, 1, -1)):
        acc = 0.0 + 0.0j
        for j in range(d):
            for s in (-1, 1):
                m = list(n)
                m[j] += s
                acc += 0.5 * g(tuple(m))
        lhs = acc - lam * g(n)
        target = 1.0 if n == (0, 0, 0) else 0.0
        assert lhs == pytest.approx(target, abs=5e-12)


def test_free_green_large_lambda_asymptote():
    # G(0, lam) ~ -1/lam as |lam| -> infinity
    lam = 250.0 + 40.0j
    v = green_auto((0, 0, 0), lam, 3).value
    assert v == pytest.approx(-1.0 / lam, rel=1e-3)


def test_green_auto_continuity_at_switch():
    # at the switching distance both engines of green_auto must give the
    # same value within their own error estimates: beside the band segment
    # and beyond both band edges (lower half plane, where _green_osc works)
    dist = resolvent._DIST_SWITCH
    lams = [x - 1j * dist for x in (0.0, 1.7, -2.5)]
    lams += [3.0 + dist * cmath.exp(-1j * t) for t in (0.0, 0.6, 1.4)]
    lams += [-3.0 - dist * cmath.exp(1j * t) for t in (0.3, 1.1)]
    for lam in lams:
        assert dist_to_band(lam, 3) == pytest.approx(dist, rel=1e-12)
        for n in ((0, 0, 0), (1, 1, 0), (2, 1, 0)):
            torus = green_torus(n, lam, 3)
            osc, osc_err = resolvent._green_osc(resolvent._canon(n), lam, 3)
            assert abs(torus.value - osc) <= torus.err_estimate + osc_err


def test_boundary_two_sides_conjugate():
    up = green_boundary((1, 0, 0), 1.0, "plus", 3).value
    dn = green_boundary((1, 0, 0), 1.0, "minus", 3).value
    assert dn == pytest.approx(up.conjugate(), rel=1e-10)
    # interior band point: strictly positive spectral density on the plus side
    assert up.imag > 0.1


def test_boundary_matches_small_epsilon_limit():
    lam0 = 1.0
    b = green_boundary((0, 0, 0), lam0, "plus", 3).value
    seq = [green_auto((0, 0, 0), lam0 + 1j * eps, 3).value for eps in (1e-4, 1e-5, 1e-6)]
    # the limiting value must be approached monotonically in eps; at the
    # smallest offset the truncated time integral dominates the error
    errs = [abs(s - b) for s in seq]
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] < 2e-3


def test_boundary_rejects_outside_band():
    with pytest.raises(ValueError):
        green_boundary((0, 0, 0), 3.5, "plus", 3)
    with pytest.raises(ValueError):
        green_boundary((0, 0, 0), 1.0, "sideways", 3)


def resolvent_identity_residual(n, lam1, lam2, d, m_radius):
    """Residual of the first resolvent identity with the convolution sum
    truncated to the box |m|_inf <= m_radius:
    (G(lam1) - G(lam2))(n) = (lam1 - lam2) sum_m G(n - m, lam1) G(m, lam2)."""
    d = validate_dimension(d)
    lhs = green_torus(n, lam1, d).value - green_torus(n, lam2, d).value
    total = 0.0 + 0.0j
    n = tuple(int(c) for c in n)
    for m in itertools.product(range(-m_radius, m_radius + 1), repeat=d):
        shifted = tuple(a - b for a, b in zip(n, m))
        total += green_torus(shifted, lam1, d).value * green_torus(m, lam2, d).value
    return abs(lhs - (lam1 - lam2) * total)


def test_resolvent_identity():
    # first resolvent identity residual, summed over a truncation ball
    res = resolvent_identity_residual((1, 0, 0), 0.5 + 2.0j, -1.0 + 1.5j, 3, m_radius=14)
    assert res < 5e-3


def test_error_estimates_are_honest():
    lam = 2.0 + 1.5j
    for n in ((0, 0, 0), (2, 1, 0)):
        a = green_torus(n, lam, 3)
        b = green_time(n, lam, 3)
        true_gap = abs(a.value - b.value)
        assert true_gap <= 10.0 * (a.err_estimate + b.err_estimate) + 1e-12


def test_green_auto_checks_site_length_on_both_branches():
    # near the band (oscillatory branch) as well as far from it (torus)
    for lam in (2.0 - 0.1j, 5.0):
        for n in ((0, 0), (0, 0, 0, 0)):
            with pytest.raises(ValueError, match="coordinates"):
                green_auto(n, lam, 3)


def test_oscillatory_branch_refuses_low_dimensions():
    for n, d in (((0,), 1), ((0, 0), 2)):
        with pytest.raises(ValueError, match="d >= 3"):
            green_auto(n, 0.5 - 0.1j, d)


def test_boundary_sides_share_one_evaluation(monkeypatch):
    calls = []
    osc = resolvent._green_osc

    def counted(*args):
        calls.append(args)
        return osc(*args)

    monkeypatch.setattr(resolvent, "_green_osc", counted)
    resolvent.clear_green_cache()
    minus = green_boundary((1, 0, 0), 1.5, "minus", 3)
    plus = green_boundary((1, 0, 0), 1.5, "plus", 3)
    assert len(calls) == 1
    assert plus.value == minus.value.conjugate()
    assert plus.err_estimate == minus.err_estimate
    resolvent.clear_green_cache()
    green_boundary((1, 0, 0), 1.5, "plus", 3)
    assert len(calls) == 2


def test_torus_matches_closed_form_in_one_dimension():
    # G(n, lam) = 2 z^(|n|+1) / (z^2 - 1) with z = z(lam) in the unit disc
    for lam in (2.5 + 0.3j, -1.7 - 0.6j, 0.2 + 1.1j, 3.0, -4.0 + 0.2j):
        z = z_of_lambda(lam, 1)
        for n in (0, 1, 3):
            exact = 2.0 * z ** (n + 1) / (z * z - 1.0)
            assert abs(green_torus((n,), lam, 1).value - exact) <= 1e-13


def test_torus_matches_time_in_two_dimensions():
    for lam in (3.5 + 0.2j, -1.0 - 1.0j, 0.5 + 1.5j, -3.2 + 0.9j):
        for n in ((0, 0), (1, 0), (2, 1)):
            gap = abs(green_torus(n, lam, 2).value - green_time(n, lam, 2).value)
            assert gap <= 1e-8
