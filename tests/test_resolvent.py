import cmath
import itertools
import math

import numpy as np
import pytest

from latspec.conformal import dist_to_band, lambda_of_z, z_of_lambda
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
    # on the switching circle |z| = 0.8 both engines of green_auto must give
    # the same value within their own error estimates: beside the band
    # segment and beyond both band edges (lower half plane, where the
    # oscillatory engine works)
    radius = resolvent._SERIES_RADIUS
    lams = [lambda_of_z(radius * cmath.exp(1j * t), 3) for t in (0.0, 0.4, 1.1, 1.5708, 2.0, 2.7, math.pi)]
    for lam in lams:
        assert lam.imag <= 0.0 and abs(z_of_lambda(lam, 3)) == pytest.approx(radius, rel=1e-12)
        for n in ((0, 0, 0), (1, 1, 0), (2, 1, 0)):
            canon = [resolvent._canon(n)]
            series, series_err = resolvent._series_block(canon, np.array([lam]))
            osc, osc_err = resolvent._osc_block(canon, np.array([lam]))
            assert abs(series[0, 0] - osc[0, 0]) <= series_err[0, 0] + osc_err[0, 0]


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


def test_boundary_doors_check_the_dimension_before_the_site():
    # a wrong-length site at a dimension the boundary path refuses names the
    # dimension rule (it read "site ... has k coordinates, expected d"); the
    # site's length is checked once the dimension is served
    for d, message in ((0, "dimension must be >= 1"), (2, "requires lattice dimension d >= 3"),
                       (11, "requires lattice dimension d <= 10")):
        for site in ((0,), (0, 0, 0)):
            with pytest.raises(ValueError, match=message):
                green_boundary(site, 1.0, "plus", d)
        with pytest.raises(ValueError, match=message):
            resolvent.green_boundary_orbits([(0, 0, 0)], [1.0], [True], d)
    with pytest.raises(ValueError, match=r"site \(0, 0\) has 2 coordinates, expected 3"):
        green_boundary((0, 0), 1.0, "plus", 3)


def resolvent_identity_residual(n, lam1, lam2, d, m_radius):
    """Residual of the first resolvent identity with the convolution sum
    truncated to the box |m|_inf <= m_radius:
    (G(lam1) - G(lam2))(n) = (lam1 - lam2) sum_m G(n - m, lam1) G(m, lam2)."""
    d = validate_dimension(d)
    cache = {}

    def g(site, lam):
        # G depends on the site through its orbit alone: one torus call per
        # (orbit, lambda)
        key = (resolvent._orbit(site, d), lam)
        if key not in cache:
            cache[key] = green_torus(site, lam, d).value
        return cache[key]

    lhs = g(n, lam1) - g(n, lam2)
    total = 0.0 + 0.0j
    n = tuple(int(c) for c in n)
    for m in itertools.product(range(-m_radius, m_radius + 1), repeat=d):
        shifted = tuple(a - b for a, b in zip(n, m))
        total += g(shifted, lam1) * g(m, lam2)
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
    # near the band (oscillatory branch) as well as far from it (series)
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
    osc = resolvent._osc_block

    def counted(canons, lams):
        calls.append(len(canons) * lams.size)
        return osc(canons, lams)

    monkeypatch.setattr(resolvent, "_osc_block", counted)
    resolvent.clear_green_cache()
    minus = green_boundary((1, 0, 0), 1.5, "minus", 3)
    plus = green_boundary((1, 0, 0), 1.5, "plus", 3)
    assert calls == [1]
    assert plus.value == minus.value.conjugate()
    assert plus.err_estimate == minus.err_estimate
    resolvent.clear_green_cache()
    green_boundary((1, 0, 0), 1.5, "plus", 3)
    assert calls == [1, 1]
    # both sides in one block: one value computed
    resolvent.clear_green_cache()
    vals, errs = resolvent.green_boundary_orbits([(1, 0, 0)], [1.5, 1.5], [False, True], 3)
    assert calls == [1, 1, 1]
    assert vals[0, 1] == vals[0, 0].conjugate() == plus.value
    assert errs[0, 1] == errs[0, 0] == plus.err_estimate


def test_torus_matches_closed_form_in_one_dimension():
    # G(n, lam) = 2 z^(|n|+1) / (z^2 - 1) with z = z(lam) in the unit disc;
    # no axis is quadrature at d = 1, so the estimate is the rounding floor
    for lam in (2.5 + 0.3j, -1.7 - 0.6j, 0.2 + 1.1j, 3.0, -4.0 + 0.2j):
        z = z_of_lambda(lam, 1)
        for n in (0, 1, 3):
            exact = 2.0 * z ** (n + 1) / (z * z - 1.0)
            got = green_torus((n,), lam, 1)
            assert abs(got.value - exact) <= 1e-13
            assert 0.0 < got.err_estimate and abs(got.value - exact) <= got.err_estimate


def test_torus_matches_time_in_two_dimensions():
    for lam in (3.5 + 0.2j, -1.0 - 1.0j, 0.5 + 1.5j, -3.2 + 0.9j):
        for n in ((0, 0), (1, 0), (2, 1)):
            a, b = green_torus(n, lam, 2), green_time(n, lam, 2)
            gap = abs(a.value - b.value)
            assert gap <= 1e-8
            assert 0.0 < a.err_estimate and gap <= a.err_estimate + b.err_estimate


def _green_origin_2d(lam: complex) -> complex:
    # G(0, lam) = -(2 / (pi lam)) K(k), k = 2 / lam, at d = 2, with
    # K(k) = pi / (2 AGM(1, k')), k'^2 = 1 - k^2 = (lam - 2)(lam + 2) / lam^2
    # formed without cancellation next to the band edges; each AGM step
    # takes the root b with |a - b| <= |a + b|, and 30 steps converge
    # quadratically from any k' the test uses
    a, b = 1.0 + 0.0j, cmath.sqrt((lam - 2.0) * (lam + 2.0) / (lam * lam))
    for _ in range(30):
        a, b = 0.5 * (a + b), cmath.sqrt(a * b)
        if abs(a - b) > abs(a + b):
            b = -b
    return -2.0 / (math.pi * lam) * (math.pi / (2.0 * a))


def test_torus_matches_the_elliptic_integral_next_to_the_band_in_two_dimensions():
    # off the band the torus is the closed form to rounding; at distance
    # 5e-3 to 0.05 from the band (mid-band, at both edges, both half
    # planes) its doubled-grid estimate covers the true error, and
    # overstates it there (by a factor 1.9 to 7e6)
    for lam in (3.0, 2.5 - 0.3j, 1.5 - 0.5j):
        assert abs(green_torus((0, 0), lam, 2).value - _green_origin_2d(lam)) <= 1e-15
    for lam in (1.5 - 0.01j, -1.2 - 0.01j, 1.9 - 0.006j, 0.3 - 0.005j, -0.8 + 0.005j, 1.0 - 0.05j,
                -1.7 - 0.02j, 0.5 + 0.01j, 1.99 - 0.005j, 2.0 - 0.005j, 2.01, -0.005j):
        assert 5e-3 <= dist_to_band(lam, 2) <= 0.05
        got = green_torus((0, 0), lam, 2)
        assert abs(got.value - _green_origin_2d(lam)) <= got.err_estimate, lam


def test_torus_matches_the_oscillatory_engine_near_the_band():
    # distance 0.01 to 0.05 at d = 3, beside the band, at the Van Hove level
    # and beyond an edge, on the finest grid (n_quad 512) against green_auto's
    # oscillatory engine: the estimates cover the gap.  Nearer the band the
    # torus's doubled-grid estimate falls below its error (at 2.5 - 0.001i,
    # n = (2,1,0), 5.7e-5 against 1.7e-4), so it refuses there
    for lam in (2.9 - 0.01j, 0.5 - 0.05j, -1.0 + 0.02j, 3.01 + 0.04j):
        assert 0.01 <= dist_to_band(lam, 3) <= 0.05 and abs(z_of_lambda(lam, 3)) > 0.8
        for n in ((0, 0, 0), (1, 0, 0), (2, 1, 0)):
            a, b = green_torus(n, lam, 3, n_quad=512), green_auto(n, lam, 3)
            assert abs(a.value - b.value) <= a.err_estimate + b.err_estimate, (n, lam)
    for lam in (3.002 + 0.0j, -0.2 - 1e-3j, 2.5 - 1e-3j):
        with pytest.raises(ValueError, match="within 0.005 of the band"):
            green_torus((2, 1, 0), lam, 3, n_quad=512)


def test_torus_matches_the_series_in_three_and_four_dimensions():
    # |z| <= 0.8, where green_auto serves the exact series, at d = 3 and 4.
    # At d = 4 the circle |z| = 0.8 would need torus grids of 287^3 and
    # 153^3 points (the suite's largest); the series next to the switch is
    # checked there against the time engine at |z| = 0.79, by
    # test_engines_match_time_in_four_dimensions
    for d, radii in ((3, (0.3, 0.6, 0.8)), (4, (0.3, 0.6))):
        canons = [c + (0,) * (d - 3) for c in ((0, 0, 0), (1, 0, 0), (2, 1, 0), (2, 2, 1))]
        for radius in radii:
            lams = [lambda_of_z(radius * cmath.exp(1j * t), d) for t in (0.3, 1.4, -2.2, 3.0)]
            vals, errs = resolvent.green_orbits(canons, lams, d, engine="torus")
            ref, ref_err = resolvent.green_orbits(canons, lams, d)
            assert (np.abs(vals - ref) <= 10.0 * (errs + ref_err) + 1e-12).all(), (d, radius)


def test_engines_match_time_in_four_dimensions(monkeypatch):
    # the torus's loop over the axes beyond the third, the series's second
    # binomial convolution and the oscillatory engine at d = 4, against the
    # damped time engine with the tolerance of the d = 3 tests: green_torus
    # off the band, and green_auto on both sides of the |z| = 0.8 switch,
    # beside the band and beyond both edges
    sites = ((0, 0, 0, 0), (1, 0, 0, 0), (2, 1, 0, 0), (1, -1, 0, 2), (1, 1, 1, 1))
    for lam in (5.5 + 0.4j, -1.0 - 1.5j, 2.5 + 2.0j, -4.8 - 0.9j):
        for n in sites:
            assert abs(green_torus(n, lam, 4).value - green_time(n, lam, 4).value) <= 1e-8
    calls = _count_engines(monkeypatch)
    for radius, engine in ((0.81, "osc"), (0.79, "series")):
        for lam in (lambda_of_z(radius * cmath.exp(1j * t), 4) for t in (1.5, -1.2, 0.5, -2.6)):
            resolvent.clear_green_cache()
            calls.update(osc=0, torus=0, series=0)
            for n in sites:
                a, b = green_auto(n, lam, 4), green_time(n, lam, 4)
                assert abs(a.value - b.value) <= 1e-8
                assert abs(a.value - b.value) <= 10.0 * (a.err_estimate + b.err_estimate) + 1e-12
            assert calls[engine] > 0 and sum(calls.values()) == calls[engine], lam


def test_front_doors_refuse_lambdas_that_are_not_finite():
    nan, inf = float("nan"), float("inf")
    refused = [
        lambda: green_auto((0, 0, 0), complex(nan, 0.0), 3),
        lambda: green_torus((0, 0, 0), complex(5.0, nan), 3),
        lambda: green_time((0, 0, 0), complex(1.0, nan), 3),
        lambda: green_time((0, 0, 0), complex(inf, 1.0), 3),
        lambda: green_boundary((0, 0, 0), nan, "plus", 3),
        lambda: green_boundary((0, 0, 0), -inf, "minus", 3),
        lambda: resolvent.green_orbits([(0, 0, 0)], [2.0 - 1.0j, complex(nan, 1.0)], 3),
        lambda: resolvent.green_boundary_orbits([(0, 0, 0)], [1.0, nan], [True, False], 3),
    ]
    for call in refused:
        with pytest.raises(ValueError, match=r"lambda0?=.* is not finite"):
            call()


def _count_engines(monkeypatch):
    # values computed by each engine core
    calls = {"osc": 0, "torus": 0, "series": 0}

    def counted(name):
        core = getattr(resolvent, f"_{name}_block")

        def count(canons, lams, *extra):
            calls[name] += len(canons) * lams.size
            return core(canons, lams, *extra)

        monkeypatch.setattr(resolvent, f"_{name}_block", count)

    for name in calls:
        counted(name)
    return calls


def test_green_auto_routes_by_distance_at_d3(monkeypatch):
    # the oscillatory engine where |z(lambda)| > 0.8, the series from there
    # out; both sides of the segment and an edge, beside the band (distance
    # 0.675 at |z| = 0.8) and on the real axis beyond the edge (3.075)
    assert resolvent._SERIES_RADIUS == 0.8
    calls = _count_engines(monkeypatch)
    for lam, engine in ((0.0 - 0.67j, "osc"), (-1.0 + 0.6j, "osc"), (3.07, "osc"),
                        (0.0 - 0.68j, "series"), (-1.0 + 0.7j, "series"), (3.08, "series")):
        resolvent.clear_green_cache()
        calls.update(osc=0, torus=0, series=0)
        got = green_auto((1, 0, 0), lam, 3)
        assert np.isfinite(got.value)
        assert (abs(z_of_lambda(lam, 3)) > 0.8) == (engine == "osc")
        assert calls[engine] > 0 and sum(calls.values()) == calls[engine], lam


def test_green_auto_routes_low_dimensions_unchanged(monkeypatch):
    # d = 2 has no oscillatory engine: the series serves distance 0.5, in
    # agreement with the torus, and distance 0.3 is refused as before
    calls = _count_engines(monkeypatch)
    resolvent.clear_green_cache()
    got = green_auto((1, 0), 0.5 - 0.5j, 2)
    assert got.value == resolvent._series_block([(1, 0)], np.array([0.5 - 0.5j]))[0][0, 0]
    torus = green_torus((1, 0), 0.5 - 0.5j, 2)
    assert abs(got.value - torus.value) <= got.err_estimate + torus.err_estimate
    assert calls["series"] > 0 and calls["osc"] == 0
    with pytest.raises(ValueError, match="d >= 3"):
        green_auto((1, 0), 0.5 - 0.3j, 2)
    assert calls["osc"] == 0


def test_low_dimensions_serve_the_series_disc_next_to_the_band_ends(monkeypatch):
    # at d = 1, 2 the series serves |z| <= r(d) = |z(0.35i)|, as r = 0.8 is
    # served at d >= 3: next to the band's ends these points lie as near as
    # 0.06 (d = 1) and 0.035 (d = 2) to it, and were refused as lying
    # within 0.35 of the band.  Oracles: the closed form 2 z^(|n|+1) / (z^2 - 1) at d = 1,
    # the torus at d = 2.  Just outside the disc the refusal names d >= 3.
    calls = _count_engines(monkeypatch)
    eps = np.finfo(float).eps
    for lam in (1.06, -1.06, 1.07 - 0.02j, -1.08 + 0.03j, 1.2 - 0.12j):
        z = z_of_lambda(lam, 1)
        for n in range(4):
            exact = 2.0 * z ** (n + 1) / (z * z - 1.0)
            got = green_auto((n,), lam, 1)
            assert abs(got.value - exact) <= min(4.0 * eps * (1.0 + abs(exact)), got.err_estimate)
    for lam in (2.035, -2.035, 2.04 - 0.01j, -2.05 + 0.02j, 2.1 - 0.06j):
        for n in ((0, 0), (1, 0), (2, 1)):
            got = green_auto(n, lam, 2)
            torus = green_torus(n, lam, 2)
            assert abs(got.value - torus.value) <= got.err_estimate + torus.err_estimate
    assert calls["osc"] == 0 and calls["series"] > 0
    for n, lam, d in (((0,), 1.05, 1), ((0, 0), 2.03, 2), ((0, 0), -2.03 + 0.001j, 2)):
        assert abs(z_of_lambda(lam, d)) > resolvent._series_radius(d)
        with pytest.raises(ValueError, match=r"outside \|z\| <= 0\.\d+ requires lattice dimension d >= 3"):
            green_auto(n, lam, d)


def _gauss_kernel(canon, T0):
    # the Gauss nodes, weights and kernel prod_j J_(n_j) on [0, T0], on a
    # Bessel grid of the orbit's own orders, and the weighted kernel laid
    # out as _osc_main takes it (row j holds node j of every panel)
    nodes, weights = resolvent.gl_panels(0.0, T0, resolvent._OSC_PANEL, npts=resolvent._OSC_NPTS)
    rows = resolvent.bessel_j_grid(nodes, canon[0])
    kern = np.prod([rows[m] for m in canon], axis=0)
    return nodes, weights, kern, np.ascontiguousarray((weights * kern).reshape(-1, resolvent._OSC_NPTS).T)


def _set_horizon(canons):
    return resolvent._osc_t0(max(canon[0] for canon in canons))


def test_oscillatory_tails_computed_once_per_frequency(monkeypatch):
    # the mode tails at d = 3 have 4 frequencies S, and an orbit set has
    # one horizon T0, 240 while every max_j |n_j| <= _OSC_NEAR and 240 + 10
    # n0 for a set whose largest is n0 beyond: one block makes one
    # tail_integral_vec call at that T0 over every (S, lambda) pair, also
    # when its lambdas span several phase chunks (64 lambdas at T0 = 240,
    # 32 at 310), and must equal, bit for bit, the engine's numeric sum on
    # a Bessel grid of the orbit's own orders plus one tail evaluation per
    # frequency and lambda, contracted with the orbit's polynomial of that
    # frequency and added up in frequency order
    short = np.array([1.7 - 0.4j, -0.3 - 0.1j, 2.9 + 0.0j, -3.0 + 0.0j])
    long = np.concatenate([short, np.linspace(-3.5, 3.5, 100) - 0.02j, np.linspace(0.1, 2.9, 46) + 0.0j])
    far = resolvent._OSC_NEAR + 1
    tail_vec = resolvent.tail_integral_vec
    calls = []

    def counted(s, w, T):
        calls.append((np.array(w), T))
        return tail_vec(s, w, T)

    monkeypatch.setattr(resolvent, "tail_integral_vec", counted)
    phases = resolvent._osc_phases
    chunks = []

    def chunked(lams, n_panels):
        chunks.append(lams.size)
        return phases(lams, n_panels)

    monkeypatch.setattr(resolvent, "_osc_phases", chunked)
    freqs = np.arange(-3, 4, 2)
    s_exps = 1.5 + np.arange(resolvent._OSC_N_TERMS, dtype=float)
    for canons, T0 in (([(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 0)], 240.0),
                       ([(0, 0, 0), (far, 0, 0)], 240.0 + 10.0 * far)):
        for lams in (short, long):
            calls.clear()
            chunks.clear()
            vals, errs = resolvent._osc_block(canons, lams)
            assert len(calls) == 1 and calls[0][1] == T0 == _set_horizon(canons)
            assert sum(chunks) == lams.size and (len(chunks) > 2) == (lams is long)
            assert np.array_equal(calls[0][0], (freqs[:, None] - lams).ravel())
            pieces = [np.array([tail_vec(s_exps, np.array([s_freq - lam]), T0)[0] for lam in lams])
                      for s_freq in freqs]
            for u, canon in enumerate(canons):
                kw = _gauss_kernel(canon, T0)[3]
                main = resolvent._osc_main(kw, *phases(lams, kw.shape[1]))
                tail = np.zeros(lams.size, dtype=complex)
                trunc = np.zeros(lams.size)
                for at_s, poly in zip(pieces, resolvent._osc_tail_coeffs(canon)):
                    tail += np.einsum("kj,j->k", at_s, poly)
                    trunc += np.abs(poly[-1] * at_s[:, -1])
                ref = -1j * resolvent._IPOW[sum(canon) % 4] * (main + tail)
                assert np.array_equal(vals[u], ref)
                assert np.array_equal(errs[u], trunc + 1e-14 * (1.0 + np.abs(ref)))


def _per_pattern_tail_data(canon):
    # per sign pattern s in {+,-}^d, in pattern order: the constant phase
    # e^(-i sum_j s_j (pi/2 n_j + pi/4)), the frequency S = sum_j s_j and
    # the polynomial prod_j A_(n_j) or conj(A_(n_j)), truncated at
    # _OSC_N_TERMS after each axis (the engine's tails before they were
    # grouped by frequency)
    n_terms = resolvent._OSC_N_TERMS
    amps = {m: resolvent.hankel_amplitude_coeffs(m, n_terms) for m in set(canon)}
    ph0s, s_freqs, polys = [], [], []
    for signs in itertools.product((1, -1), repeat=len(canon)):
        s_freqs.append(sum(signs))
        arg = -(np.pi / 2) * sum(s * m for s, m in zip(signs, canon)) - (np.pi / 4) * s_freqs[-1]
        ph0s.append(complex(np.exp(1j * arg)))
        poly = np.ones(1, dtype=complex)
        for s, m in zip(signs, canon):
            poly = np.convolve(poly, amps[m] if s > 0 else np.conj(amps[m]))[:n_terms]
        polys.append(poly)
    return ph0s, np.array(s_freqs), np.array(polys)


def _osc_block_per_pattern(canons, lams):
    # the oscillatory block as it was before the tails were grouped by
    # frequency: per orbit its own Bessel grid (orders up to its own max_j
    # |n_j|) on the set's horizon, per chunk one tail call, per sign
    # pattern its own contraction
    d = len(canons[0])
    T0 = _set_horizon(canons)
    kws = [_gauss_kernel(canon, T0)[3] for canon in canons]
    n_panels = kws[0].shape[1]
    chunk = max(1, resolvent._CHUNK_BYTES // (16 * n_panels))
    freqs = np.arange(-d, d + 1, 2)
    s_exps = 0.5 * d + np.arange(resolvent._OSC_N_TERMS, dtype=float)
    mode_factor = (2.0 / np.pi) ** (0.5 * d) * 0.5 ** d
    vals = np.empty((len(canons), lams.size), dtype=complex)
    errs = np.empty(vals.shape)
    for lo in range(0, lams.size, chunk):
        lam = lams[lo:lo + chunk]
        cols = slice(lo, lo + lam.size)
        row, panel = resolvent._osc_phases(lam, n_panels)
        w = (freqs[:, None] - lam).ravel()
        pieces = resolvent.tail_integral_vec(s_exps, w, T0).reshape(freqs.size, lam.size, -1)
        for u, canon in enumerate(canons):
            tail = np.zeros(lam.size, dtype=complex)
            trunc = np.zeros(lam.size)
            for ph0, s_freq, poly in zip(*_per_pattern_tail_data(canon)):
                at_s = pieces[(s_freq + d) // 2]
                tail += ph0 * np.einsum("kj,j->k", at_s, poly)
                trunc += np.abs(poly[-1] * at_s[:, -1])
            pref = -1j * resolvent._IPOW[sum(canon) % 4]
            vals[u, cols] = value = pref * (resolvent._osc_main(kws[u], row, panel) + mode_factor * tail)
            errs[u, cols] = mode_factor * trunc + 1e-14 * (1.0 + np.abs(value))
    return vals, errs


def test_osc_tail_coeffs_group_the_sign_patterns_by_frequency():
    # one row per frequency S, (d + 1, _OSC_N_TERMS) at d = 10, equal to
    # the sum of the phased polynomials of the sign patterns of that S
    # times (2/pi)^(d/2) 2^(-d), to 4 eps per axis of the sum of their
    # sizes (each pattern's size the truncated product of the |A_(n_j)|)
    eps = np.finfo(float).eps
    n_terms = resolvent._OSC_N_TERMS
    for canon in ((0, 0, 0), (2, 1, 0), (resolvent._OSC_NEAR + 1, 3, 1), (3, 2, 2, 1, 1, 0, 0, 0, 0, 0)):
        d = len(canon)
        coef = resolvent._osc_tail_coeffs(canon)
        assert coef.shape == (d + 1, n_terms)
        mode_factor = (2.0 / np.pi) ** (0.5 * d) * 0.5 ** d
        size = np.ones(1)
        for m in canon:
            size = np.convolve(size, np.abs(resolvent.hankel_amplitude_coeffs(m, n_terms)))[:n_terms]
        ph0s, s_freqs, polys = _per_pattern_tail_data(canon)
        for f in range(d + 1):
            at = s_freqs == 2 * f - d
            ref = mode_factor * (np.array(ph0s)[at, None] * polys[at]).sum(axis=0)
            bound = 4 * d * eps * mode_factor * math.comb(d, f) * size
            assert (np.abs(coef[f] - ref) <= bound).all(), (canon, f)


# the orbits of the site differences of the benchmark's five-site panel
# draw 2, and (2, 2, 0)
_DRAW2_ORBITS = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 0, 0), (2, 1, 0), (2, 2, 0)]
# orbit sets with near orbits and one beyond _OSC_NEAR
_MIXED_SETS = [_DRAW2_ORBITS + [(resolvent._OSC_NEAR + 1, 1, 0)], [(0, 0, 0), (resolvent._OSC_NEAR + 2, 0, 0)]]


def test_osc_block_matches_per_pattern_loop(rng):
    # the frequency rows and the shared Bessel rows give the per-orbit,
    # per-pattern values to within a rounding unit eps (1 + |G|), with an
    # estimate no larger, on a near orbit set and on one with an orbit
    # beyond _OSC_NEAR: interior lambdas out to the switching distance,
    # band lambdas (edges and Van Hove levels included), and more lambdas
    # than one chunk holds
    eps = np.finfo(float).eps
    interior = rng.uniform(-4.0, 4.0, 60) - 1j * rng.uniform(1e-3, 1.25, 60)
    band = np.concatenate([rng.uniform(-3.0, 3.0, 20), [-3.0, -1.0, 0.0, 1.0, 3.0]])
    lams = np.concatenate([interior, band.astype(complex)])
    resolvent.clear_green_cache()
    for canons in (_DRAW2_ORBITS, _MIXED_SETS[0]):
        (vals, errs), (ref, ref_errs) = resolvent._osc_block(canons, lams), _osc_block_per_pattern(canons, lams)
        assert (np.abs(vals - ref) <= eps * (1.0 + np.abs(ref))).all()
        assert (errs <= ref_errs).all()


def test_oscillatory_engine_within_its_estimate_up_to_its_largest_dimension():
    # at d = 6, 8 and 10 every value near the band lies within the engine's
    # estimate of -i i^|n| int_0^1200 e^(-i lam t) prod_j J_(n_j)(t) dt,
    # with scipy's J_m on 16-point Gauss panels of width 0.25: at Im lam <=
    # -0.05 the neglected tail is below e^(-60) / 0.05 < 1e-20.  (0, ..., 0)
    # at 10.05 - 0.05i uses 0.44 of its estimate; at d = 11 the worst such
    # value exceeds its estimate 1.6 times, and every door refuses d = 11
    from scipy.special import jv

    x, w = np.polynomial.legendre.leggauss(16)
    mids = 0.25 * (np.arange(4800) + 0.5)
    nodes = (mids[:, None] + 0.125 * x).ravel()
    weights = np.tile(0.125 * w, mids.size)
    rows = [jv(m, nodes) for m in range(3)]
    for d in (6, 8, 10):
        canons = [(0,) * d, (1,) + (0,) * (d - 1), (2, 1) + (0,) * (d - 2)]
        lams = np.array([complex(re, im) for re in (0.5 * d, 0.8 * d, d - 0.5, d - 0.1, d + 0.05)
                         for im in (-0.05, -0.2)])
        vals, errs = resolvent._osc_block(canons, lams)
        for u, canon in enumerate(canons):
            kern = weights * np.prod([rows[m] for m in canon], axis=0)
            ref = -1j * resolvent._IPOW[sum(canon) % 4] * (np.exp(-1j * lams[:, None] * nodes) @ kern)
            assert (np.abs(vals[u] - ref) <= errs[u]).all(), (d, canon)
    d = resolvent._OSC_D_MAX + 1
    site = (0,) * d
    for call in (lambda: green_auto(site, d - 0.1 - 0.01j, d), lambda: green_boundary(site, 1.0, "minus", d)):
        with pytest.raises(ValueError, match="d <= 10"):
            call()
    # the series still serves |z| <= 0.8 there
    assert np.isfinite(green_auto(site, 30.0j, d).value)


def test_torus_refuses_an_oversized_grid_before_its_first_lambda(monkeypatch):
    # (n_quad + 1)^(d - 1) folded points above _TORUS_MAX_POINTS are
    # refused before any lambda is integrated, also where a smaller grid
    # comes first; every d = 3 grid stays accepted
    calls = []
    monkeypatch.setattr(resolvent, "_torus_column", lambda *args: calls.append(args))
    refused = [
        lambda: green_torus((0, 0, 0, 0), 3.9 - 0.01j, 4),
        lambda: green_torus((0,) * 5, 7.0 - 1.0j, 5, n_quad=80),
        lambda: resolvent.green_orbits([(0,) * 5], [9.0 - 2.0j, 4.9 - 0.01j], 5, engine="torus"),
    ]
    for call in refused:
        with pytest.raises(ValueError, match="folded points"):
            call()
    assert calls == []
    assert 513 ** 2 <= resolvent._TORUS_MAX_POINTS


def test_osc_block_shares_one_bessel_grid_per_horizon(monkeypatch):
    # an orbit set has one horizon and one Bessel grid: a cold block over
    # orbits with max_j |n_j| in {0, 1, 2} builds one grid on [0, 240],
    # with the orders up to 2, and a warm one none, in any orbit order; a
    # set with an orbit of order n0 > _OSC_NEAR builds one grid on [0, 240
    # + 10 n0] with the orders up to n0
    grid = resolvent.bessel_j_grid
    calls = []

    def counted(t, m_max):
        calls.append((t.size, m_max))
        return grid(t, m_max)

    monkeypatch.setattr(resolvent, "bessel_j_grid", counted)
    resolvent.clear_green_cache()
    lams = np.array([0.5 - 0.2j, 2.0 + 0.0j])
    resolvent._osc_block(_DRAW2_ORBITS, lams)
    assert calls == [(resolvent._OSC_NPTS * 480, 2)]
    assert resolvent.green_cache_info()["osc"]["grids"] == 1
    resolvent._osc_block(_DRAW2_ORBITS[::-1], lams)
    assert len(calls) == 1 and resolvent.green_cache_info()["osc"]["grids"] == 1
    for canons in _MIXED_SETS:
        n0 = max(canon[0] for canon in canons)
        resolvent.clear_green_cache()
        calls.clear()
        resolvent._osc_block(canons, lams)
        assert calls == [(resolvent._OSC_NPTS * (480 + 20 * n0), n0)]
        assert resolvent.green_cache_info()["osc"]["grids"] == 1


def test_blocks_do_not_depend_on_the_orbit_set_or_the_lambdas():
    # each engine core's block, on a mixed orbit set (max_j |n_j| = 0, 1
    # and 2, all on one horizon and one Bessel grid), equals float for
    # float each orbit computed alone, on the grid of its own orders, and
    # each lambda computed alone: the oscillatory engine, whose per-orbit
    # constants come from one cached plan, on interior lambdas, band
    # points and the band edges, with rows of zero tail frequency (lambda
    # = S), and the torus on two grid sizes.  A set with an orbit beyond
    # _OSC_NEAR integrates its near orbits to its longer horizon, which
    # agrees with their own to rounding only; its columns still do not
    # depend on the other lambdas
    def check(core, canons, lams, *extra, orbits_alone=True):
        vals, errs = core(canons, lams, *extra)
        for u, canon in enumerate(canons if orbits_alone else ()):
            alone = core([canon], lams, *extra)
            assert np.array_equal(alone[0][0], vals[u]) and np.array_equal(alone[1][0], errs[u])
        for k, lam in enumerate(lams):
            alone = core(canons, lams[k:k + 1], *extra)
            assert np.array_equal(alone[0][:, 0], vals[:, k]) and np.array_equal(alone[1][:, 0], errs[:, k])

    resolvent.clear_green_cache()
    lams = np.array([0.7 - 0.3j, -2.2 - 1.2j, 3.0, -3.0, 1.0, -1.0, 2.4, 3.1 - 0.05j])
    resolvent._osc_block(_DRAW2_ORBITS, lams)
    assert resolvent._osc_grid.cache_info().currsize == 1
    check(resolvent._osc_block, _DRAW2_ORBITS, lams)
    # one grid per largest order: the set's, and the lone orbits' own at
    # orders 0 and 1 (2 is the set's)
    assert resolvent._osc_grid.cache_info().currsize == 3
    check(resolvent._osc_block, _MIXED_SETS[0], lams, orbits_alone=False)
    for n_quad in (32, 40):
        check(resolvent._torus_block, _DRAW2_ORBITS, np.array([0.5 - 1.3j, -2.0 + 1.5j, 4.5 + 0.0j, -4.4 - 0.2j]),
              n_quad)
    plans = (resolvent._osc_plan, resolvent._osc_grid)
    assert all(plan.cache_info().currsize for plan in plans)
    resolvent.clear_green_cache()
    for cache in plans + (resolvent.support_orbits,):
        assert cache.cache_info().currsize == 0


# the orbit set of benchmark panel draw 0 (panel seed 1)
_DRAW0_ORBITS = [(0, 0, 0), (1, 0, 0), (1, 1, 0)]


def _circle_band_lambdas():
    # the 513 first-quadrant nodes of |z| = 0.999 at N = 2048, whose images
    # lie in the quadrant Re lam >= 0, Im lam <= 0 next to the band; 89
    # band points; and the four lambdas lam = S at which a mode tail has
    # frequency 0: 606 lambdas, ten chunks of 64-row tiles at T0 = 240
    zs = 0.999 * np.exp(0.5j * np.pi * np.arange(513) / 512)
    band = np.linspace(0.0, 3.0, 91)[1:-1].astype(complex)
    return np.concatenate([lambda_of_z(zs, 3), band, np.array([-3.0, -1.0, 1.0, 3.0], dtype=complex)])


def test_osc_block_is_batch_invariant_at_scale():
    # the panel sums are stacked 64-row BLAS products, so a lambda's row may
    # sit in any tile and next to any rows: on 606 lambdas, more than
    # one chunk, each lambda alone, a seeded permutation of the block and
    # its consecutive sub-batches of 1, 63, 64, 65 and 129 lambdas give the
    # values and estimates of the whole block, bit for bit
    lams = _circle_band_lambdas()
    assert lams.size >= 600 and (lams.imag <= 0.0).all()
    vals, errs = resolvent._osc_block(_DRAW0_ORBITS, lams)
    for k in range(lams.size):
        alone = resolvent._osc_block(_DRAW0_ORBITS, lams[k:k + 1])
        assert np.array_equal(alone[0][:, 0], vals[:, k]) and np.array_equal(alone[1][:, 0], errs[:, k])
    perm = np.random.default_rng(36).permutation(lams.size)
    for size in (lams.size, 63, 64, 65, 129):
        for lo in range(0, lams.size, size):
            cols = perm[lo:lo + size]
            part = resolvent._osc_block(_DRAW0_ORBITS, lams[cols])
            assert np.array_equal(part[0], vals[:, cols]) and np.array_equal(part[1], errs[:, cols]), size


def test_osc_block_does_not_depend_on_the_blas_thread_count(tmp_path):
    # the same large blocks computed in fresh processes under one and two
    # OpenBLAS threads have the same bytes, values and estimates: on draw
    # 0's orbits (480 panels) and on a set reaching (16,0,0) (800 panels;
    # with OpenBLAS 0.3.31 the values depend on the count from 1,580
    # panels, n0 = 55, where a tile's product leaves its one-thread path)
    import os
    import subprocess
    import sys

    orbit_sets = [_DRAW0_ORBITS, [(0, 0, 0), (2, 1, 0), (16, 0, 0)]]
    lams = _circle_band_lambdas()
    np.save(tmp_path / "lams.npy", lams)
    src = os.path.dirname(os.path.dirname(resolvent.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = ("import sys\n"
            "import numpy as np\n"
            "from latspec import resolvent\n"
            "lams = np.load(sys.argv[1])\n"
            f"blocks = [resolvent._osc_block(canons, lams) for canons in {orbit_sets!r}]\n"
            "sys.stdout.buffer.write(b''.join(a.tobytes() for block in blocks for a in block))\n")
    out = {}
    for threads in ("1", "2"):
        out[threads] = subprocess.run([sys.executable, "-c", code, str(tmp_path / "lams.npy")],
                                      env=dict(env, OPENBLAS_NUM_THREADS=threads), check=True,
                                      capture_output=True, timeout=300).stdout
    assert len(out["1"]) == 24 * 6 * lams.size
    assert out["1"] == out["2"]


def test_osc_main_matches_an_exactly_rounded_sum():
    # the main sum against an independent oracle: sum_t w K(t) e^(-i lam t)
    # over the 4,800 Gauss nodes on [0, 240], each part summed by
    # math.fsum, at a point of the |z| = 0.999 circle next to the band, a
    # band point and lam = S = 1 and 3, within 8 eps sum |w K| (at most
    # 0.12 of it seen)
    eps = np.finfo(float).eps
    lams = np.array([lambda_of_z(0.999 * cmath.exp(0.7j), 3), 2.2, 1.0, 3.0], dtype=complex)
    worst = 0.0
    for canon in ((0, 0, 0), (1, 1, 0), (2, 1, 0)):
        nodes, weights, kern, kw = _gauss_kernel(canon, resolvent._OSC_T0)
        assert nodes.size == 4800
        main = resolvent._osc_main(kw, *resolvent._osc_phases(lams, kw.shape[1]))
        scale = 8.0 * eps * math.fsum(np.abs(weights * kern))
        for lam, value in zip(lams, main):
            terms = weights * kern * np.exp(-1j * lam * nodes)
            ref = complex(math.fsum(terms.real), math.fsum(terms.imag))
            worst = max(worst, abs(value - ref) / scale)
    assert worst <= 1.0


def _orbits_up_to(n0):
    return [(a, b, c) for a in range(n0 + 1) for b in range(a + 1) for c in range(b + 1)]


def test_shared_horizon_keeps_the_engine_estimate(monkeypatch):
    # _OSC_NEAR is the largest leading order at which T0 = 240 costs the
    # engine no accuracy by its own estimate: at band points (edges and
    # Van Hove levels included) and interior points near the band, the
    # estimate of every orbit up to (K, K, K) at T0 = 240 exceeds the one
    # at the horizon 240 + 10 K of its leading order K by less than a
    # tenth of a rounding unit eps (1 + |G|) of the value, and the values
    # agree within that estimate; at (K + 1)^3 the excess is larger
    eps = np.finfo(float).eps
    lams = np.array([0.0, 1.0, 3.0, 2.999, 0.5 - 1e-3j, 1.0 - 1e-2j, 2.999 - 1e-4j, 3.0 - 0.05j, 1.7 - 0.3j])
    near = resolvent._OSC_NEAR

    def block(canons, k):
        # each orbit alone, with the orbits up to leading order k on the
        # horizon 240 and the others on the horizon of their own order
        monkeypatch.setattr(resolvent, "_OSC_NEAR", k)
        resolvent.clear_green_cache()
        parts = [resolvent._osc_block([canon], lams) for canon in canons]
        return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])

    try:
        (old, old_errs), (vals, errs) = block(_orbits_up_to(near), -1), block(_orbits_up_to(near), near)
        assert np.array_equal(vals[0], old[0])  # (0, 0, 0) had T0 = 240 already
        assert (errs - old_errs <= 0.1 * eps * (1.0 + np.abs(vals))).all()
        assert (np.abs(vals - old) <= errs).all()
        (_, old_errs), (vals, errs) = block([(near + 1,) * 3], -1), block([(near + 1,) * 3], near + 1)
        assert (errs - old_errs > 0.1 * eps * (1.0 + np.abs(vals))).any()
    finally:
        # no plan built under another _OSC_NEAR outlives the test
        resolvent.clear_green_cache()


def test_shared_horizon_matches_the_series():
    # every orbit up to (K, K, K), K = _OSC_NEAR, on the horizon T0 = 240
    # against the exact series on the circles |z| = 0.75 and 0.8 (the
    # series' own reach), within the oscillatory engine's estimate
    lams = np.array([lambda_of_z(r * cmath.exp(1j * t), 3) for r in (0.75, 0.8)
                     for t in (0.0, 0.4, 1.1, 1.5708, 2.0, 2.7, math.pi)])
    canons = _orbits_up_to(resolvent._OSC_NEAR)
    series, _ = resolvent._series_block(canons, lams)
    osc, osc_err = resolvent._osc_block(canons, lams)
    assert (np.abs(series - osc) <= osc_err).all()


def test_mixed_orbit_set_has_one_horizon(monkeypatch):
    # a set of near orbits and one of leading order n0 > _OSC_NEAR is
    # integrated to the one horizon 240 + 10 n0, with one tail call and one
    # Bessel grid: its near orbits still agree with the exact series on
    # the circles |z| = 0.75 and 0.8 within the oscillatory estimate, and
    # its far orbit with the damped time engine at an interior point
    # within the time engine's estimate
    tail_vec = resolvent.tail_integral_vec
    horizons = []

    def counted(s, w, T):
        horizons.append(T)
        return tail_vec(s, w, T)

    monkeypatch.setattr(resolvent, "tail_integral_vec", counted)
    circles = np.array([lambda_of_z(r * cmath.exp(1j * t), 3) for r in (0.75, 0.8)
                        for t in (0.0, 0.4, 1.1, 1.5708, 2.0, 2.7, math.pi)])
    lams = np.append(circles, 2.9 - 0.05j)
    for canons in _MIXED_SETS:
        n0 = max(canon[0] for canon in canons)
        resolvent.clear_green_cache()
        horizons.clear()
        osc, osc_err = resolvent._osc_block(canons, lams)
        assert horizons == [240.0 + 10.0 * n0]
        assert resolvent.green_cache_info()["osc"]["grids"] == 1
        near = [u for u, canon in enumerate(canons) if canon[0] <= resolvent._OSC_NEAR]
        series, _ = resolvent._series_block([canons[u] for u in near], circles)
        assert (np.abs(series - osc[near, :-1]) <= osc_err[near, :-1]).all()
        far = canons[-1]
        assert far[0] == n0
        time = green_time(far, lams[-1], 3)
        assert abs(osc[-1, -1] - time.value) <= time.err_estimate


def test_factored_gauss_phase_matches_direct_sum():
    # the per-panel factoring of e^(-i lam t) against the plain sum over the
    # nodes, on the band, at the Van Hove levels +-1 and the edges +-3, from
    # the real axis out to the switching distance; the two differ only by
    # rounding, bounded here by 4 ulps of sum |w K| (1.2 ulps seen)
    eps = np.finfo(float).eps
    lams = np.array([complex(re, im) for re in (0.0, 1.0, -1.0, 3.0, -3.0)
                     for im in (0.0, -0.01, -0.5, -1.25)])
    # (7, 3, 1) has 620 panels, not a whole number of _OSC_FINE steps
    for canon in ((0, 0, 0), (1, 0, 0), (2, 1, 0), (5, 3, 1), (resolvent._OSC_NEAR + 1, 3, 1)):
        nodes, weights, kern, kw = _gauss_kernel(canon, resolvent._osc_t0(canon[0]))
        assert kw.shape == (10, nodes.size // 10)
        assert np.array_equal(resolvent._osc_plan((canon,))[1][0][0], kw)
        bound = 4.0 * eps * float(np.sum(np.abs(weights * kern)))
        got = resolvent._osc_main(kw, *resolvent._osc_phases(lams, kw.shape[1]))
        for lam, value in zip(lams, got):
            direct = np.sum(weights * np.exp(-1j * lam * nodes) * kern)
            assert abs(value - direct) <= bound


def test_green_cache_counters_repeat(v3, monkeypatch):
    # the memo counters of a pipeline are deterministic: two cold runs of
    # zeros, boundary trace and Taylor data on V = 3 delta_0 count the same
    # hits, misses and sizes per engine and the same built orbits and
    # Bessel grids, and the torus computes nothing
    from latspec.determinant import taylor_coeffs
    from latspec.hardy import boundary_trace
    from latspec.zeros import find_zeros

    calls = _count_engines(monkeypatch)
    infos = []
    for _ in range(2):
        resolvent.clear_green_cache()
        assert all(not any(v.values()) for v in resolvent.green_cache_info().values())
        find_zeros(v3)
        boundary_trace(v3, n_grid=256)
        taylor_coeffs(v3, 0.25)
        infos.append(resolvent.green_cache_info())
    assert infos[0] == infos[1]
    osc, series = infos[0]["osc"], infos[0]["series"]
    assert osc["misses"] == osc["size"] > 0 and osc["hits"] > 0 and osc["grids"] == 1
    assert series["misses"] == series["size"] > 0 and series["orbits"] == 1
    assert calls["torus"] == 0


def _mirrors(lam):
    return [lam.conjugate(), -lam, -lam.conjugate()]


def test_fold_matches_closed_form_in_one_dimension():
    # G(n, lam) = 2 z^(|n|+1) / (z^2 - 1), z = z(lam), at Re lam < 0 and
    # both parities of |n|: once computed directly (cold memo) and once
    # served from the series memo entry of a mirror image
    for lam in (-1.7 - 0.6j, -4.0 + 0.2j, -0.3 + 1.1j, -2.5 - 0.01j):
        z = z_of_lambda(lam, 1)
        for n in (0, 1, 2, 3):
            exact = 2.0 * z ** (n + 1) / (z * z - 1.0)
            resolvent.clear_green_cache()
            assert abs(green_auto((n,), lam, 1).value - exact) <= 1e-13
            for image in _mirrors(lam):
                green_auto((n,), image, 1)
            served = green_auto((n,), lam, 1).value
            assert resolvent.green_cache_info()["series"]["misses"] == 1
            assert abs(served - exact) <= 1e-13


def test_watson_band_edge_value_at_the_lower_edge():
    # at lambda0 = -3: G(0, -3) = -G(0, 3) is minus Watson's value, and the
    # difference equation at the edge, 3 G(e1) + 3 G(0) = 1, gives G(e1)
    watson = _watson_band_edge()
    for side in ("plus", "minus"):
        g0 = green_boundary((0, 0, 0), -3.0, side, 3).value
        g1 = green_boundary((1, 0, 0), -3.0, side, 3).value
        assert g0.real == pytest.approx(-watson, abs=1e-8)
        assert g1.real == pytest.approx(1.0 / 3.0 + watson, abs=1e-8)
        assert abs(g0.imag) < 1e-10 and abs(g1.imag) < 1e-10


def test_fold_against_direct_cores():
    # each memoised engine core called directly at a lambda outside the
    # quadrant Re >= 0, Im <= 0 against the folded front door, to rounding
    # (the series core evaluates at z(lambda) of any lambda off the band)
    def close(a, b):
        return abs(a - b) <= 1e-15 * (1.0 + abs(b))

    canons = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 0)]
    for canon in canons:
        # the series (|z| <= 0.8 at every lambda here)
        for lam in (0.4 + 1.6j, -0.4 + 1.6j, -0.7 - 2.1j, -3.5 + 0.0j):
            resolvent.clear_green_cache()
            direct = resolvent._series_block([canon], np.array([lam]))[0][0, 0]
            assert close(green_auto(canon, lam, 3).value, direct), (canon, lam)
        # the time engine applies no fold: it is its core
        lam = -0.8 - 0.9j
        direct = resolvent._time_block([canon], np.array([lam]))[0][0, 0]
        assert green_time(canon, lam, 3).value == direct
        # the oscillatory engine: interior (Im lam < 0) and the minus side of the band
        for lam in (-1.3 - 0.4j, -2.9 - 0.05j):
            direct = resolvent._osc_block([canon], np.array([lam]))[0][0, 0]
            assert close(green_auto(canon, lam, 3).value, direct)
        for lam0 in (-0.6, -2.2):
            direct = resolvent._osc_block([canon], np.array([complex(lam0)]))[0][0, 0]
            assert close(green_boundary(canon, lam0, "minus", 3).value, direct)
            assert close(green_boundary(canon, lam0, "plus", 3).value, direct.conjugate())


def test_mirror_images_share_one_value():
    # a lambda and its three mirror images are one memo entry per orbit,
    # in every engine; a lambda that is not an exact image is a miss
    sites = [(0, 0, 0), (1, 0, 0), (0, -1, 0), (1, 1, 0)]
    canons, index = [(0, 0, 0), (1, 0, 0), (1, 1, 0)], [0, 1, 1, 2]
    for lam in (0.6 - 0.3j, 2.0 - 1.0j):  # oscillatory, series
        resolvent.clear_green_cache()
        vals = resolvent.green_orbits(canons, [lam] + _mirrors(lam), 3)[0][index]
        engine = "osc" if abs(z_of_lambda(lam, 3)) > resolvent._SERIES_RADIUS else "series"
        assert resolvent.green_cache_info()[engine]["misses"] == 3
        for row, n in zip(vals, sites):
            sign = -(-1) ** sum(abs(c) for c in n)
            assert row[1] == row[0].conjugate()
            assert row[2] == sign * row[0] and row[3] == sign * row[0].conjugate()
        resolvent.green_orbits(canons, [lam + 1e-15], 3)
        assert resolvent.green_cache_info()[engine]["misses"] == 6
    resolvent.clear_green_cache()
    vals = resolvent.green_boundary_orbits(canons, [1.5, 1.5, -1.5, -1.5], [False, True, False, True], 3)[0][index]
    assert resolvent.green_cache_info()["osc"]["misses"] == 3
    for row, n in zip(vals, sites):
        sign = -(-1) ** sum(abs(c) for c in n)
        assert row[1] == row[0].conjugate()
        assert row[2] == sign * row[0].conjugate() and row[3] == sign * row[0]


def test_memo_pass_computes_exactly_the_missing_keys(monkeypatch):
    # a block of 3 orbits x 4 images with 2 images known for the set: the
    # core is called once, on the whole set and exactly the missing images;
    # each (orbit, lambda) pair counts once, a hit unless its image was
    # missing, so a mirror or repeat of an image counts as a hit
    calls = []
    series = resolvent._series_block

    def counted(canons, lams):
        calls.append((list(canons), lams.tolist()))
        return series(canons, lams)

    monkeypatch.setattr(resolvent, "_series_block", counted)
    q = [1.0 - 2.0j, 2.0 - 1.5j, 0.5 - 3.0j, 3.5 - 1.3j]  # series images
    canons = [(0, 0, 0), (1, 0, 0), (1, 1, 0)]
    lams = [q[0], q[1], -q[0], q[2], q[3], q[1].conjugate()]
    resolvent.clear_green_cache()
    cold, cold_err = resolvent.green_orbits(canons, lams, 3)
    resolvent.clear_green_cache()
    resolvent.green_orbits(canons, [q[0], q[2]], 3)
    before = resolvent.green_cache_info()["series"]
    calls.clear()
    vals, errs = resolvent.green_orbits(canons, lams, 3)
    assert calls == [(canons, [q[1], q[3]])]
    after = resolvent.green_cache_info()["series"]
    assert after["misses"] - before["misses"] == 6
    assert after["hits"] - before["hits"] == 3 * len(lams) - 6
    assert after["size"] == 12
    assert np.array_equal(vals, cold) and np.array_equal(errs, cold_err)
    # nothing missing: no core call, every pair a hit
    resolvent.green_orbits(canons, lams, 3)
    assert len(calls) == 1
    assert resolvent.green_cache_info()["series"]["hits"] - after["hits"] == 3 * len(lams)
    resolvent.clear_green_cache()


def _memo_server(canon_sets, q):
    """serve(canons, lams) -> the series misses of one green_orbits block,
    whose values and error estimates it checks bitwise against each
    (orbit set, image) computed cold, and whose orbit set it checks holds
    its columns 0 .. len(index) - 1."""
    cold = {}
    for canons in canon_sets:
        for lam in q:
            resolvent.clear_green_cache()
            cold[canons, lam] = resolvent.green_orbits(canons, [lam], 3)
    memo = resolvent._MEMOS["series"]
    resolvent.clear_green_cache()

    def serve(canons, lams):
        before = memo.misses
        vals, errs = resolvent.green_orbits(canons, lams, 3)
        for k, lam in enumerate(lams):
            ref = cold[canons, lam]
            assert np.array_equal(vals[:, k:k + 1], ref[0]) and np.array_equal(errs[:, k:k + 1], ref[1])
        assert sorted(memo.sets[canons].index.values()) == list(range(len(memo.sets[canons].index)))
        return memo.misses - before

    return memo, serve


def test_memo_forgets_by_block_within_one_orbit_set(monkeypatch):
    # room for 12 values holds 4 images of a 3-orbit set: blocks that fit
    # keep every image; a block that overflows keeps exactly its own
    # images, and the forgotten ones come back as misses, bitwise cold
    monkeypatch.setattr(resolvent, "_MEMO_SIZE", 12)
    canons = ((0, 0, 0), (1, 0, 0), (1, 1, 0))
    q = [1.0 - 2.0j, 2.0 - 1.5j, 0.5 - 3.0j, 3.5 - 1.3j, 2.5 - 2.0j, 1.5 - 2.5j, 3.0 - 2.2j]  # series images
    memo, serve = _memo_server([canons], q)
    assert [serve(canons, [q[0]]), serve(canons, [q[1], q[2]]), serve(canons, [q[3]])] == [3, 6, 3]
    assert memo.size == 12 and set(memo.sets[canons].index) == set(q[:4])
    # q[4] would make 15 values: only the block's q[2] stays, then q[4] joins
    assert serve(canons, [q[4], q[2]]) == 3
    assert memo.size == 6 and set(memo.sets[canons].index) == {q[2], q[4]}
    assert serve(canons, [q[0], q[1], q[2], q[4]]) == 6
    assert memo.size == 12 and set(memo.sets[canons].index) == {q[0], q[1], q[2], q[4]}
    # a block larger than the bound is served and held whole, until the
    # next block that overflows
    resolvent.clear_green_cache()
    assert serve(canons, q[:6]) == 18
    assert memo.size == 18 and set(memo.sets[canons].index) == set(q[:6])
    assert serve(canons, q[:6]) == serve(canons, [q[5]]) == 0
    assert serve(canons, [q[6], q[1]]) == 3
    assert memo.size == 6 and set(memo.sets[canons].index) == {q[1], q[6]}
    resolvent.clear_green_cache()


def test_memo_forgets_other_orbit_sets_when_a_block_overflows(monkeypatch):
    # room for 6 values: a block that fits keeps every orbit set; one that
    # overflows drops the other sets and keeps only its own images, so
    # ``size`` counts them alone, and a dropped set's values come back
    # bitwise as computed cold
    monkeypatch.setattr(resolvent, "_MEMO_SIZE", 6)
    big, small = ((0, 0, 0), (1, 0, 0), (1, 1, 0)), ((0, 0, 0), (2, 1, 0))
    q = [1.0 - 2.0j, 2.0 - 1.5j, 0.5 - 3.0j, 3.5 - 1.3j, 2.5 - 2.0j]  # series images
    memo, serve = _memo_server([big, small], q)
    assert serve(big, [q[0]]) == 3 and serve(small, [q[1]]) == 2
    assert set(memo.sets) == {big, small} and memo.size == 5
    assert serve(small, [q[2], q[1]]) == 2
    assert set(memo.sets) == {small} and memo.size == 4
    assert serve(small, [q[3]]) == 2 and memo.size == 6
    assert serve(small, [q[4], q[3]]) == 2
    assert set(memo.sets) == {small} and memo.size == 4 and set(memo.sets[small].index) == {q[3], q[4]}
    assert serve(big, [q[0]]) == 3
    assert set(memo.sets) == {big} and memo.size == 3
    # a block of 9 values is held whole
    assert serve(big, [q[1], q[0], q[2]]) == 6
    assert set(memo.sets) == {big} and memo.size == 9
    assert resolvent.green_cache_info()["series"]["misses"] == 5 + 2 + 2 + 2 + 3 + 6
    resolvent.clear_green_cache()


def test_time_engine_is_outside_the_fold():
    # green_time is its core in all four quadrants, bit for bit; the upper
    # half plane is the exact conjugate of the lower, and no memo is kept
    resolvent.clear_green_cache()
    for canon in ((0, 0, 0), (1, 0, 0), (2, 1, 0)):
        for lam in (0.8 - 0.9j, -0.8 - 0.9j, 0.8 + 0.9j, -0.8 + 0.9j):
            got = green_time(canon, lam, 3)
            vals, errs = resolvent._time_block([canon], np.array([lam]))
            assert got.value == vals[0, 0] and got.err_estimate == errs[0, 0]
            if lam.imag > 0:
                below = green_time(canon, lam.conjugate(), 3)
                assert got.value == below.value.conjugate()
                assert got.err_estimate == below.err_estimate
    info = resolvent.green_cache_info()
    assert "time" not in info
    assert all(not any(v.values()) for v in info.values())


# ------------------------------------------------------------ exact series

def _walks(canon, j):
    # walks of j steps from 0 to n: the first two axes in closed form, then
    # one binomial convolution per further axis (math.comb throughout)
    def one(n, l):
        return math.comb(l, (l + n) // 2) if l >= n and (l - n) % 2 == 0 else 0

    def two(n1, n2, l):
        return one(n1 + n2, l) * one(abs(n1 - n2), l)

    if len(canon) == 1:
        return one(canon[0], j)
    if len(canon) == 2:
        return two(*canon, j)
    return sum(math.comb(j, i) * _walks(canon[:-1], i) * one(canon[-1], j - i) for i in range(j + 1))


def _coeffs(canon, k_max):
    # g_k = -2 d^(-k) sum_(j+1+2m=k) (-1)^m C(j+m, m) W_j d^(k-1-j), one
    # correctly rounded integer division per k
    d = len(canon)
    walks = [_walks(canon, j) for j in range(k_max)]
    g = [0.0]
    for k in range(1, k_max + 1):
        num = sum((-1) ** m * math.comb(k - 1 - m, m) * walks[k - 1 - 2 * m] * d ** (2 * m)
                  for m in range((k - 1) // 2 + 1))
        g.append(-2 * num / d ** k)
    return g


def test_series_coefficients_and_tail_estimate():
    # the cached build gives bit for bit the coefficients of the plain
    # formula, and its tail estimate covers the terms K + 1 .. 2K at the
    # radius it serves (|z| = 0.8 at d = 3, 0.84 at d = 2, 0.71 at d = 1)
    resolvent.clear_green_cache()
    for canon in ((0, 0, 0), (2, 1, 0), (1, 1, 1), (1, 0), (2,)):
        d = len(canon)
        g, top = resolvent._series_coeffs(canon)
        K = g.size - 1
        ref = _coeffs(canon, 2 * K)
        assert g.tolist() == ref[:K + 1]
        assert top == max(abs(c) for c in ref[K + 1 - resolvent._SERIES_WINDOW:K + 1])
        r = resolvent._series_radius(d)
        assert r == (0.8 if d == 3 else abs(z_of_lambda(0.35j, d)))
        for t in (0.0, 0.7, 1.6, 2.9):
            z = r * cmath.exp(1j * t)
            beyond = abs(sum(ref[k] * z ** k for k in range(K + 1, 2 * K + 1)))
            assert beyond <= top * r ** (K + 2) / (1.0 - r * r)
    assert resolvent.green_cache_info()["series"]["orbits"] == 5
    resolvent.clear_green_cache()
    assert resolvent.green_cache_info()["series"]["orbits"] == 0
    for cache in (resolvent._series_coeffs, resolvent._pascal_row, resolvent._axis_row, resolvent._subst_row):
        assert cache.cache_info().currsize == 0


def test_series_matches_time_off_the_band():
    # d = 3 and 4, orbits up to (2, 2, 0), on three circles |z| in the disc;
    # the points lie on both sides of distance 1.25 from the band, where the
    # torus used to take over
    dists = []
    for d in (3, 4):
        canons = [c + (0,) * (d - 3) for c in ((0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 0), (2, 2, 0))]
        for radius in (0.3, 0.6, 0.8):
            lams = [lambda_of_z(radius * cmath.exp(1j * t), d) for t in (0.4, 1.2, 1.9, 2.7)]
            dists += [dist_to_band(lam, d) for lam in lams]
            vals, errs = resolvent._series_block(canons, np.array(lams))
            ref, ref_err = resolvent.green_orbits(canons, lams, d, engine="time")
            assert np.abs(vals - ref).max() <= 1e-9
            assert (np.abs(vals - ref) <= 10.0 * (errs + ref_err) + 1e-12).all()
    assert min(dists) < 1.25 < max(dists)


def test_series_matches_closed_form_in_one_dimension():
    # G(n, lam) = 2 z^(|n|+1) / (z^2 - 1), z = z(lam), to rounding, over the
    # four quadrants and out to distance 0.35 from the band (|z| = 0.71)
    eps = np.finfo(float).eps
    for lam in (0.35j, -0.35j, 2.5 + 0.3j, -1.7 - 0.6j, 0.2 + 1.1j, 1.35, -1.0 - 0.35j, 40.0 + 3.0j):
        z = z_of_lambda(lam, 1)
        for n in range(6):
            exact = 2.0 * z ** (n + 1) / (z * z - 1.0)
            got = green_auto((n,), lam, 1)
            assert abs(got.value - exact) <= 4.0 * eps * (1.0 + abs(exact))
            assert abs(got.value - exact) <= got.err_estimate


def test_series_blocks_are_bitwise_their_columns(monkeypatch):
    # a series block equals, float for float, each orbit computed alone and
    # each lambda computed alone, across chunks of 3 lambdas; at d = 1 and 2
    # mirror images share one value exactly, as at d = 3
    resolvent.clear_green_cache()
    width = resolvent._series_plan(tuple(_DRAW2_ORBITS))[0].shape[1]
    monkeypatch.setattr(resolvent, "_CHUNK_BYTES", 32 * width * len(_DRAW2_ORBITS) * 3)
    lams = np.array([0.5 - 1.3j, 2.0 - 1.5j, 4.5 + 0.0j, 3.1 - 0.01j, 1.0 - 3.0j, 0.0 - 0.7j, 9.0 - 0.5j])
    vals, errs = resolvent._series_block(_DRAW2_ORBITS, lams)
    for u, canon in enumerate(_DRAW2_ORBITS):
        alone = resolvent._series_block([canon], lams)
        assert np.array_equal(alone[0][0], vals[u]) and np.array_equal(alone[1][0], errs[u])
    for k in range(lams.size):
        alone = resolvent._series_block(_DRAW2_ORBITS, lams[k:k + 1])
        assert np.array_equal(alone[0][:, 0], vals[:, k]) and np.array_equal(alone[1][:, 0], errs[:, k])
    for d, canons in ((1, [(0,), (1,), (2,)]), (2, [(0, 0), (1, 0), (1, 1)])):
        lam = 0.6 - 0.5j
        resolvent.clear_green_cache()
        got = resolvent.green_orbits(canons, [lam] + _mirrors(lam), d)[0]
        assert resolvent.green_cache_info()["series"]["misses"] == len(canons)
        for row, canon in zip(got, canons):
            sign = -(-1) ** sum(canon)
            assert row[1] == row[0].conjugate()
            assert row[2] == sign * row[0] and row[3] == sign * row[0].conjugate()


def test_auto_reaches_no_torus_at_any_dimension(monkeypatch):
    # green_auto sends every lambda it accepts to the series or, at d >= 3
    # and |z(lambda)| > 0.8 only, to the oscillatory engine: never to the torus
    calls = _count_engines(monkeypatch)
    grid = [complex(x, y) for x in (-9.0, -4.1, -3.0, -1.2, 0.0, 0.8, 2.5, 3.5, 6.0)
            for y in (-5.0, -1.3, -0.7, -0.36, -0.05, 0.05, 0.36, 0.7, 1.3)]
    for d in (1, 2, 3, 4):
        # at d = 1, 2 the lambdas whose quadrant image lies in the series' disc
        radius = resolvent._series_radius(d)
        lams = [lam for lam in grid
                if d >= 3 or abs(z_of_lambda(complex(abs(lam.real), -abs(lam.imag)), d)) <= radius]
        resolvent.clear_green_cache()
        calls.update(osc=0, torus=0, series=0)
        vals = resolvent.green_orbits([(1,) + (0,) * (d - 1)], lams, d)[0]
        assert np.isfinite(vals).all() and calls["torus"] == 0
        # one value per quadrant image
        images = {complex(abs(lam.real), 0.0 - abs(lam.imag)) for lam in lams}
        inner = sum(abs(z_of_lambda(q, d)) > 0.8 for q in images) if d >= 3 else 0
        assert calls["osc"] == inner and calls["series"] == len(images) - inner


def test_import_builds_no_series_coefficients():
    # importing the package and the CLI computes no walk counts or tables
    import os
    import subprocess
    import sys

    code = ("import latspec, latspec.cli\n"
            "from latspec import resolvent as r\n"
            "assert r.green_cache_info()['series']['orbits'] == 0\n"
            "assert not any(f.cache_info().currsize for f in (r._series_coeffs, r._series_plan, "
            "r._pascal_row, r._axis_row, r._subst_row))\n")
    src = os.path.dirname(os.path.dirname(resolvent.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
