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


def test_torus_matches_the_oscillatory_engine_near_the_band():
    # distance 1e-3 to 0.05 at d = 3, beside the band, at the Van Hove level
    # and beyond an edge, on the finest grid (n_quad 512) against green_auto's
    # oscillatory engine, with the rule of test_error_estimates_are_honest
    for lam in (2.9 - 0.01j, 0.5 - 0.05j, -1.0 + 0.02j, 3.002 + 0.0j, -0.2 - 1e-3j, 3.01 + 0.04j):
        assert 1e-3 <= dist_to_band(lam, 3) <= 0.05 and abs(z_of_lambda(lam, 3)) > 0.8
        for n in ((0, 0, 0), (1, 0, 0), (2, 1, 0)):
            a, b = green_torus(n, lam, 3, n_quad=512), green_auto(n, lam, 3)
            assert abs(a.value - b.value) <= 10.0 * (a.err_estimate + b.err_estimate) + 1e-12, (n, lam)


def test_torus_matches_the_series_in_three_and_four_dimensions():
    # |z| <= 0.8, where green_auto serves the exact series, at d = 3 and 4
    for d in (3, 4):
        canons = [c + (0,) * (d - 3) for c in ((0, 0, 0), (1, 0, 0), (2, 1, 0), (2, 2, 1))]
        for radius in (0.3, 0.6, 0.8):
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


def test_oscillatory_tails_computed_once_per_frequency(monkeypatch):
    # the 8 sign patterns at d = 3 have 4 distinct frequencies S, and T0
    # depends on the orbit only through max_j |n_j|: one block makes one
    # tail_integral_vec call over its T0s and every (S, lambda) pair, and must
    # equal, bit for bit, the engine's numeric sum plus one tail evaluation
    # per sign pattern and lambda
    lams = np.array([1.7 - 0.4j, -0.3 - 0.1j, 2.9 + 0.0j, -3.0 + 0.0j])
    canons = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 0)]
    tail_vec = resolvent.tail_integral_vec
    calls = []

    def counted(s, w, T):
        calls.append((np.array(w), T))
        return tail_vec(s, w, T)

    monkeypatch.setattr(resolvent, "tail_integral_vec", counted)
    vals, errs = resolvent._osc_block(canons, lams)
    freqs = np.arange(-3, 4, 2)
    assert len(calls) == 1 and list(calls[0][1]) == [240.0, 250.0, 260.0]
    for w, _ in calls:
        assert np.array_equal(w, (freqs[:, None] - lams).ravel())

    s_exps = 1.5 + np.arange(resolvent._OSC_N_TERMS, dtype=float)
    mode_factor = (2.0 / np.pi) ** 1.5 * 0.5 ** 3
    for u, canon in enumerate(canons):
        T0 = resolvent._osc_t0(canon[0])
        kw = resolvent._osc_kw(canon)
        main = resolvent._osc_main(kw, *resolvent._osc_phases(lams, kw.shape[1]))
        tail = np.zeros(lams.size, dtype=complex)
        trunc = np.zeros(lams.size)
        for ph0, s_freq, poly in zip(*resolvent._osc_tail_data(canon)):
            pieces = np.array([tail_vec(s_exps, s_freq - lam, T0) for lam in lams])
            tail += ph0 * np.einsum("kj,j->k", pieces, poly)
            trunc += np.abs(poly[-1] * pieces[:, -1])
        ref = -1j * resolvent._IPOW[sum(canon) % 4] * (main + mode_factor * tail)
        assert np.array_equal(vals[u], ref)
        assert np.array_equal(errs[u], mode_factor * trunc + 1e-14 * (1.0 + np.abs(ref)))


def _osc_block_per_pattern(canons, lams):
    # the oscillatory block as it was before one tail call served every T0:
    # per orbit its own Bessel grid, per T0 its own tail call, per sign
    # pattern its own contraction
    d = len(canons[0])
    kws = []
    for canon in canons:
        nodes, weights, _ = resolvent._osc_grid(canon[0])
        rows = resolvent.bessel_j_grid(nodes, canon[0])
        kern = np.prod([rows[m] for m in canon], axis=0)
        kws.append(np.ascontiguousarray((weights * kern).reshape(-1, resolvent._OSC_NPTS).T))
    n_panels = max(kw.shape[1] for kw in kws)
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
        tails = {T0: resolvent.tail_integral_vec(s_exps, w, T0).reshape(freqs.size, lam.size, -1)
                 for T0 in sorted({resolvent._osc_t0(canon[0]) for canon in canons})}
        for u, canon in enumerate(canons):
            pieces = tails[resolvent._osc_t0(canon[0])]
            tail = np.zeros(lam.size, dtype=complex)
            trunc = np.zeros(lam.size)
            for ph0, s_freq, poly in zip(*resolvent._osc_tail_data(canon)):
                at_s = pieces[(s_freq + d) // 2]
                tail += ph0 * np.einsum("kj,j->k", at_s, poly)
                trunc += np.abs(poly[-1] * at_s[:, -1])
            pref = -1j * resolvent._IPOW[sum(canon) % 4]
            vals[u, cols] = value = pref * (resolvent._osc_main(kws[u], row, panel) + mode_factor * tail)
            errs[u, cols] = mode_factor * trunc + 1e-14 * (1.0 + np.abs(value))
    return vals, errs


# the orbits of the site differences of the benchmark's five-site panel
# draw 2, and (2, 2, 0)
_DRAW2_ORBITS = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 0, 0), (2, 1, 0), (2, 2, 0)]


def test_osc_block_matches_per_pattern_loop(rng):
    # one tail call over every T0, the stacked pattern contraction and the
    # shared Bessel rows give the per-T0, per-pattern values bit for bit:
    # interior lambdas out to the switching distance, band lambdas (edges
    # and Van Hove levels included), and more lambdas than one chunk holds
    interior = rng.uniform(-4.0, 4.0, 60) - 1j * rng.uniform(1e-3, 1.25, 60)
    band = np.concatenate([rng.uniform(-3.0, 3.0, 20), [-3.0, -1.0, 0.0, 1.0, 3.0]])
    lams = np.concatenate([interior, band.astype(complex)])
    resolvent.clear_green_cache()
    got = resolvent._osc_block(_DRAW2_ORBITS, lams)
    ref = _osc_block_per_pattern(_DRAW2_ORBITS, lams)
    assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])


def test_osc_block_shares_bessel_rows_per_leading_order(monkeypatch):
    # an orbit's Bessel rows depend on it only through n0 = max_j |n_j|: a
    # cold block over orbits with n0 in {0, 1, 2} builds three grids, and a
    # warm one none
    grid = resolvent.bessel_j_grid
    calls = []

    def counted(t, m_max):
        calls.append(m_max)
        return grid(t, m_max)

    monkeypatch.setattr(resolvent, "bessel_j_grid", counted)
    resolvent.clear_green_cache()
    lams = np.array([0.5 - 0.2j, 2.0 + 0.0j])
    resolvent._osc_block(_DRAW2_ORBITS, lams)
    assert sorted(calls) == [0, 1, 2]
    resolvent._osc_block(_DRAW2_ORBITS[::-1], lams)
    assert len(calls) == 3


def test_blocks_do_not_depend_on_the_orbit_set_or_the_lambdas():
    # each engine core's block, on a mixed orbit set (max_j |n_j| = 0, 1
    # and 2), equals float for float each orbit computed alone and each
    # lambda computed alone: the oscillatory engine, whose per-orbit
    # constants come from one cached plan, on interior lambdas, band points and
    # the band edges, with rows of zero tail frequency (lambda = S), and the
    # torus on two grid sizes
    def check(core, lams, *extra):
        vals, errs = core(_DRAW2_ORBITS, lams, *extra)
        for u, canon in enumerate(_DRAW2_ORBITS):
            alone = core([canon], lams, *extra)
            assert np.array_equal(alone[0][0], vals[u]) and np.array_equal(alone[1][0], errs[u])
        for k, lam in enumerate(lams):
            alone = core(_DRAW2_ORBITS, lams[k:k + 1], *extra)
            assert np.array_equal(alone[0][:, 0], vals[:, k]) and np.array_equal(alone[1][:, 0], errs[:, k])

    resolvent.clear_green_cache()
    check(resolvent._osc_block, np.array([0.7 - 0.3j, -2.2 - 1.2j, 3.0, -3.0, 1.0, -1.0, 2.4, 3.1 - 0.05j]))
    for n_quad in (32, 40):
        check(resolvent._torus_block, np.array([0.5 - 1.3j, -2.0 + 1.5j, 4.5 + 0.0j, -4.4 - 0.2j]), n_quad)
    plans = (resolvent._osc_plan, resolvent._osc_grid)
    assert all(plan.cache_info().currsize for plan in plans)
    resolvent.clear_green_cache()
    for cache in plans + (resolvent.support_orbits,):
        assert cache.cache_info().currsize == 0


def test_factored_gauss_phase_matches_direct_sum():
    # the per-panel factoring of e^(-i lam t) against the plain sum over the
    # nodes, on the band, at the Van Hove levels +-1 and the edges +-3, from
    # the real axis out to the switching distance; the two differ only by
    # rounding, bounded here by 4 ulps of sum |w K| (1.2 ulps seen)
    eps = np.finfo(float).eps
    lams = np.array([complex(re, im) for re in (0.0, 1.0, -1.0, 3.0, -3.0)
                     for im in (0.0, -0.01, -0.5, -1.25)])
    for canon in ((0, 0, 0), (1, 0, 0), (2, 1, 0), (5, 3, 1)):
        nodes, weights, _ = resolvent._osc_grid(canon[0])
        rows = resolvent.bessel_j_grid(nodes, canon[0])
        kern = np.prod([rows[m] for m in canon], axis=0)
        kw = resolvent._osc_kw(canon)
        assert kw.shape == (10, nodes.size // 10)
        bound = 4.0 * eps * float(np.sum(np.abs(weights * kern)))
        # phases built for a longer T0 serve a shorter one
        got = resolvent._osc_main(kw, *resolvent._osc_phases(lams, kw.shape[1] + 37))
        for lam, value in zip(lams, got):
            direct = np.sum(weights * np.exp(-1j * lam * nodes) * kern)
            assert abs(value - direct) <= bound


def test_green_cache_counters_repeat(v3, monkeypatch):
    # the memo counters of a pipeline are deterministic: two cold runs of
    # zeros, boundary trace and Taylor data on V = 3 delta_0 count the same
    # hits, misses and sizes per engine, and the torus computes nothing
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
    assert osc["misses"] == osc["size"] > 0 and osc["hits"] > 0
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


def test_memo_bound_counts_values_and_evicts_the_least_recently_used(monkeypatch):
    # room for 12 values holds 4 images of a 3-orbit set: the size never
    # exceeds the bound, the least recently used images are misses again,
    # and their recomputed values are bitwise the cold ones
    monkeypatch.setattr(resolvent, "_MEMO_SIZE", 12)
    canons = [(0, 0, 0), (1, 0, 0), (1, 1, 0)]
    q = [1.0 - 2.0j, 2.0 - 1.5j, 0.5 - 3.0j, 3.5 - 1.3j, 2.5 - 2.0j, 1.5 - 2.5j]  # series images
    cold = []
    for lam in q:
        resolvent.clear_green_cache()
        cold.append(resolvent.green_orbits(canons, [lam], 3))

    def misses_of(lams):
        before = resolvent.green_cache_info()["series"]["misses"]
        vals, errs = resolvent.green_orbits(canons, lams, 3)
        for k, lam in enumerate(lams):
            ref = cold[q.index(lam)]
            assert np.array_equal(vals[:, k:k + 1], ref[0]) and np.array_equal(errs[:, k:k + 1], ref[1])
        assert resolvent.green_cache_info()["series"]["size"] <= 12
        return resolvent.green_cache_info()["series"]["misses"] - before

    resolvent.clear_green_cache()
    assert [misses_of([lam]) for lam in q] == [3] * 6
    assert resolvent.green_cache_info()["series"]["size"] == 12
    # q[2:] are held; a hit on q[2] makes q[3] and q[4] the oldest
    assert misses_of([q[2]]) == 0
    assert misses_of([q[0], q[1]]) == 6
    assert misses_of([q[5], q[2], q[0], q[1]]) == 0
    assert misses_of([q[3]]) == misses_of([q[4]]) == 3
    # one block larger than the bound is served whole and keeps 4 images
    resolvent.clear_green_cache()
    assert misses_of(q) == 18
    assert resolvent.green_cache_info()["series"]["size"] == 12
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
        lams = [lam for lam in grid if dist_to_band(lam, d) >= (0.35 if d < 3 else 0.0)]
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
