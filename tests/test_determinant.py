import cmath
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from latspec.conformal import lambda_of_z
from latspec import determinant
from latspec.determinant import (
    QuadPolicy,
    circle_grid,
    det_eval,
    det_eval_many,
    moment_relation_check,
    taylor_coeffs,
)
from latspec.lattice import Potential
from latspec import resolvent
from latspec.resolvent import green_auto


def test_empty_potential_det_is_one():
    V = Potential(3, [])
    s = det_eval(V, 0.4 + 0.2j)
    assert s.value == 1.0 + 0.0j and s.err_estimate == 0.0


def test_det_at_origin_is_one():
    V = Potential(3, [((0, 0, 0), 1.0 + 2.0j)])
    s = det_eval(V, 0.0)
    assert s.value == 1.0 + 0.0j


def test_rank_one_identity(rng):
    # lone site: the matrix determinant collapses to 1 + v G(0, lam(z))
    worst = 0.0
    for _ in range(25):
        v = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        z = rng.uniform(0.05, 0.95) * cmath.exp(2j * math.pi * rng.uniform(0, 1))
        V = Potential(3, [((0, 0, 0), v)])
        got = det_eval(V, z)
        g = green_auto((0, 0, 0), lambda_of_z(z, 3), 3)
        ref = 1.0 + v * g.value
        worst = max(worst, abs(got.value - ref) / max(1.0, abs(ref)))
        # the adjugate of a 1x1 matrix is 1: |v| err(G) plus rounding of D
        assert got.err_estimate == pytest.approx(abs(v) * g.err_estimate + 2.3e-16 * abs(ref), rel=1e-12)
    assert worst <= 1e-12


def test_conjugation_symmetry_real_potential():
    V = Potential(3, [((0, 0, 0), 2.0), ((1, 0, 0), -0.7)])
    for z in (0.3 + 0.4j, -0.2 + 0.6j):
        a = det_eval(V, z).value
        b = det_eval(V, z.conjugate()).value
        assert b == pytest.approx(a.conjugate(), rel=1e-12)


def test_engine_consistency(mix3):
    # "auto" against both forced engines on each of its routes: |z| = 0.85
    # (oscillatory engine, lambda(z) at distance 0.49 from the band) and
    # |z| = 0.54 (series, distance 1.63)
    near, far = 0.85j, 0.3 - 0.45j
    assert abs(far) <= resolvent._SERIES_RADIUS < abs(near)
    for z in (near, far):
        auto = det_eval(mix3, z, QuadPolicy(engine="auto")).value
        torus = det_eval(mix3, z, QuadPolicy(engine="torus")).value
        time_ = det_eval(mix3, z, QuadPolicy(engine="time")).value
        assert abs(auto - torus) < 1e-9
        assert abs(auto - time_) < 1e-9


def test_rim_refusal_and_boundary_dispatch(v3):
    # strictly inside but within the guard margin: refused
    with pytest.raises(ValueError):
        det_eval(v3, 0.9995)
    # a Taylor circle in the rim is refused before any sample
    resolvent.clear_green_cache()
    with pytest.raises(ValueError, match="radius must lie in"):
        taylor_coeffs(v3, 0.9995)
    assert all(info["misses"] == 0 for info in resolvent.green_cache_info().values())
    # exactly on the rim: boundary limiting values are used instead
    s = det_eval(v3, cmath.exp(0.7j))
    assert np.isfinite(s.value.real) and np.isfinite(s.value.imag)


def test_det_error_estimate_scales_with_matrix(mix3):
    s = det_eval(mix3, 0.5 + 0.1j)
    assert s.err_estimate > 0.0
    # the estimate is a tiny multiple of the value for well-conditioned cases
    assert s.err_estimate < 1e-10 * max(1.0, abs(s.value))


def test_taylor_radius_independence(v3):
    # c stores [c1..c4]; the constant term vanishes identically and is not kept
    a = taylor_coeffs(v3, 0.03)
    b = taylor_coeffs(v3, 0.015)
    for n in range(4):
        assert a.c[n] == pytest.approx(b.c[n], abs=1e-6)
        # err estimates honest: the two radii differ by about the stated errs
        assert abs(a.c[n] - b.c[n]) <= 10.0 * (a.err_estimate[n] + b.err_estimate[n]) + 1e-12


def test_taylor_c1_matches_trace(v3):
    tc = taylor_coeffs(v3, 0.03)
    # c1 = (2/d) * sum V for d = 3
    assert tc.c[0] == pytest.approx(2.0, abs=1e-8)


def test_taylor_circle_around_a_zero_gives_the_same_coefficients(v3, tc_v3):
    # D is analytic in the disc, so a circle that encloses z1 ~ 0.55 gives
    # the Taylor coefficients of log D at 0 as well as one that does not
    around = taylor_coeffs(v3, 0.7)
    for n in range(4):
        assert abs(around.c[n] - tc_v3.c[n]) <= around.err_estimate[n] + tc_v3.err_estimate[n]


def test_taylor_circle_next_to_a_zero():
    # V = 3 e^{0.3i} delta_0 has z1 ~ 0.503197 - 0.188434i, |z1| ~ 0.537322,
    # 1e-5 inside the circle; c_1 = (2/d) sum V = 2 e^{0.3i}
    V = Potential(3, [((0, 0, 0), 3.0 * cmath.exp(0.3j))])
    tc = taylor_coeffs(V, 0.537322 + 1e-5)
    assert abs(tc.c[0] - 2.0 * cmath.exp(0.3j)) <= tc.err_estimate[0]


def test_taylor_default_sample_count_follows_n_max(v3):
    # m_samples=None means max(64, 8 n_max): n_max = 9 needs 72 samples,
    # which the old fixed default of 64 refused
    r = 0.3
    assert taylor_coeffs(v3, r, n_max=9) == taylor_coeffs(v3, r, n_max=9, m_samples=72)
    assert taylor_coeffs(v3, r) == taylor_coeffs(v3, r, m_samples=64)
    with pytest.raises(ValueError, match="m_samples=64 < 8"):
        taylor_coeffs(v3, r, n_max=9, m_samples=64)


def test_moment_relation_unique_winner(v3, tc_v3):
    rep = moment_relation_check(v3, tc_v3)
    assert rep["winner"] in ("A", "B")
    win = rep["relations"][rep["winner"]]
    lose = rep["relations"]["A" if rep["winner"] == "B" else "B"]
    assert win["pass_n2_to_n4"] and not lose["pass_n2_to_n4"]
    assert max(win["residual_rel"][1:]) <= 1e-6
    assert max(lose["residual_rel"][1:]) > 1e-2



def test_batch_invariance(v3, mix3):
    # a sample is the same, bit for bit, in a mixed batch and alone, with
    # every Green memo cleared before each evaluation: series (|z| <= 0.8,
    # several per block) and oscillatory (|z| just above 0.8) interior
    # points, both sides of the boundary, a conjugate pair, a repeat and z = 0, for
    # |S| = 1 and |S| = 3
    zs = [0.3 - 0.45j, 0.35 - 0.55j, 0.8 * cmath.exp(0.4j), 0.8 * cmath.exp(-0.4j),
          cmath.exp(0.7j), cmath.exp(-2.1j), 1.0, 0.0, -0.62 + 0.1j, 0.3 - 0.45j,
          -0.2 + 0.25j, 0.12j, 0.05 - 0.3j]
    for V in (v3, mix3):
        resolvent.clear_green_cache()
        batch = det_eval_many(V, zs)
        for z, value in zip(zs, batch.tolist()):
            resolvent.clear_green_cache()
            assert det_eval_many(V, [z]).tolist() == [value], z
            assert det_eval(V, z).value == value


def test_support_orbits_built_once_per_support(mix3, monkeypatch):
    # the first call maps the support's 9 differences to their orbits; a
    # second call on the same potential canonicalises no site, and with
    # the Green memos emptied it computes the same values bit for bit
    calls = []
    canon = resolvent._canon

    def counted(n):
        calls.append(n)
        return canon(n)

    monkeypatch.setattr(resolvent, "_canon", counted)
    zs = [0.3 - 0.45j, 0.8 * cmath.exp(0.4j), cmath.exp(0.7j), cmath.exp(-2.1j), -0.2 + 0.25j]
    resolvent.clear_green_cache()
    first = det_eval_many(mix3, zs)
    assert len(calls) == 9
    for memo in resolvent._MEMOS.values():
        memo.clear()
    assert det_eval_many(mix3, zs).tolist() == first.tolist()
    assert len(calls) == 9


def test_det_eval_many_refuses_like_det_eval(v3):
    with pytest.raises(ValueError, match="rim"):
        det_eval_many(v3, [0.5, 0.9995])
    with pytest.raises(ValueError, match="outside"):
        det_eval_many(v3, [0.5, 1.2j])
    # the empty potential is refused the same way: it returned D = 1 there
    with pytest.raises(ValueError, match="outside"):
        det_eval(Potential(3), 2.0)
    with pytest.raises(ValueError, match="outside"):
        det_eval_many(Potential(3), [2.0, 0.9995])
    with pytest.raises(ValueError, match="rim"):
        det_eval_many(Potential(3), [0.4, 0.9995])
    assert det_eval_many(Potential(3), [0.4, 1j, 0.0]).tolist() == [1.0, 1.0, 1.0]


def test_det_eval_many_refuses_points_that_are_not_finite(v3, mix3):
    # the point is named, for an empty support too, and det_eval refuses
    # it the same way
    for V in (v3, mix3, Potential(3, [])):
        for z in (complex("nan"), complex(0.2, float("inf")), complex(float("-inf"), 0.0)):
            with pytest.raises(ValueError, match=r"z=.* is not finite"):
                det_eval_many(V, [0.3, z])
            with pytest.raises(ValueError, match=r"z=.* is not finite"):
                det_eval(V, z)


def _decaying_cube(R, a):
    # the real decaying potential V_n = a (1 + |n|_2)^-3 on {-R, ..., R}^3
    return Potential(3, [(n, a * (1.0 + math.sqrt(sum(c * c for c in n))) ** -3)
                         for n in itertools.product(range(-R, R + 1), repeat=3)])


def test_det_eval_many_memory_stays_in_orbits(monkeypatch):
    # a 2,048-point circle on the real 27-site cube: each Green block stays
    # (orbits x points), 10 x 512, and the 27 x 27 matrices are gathered
    # from it a bounded stack at a time, so the traced peak stays far
    # below the 87 MB that a (|S|^2 x points) block of values and errors
    # takes; the circle in one Green block, and a circle that spans three
    # stacks in one stack, give the same values bit for bit
    V = _decaying_cube(1, 3.6)
    blocks = []
    real_block = determinant._green_block

    def block(V, zs, n_in, engine):
        blocks.append(len(zs))
        return real_block(V, zs, n_in, engine)

    monkeypatch.setattr(determinant, "_green_block", block)
    resolvent.clear_green_cache()
    tracemalloc.start()
    try:
        blocked = det_eval_many(V, circle_grid(0.6, 2048))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6, f"{peak / 1e6:.1f} MB"
    assert blocks == [512] * 4
    monkeypatch.setattr(determinant, "_BLOCK_POINTS", 2 ** 40)
    resolvent.clear_green_cache()
    assert np.array_equal(det_eval_many(V, circle_grid(0.6, 2048)), blocked)
    zs = circle_grid(0.6, 256)
    assert 256 * 27 * 27 * 16 > 2 * determinant._STACK_BYTES
    chunked = det_eval_many(V, zs)
    monkeypatch.setattr(determinant, "_STACK_BYTES", 2 ** 40)
    assert np.array_equal(det_eval_many(V, zs), chunked)


def test_circle_grid_is_exact_mirror_images():
    # z[n - k] = conj z[k] and z[n/2 + k] = -z[k] bit for bit, the first
    # quadrant as r e^(2 pi i k / n) itself, the rest within the rounding of
    # the direct formula (whose phase 2 pi k / n grows to 2 pi)
    for r, n in ((0.8, 1024), (1.0, 256), (0.3, 6), (0.5, 144)):
        z = circle_grid(r, n)
        k = np.arange(n)
        assert np.array_equal(z[(n - k) % n], z.conj())
        assert np.array_equal(z[(n // 2 + k) % n], -z)
        exact = r * np.exp(2j * math.pi * k / n)
        q = n // 4
        assert np.array_equal(z[:q], exact[:q])
        assert np.max(np.abs(z - exact)) <= 1e-15
    with pytest.raises(ValueError):
        circle_grid(0.5, 7)


def test_mirrored_points_give_mirrored_determinants(v3):
    # for a real potential D(conj z) = conj D(z): on a circle and on the
    # boundary, where lambda0 = d Re z / |z| is odd in z and the side
    # follows Im z, the samples of conjugate points are exact conjugates
    # (z = +-r are their own images; their values carry rounding noise in
    # the imaginary part)
    k = np.arange(1, 128)
    for r in (0.5, 0.8, 1.0):
        resolvent.clear_green_cache()
        vals = det_eval_many(v3, circle_grid(r, 256))
        assert np.array_equal(vals[256 - k], vals[k].conj())
        assert np.array_equal(vals[256 - k - 128], vals[k + 128].conj())


# the 5-site complex potential of benchmark panel draw 2 (panel seed 1)
_FIVE_SITE = Potential(3, [
    ((-1, -1, 0), -0.7027842035027629 + 1.024389084315739j),
    ((0, -1, 0), 0.0922031016259035 - 1.3383064090232242j),
    ((1, -1, 0), 1.3982196432802514 - 0.6958356225452828j),
    ((1, 0, 0), 0.9797427736582445 - 0.5689165965531313j),
    ((0, 1, 0), 1.244065031143438 + 0.9038693903920579j),
])


def _log_det_series(V, n_max):
    # c_n = -[z^n] log det(I + A(z)) for n = 1..n_max, from log det(I + A) =
    # sum_m (-1)^(m+1) / m tr(A^m), with A(z) = V G(z) and G(x - y,
    # lambda(z)) = sum_k g_k z^k, the exact series of the Green function.
    # g_0 = 0, so A^m starts at z^m and m <= n_max suffices
    g = [[resolvent._series_coeffs(resolvent._orbit(np.subtract(x, y), V.d))[0][:n_max + 1]
          for y in V.support] for x in V.support]
    a = np.moveaxis(V.values[:, None, None] * np.array(g), 2, 0)
    power, log_d = a, np.zeros(n_max + 1, dtype=complex)
    for m in range(1, n_max + 1):
        log_d += (-1) ** (m + 1) / m * np.trace(power, axis1=1, axis2=2)
        power = np.array([sum(power[j] @ a[k - j] for j in range(k + 1)) for k in range(n_max + 1)])
    return -log_d[1:]


def test_taylor_coeffs_match_the_matrix_power_series():
    # the FFT route (D sampled on a circle, its Taylor coefficients, then
    # the recurrence for the logarithm) against the matrix power series of
    # log det(I + V G) from the same g_k that serve those samples
    for V in (Potential(3, [((0, 0, 0), 3.0)]),
              Potential(3, [((0, 0, 0), 3.0), ((1, 1, 0), -2.5)]),
              _FIVE_SITE):
        ref = _log_det_series(V, 6)
        for r in (0.25, 0.5):
            tc = taylor_coeffs(V, r, n_max=6)
            for n in range(6):
                assert abs(tc.c[n] - ref[n]) <= tc.err_estimate[n], (len(V.support), r, n + 1)


def test_det_eval_many_values_are_det_eval_values(v3, mix3):
    # det_eval_many returns the values alone, as one complex array; each
    # equals det_eval's value at its point bit for bit, in a mixed batch of
    # interior points (series and oscillatory engine), points of both
    # semicircles of |z| = 1, a repeat and z = 0, for |S| = 1, 3 and 5
    zs = [0.3 - 0.45j, 0.8 * cmath.exp(0.4j), -0.62 + 0.1j, 0.12j, 0.6 + 0.8j,
          cmath.exp(-2.1j), 1.0, -1.0, 0.0, 0.3 - 0.45j]
    for V in (v3, mix3, _FIVE_SITE):
        batch = det_eval_many(V, zs)
        assert batch.dtype == np.complex128 and batch.shape == (len(zs),)
        assert batch.tolist() == [det_eval(V, z).value for z in zs]
    assert det_eval_many(mix3, []).shape == (0,)


def _adjugate_bound(M, E):
    """A private copy of the determinant error bound as the stacked sampler
    computed it for every point: ||adj(I + M)||_2 ||E||_2 plus s ulps of
    the largest singular value."""
    s = M.shape[1]
    if s == 1:
        a = 1.0 + M[:, 0, 0]
        return E[:, 0, 0] + 2.3e-16 * np.abs(a)
    A = np.eye(s) + M
    sigma = np.linalg.svd(A, compute_uv=False)
    adj_norm = sigma[:, 0].copy()
    for j in range(1, s - 1):
        adj_norm *= sigma[:, j]
    de = np.linalg.norm(E, 2, axis=(1, 2))
    return adj_norm * (de + s * 2.3e-16 * sigma[:, 0])


def test_det_eval_error_bound_is_the_adjugate_bound(mix3):
    # det_eval's err_estimate, for 3 and 5 sites, equals the bound above on
    # matrices built here from the Green blocks: v_i G(x_i - y_j) with
    # entrywise errors |v_i| err G, at interior points and on |z| = 1 (the
    # upper semicircle is the lower side of the cut)
    for V in (mix3, _FIVE_SITE):
        sites = V.support
        s = len(sites)
        diffs = [tuple(a - b for a, b in zip(x, y)) for x in sites for y in sites]
        canons = sorted({resolvent._orbit(n, 3) for n in diffs})
        index = [canons.index(resolvent._orbit(n, 3)) for n in diffs]
        v = np.array([V.as_dict()[x] for x in sites])
        for z in (0.3 + 0.4j, -0.5 + 0.2j, 0.05 - 0.7j, 0.6 + 0.8j, cmath.exp(-2.1j)):
            zs = np.array([z])
            az = np.hypot(zs.real, zs.imag)
            if abs(az[0] - 1.0) <= 1e-12:
                G, Gerr = resolvent.green_boundary_orbits(canons, 3 * (zs.real / az), ~(zs.imag > 0.0), 3)
            else:
                G, Gerr = resolvent.green_orbits(canons, lambda_of_z(zs, 3), 3)
            M = v[None, :, None] * G[index].T.reshape(-1, s, s)
            E = np.abs(v)[None, :, None] * Gerr[index].T.reshape(-1, s, s)
            got = det_eval(V, z)
            assert got.err_estimate == _adjugate_bound(M, E)[0], (V, z)
            assert got.value == np.linalg.det(np.eye(s) + M)[0]
