import cmath
import math

import numpy as np
import pytest

from latspec.conformal import dist_to_band, lambda_of_z
from latspec import determinant
from latspec.determinant import (
    PathRefinementError,
    QuadPolicy,
    circle_grid,
    det_eval,
    det_eval_many,
    march_log,
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
    # "auto" against both forced engines on each of its routes: lambda(z)
    # at distance 1.12 from the band (oscillatory engine) and 1.63 (torus)
    near, far = 0.35 - 0.55j, 0.3 - 0.45j
    dist = [dist_to_band(lambda_of_z(z, 3), 3) for z in (near, far)]
    assert dist[0] < resolvent._DIST_SWITCH < dist[1]
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


def test_march_log_matches_principal_log(mix3):
    # a short radial path from near zero: continuous log equals principal log
    def z_of(s):
        return 0.01 * s * (0.6 + 0.3j)

    params = range(1, 101)
    march = march_log(lambda z: det_eval(mix3, z).value, z_of, params)
    for s, log_value in list(zip(params, march.logs))[::20]:
        direct = cmath.log(det_eval(mix3, z_of(s)).value)
        assert log_value == pytest.approx(direct, abs=1e-9)


def test_march_log_winding_continuity(v3):
    # once round the lone zero z1 ~ 0.55 on |z| = 0.715: the phase must
    # advance by 2 pi, whichever node the circle starts from
    def z_of(t):
        return 0.715 * cmath.exp(1j * t)

    n = 160
    params = [0.3 + 2.0 * math.pi * k / n for k in range(n + 1)]
    values = [smp.value for smp in det_eval_many(v3, [z_of(t) for t in params])]
    march = march_log(lambda z: det_eval(v3, z).value, z_of, params, values)
    dphi = march.logs[-1].imag - march.logs[0].imag
    assert dphi == pytest.approx(2.0 * math.pi, abs=1e-6)


def test_march_log_refuses_after_max_depth(v3):
    # the segment 0.05 -> 0.56 runs right over the real zero z1 ~ 0.55, where
    # D changes sign: every bisection keeps a half-turn step, and the march
    # gives up after _MARCH_MAX_DEPTH of them, one sample each
    calls = []

    def f(z):
        calls.append(z)
        return det_eval(v3, z).value

    with pytest.raises(PathRefinementError, match=f"after {determinant._MARCH_MAX_DEPTH} bisections"):
        march_log(f, lambda s: complex(s), [0.05, 0.56])
    assert len(calls) == 2 + determinant._MARCH_MAX_DEPTH


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


def test_taylor_rejects_enclosed_zero(v3):
    # r = 0.7 circle encloses z1 ~ 0.55: winding makes the log ill-defined
    with pytest.raises(ValueError):
        taylor_coeffs(v3, 0.7)
    # a zero just inside the circle turns the phase by ~2 pi between two
    # neighbouring samples; only bisection between them sees the winding.
    # V = 3 e^{0.3i} delta_0 has z1 ~ 0.503197 - 0.188434i, |z1| ~ 0.537322
    V = Potential(3, [((0, 0, 0), 3.0 * cmath.exp(0.3j))])
    with pytest.raises(ValueError):
        taylor_coeffs(V, 0.537322 + 1e-5)
    with pytest.raises(ValueError):
        taylor_coeffs(V, 0.537322 + 1e-4, m_samples=32)


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
    # every Green memo cleared before each evaluation: torus (distance 1.63
    # and beyond, several per block) and oscillatory (1.12, and next to the
    # rim) interior points, both
    # sides of the boundary, a conjugate pair, a repeat and z = 0, for
    # |S| = 1 and |S| = 3
    zs = [0.3 - 0.45j, 0.35 - 0.55j, 0.8 * cmath.exp(0.4j), 0.8 * cmath.exp(-0.4j),
          cmath.exp(0.7j), cmath.exp(-2.1j), 1.0, 0.0, -0.62 + 0.1j, 0.3 - 0.45j,
          -0.2 + 0.25j, 0.12j, 0.05 - 0.3j]
    for V in (v3, mix3):
        resolvent.clear_green_cache()
        batch = det_eval_many(V, zs)
        for z, smp in zip(zs, batch):
            resolvent.clear_green_cache()
            one = det_eval_many(V, [z])[0]
            assert (one.value, one.err_estimate) == (smp.value, smp.err_estimate), z
            assert det_eval(V, z).value == smp.value


def test_det_eval_many_refuses_like_det_eval(v3):
    with pytest.raises(ValueError, match="rim"):
        det_eval_many(v3, [0.5, 0.9995])
    with pytest.raises(ValueError, match="outside"):
        det_eval_many(v3, [0.5, 1.2j])
    assert det_eval_many(Potential(3, []), [0.4, 2.0])[1].value == 1.0


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
        vals = np.array([smp.value for smp in det_eval_many(v3, circle_grid(r, 256))])
        assert np.array_equal(vals[256 - k], vals[k].conj())
        assert np.array_equal(vals[256 - k - 128], vals[k + 128].conj())
