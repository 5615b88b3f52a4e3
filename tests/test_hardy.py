import cmath
import dataclasses
import math

import numpy as np
import pytest

from latspec import hardy, resolvent
from latspec.determinant import NumericalError
from latspec.hardy import (
    blaschke_eval,
    boundary_trace,
    build_blaschke,
    jensen_check,
    outer_reconstruct,
    trace_residuals,
)
from latspec.lattice import Potential
from latspec.zeros import find_zeros


FROZEN_B0_V3 = -0.5976720795249011  # log|z1| for the lone zero of the v=3 site


def test_blaschke_data_frozen_value(zeros_v3):
    data = build_blaschke(zeros_v3)
    assert data.B0 == pytest.approx(FROZEN_B0_V3, abs=5e-15)
    assert len(data.Bn) == 4


def test_blaschke_vanishes_at_zeros(zeros_v3):
    data = build_blaschke(zeros_v3)
    z1 = zeros_v3[0].z
    assert abs(blaschke_eval(data, z1)) < 1e-14
    # away from the zero it is nonzero and bounded by one
    for z in (0.1, 0.3j, -0.8, 0.2 - 0.7j):
        val = blaschke_eval(data, z)
        assert 0.0 < abs(val) <= 1.0 + 1e-14


def test_blaschke_unimodular_near_rim(zeros_v3):
    data = build_blaschke(zeros_v3)
    for t in (0.3, 2.0, 4.4):
        z = (1.0 - 1e-6) * cmath.exp(1j * t)
        assert abs(abs(blaschke_eval(data, z)) - 1.0) < 1e-4


def test_blaschke_rejects_rim_argument(zeros_v3):
    data = build_blaschke(zeros_v3)
    with pytest.raises(ValueError):
        blaschke_eval(data, 1.0 + 0j)


def test_empty_zero_set_blaschke_is_one():
    data = build_blaschke([])
    assert data.B0 == 0.0
    assert blaschke_eval(data, 0.3 + 0.2j) == 1.0 + 0.0j


def test_jensen_identity_three_radii(v3, zeros_v3):
    for r in (0.5, 0.8, 0.95):
        assert jensen_check(v3, zeros_v3, r, n_grid=1024) < 1e-6


def test_jensen_identity_empty_potential():
    V = Potential(3, [])
    for r in (0.5, 0.95):
        assert jensen_check(V, [], r, n_grid=256) < 1e-14


def test_jensen_radius_validation(v3, zeros_v3):
    with pytest.raises(ValueError):
        jensen_check(v3, zeros_v3, 1.2)


def test_jensen_grid_validation(v3, zeros_v3):
    # the trapezoid mean needs a power of two in [256, 2^16], as the
    # boundary grid
    for n_grid in (0, -4, 3, 128, 300, 2 ** 17):
        with pytest.raises(ValueError, match="power of two"):
            jensen_check(v3, zeros_v3, 0.5, n_grid=n_grid)


def test_jensen_circle_costs_a_quadrant(v3, mix3):
    # a cold-memo Jensen circle of 1,024 points needs the Green values of
    # its first quadrant only: at most 257 per orbit of support differences
    # (one orbit for a single site, three for mix3), on the engine of each
    # side of the |z| = 0.8 switch: the series at r = 0.5, the oscillatory
    # engine at r = 0.9
    for V, orbits in ((v3, 1), (mix3, 3)):
        for r, engine in ((0.5, "series"), (0.9, "osc")):
            resolvent.clear_green_cache()
            jensen_check(V, [], r, n_grid=1024)
            info = resolvent.green_cache_info()
            assert info[engine]["misses"] > 0
            assert sum(v["misses"] for v in info.values()) == info[engine]["misses"] <= 257 * orbits


def _window_rows(bt):
    # the rule's window nodes, weights and log|D| values, one row per kink
    # window in angle order: d = 3 has six, at 0, t1, pi - t1, pi, pi + t1
    # and -t1 (mod 2 pi) for t1 = acos(1/3)
    return tuple(a[bt.n_grid:].reshape(6, -1) for a in (bt.nodes, bt.weights, bt.log_mod))


def test_kink_windows_are_exact_images(v3):
    # one window per orbit {t*, -t*, pi - t*, pi + t*} of kink angles is
    # built, the others mirror it: same weights, nodes -x, pi - x, pi + x,
    # and grid weights mirrored under k -> -k and k -> k + N/2; for a real
    # potential the window at -t* sees log|D| at conjugate points, bit for
    # bit the values at t*
    bt = boundary_trace(v3, n_grid=256)
    n = bt.n_grid
    nodes, weights, log_mod = _window_rows(bt)
    t1 = math.acos(1.0 / 3.0)
    for row, angle in enumerate((0.0, t1, math.pi - t1, math.pi, math.pi + t1, -t1)):
        assert np.min(np.abs(nodes[row] % (2 * math.pi) - angle % (2 * math.pi))) < 1e-3
    for row, sign, shift in ((5, -1, 0.0), (2, -1, math.pi), (4, 1, math.pi)):
        assert np.array_equal(weights[row], weights[1])
        assert np.array_equal(nodes[row], shift + sign * nodes[1])
    assert np.array_equal(log_mod[5], log_mod[1])
    # the band-edge orbit {0, pi} has two windows
    assert np.array_equal(weights[3], weights[0])
    assert np.array_equal(nodes[3], math.pi + nodes[0])
    k = np.arange(n)
    grid = bt.weights[:n]
    assert np.array_equal(grid[(-k) % n], grid) and np.array_equal(grid[(k + n // 2) % n], grid)


def test_boundary_rule_integrates_known_functions(v3):
    # the rule alone, on integrands with known integrals: the weights sum
    # to 2 pi, and |sin t|, whose kinks at 0 and pi sit in the band-edge
    # windows, integrates to 4
    bt = boundary_trace(v3, n_grid=256)
    assert abs(np.sum(bt.weights) - 2 * math.pi) <= 1e-14
    abs_sin = dataclasses.replace(bt, log_mod=np.abs(np.sin(bt.nodes)))
    assert abs(abs_sin.integrate_kernel(np.ones_like) - 4.0) <= 1e-7


def test_boundary_trace_structure(bt_v3):
    assert bt_v3.n_grid == 1024
    assert bt_v3.low_confidence is False
    assert len([k for k in bt_v3.flagged if k >= 0]) == 0
    # d = 3 has Van Hove kinks at cos(t) in {-1,..,1}: six windows of
    # Gauss nodes follow the grid in the rule, all near their kinks
    nodes = _window_rows(bt_v3)[0]
    assert nodes.shape[0] == 6 and nodes.shape[1] > 0
    assert np.all(np.ptp(nodes, axis=1) < 0.3)
    assert bt_v3.dropped_windows == 0
    assert bt_v3.nodes.shape == bt_v3.weights.shape == bt_v3.log_mod.shape
    assert np.all(np.isfinite(bt_v3.log_mod))


def test_boundary_trace_requires_power_of_two(v3):
    with pytest.raises(ValueError):
        boundary_trace(v3, n_grid=300)
    with pytest.raises(ValueError):
        boundary_trace(v3, n_grid=128)


def test_boundary_trace_refuses_dimensions_beyond_the_oscillatory_engine():
    # d < 3 and d > 10 are bad input, refused by green_boundary_orbits
    # before any Green value is computed (every memo and plan count stays
    # 0), not turned into a NumericalError; d = 1 used to reach the
    # quadrature and fail there with "tail requires s > 1"
    for d, message in ((1, "d >= 3"), (2, "d >= 3"), (11, "d <= 10")):
        resolvent.clear_green_cache()
        with pytest.raises(ValueError, match=message) as raised:
            boundary_trace(Potential(d, [((0,) * d, 3.0 + 0.0j)]), n_grid=256)
        assert not isinstance(raised.value, NumericalError)
        assert all(count == 0 for info in resolvent.green_cache_info().values() for count in info.values())
    # the empty potential takes no Green value: D = 1 exactly, at d = 1 too
    bt = boundary_trace(Potential(1), n_grid=256)
    assert bt.I0 == 0.0 and bt.flagged == [] and bt.dropped_windows == 0


def test_boundary_trace_flags_only_numerical_failures(v3, monkeypatch):
    # the trace is one batched evaluation: a |D| of 0 or NaN at a grid point
    # is flagged and infilled with the mean of its neighbours; a trace whose
    # every grid point collapsed raises NumericalError; an exception of the
    # batch propagates as itself, after that one call
    batched = hardy.det_eval_many
    calls = []

    def fabricate(bad, at=None):
        # D set to ``bad`` at the point ``at``, or at every point
        def det_eval_many(V, zs):
            calls.append(len(zs))
            vals = batched(V, zs)
            vals[slice(None) if at is None else np.abs(np.asarray(zs) - at) < 1e-12] = bad
            return vals
        return det_eval_many

    # one grid point away from every kink window: only it is flagged
    k = 20
    at = cmath.exp(2j * math.pi * k / 256)
    for bad in (0.0, math.nan):
        calls.clear()
        monkeypatch.setattr(hardy, "det_eval_many", fabricate(bad, at))
        bt = boundary_trace(v3, n_grid=256)
        assert len(calls) == 1
        assert bt.flagged == [k] and not bt.low_confidence and bt.dropped_windows == 0
        assert bt.log_mod[k] == 0.5 * (bt.log_mod[k - 1] + bt.log_mod[k + 1])
    monkeypatch.setattr(hardy, "det_eval_many", fabricate(0.0))
    with pytest.raises(NumericalError, match="every one of the 256 boundary grid points"):
        boundary_trace(v3, n_grid=256)
    for exc in (np.linalg.LinAlgError("singular"), ValueError("refused"), TypeError("bad call")):
        calls.clear()

        def raising(V, zs, exc=exc):
            calls.append(len(zs))
            raise exc
        monkeypatch.setattr(hardy, "det_eval_many", raising)
        with pytest.raises(type(exc)) as raised:
            boundary_trace(v3, n_grid=256)
        assert raised.value is exc and len(calls) == 1


def test_trace_residuals_suite(v3, zeros_v3, bt_v3, tc_v3):
    res = trace_residuals(v3, zeros_v3, bt_v3, tc_v3)
    # outer-free defect: nonnegative up to quadrature noise
    assert res["rho0"] >= -1e-6
    assert abs(res["rho0"]) < 1e-6
    for rho_n in res["rho"]:
        assert abs(rho_n) < 1e-5
    assert res["t52"]["sin"]["residual"] <= 1e-3
    assert res["t52"]["cos"]["residual"] <= 1e-3
    # rho0 sits at the quadrature floor, below tol: no ratio, and a reason
    assert res["ratio_rho1"] is None
    assert "not above tol" in res["ratio_rho1_reason"]


def test_exact_inequalities(zeros_v3):
    data = build_blaschke(zeros_v3)
    gap_sum = sum(rec.multiplicity * (1.0 - abs(rec.z)) for rec in zeros_v3)
    assert gap_sum <= -data.B0  # zero tolerance
    r0 = min(abs(rec.z) for rec in zeros_v3)
    for n, bn in enumerate(data.Bn, start=1):
        assert abs(bn) <= (2.0 / r0 ** n) * gap_sum  # zero tolerance


def test_trace_residuals_converge_with_grid(v3, zeros_v3, tc_v3, bt_v3):
    bt_256 = boundary_trace(v3, n_grid=256)
    rho0_256 = trace_residuals(v3, zeros_v3, bt_256, tc_v3)["rho0"]
    rho0_1024 = trace_residuals(v3, zeros_v3, bt_v3, tc_v3)["rho0"]
    assert abs(rho0_1024) < abs(rho0_256)


def test_outer_reconstruction(v3, zeros_v3, bt_v3):
    probes = [0.25, 0.4j, -0.3 - 0.3j, 0.8, -0.85]
    rep = outer_reconstruct(v3, bt_v3, zeros_v3, probes)
    assert rep["max_rel_err"] < 1e-6
    with pytest.raises(ValueError):
        outer_reconstruct(v3, bt_v3, zeros_v3, [0.95])  # probe too close to rim


def test_boundary_trace_complex_potential(mix3):
    bt = boundary_trace(mix3, n_grid=256)
    zr = find_zeros(mix3)
    # I0 is real and finite even for complex potentials
    assert np.isfinite(bt.I0)
    assert bt.low_confidence is False
    assert zr == []
