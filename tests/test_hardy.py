import cmath
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
    # the trapezoid mean needs a power of two >= 256, as the boundary grid
    for n_grid in (0, -4, 3, 128, 300):
        with pytest.raises(ValueError, match="power of two"):
            jensen_check(v3, zeros_v3, 0.5, n_grid=n_grid)


def test_jensen_circle_costs_a_quadrant(v3, mix3):
    # a cold-memo Jensen circle of 1,024 points needs the Green values of
    # its first quadrant only: at most 257 per orbit of support differences
    # (one orbit for a single site, three for mix3), over both engines at
    # r = 0.5, where the circle crosses the engine switch
    for V, orbits in ((v3, 1), (mix3, 3)):
        resolvent.clear_green_cache()
        jensen_check(V, [], 0.5, n_grid=1024)
        info = resolvent.green_cache_info()
        assert info["torus"]["misses"] > 0 and info["osc"]["misses"] > 0
        assert info["torus"]["misses"] + info["osc"]["misses"] <= 257 * orbits


def test_kink_windows_are_exact_images(v3):
    # one window per orbit {t*, -t*, pi - t*, pi + t*} of kink angles is
    # built, the others mirror it: same weights, nodes -x, pi - x, pi + x
    # and grid spans mirrored; for a real potential the window at -t* sees
    # log|D| at conjugate points, bit for bit the values at t*
    bt = boundary_trace(v3, n_grid=256)
    n = bt.n_grid
    by_angle = {round(win.t_star, 12): win for win in bt.windows}
    assert len(by_angle) == 6
    t1 = math.acos(1.0 / 3.0)
    base = by_angle[round(t1, 12)]
    for angle, sign, shift in ((-t1 % (2 * math.pi), -1, 0.0), (math.pi - t1, -1, math.pi),
                               (math.pi + t1, 1, math.pi)):
        win = by_angle[round(angle, 12)]
        assert np.array_equal(win.weights, base.weights)
        assert np.array_equal(win.nodes, shift + sign * base.nodes)
        lo, hi = (base.k_lo, base.k_hi) if sign > 0 else (-base.k_hi, -base.k_lo)
        assert (win.k_lo, win.k_hi) == (lo + round(shift / math.pi) * n // 2, hi + round(shift / math.pi) * n // 2)
    assert np.array_equal(by_angle[round(-t1 % (2 * math.pi), 12)].log_mod, base.log_mod)
    # the band-edge orbit {0, pi} has two windows
    edge, far = by_angle[0.0], by_angle[round(math.pi, 12)]
    assert np.array_equal(far.nodes, math.pi + edge.nodes)
    assert (far.k_lo, far.k_hi) == (edge.k_lo + n // 2, edge.k_hi + n // 2)


def test_boundary_trace_structure(bt_v3):
    assert bt_v3.n_grid == 1024
    assert bt_v3.low_confidence is False
    assert len([k for k in bt_v3.flagged if k >= 0]) == 0
    # d = 3 has Van Hove kinks at cos(t) in {-1,..,1}: several windows
    assert len(bt_v3.windows) >= 4
    assert bt_v3.dropped_windows == 0
    assert np.all(np.isfinite(bt_v3.log_mod))


def test_boundary_trace_requires_power_of_two(v3):
    with pytest.raises(ValueError):
        boundary_trace(v3, n_grid=300)
    with pytest.raises(ValueError):
        boundary_trace(v3, n_grid=128)


def test_boundary_trace_flags_only_numerical_failures(v3, monkeypatch):
    # a numerical failure is flagged and infilled, point by point; a trace
    # with no measured point raises NumericalError; a programming error
    # raises as itself
    batched = hardy.det_eval_many

    def fail_with(exc, at=None):
        # raise for every batch, or for any batch holding the point ``at``
        def det_eval_many(V, zs, *args, **kwargs):
            if at is None or any(abs(complex(z) - at) < 1e-12 for z in zs):
                raise exc
            return batched(V, zs, *args, **kwargs)
        return det_eval_many

    monkeypatch.setattr(hardy, "det_eval_many", fail_with(np.linalg.LinAlgError("singular")))
    with pytest.raises(NumericalError, match="every one of the 256 boundary grid points"):
        boundary_trace(v3, n_grid=256)
    # one grid point away from every kink window fails: only it is flagged
    k = 20
    at = cmath.exp(2j * math.pi * k / 256)
    monkeypatch.setattr(hardy, "det_eval_many", fail_with(ArithmeticError("collapsed"), at))
    bt = boundary_trace(v3, n_grid=256)
    assert bt.flagged == [k] and not bt.low_confidence and bt.dropped_windows == 0
    assert bt.log_mod[k] == 0.5 * (bt.log_mod[k - 1] + bt.log_mod[k + 1])
    monkeypatch.setattr(hardy, "det_eval_many", fail_with(TypeError("bad call")))
    with pytest.raises(TypeError):
        boundary_trace(v3, n_grid=256)


def test_trace_residuals_suite(v3, zeros_v3, bt_v3, tc_v3):
    res = trace_residuals(v3, zeros_v3, bt_v3, tc_v3)
    # outer-free defect: nonnegative up to quadrature noise
    assert res["rho0"] >= -1e-6
    assert abs(res["rho0"]) < 1e-6
    for rho_n in res["rho"]:
        assert abs(rho_n) < 1e-5
    assert res["t52"]["sin"]["residual"] <= 1e-3
    assert res["t52"]["cos"]["residual"] <= 1e-3
    # the recombination consistency is an algebraic identity
    assert res["t52"]["internal_consistency"] == 0.0
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
