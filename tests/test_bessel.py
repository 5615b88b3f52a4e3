import math

import numpy as np
import pytest

from latspec.bessel import (
    bessel_j,
    bessel_j_grid,
    beta_estimate,
    check_uniform_bound,
    integral_representation,
)


def test_trivial_values():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(5, 0.0) == 0.0
    assert bessel_j(-3, 0.0) == 0.0


def test_frozen_series_value():
    # 40-term power series evaluated in extended precision beforehand
    assert bessel_j(1, 2.0) == pytest.approx(0.576724807756873, abs=1e-12)


def test_reflection_identity():
    for m in (1, 2, 3, 7, 40, 200):
        for t in (0.3, 2.0, 17.5, 300.0):
            assert bessel_j(-m, t) == (-1) ** m * bessel_j(m, t)


def test_three_term_recurrence():
    # residual J_{m-1} + J_{m+1} - (2m/t) J_m over the contract ranges
    worst = 0.0
    for m in (1, 2, 5, 10, 31, 100, 316, 1000):
        for t in np.geomspace(0.5, 1000.0, 23):
            r = bessel_j(m - 1, t) + bessel_j(m + 1, t) - (2.0 * m / t) * bessel_j(m, t)
            worst = max(worst, abs(r))
    assert worst <= 1e-10


def test_normalization_sum():
    t = 3.7
    total = bessel_j(0, t) ** 2 + 2.0 * sum(bessel_j(n, t) ** 2 for n in range(1, 61))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_grid_agrees_with_scalar():
    # layout is (order, argument)
    t = np.array([0.4, 3.0, 12.5, 80.0])
    grid = bessel_j_grid(t, 6)
    for j, tj in enumerate(t):
        for m in range(7):
            assert grid[m, j] == pytest.approx(bessel_j(m, float(tj)), abs=1e-13)


def test_integral_representation_cross_check(rng):
    # independent quadrature oracle at random points
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(0, 60))
        t = float(rng.uniform(0.0, 120.0))
        worst = max(worst, abs(integral_representation(m, t) - bessel_j(m, t)))
    assert worst < 1e-11


def test_bounded_by_one():
    for m in (0, 1, 13, 200):
        for t in (0.1, 1.0, 47.0, 2000.0):
            assert abs(bessel_j(m, t)) <= 1.0 + 1e-15


def test_propagator_dispersive_decay_bounded():
    # sup_n |K(n,t)| t^(d/3) stays bounded for d=3 on [1, 1000]
    worst = 0.0
    for t in np.geomspace(1.0, 1000.0, 25):
        col = bessel_j_grid([float(t)], 40)[:, 0]
        peak = float(np.max(np.abs(col)))
        worst = max(worst, peak ** 3 * t)
    assert worst < 2.0


def test_check_uniform_bound_report():
    rep = check_uniform_bound(0.5, m_range=(1, 120), t_range=(1.0, 200.0))
    assert math.isfinite(rep["C_emp"]) and rep["C_emp"] > 0.0
    assert rep["worst_point"]["t"] >= 1.0
    with pytest.raises(ValueError):
        check_uniform_bound(0.5, t_range=(0.0, 0.5))


def test_beta_estimate_d3():
    rep = beta_estimate(3, m_max=40, T=1000.0)
    assert rep["tail_bound"] <= 0.033
    assert math.isfinite(rep["sup"])
    # the supremum sits at small m where the Bessel peak is widest
    assert rep["argmax_m"] <= 5
    with pytest.raises(ValueError):
        beta_estimate(2)
