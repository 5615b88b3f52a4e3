import math
import tracemalloc

import numpy as np
import pytest

from latspec import bessel
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


def _miller_grid_reference(tp, m_max):
    # Miller's recurrence as it was before the in-place rescale: an int64
    # count per stored value and one whole-grid expression at the end
    nt = tp.size
    base = max(m_max, int(math.ceil(float(tp.max()))), 1)
    start = base + int(8.0 * base ** (1.0 / 3.0)) + 50
    start += start % 2
    inv_t = 1.0 / tp
    jp, jc = np.zeros(nt), np.full(nt, 1e-300)
    sc_now = np.zeros(nt, dtype=np.int64)
    norm = np.zeros(nt)
    rows = np.zeros((m_max + 1, nt))
    sc_at = np.zeros((m_max + 1, nt), dtype=np.int64)
    for k in range(start, -1, -1):
        if k <= m_max:
            rows[k] = jc
            sc_at[k] = sc_now
        if k % 2 == 0:
            norm += (1.0 if k == 0 else 2.0) * jc
        if k > 0:
            jp, jc = jc, (2.0 * k) * inv_t * jc - jp
            big = np.abs(jc) > 1e250
            if big.any():
                jc[big] *= 1e-250
                jp[big] *= 1e-250
                norm[big] *= 1e-250
                sc_now[big] += 1
    with np.errstate(under="ignore"):
        return rows / norm * 1e-250 ** (sc_now[None, :] - sc_at)


def test_miller_grid_peak_memory_and_values():
    # a 201 x 20,000 grid (beta_estimate's orders) peaks at most 2.5 times
    # its output under tracemalloc (the whole-grid rescale peaked at 5) and
    # equals the reference bit for bit, here and where the rescale counts
    # differ between rows (orders far above the arguments)
    t = np.linspace(1.0, 1000.0, 20_000)
    tracemalloc.start()
    try:
        grid = bessel._miller_grid(t, 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * grid.nbytes
    assert np.array_equal(grid, _miller_grid_reference(t, 200))
    t = np.geomspace(1e-3, 50.0, 300)
    assert np.array_equal(bessel._miller_grid(t, 2000), _miller_grid_reference(t, 2000))


def test_grid_larger_than_its_bound_is_refused_before_the_recurrence(monkeypatch):
    def unreachable(tp, m_max):
        raise AssertionError("the recurrence ran")

    monkeypatch.setattr(bessel, "_miller_grid", unreachable)
    rows = bessel._GRID_BYTES // 8 // 1000
    with pytest.raises(ValueError, match="above the bound of 64 MiB"):
        bessel_j_grid(np.ones(1000), rows)
    with pytest.raises(AssertionError, match="the recurrence ran"):
        bessel_j_grid(np.ones(1000), rows - 1)


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
    # orders and arguments above 10,000 are refused before any grid is built
    for m_range, t_range in (((1, 10_001), (1.0, 400.0)), ((1, 200), (1.0, 10_001.0))):
        with pytest.raises(ValueError, match="must not exceed 10000"):
            check_uniform_bound(0.5, m_range=m_range, t_range=t_range)


def test_beta_estimate_d3():
    rep = beta_estimate(3, m_max=40, T=1000.0)
    assert rep["tail_bound"] <= 0.033
    assert math.isfinite(rep["sup"])
    # the supremum sits at small m where the Bessel peak is widest
    assert rep["argmax_m"] <= 5
    with pytest.raises(ValueError):
        beta_estimate(2)
    for kwargs in ({"m_max": 201}, {"T": 2001.0}, {"T": math.nan}):
        with pytest.raises(ValueError, match="must lie in"):
            beta_estimate(3, **kwargs)
