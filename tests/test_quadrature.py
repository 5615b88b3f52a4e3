import numpy as np
import pytest

from latspec.quadrature import gl_panels, tail_integral_vec


def test_gl_panels_exact_on_polynomials():
    nodes, weights = gl_panels(0.0, 2.0, 0.5, npts=6)
    # 6-point Gauss is exact through degree 11
    for p in range(11):
        val = float(np.sum(weights * nodes ** p))
        assert val == pytest.approx(2.0 ** (p + 1) / (p + 1), rel=1e-13)


def test_gl_panels_degenerate_interval():
    nodes, weights = gl_panels(1.0, 1.0, 0.5)
    assert nodes.size == 0 and weights.size == 0


def test_gl_panels_remainder_absorbed():
    # panel_len not dividing the range: total weight still equals the length
    nodes, weights = gl_panels(0.0, 1.0, 0.3, npts=8)
    assert float(np.sum(weights)) == pytest.approx(1.0, abs=1e-14)
    assert nodes.min() > 0.0 and nodes.max() < 1.0


def test_tail_integral_against_closed_form():
    # int_T^inf t^(-s) e^(iwt) dt for s > 1, w = 0 reduces to T^(1-s)/(s-1)
    s_list = np.array([1.5, 2.0, 3.0])
    got = tail_integral_vec(s_list, 0.0, 50.0)
    for k, s in enumerate(s_list):
        assert got[k] == pytest.approx(50.0 ** (1.0 - s) / (s - 1.0), rel=1e-10)


def test_tail_integral_oscillatory_vs_quadrature():
    # moderate w: compare against brute-force finite quadrature on [T, T+many cycles];
    # |w| T = 36 puts s = 1.5 on the direct series (|w| T >= 2 s + 30) and
    # s = 3.5 on the logarithmic bridge
    s_list, w, T = np.array([1.5, 3.5]), 0.9, 40.0
    nodes, weights = gl_panels(T, T + 2000.0, 0.5, npts=12)
    # remaining tail beyond T+2000 is ~1e-5 in size; integrate it too
    rest = tail_integral_vec(s_list, w, T + 2000.0)
    got = tail_integral_vec(s_list, w, T)
    for k, s in enumerate(s_list):
        brute = np.sum(weights * nodes ** (-s) * np.exp(1j * w * nodes))
        ref = brute + rest[k]
        assert abs(got[k] - ref) <= 1e-11 * abs(ref)
