import math

import pytest

from latspec.bounds import check_bounds, real_case_report
from latspec.hardy import boundary_trace
from latspec.lattice import Potential, quasi_norm
from latspec.zeros import find_zeros


def test_check_bounds_real_attractive(v3, zeros_v3, bt_v3):
    rep = check_bounds(v3, zeros_v3, bt_v3)
    assert rep["exact_pass"]
    assert rep["quasi_norm"] == pytest.approx(3.0, rel=1e-14)
    assert rep["blaschke_sum"] <= rep["neg_b0"]
    # log-modulus growth constant: positive, modest for this example
    assert 0.0 < rep["c_emp_log"] < 1.0
    # entrywise nonnegative imaginary part (zero) keeps the branch active
    assert rep["im_branch"] is not None
    assert abs(rep["im_branch"]["lhs"]) < 1e-8
    assert rep["pos_branch"] is not None
    assert rep["skipped"] == []


def test_check_bounds_skips_inapplicable_branches():
    V = Potential(3, [((0, 0, 0), 2.0j)])
    zr = find_zeros(V)
    bt = boundary_trace(V, n_grid=256)
    rep = check_bounds(V, zr, bt)
    # purely imaginary site: the positive-part branch does not apply
    assert any("pos" in s for s in rep["skipped"])
    assert rep["im_branch"] is not None


def test_check_bounds_mixed_signs_skips_both():
    V = Potential(3, [((0, 0, 0), 2.5 + 0.5j), ((1, 0, 0), -1.0 - 0.2j)])
    zr = find_zeros(V)
    bt = boundary_trace(V, n_grid=256)
    rep = check_bounds(V, zr, bt)
    assert any("im" in s for s in rep["skipped"])
    assert any("pos" in s for s in rep["skipped"])
    assert rep["exact_pass"]


def test_real_case_identities(v3, zeros_v3, bt_v3):
    rep = real_case_report(v3, zeros_v3, bt_v3)
    assert rep["n1"]["residual"] < 1e-6
    n2 = rep["n2"]
    # exactly one of the two candidate constants fits the data
    assert n2["smaller"] == "half"
    assert n2["residual_half"] < 1e-4
    assert n2["residual_quarter"] > 0.1
    assert 0.0 < rep["edge_sum"]["ratio_to_quasi_norm"] < 1.0


def test_real_case_mirror_sign(zeros_v3, bt_v3, v3):
    V = Potential(3, [((0, 0, 0), -3.0 + 0j)])
    zr = find_zeros(V, tol=1e-12)
    bt = boundary_trace(V, n_grid=1024)
    rep = real_case_report(V, zr, bt)
    assert rep["n1"]["residual"] < 1e-6
    # mirror symmetry: the signed sums flip with the potential
    ref = real_case_report(v3, zeros_v3, bt_v3)
    assert rep["n1"]["lhs"] == pytest.approx(-ref["n1"]["lhs"], abs=1e-9)


def test_real_case_rejects_complex_potential(mix3):
    zr = find_zeros(mix3)
    bt = boundary_trace(mix3, n_grid=256)
    with pytest.raises(ValueError):
        real_case_report(mix3, zr, bt)


def test_quasi_norm_consistency(v3, zeros_v3, bt_v3):
    rep = check_bounds(v3, zeros_v3, bt_v3)
    assert rep["quasi_norm"] == pytest.approx(quasi_norm(v3), rel=0)
