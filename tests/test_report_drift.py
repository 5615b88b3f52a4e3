"""Report-drift guards for the canonical V = 3 delta_0 pipeline and the
bounds layer.

The trace-identity fields of the session fixtures (zeros at tol 1e-12, the
boundary trace on 1024 points, Taylor data on r = 0.25) and the outer
reconstruction at the trace-check probes are pinned to the values of the
release before the batched Green engines, with a 1e-13 absolute bound.
Engine changes that move Green values at rounding level moved these fields
by at most 2.0e-14 so far; a larger move is a change of numbers, not of
speed.  ``newton_radius`` is not pinned: it is ten times the last Newton
step, which moves a million times as much as D.

The ``bounds-report`` fields of the real two-site potential
3 delta_0 - 2.5 delta_(1,1,0) at that command's defaults (zeros at tol
1e-10, the boundary trace on 256 points) are pinned at the same bound to
the values of the release before ``check_bounds`` returned a dict.
"""

import pytest

from latspec.bounds import check_bounds, real_case_report
from latspec.determinant import RIM_RADIUS
from latspec.hardy import boundary_trace, outer_reconstruct, trace_residuals
from latspec.lattice import Potential
from latspec.zeros import find_zeros

BOUND = 1e-13
PINNED = {
    "I0": 0.5976720717329366,
    "B0": -0.5976720795249003,
    "rho0": -7.791963740899632e-09,
    "rho": [
        5.552599491309707e-10 - 8.636053573819195e-16j,
        -1.1712280756359661e-08 - 1.1597929727773433e-15j,
        -5.043851725172743e-10 - 3.5718572388372065e-15j,
        4.357367952567692e-09 - 4.26717447231584e-15j,
    ],
    "t52_sin": 1.5472887450211767e-15,
    "t52_cos": 8.328899792076072e-10,
    "outer_error": 2.194621720294757e-08,
    "z1": 0.5500907141570357 - 4.3854729330622067e-16j,
}
PROBES = [0.3, -0.45 + 0.2j, 0.6j, -0.7j, 0.85, -0.85]  # as in `latspec trace-check`


@pytest.fixture(scope="module")
def fields(v3, zeros_v3, bt_v3, tc_v3):
    res = trace_residuals(v3, zeros_v3, bt_v3, tc_v3)
    return {
        "I0": res["I0"],
        "B0": res["B0"],
        "rho0": res["rho0"],
        "rho": res["rho"],
        "t52_sin": res["t52"]["sin"]["residual"],
        "t52_cos": res["t52"]["cos"]["residual"],
        "outer_error": outer_reconstruct(v3, bt_v3, zeros_v3, PROBES)["max_rel_err"],
        "z1": zeros_v3[0].z,
    }


@pytest.mark.parametrize("name", sorted(PINNED))
def test_v3_report_field_pinned(fields, name):
    got, want = fields[name], PINNED[name]
    if isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert abs(g - w) <= BOUND
    else:
        assert abs(got - want) <= BOUND


def test_v3_zero_count(zeros_v3):
    assert [rec.multiplicity for rec in zeros_v3] == [1]


PINNED_BOUNDS = {
    "blaschke_sum": 0.7470873772986996,
    "neg_b0": 0.949779532585975,
    "rho0": -6.308666662402374e-07,
    "c_emp_log": 0.12227694940047053,
    "im_branch_lhs": -1.0939034527525683e-15,
    "pos_branch": None,  # V has a negative site: the branch does not apply
    "n1_lhs": 0.3063848662392885,
    "n1_rhs": 0.3063850319636875,
    "n2_lhs": -5.070084354419608,
    "n2_rhs_quarter": -2.535041107464401,
    "n2_rhs_half": -5.070082214928802,
}


@pytest.fixture(scope="module")
def bounds_fields():
    V = Potential(3, [((0, 0, 0), 3.0 + 0.0j), ((1, 1, 0), -2.5 + 0.0j)])
    zeros = find_zeros(V, RIM_RADIUS, 1e-10)
    bt = boundary_trace(V, n_grid=256)
    rep = check_bounds(V, zeros, bt)
    real = real_case_report(V, zeros, bt)
    return {
        "blaschke_sum": rep["blaschke_sum"],
        "neg_b0": rep["neg_b0"],
        "rho0": rep["rho0"],
        "c_emp_log": rep["c_emp_log"],
        "im_branch_lhs": rep["im_branch"]["lhs"],
        "pos_branch": rep["pos_branch"],
        "n1_lhs": real["n1"]["lhs"],
        "n1_rhs": real["n1"]["rhs"],
        "n2_lhs": real["n2"]["lhs"],
        "n2_rhs_quarter": real["n2"]["rhs_quarter"],
        "n2_rhs_half": real["n2"]["rhs_half"],
    }


@pytest.mark.parametrize("name", sorted(PINNED_BOUNDS))
def test_two_site_bounds_field_pinned(bounds_fields, name):
    got, want = bounds_fields[name], PINNED_BOUNDS[name]
    if want is None:
        assert got is None
    else:
        assert abs(got - want) <= BOUND
