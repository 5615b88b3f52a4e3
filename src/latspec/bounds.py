"""Eigenvalue-sum estimates and the real-potential trace identities.

Two kinds of statements live here.  Exact inequalities (consequences of
1 - x <= -log x and of the Blaschke bound) carry strict pass flags; they
hold for any data produced by a correct pipeline, independent of
quadrature.  Constant-dependent estimates are never asserted: the theory
only says a dimension-dependent constant exists, so the honest output is
the empirical ratio of the two sides, tracked across runs.
"""

from __future__ import annotations

import math
from typing import Sequence

from .lattice import Potential, quasi_norm
from .determinant import NumericalError
from .hardy import BoundaryTrace, zero_sums
from .zeros import ZeroRecord

__all__ = ["check_bounds", "real_case_report"]


def _entrywise_im_nonneg(V: Potential) -> bool:
    return all(v.imag >= 0.0 for _, v in V.entries)


def _entrywise_pos_real(V: Potential) -> bool:
    return all(v.imag == 0.0 and v.real >= 0.0 for _, v in V.entries)


def check_bounds(
    V: Potential,
    zeros: "Sequence[ZeroRecord]",
    bt: BoundaryTrace,
) -> dict:
    """Evaluate the eigenvalue-sum estimates for one pipeline run.

    (a) sum(1 - |z_j|) <= -B0 is exact and always asserted; the remaining
    entries are empirical constants against the l^{2/3} quasi-norm, with
    the conditional branches gated by the entrywise sign tests exactly as
    stated (Im V >= 0 for the imaginary-part bound, V >= 0 real for the
    detachment bound).  A branch that does not apply is None and named in
    ``skipped``.
    """
    sums = zero_sums(zeros, bt)
    neg_b0 = -sums["B0"]
    qn = quasi_norm(V)
    report = {
        "blaschke_sum": sums["blaschke_sum"],  # sum m_j (1 - |z_j|)
        "neg_b0": neg_b0,  # -B0 = -sum m_j log|z_j|
        "exact_pass": sums["blaschke_sum"] <= neg_b0,  # zero tolerance
        "quasi_norm": qn,
        "rho0": sums["rho0"],
        "c_emp_log": ((neg_b0 + sums["rho0"]) / qn) if qn else 0.0,
        "im_branch": None,  # entrywise Im V >= 0 case
        "pos_branch": None,  # entrywise real V >= 0 case
        "skipped": [],
    }
    if _entrywise_im_nonneg(V):
        lhs = sums["lam_im"] - math.fsum(v.imag for _, v in V.entries)
        report["im_branch"] = {"lhs": lhs, "c_emp": (lhs / qn) if qn else 0.0}
    else:
        report["skipped"].append("im_branch")
    if _entrywise_pos_real(V):
        lhs = sums["sqrt_re"] - math.fsum(v.real for _, v in V.entries)
        report["pos_branch"] = {"lhs": lhs, "c_emp": (lhs / qn) if qn else 0.0}
    else:
        report["skipped"].append("pos_branch")
    return report


def real_case_report(
    V: Potential,
    zeros: "Sequence[ZeroRecord]",
    bt: BoundaryTrace,
) -> dict:
    """Real-potential trace identities and estimates.

    Everything reduces to the first two boundary Fourier moments of
    log|D| (times the measure hypothesis): writing M_n = int e^{-int} dmu,

      n=1:  -Tr V  + sum |lam_j^2 - d^2|^(1/2) sign(lam_j) = (d/2pi) M_1
      n=2:  -Tr V^2 + sum |lam_j| |lam_j^2 - d^2|^(1/2)    = c_2 M_2

    The n=2 prefactor is reported under both candidate normalizations
    c_2 in {d^2/(4 pi), d^2/(2 pi)}: the printed source is ambiguous, so
    the report carries both residuals and names the smaller; downstream
    analysis, not this code, decides what that means.
    """
    if not V.is_real():
        raise ValueError("real_case_report requires a real-valued potential")
    d = V.d
    if any(abs(r.z.imag) > 1e-8 for r in zeros):
        raise NumericalError("real potential but non-real zeros; upstream data inconsistent")

    tr_v = math.fsum(v.real for _, v in V.entries)
    tr_v2 = math.fsum(v.real ** 2 for _, v in V.entries)
    # for real zeros, sqrt(lam^2 - d^2) on our branch is real with sign(lam)
    sq_signed = zero_sums(zeros, bt)["sqrt_re"]
    sq_weighted = math.fsum(
        r.multiplicity
        * abs(r.lam.real)
        * abs((0.5 * d * (1.0 / r.z - r.z)).real)
        for r in zeros
    )
    # boundary moments of dmu = log|D| dt: int e^{-int} dmu = pi * fourier[n-1]
    m1 = math.pi * bt.fourier[0]
    m2 = math.pi * bt.fourier[1]

    lhs1 = -tr_v + sq_signed
    rhs1 = (d / (2.0 * math.pi)) * m1
    lhs2 = -tr_v2 + sq_weighted
    rhs2_quarter = (d * d / (4.0 * math.pi)) * m2
    rhs2_half = (d * d / (2.0 * math.pi)) * m2

    qn = quasi_norm(V)
    edge_sum = math.fsum(
        r.multiplicity
        * math.sqrt((abs(r.lam.real) - d) / (abs(r.lam.real) + d))
        for r in zeros
    )
    res2_quarter = abs(lhs2 - rhs2_quarter.real)
    res2_half = abs(lhs2 - rhs2_half.real)
    return {
        "n1": {
            "lhs": lhs1,
            "rhs": rhs1.real,
            "residual": abs(lhs1 - rhs1.real),
            "rhs_imag_leak": abs(rhs1.imag),
        },
        "n2": {
            "lhs": lhs2,
            "rhs_quarter": rhs2_quarter.real,
            "rhs_half": rhs2_half.real,
            "residual_quarter": res2_quarter,
            "residual_half": res2_half,
            "smaller": "quarter" if res2_quarter <= res2_half else "half",
        },
        "edge_sum": {
            "value": edge_sum,
            "ratio_to_quasi_norm": (edge_sum / qn) if qn else 0.0,
        },
        "detach_combination": {
            "lhs": lhs2,
            "c_emp": (lhs2 * 4.0 * math.pi / (d * d) / qn) if qn else 0.0,
        },
        "quasi_norm": qn,
    }
