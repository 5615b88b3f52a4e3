"""Spectral toolkit for discrete Schrodinger operators with complex potentials on Z^d.

The package is organised bottom-up:

- ``lattice``: finitely supported potentials and operator moments.
- ``conformal``: the disk-to-resolvent-domain change of variables.
- ``bessel``: Bessel functions and dispersive propagator bounds.
- ``resolvent``: free lattice Green function (interior and boundary).
- ``determinant``: perturbation determinant on the disk, Taylor data.
- ``zeros``: argument-principle zero localisation and eigenvalue reports.
- ``hardy``: Blaschke/Jensen machinery and boundary trace identities.
- ``bounds``: eigenvalue-sum inequality reports.
- ``cli``: the ``latspec`` command line front end.
"""

from .bessel import (
    bessel_j,
    beta_estimate,
    check_uniform_bound,
    integral_representation,
)
from .bounds import BoundsReport, check_bounds, real_case_report
from .conformal import dist_to_band, lambda_of_z, z_of_lambda
from .determinant import (
    DeterminantSample,
    NumericalError,
    PathRefinementError,
    QuadPolicy,
    TaylorCoeffs,
    det_eval,
    det_eval_many,
    moment_relation_check,
    taylor_coeffs,
)
from .hardy import (
    BlaschkeData,
    BoundaryTrace,
    blaschke_eval,
    boundary_trace,
    build_blaschke,
    jensen_check,
    outer_reconstruct,
    trace_residuals,
)
from .lattice import MomentSet, Potential, brute_force_moments, quasi_norm, trace_moments
from .resolvent import (
    GreenValue,
    green_auto,
    green_boundary,
    green_boundary_many,
    green_cache_info,
    green_many,
    green_time,
    green_torus,
)
from .zeros import ZeroIsolationError, ZeroRecord, coupling_threshold, count_zeros, find_zeros

__version__ = "0.1.0"

__all__ = [
    "BlaschkeData",
    "BoundaryTrace",
    "BoundsReport",
    "DeterminantSample",
    "GreenValue",
    "MomentSet",
    "NumericalError",
    "PathRefinementError",
    "Potential",
    "QuadPolicy",
    "TaylorCoeffs",
    "ZeroIsolationError",
    "ZeroRecord",
    "bessel_j",
    "beta_estimate",
    "blaschke_eval",
    "boundary_trace",
    "brute_force_moments",
    "build_blaschke",
    "check_bounds",
    "check_uniform_bound",
    "coupling_threshold",
    "count_zeros",
    "det_eval",
    "det_eval_many",
    "dist_to_band",
    "find_zeros",
    "green_auto",
    "green_boundary",
    "green_boundary_many",
    "green_cache_info",
    "green_many",
    "green_time",
    "green_torus",
    "integral_representation",
    "jensen_check",
    "lambda_of_z",
    "moment_relation_check",
    "outer_reconstruct",
    "quasi_norm",
    "real_case_report",
    "taylor_coeffs",
    "trace_moments",
    "trace_residuals",
    "z_of_lambda",
    "__version__",
]
