"""Spectral toolkit for discrete Schrodinger operators with complex potentials on Z^d.

The package is organised bottom-up:

- ``lattice``: finitely supported potentials and operator moments.
- ``conformal``: the disk-to-resolvent-domain change of variables.
- ``bessel``: Bessel functions and dispersive propagator bounds.
- ``resolvent``: free lattice Green function (interior and boundary).
- ``determinant``: perturbation determinant on the disk, Taylor data.
- ``zeros``: all zeros of the determinant from contour moments on one circle.
- ``hardy``: Blaschke/Jensen machinery and boundary trace identities.
- ``bounds``: eigenvalue-sum inequality reports.
- ``cli``: the ``latspec`` command line front end.

Importing the package pins OpenBLAS to one thread unless the caller has
set ``OPENBLAS_NUM_THREADS``; this holds only when latspec is imported
before numpy.
"""

import os

# Set before any submodule imports numpy, so OpenBLAS loads with no worker
# thread.  Two reasons.  The stacks here are |S| x |S| with |S| mostly
# below 30, where a second thread gains nothing, yet OpenBLAS's idle worker
# spins for about 0.1 s of CPU after it starts.  And from |S| = 100 on
# OpenBLAS factors a stacked determinant in parallel, so D, and every
# report built on it, would depend on the thread count (ROADMAP item 14).
# A caller who exports the variable keeps that choice.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .bessel import (
    bessel_j,
    beta_estimate,
    check_uniform_bound,
    integral_representation,
)
from .bounds import check_bounds, real_case_report
from .conformal import dist_to_band, lambda_of_z, z_of_lambda
from .determinant import (
    DeterminantSample,
    NumericalError,
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
    green_cache_info,
    green_time,
    green_torus,
)
from .zeros import ZeroIsolationError, ZeroRecord, coupling_threshold, find_zeros

__version__ = "0.1.0"

__all__ = [
    "BlaschkeData",
    "BoundaryTrace",
    "DeterminantSample",
    "GreenValue",
    "MomentSet",
    "NumericalError",
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
    "det_eval",
    "det_eval_many",
    "dist_to_band",
    "find_zeros",
    "green_auto",
    "green_boundary",
    "green_cache_info",
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
