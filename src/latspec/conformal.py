"""Conformal change of variable between the unit disk and the complement of
the band [-d, d].

The map  lam(z) = (d/2)(z + 1/z)  sends the punctured unit disk onto
C \\ [-d, d], with z -> 0 corresponding to lam -> infinity and the unit
circle corresponding to the two sides of the band.  Its inverse is computed
through the numerically stable root

    z = d / (lam + sqrt(lam^2 - d^2)),

choosing the square root with the same sign as lam at infinity so |z| < 1
always holds; no cancellation occurs for large |lam|.  On the band itself the
limits from above and below differ, so ``z_of_lambda`` refuses it: the
boundary values of the resolvent go through ``green_boundary``, and a point
e^{it} of the unit circle maps to the band value d cos t directly.
"""

from __future__ import annotations

import numpy as np

from .lattice import validate_dimension

_BAND_TOL = 1e-14


def lambda_of_z(z, d: int):
    """lam = (d/2)(z + 1/z) for z in the punctured open unit disk,
    elementwise on a scalar (which gives a Python complex) or an array.

    |z| is ``np.hypot`` and 1/z is ``np.reciprocal`` with the sign of a
    zero imaginary part set as Python's 1 / z sets it, so an array gives,
    bit for bit and signed zeros included, what each point gives alone and
    what the Python form 0.5*d*(z + 1/z) gives.  The map is exactly odd and
    conjugate-equivariant up to the sign of a zero part, so mirrored points
    map to exact mirror images.
    """
    validate_dimension(d)
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    z = z.reshape(-1) if scalar else z
    az = np.hypot(z.real, z.imag)
    if not az.all():
        raise ZeroDivisionError("z = 0 maps to infinity")
    if (az >= 1.0).any():
        raise ValueError(
            f"|z| = {float(az[az >= 1.0][0])} >= 1: the map is only used on the open unit disk; "
            "boundary values of the resolvent go through green_boundary"
        )
    w = np.reciprocal(z)
    # np.reciprocal signs a zero Im(1/z) like -Im z, Python like Re z
    np.copyto(w.imag, np.copysign(0.0, z.real), where=z.imag == 0.0)
    lam = 0.5 * d * (z + w)
    return complex(lam[0]) if scalar else lam


def z_of_lambda(lam, d: int):
    """Inverse of ``lambda_of_z``, mapped into the closed unit disk,
    elementwise on a scalar (which gives a Python complex) or an array.

    Off the band z = d / (lam + sqrt(lam^2 - d^2)), the root written as
    sqrt(lam - d) * sqrt(lam + d) with principal square roots (the two cuts
    outside the band cancel, leaving the single cut [-d, d]), and the other
    root taken where rounding puts that z outside the disk.  A lam on the
    segment [-d, d] (within 1e-14 absolute imaginary part) is refused,
    naming the first such lam, so that an accidental on-band evaluation is
    loud rather than silently one-sided.  An array gives, bit for bit, what
    each point gives alone.
    """
    validate_dimension(d)
    lam = np.asarray(lam, dtype=complex)
    scalar = lam.ndim == 0
    lam = lam.reshape(-1) if scalar else lam
    on_band = (np.abs(lam.imag) <= _BAND_TOL) & (np.abs(lam.real) <= d)
    if on_band.any():
        raise ValueError(
            f"lambda={complex(lam[on_band][0])} lies on the band [-{d},{d}]; "
            "boundary values of the resolvent go through green_boundary"
        )
    root = np.sqrt(lam - d) * np.sqrt(lam + d)
    z = d / (lam + root)
    flip = np.abs(z) > 1.0 + 1e-12
    z[flip] = d / (lam[flip] - root[flip])
    # guard against rounding pushing a point next to the band just outside
    out = np.abs(z) > 1.0
    z[out] /= np.abs(z[out])
    return complex(z[0]) if scalar else z


def dist_to_band(lam, d: int):
    """Euclidean distance from lam to the segment [-d, d], elementwise on a
    scalar (which gives a Python float) or an array: hypot(max(|Re lam| -
    d, 0), Im lam), bit for bit |lam - x| with x = Re lam clipped to the
    segment."""
    validate_dimension(d)
    lam = np.asarray(lam, dtype=complex)
    dist = np.hypot(np.maximum(np.abs(lam.real) - d, 0.0), lam.imag)
    return float(dist) if dist.ndim == 0 else dist
