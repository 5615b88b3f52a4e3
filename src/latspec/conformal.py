"""Conformal change of variable between the unit disk and the complement of
the band [-d, d].

The map  lam(z) = (d/2)(z + 1/z)  sends the punctured unit disk onto
C \\ [-d, d], with z -> 0 corresponding to lam -> infinity and the unit
circle corresponding to the two sides of the band.  Its inverse is computed
through the numerically stable root

    z = d / (lam + sqrt(lam^2 - d^2)),

choosing the square root with the same sign as lam at infinity so |z| < 1
always holds; no cancellation occurs for large |lam|.  On the band itself the
limits from above and below differ, and ``z_of_lambda`` takes a ``side``
argument to select the boundary value: side "plus" means lam + i0 and lands
on the upper or lower unit semicircle so that Im z < 0 (the image of the
upper half plane is the lower half disk).
"""

from __future__ import annotations

import numpy as np

from .lattice import validate_dimension

_BAND_TOL = 1e-14


def lambda_of_z(z: complex, d: int) -> complex:
    """lam = (d/2)(z + 1/z) for z in the punctured open unit disk."""
    validate_dimension(d)
    z = complex(z)
    if z == 0:
        raise ZeroDivisionError("z = 0 maps to infinity")
    if abs(z) >= 1.0:
        raise ValueError(
            f"|z| = {abs(z)} >= 1: the map is only used on the open unit disk; "
            "boundary values of the resolvent go through green_boundary"
        )
    return 0.5 * d * (z + 1.0 / z)


def _principal_like_sqrt(lam: complex, d: int) -> complex:
    """sqrt(lam^2 - d^2) with branch cut on [-d, d], ~ lam at infinity.

    Written as sqrt(lam - d) * sqrt(lam + d) with principal square roots;
    the two cuts outside the band cancel, leaving the single finite cut.
    """
    return np.sqrt(lam - d) * np.sqrt(lam + d)


def z_of_lambda(lam: complex, d: int, side: str = "auto") -> complex:
    """Inverse of ``lambda_of_z``, mapped into the closed unit disk.

    ``side`` only matters when lam lies on the segment (-d, d) (within
    1e-14 absolute imaginary part): "plus" selects the limit from the upper
    half plane, "minus" from the lower.  "auto" raises on the cut so that an
    accidental on-band evaluation is loud rather than silently one-sided.
    """
    validate_dimension(d)
    lam = complex(lam)
    on_band = abs(lam.imag) <= _BAND_TOL and abs(lam.real) <= d
    if on_band:
        if side == "auto":
            raise ValueError(
                f"lambda={lam} lies on the band [-{d},{d}]; pass side='plus' or side='minus'"
            )
        if side not in ("plus", "minus"):
            raise ValueError(f"side must be 'plus', 'minus' or 'auto', got {side!r}")
        x = min(max(lam.real / d, -1.0), 1.0)
        t = np.arccos(x)  # in [0, pi]
        # lam + i0 corresponds to z = e^{-it}: the upper half plane maps to
        # the lower half disk under lam(z).
        return np.exp(-1j * t) if side == "plus" else np.exp(1j * t)
    root = _principal_like_sqrt(lam, d)
    z = d / (lam + root)
    if abs(z) > 1.0 + 1e-12:
        z = d / (lam - root)
    # Guard against rounding pushing a boundary point just outside.
    if abs(z) > 1.0:
        z /= abs(z)
    return z


def dist_to_band(lam: complex, d: int) -> float:
    """Euclidean distance from lam to the segment [-d, d]."""
    validate_dimension(d)
    lam = complex(lam)
    x = min(max(lam.real, -float(d)), float(d))
    return abs(lam - x)
