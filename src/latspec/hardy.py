"""Hardy-space side of the determinant: Blaschke products, boundary
log-modulus, Jensen and trace identities, outer reconstruction.

D is bounded and analytic on the disc with D(0) = 1, so it factors into a
Blaschke product over its zeros, an outer part rebuilt from log|D| on the
circle, and a singular inner part carried by a nonnegative measure.  The
measure is never constructed here: every identity is evaluated under the
working hypothesis that it vanishes, and the residuals *are* the result.
A genuinely nonzero singular part would show up as a reproducible positive
rho_0 and a nonzero outer-reconstruction error, not as a test failure.

Boundary integrals use the periodic trapezoid rule on a dyadic grid.  The
integrand log|D(e^{it})| is continuous but has derivative kinks at the
angles where lambda = d*cos(t) crosses a Van Hove level of the lattice
symbol (and at the band edges t = 0, pi), which would drag the trapezoid
error to O(h^2) with a sizable constant.  Around each such analytically
known angle the rule is therefore replaced by graded Gauss panels.
``boundary_trace`` builds the result once, as one quadrature rule: the
grid and window nodes, their weights (the trapezoid share of each window's
span excised, its Euler-Maclaurin endpoint terms restored as weights) and
log|D| at every node.  Every boundary functional, I0, the Fourier moments
and the outer kernel, is one sum over it (``BoundaryTrace.integrate_kernel``).

Every circle is sampled as exact mirror images (``circle_grid``): the
Jensen circles and the boundary grid are built on their first quadrant
and filled by exact conjugation and negation.  The kink angles come in
orbits {t*, -t*, pi - t*, pi + t*}; one window is built per orbit, and
the others take its weights, nodes -x, pi - x, pi + x, grid indices
mirrored mod N and sample points conj z, -conj z, -z.  Mirrored points
have mirrored Green values, which ``resolvent`` serves from one memo
entry, so a circle costs about a quarter of its points in Green
evaluations.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .lattice import Potential
from .quadrature import gl_panels
from .determinant import (
    MAX_CIRCLE_POINTS, NumericalError, TaylorCoeffs, check_radius, circle_grid, det_eval_many,
)
from .zeros import ZeroRecord

__all__ = [
    "BlaschkeData",
    "BoundaryTrace",
    "build_blaschke",
    "blaschke_eval",
    "jensen_check",
    "boundary_trace",
    "zero_sums",
    "trace_residuals",
    "outer_reconstruct",
]

_TWO_PI = 2.0 * math.pi
# boundary_trace keeps the Fourier moments n = 1.._N_FOURIER of log|D|
_N_FOURIER = 4
# half-width (radians) of the graded-quadrature window around each kink
# angle, shrunk where kinks sit closer together
_KINK_WINDOW = 0.12
# each half of a kink window: _GRADED_LEVELS panels, each half the one
# before, toward the kink and one more up to it, _GRADED_NPTS Gauss nodes each
_GRADED_LEVELS = 6
_GRADED_NPTS = 10
# trace_residuals reports |rho_1| / rho_0 only where rho_0 exceeds this
_RHO0_TOL = 1e-6


# ---------------------------------------------------------------------------
# Blaschke product


@dataclass
class BlaschkeData:
    zeros: "list[ZeroRecord]"
    B0: float
    Bn: "list[complex]"  # Bn[k] is B_{k+1}


def build_blaschke(zeros: "Sequence[ZeroRecord]", n_max: int = 4) -> BlaschkeData:
    """Log-value at 0 and the boundary-moment coefficients of the Blaschke
    product over ``zeros``: B0 = sum m_j log|z_j|,
    B_n = (1/n) sum m_j (z_j^{-n} - conj(z_j)^n)."""
    B0 = math.fsum(rec.multiplicity * math.log(abs(rec.z)) for rec in zeros)
    Bn = []
    for n in range(1, n_max + 1):
        s = sum(
            rec.multiplicity * (rec.z ** (-n) - rec.z.conjugate() ** n) for rec in zeros
        )
        Bn.append(s / n)
    return BlaschkeData(zeros=list(zeros), B0=B0 if zeros else 0.0, Bn=Bn)


def blaschke_eval(data: BlaschkeData, z: complex) -> complex:
    """The Blaschke product at a disc point; empty product = 1."""
    z = complex(z)
    if abs(z) >= 1.0:
        raise ValueError(f"Blaschke evaluation needs |z| < 1, got |z|={abs(z):.6g}")
    out = 1.0 + 0.0j
    for rec in data.zeros:
        zj = rec.z
        factor = (abs(zj) / zj) * (zj - z) / (1.0 - zj.conjugate() * z)
        out *= factor ** rec.multiplicity
    return out


# ---------------------------------------------------------------------------
# Jensen's formula


def check_grid(n_grid: int, name: str = "n_grid") -> None:
    """Raise ValueError unless ``n_grid`` is a power of two in [256,
    MAX_CIRCLE_POINTS], the size of every circle grid here (Jensen circle,
    boundary grid)."""
    if not 256 <= n_grid <= MAX_CIRCLE_POINTS or n_grid & (n_grid - 1):
        raise ValueError(f"{name} must be a power of two in [256, {MAX_CIRCLE_POINTS}]")


def jensen_check(
    V: Potential,
    zeros: "Sequence[ZeroRecord]",
    r: float,
    n_grid: int = 4096,
) -> float:
    """|mean of log|D| on |z|=r  -  sum_{|z_j|<r} m_j log(r/|z_j|)|.

    Jensen's formula makes this exactly zero, so the return value is a
    joint accuracy measure of determinant sampling and zero locations.
    The mean is the trapezoid rule on ``n_grid`` points (``check_grid``).
    """
    check_radius(r, "Jensen radius")
    check_grid(n_grid)
    # a zero sitting on the circle makes the integral singular; nudge r
    for rec in zeros:
        if abs(abs(rec.z) - r) < 1e-9:
            r *= 1.0 + 1e-6
    vals = [abs(v) for v in det_eval_many(V, circle_grid(r, n_grid)).tolist()]
    lhs = float(np.mean(np.log(np.asarray(vals))))
    rhs = math.fsum(
        rec.multiplicity * math.log(r / abs(rec.z)) for rec in zeros if abs(rec.z) < r
    )
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# Boundary trace


# the mirrors of the circle grid as (sign, half turns): t -> sign * t +
# half turns * pi, the orbit {t, -t, pi - t, pi + t}
_MIRRORS = ((1, 0), (-1, 0), (-1, 1), (1, 1))


def _kink_orbits(d: int) -> list:
    """The angles where t -> log|D(e^{it})| loses smoothness, the band
    edges and Van Hove levels lambda* = -d + 2k of the symbol, one entry
    per orbit {t*, -t*, pi - t*, pi + t*}: t* = acos(lv / d) in [0, pi/2]
    for a level lv >= 0, and the mirrors giving its distinct images.
    t* = 0 (lv = d) and t* = pi/2 (lv = 0) have two."""
    return [
        (math.acos(lv / d),
         [(sign, turns) for sign, turns in _MIRRORS if not (lv == d and sign < 0 or lv == 0 and turns)])
        for lv in range(d % 2, d + 1, 2)
    ]


def _mirror_angle(t: float, sign: int, turns: int) -> float:
    return (sign * t + turns * math.pi) % _TWO_PI


def _window_orbit(t_star: float, mirrors: list, width: float, h: float, n_grid: int) -> list:
    """The kink windows of one orbit of ``_kink_orbits`` as (t_star, k_lo,
    k_hi, nodes, weights, points): the window at t* is built, its images
    are exact mirrors of it, with nodes sign * x + turns * pi, grid indices
    mirrored mod N and sample points conj z, -conj z, -z."""
    k_lo = math.floor((t_star - width) / h)
    k_hi = math.ceil((t_star + width) / h)
    n1, w1 = _graded_nodes(k_lo * h, t_star)
    n2, w2 = _graded_nodes(k_hi * h, t_star)  # panels are re-oriented inside
    x, w = np.concatenate([n1, n2]), np.concatenate([w1, w2])
    z = np.exp(1j * x)
    half = n_grid // 2
    out = []
    for sign, turns in mirrors:
        lo, hi = (k_lo, k_hi) if sign > 0 else (-k_hi, -k_lo)
        zm = z if sign > 0 else z.conj()
        out.append((_mirror_angle(t_star, sign, turns), lo + turns * half, hi + turns * half,
                    sign * x + turns * math.pi, w, -zm if turns else zm))
    return out


def _graded_nodes(edge: float, t_star: float):
    """Gauss nodes/weights on [edge, t_star] (either orientation), graded
    dyadically toward t_star where the integrand kinks."""
    length = t_star - edge
    cuts = [edge + length * (1.0 - 0.5 ** j) for j in range(_GRADED_LEVELS + 1)] + [t_star]
    nodes = []
    weights = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        if a == b:
            continue
        lo, hi = (a, b) if b > a else (b, a)
        x, w = gl_panels(lo, hi, panel_len=abs(hi - lo), npts=_GRADED_NPTS)
        nodes.append(x)
        weights.append(w)
    return np.concatenate(nodes), np.concatenate(weights)


@dataclass
class BoundaryTrace:
    """log|D| on the unit circle as one quadrature rule for its integrals.

    ``nodes`` holds the ``n_grid`` grid angles 2 pi k / n_grid first, then
    the Gauss nodes of each kept kink window (unwrapped: they may be
    negative or exceed 2 pi); ``log_mod`` is log|D| at every node, infilled
    on the grid where |D| was not finite or collapsed.  ``weights`` make
    sum(weights * log_mod * kernel(nodes)) the integral over [0, 2 pi].
    """

    d: int
    n_grid: int
    nodes: np.ndarray
    weights: np.ndarray
    log_mod: np.ndarray
    I0: float
    fourier: "list[complex]"  # (1/pi) int e^{-int} log|D| dt, n = 1.._N_FOURIER
    flagged: "list[int]"
    low_confidence: bool
    dropped_windows: int

    def integrate_kernel(self, kernel: "Callable[[np.ndarray], np.ndarray]") -> np.ndarray:
        """integral_0^{2pi} kernel(t) log|D(e^{it})| dt by the stored rule.

        ``kernel`` takes the node array and must be smooth; it may return
        rows of kernels, one integral each (the sum runs over the last axis).
        """
        # np.sum, not a BLAS dot: its pairwise order does not depend on the
        # BLAS thread count, so the reports stay the same bit for bit
        return np.sum(self.weights * self.log_mod * kernel(self.nodes), axis=-1)


def _window_weights(weights: np.ndarray, k_lo: int, k_hi: int, h: float) -> None:
    """Excise the trapezoid share of the grid span [k_lo, k_hi] (indices
    mod N) from ``weights``, in place.  The composite-trapezoid arcs left
    around the span have Euler-Maclaurin h^2/12 endpoint terms that no
    longer cancel around the circle; they are restored as the weights of
    central-difference derivatives (the integrand is smooth at the edges)."""
    n = weights.size
    weights[np.arange(k_lo, k_hi + 1) % n] -= h
    for k, sign in ((k_lo, 1.0), (k_hi, -1.0)):
        weights[k % n] += 0.5 * h
        weights[(k + 1) % n] -= sign * h / 24.0
        weights[(k - 1) % n] += sign * h / 24.0


def boundary_trace(V: Potential, n_grid: int = 1024) -> BoundaryTrace:
    """Sample log|D| on the boundary circle and build its quadrature rule.

    The rule is the periodic trapezoid rule on the grid, with the span of
    each kink window replaced by graded Gauss panels (``_window_weights``).
    The grid and every kink-window node are evaluated in one
    ``det_eval_many`` call, whose exceptions propagate with their class;
    ``green_boundary_orbits`` refuses a d outside 3 <= d <= 10 before its
    first Green value.  Grid points where |D| is not finite or collapses
    are infilled by neighbor averaging and flagged; more than 5% flags
    marks the whole trace low-confidence, and a trace with no measured
    grid point raises NumericalError.  Kink windows are skipped (falling
    back to plain trapezoid there) if |D| fails so at any of their nodes.
    """
    check_grid(n_grid)
    h = _TWO_PI / n_grid

    # kink windows: snap edges outward to grid nodes, grade toward the kink;
    # one window per orbit of kink angles, the rest mirrored
    orbits = _kink_orbits(V.d) if V.support else []
    kinks = sorted(_mirror_angle(t, sign, turns) for t, mirrors in orbits for sign, turns in mirrors)
    min_gap = min((b - a for a, b in zip(kinks, kinks[1:])), default=_TWO_PI)
    width = min(_KINK_WINDOW, 0.35 * min_gap)
    spans = sorted(
        (span for t, mirrors in orbits for span in _window_orbit(t, mirrors, width, h, n_grid)),
        key=lambda span: span[0],
    )

    zs = np.concatenate([circle_grid(1.0, n_grid)] + [span[5] for span in spans])
    # log|D| per node, None where |D| is not finite or collapses
    raw = [math.log(a) if math.isfinite(a) and a > 1e-300 else None
           for a in map(abs, det_eval_many(V, zs).tolist())]
    flagged = [k for k in range(n_grid) if raw[k] is None]
    if len(flagged) == n_grid:
        raise NumericalError(f"log|D| failed at every one of the {n_grid} boundary grid points")

    def nearest(k: int, step: int) -> float:
        # the nearest measured grid point from k in direction step
        return next(v for j in range(1, n_grid) if (v := raw[(k + step * j) % n_grid]) is not None)

    nodes = [_TWO_PI * np.arange(n_grid) / n_grid]
    weights = [np.full(n_grid, h)]
    log_mod = [np.array([0.5 * (nearest(k, -1) + nearest(k, 1)) if v is None else v
                         for k, v in enumerate(raw[:n_grid])])]
    dropped_windows = 0
    at = n_grid
    for _, k_lo, k_hi, x, w, _ in spans:
        node_vals = raw[at:at + x.size]
        at += x.size
        if any(v is None for v in node_vals):
            dropped_windows += 1
            continue
        _window_weights(weights[0], k_lo, k_hi, h)
        nodes.append(x)
        weights.append(w)
        log_mod.append(np.array(node_vals))
    nodes, weights, log_mod = (np.concatenate(a) for a in (nodes, weights, log_mod))

    # the sums of integrate_kernel, for the kernels 1 and e^{-int}
    weighted = weights * log_mod
    moments = np.sum(weighted * np.exp(-1j * np.arange(1, _N_FOURIER + 1)[:, None] * nodes), axis=-1)
    return BoundaryTrace(
        d=V.d,
        n_grid=n_grid,
        nodes=nodes,
        weights=weights,
        log_mod=log_mod,
        I0=float(np.sum(weighted)) / _TWO_PI,
        fourier=[m / math.pi for m in moments.tolist()],
        flagged=flagged,
        low_confidence=len(flagged) > 0.05 * n_grid,
        dropped_windows=dropped_windows,
    )


# ---------------------------------------------------------------------------
# Trace identities


def zero_sums(zeros: "Sequence[ZeroRecord]", bt: BoundaryTrace) -> dict:
    """The eigenvalue sums every report draws from the zeros, and rho0.

    ``blaschke_sum`` = sum m_j (1 - |z_j|), ``B0`` = sum m_j log|z_j|,
    ``lam_im`` = sum m_j Im lambda_j, ``sqrt_re`` = sum m_j Re (d/2)(1/z_j - z_j)
    (the branch of sqrt(lambda_j^2 - d^2) that D uses), and
    ``rho0`` = I0 + B0, the singular mass under the trivial-inner-factor
    hypothesis.  Each sum is one ``math.fsum`` in zero order.
    """
    B0 = build_blaschke(zeros, n_max=0).B0
    return {
        "blaschke_sum": math.fsum(r.multiplicity * (1.0 - abs(r.z)) for r in zeros),
        "B0": B0,
        "lam_im": math.fsum(r.multiplicity * r.lam.imag for r in zeros),
        "sqrt_re": math.fsum(r.multiplicity * (0.5 * bt.d * (1.0 / r.z - r.z)).real for r in zeros),
        "rho0": bt.I0 + B0,
    }


def trace_residuals(
    V: Potential,
    zeros: "Sequence[ZeroRecord]",
    bt: BoundaryTrace,
    coeffs: TaylorCoeffs,
) -> dict:
    """Residuals of the eigenvalue/boundary trace identities under the
    hypothesis that the singular inner factor is trivial.

    rho_0 estimates the total singular mass (must be >= -_RHO0_TOL up to
    quadrature); ``ratio_rho1`` = |rho_1| / rho_0 is reported only where
    rho_0 > _RHO0_TOL.  Below that rho_0 is quadrature noise, and dividing
    by it (or by _RHO0_TOL) would turn rounding-level changes of rho_1 into
    changes of the ratio a million times larger, so the ratio is None and
    ``ratio_rho1_reason`` says why.  rho_n pair the Taylor coefficients of -log D with the
    Blaschke moments and the boundary Fourier data; the two real-form
    identities recombine the n = 1 moment with the eigenvalue sums.
    """
    d = V.d
    n_max = min(coeffs.n_max, len(bt.fourier))
    bl = build_blaschke(zeros, n_max=n_max)
    sums = zero_sums(zeros, bt)
    rho0 = sums["rho0"]
    rho = [
        (-coeffs.c[k] + bl.Bn[k]) - bt.fourier[k]
        for k in range(n_max)
    ]

    tr_v = complex(sum(v for _, v in V.entries))
    f1 = bt.fourier[0] if bt.fourier else 0.0 + 0.0j
    rhs_sin = tr_v.imag + 0.5 * d * f1.imag
    rhs_cos = tr_v.real + 0.5 * d * f1.real
    if not rho:
        ratio, reason = None, "no boundary moments"
    elif rho0 > _RHO0_TOL:
        ratio, reason = abs(rho[0]) / rho0, None
    else:
        ratio, reason = None, f"rho0 = {rho0:.3e} is not above tol = {_RHO0_TOL:g}"

    return {
        "rho0": rho0,
        "rho": rho,
        "t52": {
            "sin": {
                "lhs": sums["lam_im"],
                "rhs": rhs_sin,
                "residual": abs(sums["lam_im"] - rhs_sin),
            },
            "cos": {
                "lhs": sums["sqrt_re"],
                "rhs": rhs_cos,
                "residual": abs(sums["sqrt_re"] - rhs_cos),
            },
        },
        "ratio_rho1": ratio,
        "ratio_rho1_reason": reason,
        "B0": sums["B0"],
        "Bn": bl.Bn,
        "I0": bt.I0,
    }


# ---------------------------------------------------------------------------
# Outer reconstruction


def outer_reconstruct(
    V: Potential,
    bt: BoundaryTrace,
    zeros: "Sequence[ZeroRecord]",
    z_probes: "Sequence[complex]",
) -> dict:
    """Rebuild D from its zeros and boundary modulus, report the misfit.

    K(z) = (1/2pi) int (e^{it}+z)/(e^{it}-z) log|D(e^{it})| dt is the outer
    part's log; with a trivial singular factor D = B * e^K exactly, so the
    relative misfit max_probes |D - B e^K| / |D| detects singular mass and
    accumulated numerical error together.
    """
    probes = [complex(z) for z in z_probes]
    if any(abs(z) > 0.9 for z in probes):
        raise ValueError("outer-reconstruction probes must satisfy |z| <= 0.9")
    bl = build_blaschke(zeros, n_max=1)
    zs = np.array(probes, dtype=complex)[:, None]
    k_vals = bt.integrate_kernel(lambda t: (np.exp(1j * t) + zs) / (np.exp(1j * t) - zs)) / _TWO_PI
    worst = 0.0
    worst_z = None
    details = []
    d_vals = det_eval_many(V, probes).tolist()
    for z, d_val, k_val in zip(probes, d_vals, k_vals.tolist()):
        recon = blaschke_eval(bl, z) * cmath.exp(k_val)
        rel = abs(d_val - recon) / abs(d_val)
        details.append({"z": z, "rel_err": rel})
        if rel > worst:
            worst, worst_z = rel, z
    return {"max_rel_err": worst, "argmax_z": worst_z, "probes": details}
