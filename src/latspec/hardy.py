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
known angle the rule is therefore replaced by graded Gauss panels; the
correction nodes are stored so any later moment against a smooth kernel
can reuse them via ``BoundaryTrace.integrate_kernel``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .lattice import Potential, require_dimension_3
from .quadrature import gl_panels
from .determinant import RIM_RADIUS, TaylorCoeffs, det_eval
from .zeros import ZeroRecord

__all__ = [
    "BlaschkeData",
    "BoundaryTrace",
    "build_blaschke",
    "blaschke_eval",
    "jensen_check",
    "boundary_trace",
    "trace_residuals",
    "outer_reconstruct",
]

_TWO_PI = 2.0 * math.pi
# boundary_trace keeps the Fourier moments n = 1.._N_FOURIER of log|D|
_N_FOURIER = 4
# half-width (radians) of the graded-quadrature window around each kink
# angle, shrunk where kinks sit closer together
_KINK_WINDOW = 0.12


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


def jensen_check(
    V: Potential,
    zeros: "Sequence[ZeroRecord]",
    r: float,
    n_grid: int = 4096,
) -> float:
    """|mean of log|D| on |z|=r  -  sum_{|z_j|<r} m_j log(r/|z_j|)|.

    Jensen's formula makes this exactly zero, so the return value is a
    joint accuracy measure of determinant sampling and zero locations.
    """
    if not 0.0 < r < RIM_RADIUS:
        raise ValueError(f"Jensen radius must lie in (0, {RIM_RADIUS:g})")
    # a zero sitting on the circle makes the integral singular; nudge r
    for rec in zeros:
        if abs(abs(rec.z) - r) < 1e-9:
            r *= 1.0 + 1e-6
    ts = _TWO_PI * np.arange(n_grid) / n_grid
    pts = [r * cmath.exp(1j * t) for t in ts]
    vals = [abs(det_eval(V, z).value) for z in pts]
    lhs = float(np.mean(np.log(np.asarray(vals))))
    rhs = math.fsum(
        rec.multiplicity * math.log(r / abs(rec.z)) for rec in zeros if abs(rec.z) < r
    )
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# Boundary trace


@dataclass
class _Window:
    """Graded-quadrature correction around one derivative-kink angle.

    Replaces the trapezoid contribution of the grid span [k_lo, k_hi]*h
    (angles may exceed [0, 2pi); indices wrap) by Gauss panels refined
    dyadically toward the kink at t_star.
    """

    t_star: float
    k_lo: int
    k_hi: int
    nodes: np.ndarray  # angles, unwrapped (may be negative / > 2pi)
    weights: np.ndarray
    log_mod: np.ndarray  # log|D| at nodes


def _kink_angles(d: int) -> "list[float]":
    """Angles in [0, 2pi) where t -> log|D(e^{it})| loses smoothness:
    band edges and Van Hove levels of the symbol, lambda* = -d+2k."""
    levels = [float(k) for k in range(-d, d + 1, 2)]
    base = [math.acos(lv / d) for lv in levels]  # in [0, pi]
    out = set()
    for t in base:
        out.add(t % _TWO_PI)
        out.add((-t) % _TWO_PI)
    return sorted(out)


def _graded_nodes(edge: float, t_star: float, levels: int = 6, npts: int = 10):
    """Gauss nodes/weights on [edge, t_star] (either orientation), graded
    dyadically toward t_star where the integrand kinks."""
    length = t_star - edge
    cuts = [edge + length * (1.0 - 0.5 ** j) for j in range(levels + 1)] + [t_star]
    nodes = []
    weights = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        if a == b:
            continue
        lo, hi = (a, b) if b > a else (b, a)
        x, w = gl_panels(lo, hi, panel_len=abs(hi - lo), npts=npts)
        nodes.append(x)
        weights.append(w)
    return np.concatenate(nodes), np.concatenate(weights)


@dataclass
class BoundaryTrace:
    """log|D| on the unit circle plus corrected integral functionals."""

    d: int
    t_grid: np.ndarray
    log_mod: np.ndarray
    I0: float
    fourier: "list[complex]"  # (1/pi) int e^{-int} log|D| dt, n = 1.._N_FOURIER
    flagged: "list[int]"
    low_confidence: bool
    windows: "list[_Window]" = field(default_factory=list, repr=False)
    dropped_windows: int = 0

    @property
    def n_grid(self) -> int:
        return len(self.t_grid)

    def integrate_kernel(self, kernel: "Callable[[np.ndarray], np.ndarray]") -> complex:
        """integral_0^{2pi} kernel(t) log|D(e^{it})| dt with the trapezoid
        base rule and the stored kink-window corrections.

        ``kernel`` must accept an angle array and be smooth; it is evaluated
        on the dyadic grid and on the window nodes.
        """
        n = self.n_grid
        h = _TWO_PI / n
        base_terms = self.log_mod * np.asarray(kernel(self.t_grid))
        total = complex(h * np.sum(base_terms))
        for win in self.windows:
            # trapezoid share of the window span, with periodic wrapping
            idx = np.arange(win.k_lo, win.k_hi + 1)
            vals = base_terms[idx % n]
            span = h * (np.sum(vals) - 0.5 * vals[0] - 0.5 * vals[-1])
            fine = np.sum(win.weights * win.log_mod * np.asarray(kernel(win.nodes)))
            # Excising the window leaves composite-trapezoid arcs whose
            # Euler-Maclaurin h^2/12 endpoint terms no longer cancel around
            # the circle; restore them with central-difference derivatives
            # (the integrand is smooth at window edges).
            dg_lo = (base_terms[(win.k_lo + 1) % n] - base_terms[(win.k_lo - 1) % n]) / (2.0 * h)
            dg_hi = (base_terms[(win.k_hi + 1) % n] - base_terms[(win.k_hi - 1) % n]) / (2.0 * h)
            em = -(h * h / 12.0) * (dg_lo - dg_hi)
            total += complex(fine - span + em)
        return total


def _boundary_logmod(V: Potential, t: float) -> float:
    val = det_eval(V, cmath.exp(1j * t))
    a = abs(val.value)
    if not math.isfinite(a) or a <= 1e-300:
        raise ArithmeticError(f"boundary determinant collapsed at t={t:.6f}")
    return math.log(a)


def boundary_trace(V: Potential, n_grid: int = 1024) -> BoundaryTrace:
    """Sample log|D| on the boundary circle and integrate it.

    Failed grid points are infilled by neighbor averaging and flagged;
    more than 5% flags marks the whole trace low-confidence.  Kink windows
    are skipped (falling back to plain trapezoid there) if any of their
    node evaluations fails.
    """
    if n_grid < 256 or n_grid & (n_grid - 1):
        raise ValueError("n_grid must be a power of two, >= 256")
    d = require_dimension_3(V.d, "boundary trace")
    ts = _TWO_PI * np.arange(n_grid) / n_grid
    flagged: "list[int]" = []

    def safe_eval(t: float) -> "float | None":
        try:
            return _boundary_logmod(V, t)
        except (ValueError, ArithmeticError):  # LinAlgError is a ValueError
            return None

    raw = [safe_eval(t) for t in ts]
    log_mod = np.zeros(n_grid)
    for k, v in enumerate(raw):
        if v is None:
            flagged.append(k)
        else:
            log_mod[k] = v
    for k in flagged:
        left = next((raw[(k - j) % n_grid] for j in range(1, n_grid) if raw[(k - j) % n_grid] is not None), 0.0)
        right = next((raw[(k + j) % n_grid] for j in range(1, n_grid) if raw[(k + j) % n_grid] is not None), 0.0)
        log_mod[k] = 0.5 * (left + right)
    low_confidence = len(flagged) > 0.05 * n_grid

    # kink windows: snap edges outward to grid nodes, grade toward the kink
    h = _TWO_PI / n_grid
    kinks = _kink_angles(d)
    min_gap = min(
        (kinks[i + 1] - kinks[i] for i in range(len(kinks) - 1)),
        default=_TWO_PI,
    )
    width = min(_KINK_WINDOW, 0.35 * min_gap)
    windows: "list[_Window]" = []
    dropped_windows = 0
    if V.support:
        for t_star in kinks:
            k_lo = math.floor((t_star - width) / h)
            k_hi = math.ceil((t_star + width) / h)
            e_lo, e_hi = k_lo * h, k_hi * h
            n1, w1 = _graded_nodes(e_lo, t_star)
            n2, w2 = _graded_nodes(e_hi, t_star)  # panels are re-oriented inside
            nodes = np.concatenate([n1, n2])
            weights = np.concatenate([w1, w2])
            node_vals = [safe_eval(float(x)) for x in nodes]
            if any(v is None for v in node_vals):
                dropped_windows += 1
                continue
            windows.append(
                _Window(
                    t_star=t_star,
                    k_lo=k_lo,
                    k_hi=k_hi,
                    nodes=nodes,
                    weights=weights,
                    log_mod=np.array(node_vals, dtype=float),
                )
            )

    bt = BoundaryTrace(
        d=d,
        t_grid=ts,
        log_mod=log_mod,
        I0=0.0,
        fourier=[],
        flagged=flagged,
        low_confidence=low_confidence,
        windows=windows,
        dropped_windows=dropped_windows,
    )
    bt.I0 = float(bt.integrate_kernel(lambda t: np.ones_like(t)).real) / _TWO_PI
    bt.fourier = [
        complex(bt.integrate_kernel(lambda t, n=n: np.exp(-1j * n * t))) / math.pi
        for n in range(1, _N_FOURIER + 1)
    ]
    return bt


# ---------------------------------------------------------------------------
# Trace identities


def trace_residuals(
    V: Potential,
    zeros: "Sequence[ZeroRecord]",
    bt: BoundaryTrace,
    coeffs: TaylorCoeffs,
    tol: float = 1e-6,
) -> dict:
    """Residuals of the eigenvalue/boundary trace identities under the
    hypothesis that the singular inner factor is trivial.

    rho_0 estimates the total singular mass (must be >= -tol up to
    quadrature); rho_n pair the Taylor coefficients of -log D with the
    Blaschke moments and the boundary Fourier data; the two real-form
    identities recombine the n = 1 moment with the eigenvalue sums.
    """
    d = V.d
    n_max = min(coeffs.n_max, len(bt.fourier))
    bl = build_blaschke(zeros, n_max=n_max)
    rho0 = bt.I0 + bl.B0
    rho = [
        (-coeffs.c[k] + bl.Bn[k]) - bt.fourier[k]
        for k in range(n_max)
    ]

    tr_v = complex(sum(v for _, v in V.entries))
    f1 = bt.fourier[0] if bt.fourier else 0.0 + 0.0j
    lam_sum_im = math.fsum(rec.multiplicity * rec.lam.imag for rec in zeros)
    sqrt_sum_re = math.fsum(
        rec.multiplicity * (0.5 * d * (1.0 / rec.z - rec.z)).real for rec in zeros
    )
    rhs_complex = tr_v + 0.5 * d * f1
    rhs_sin = tr_v.imag + 0.5 * d * f1.imag
    rhs_cos = tr_v.real + 0.5 * d * f1.real
    # the sin/cos forms are the real and imaginary parts of the same
    # complex moment; their recombination must agree to the bit
    internal = abs(complex(rhs_cos, rhs_sin) - rhs_complex)

    return {
        "rho0": rho0,
        "rho": rho,
        "t52": {
            "sin": {
                "lhs": lam_sum_im,
                "rhs": rhs_sin,
                "residual": abs(lam_sum_im - rhs_sin),
            },
            "cos": {
                "lhs": sqrt_sum_re,
                "rhs": rhs_cos,
                "residual": abs(sqrt_sum_re - rhs_cos),
            },
            "internal_consistency": internal,
        },
        "ratio_rho1": (abs(rho[0]) / max(rho0, tol)) if rho else 0.0,
        "moment_interpretation": "boundary moment symbols read as Taylor coefficients of -log D",
        "B0": bl.B0,
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
    worst = 0.0
    worst_z = None
    details = []
    for z in probes:
        k_val = bt.integrate_kernel(
            lambda t, z=z: (np.exp(1j * t) + z) / (np.exp(1j * t) - z)
        ) / _TWO_PI
        recon = blaschke_eval(bl, z) * cmath.exp(k_val)
        d_val = det_eval(V, z).value
        rel = abs(d_val - recon) / abs(d_val)
        details.append({"z": z, "rel_err": rel})
        if rel > worst:
            worst, worst_z = rel, z
    return {"max_rel_err": worst, "argmax_z": worst_z, "probes": details}
