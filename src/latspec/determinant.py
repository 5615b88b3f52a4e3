"""Perturbation determinant det(I + V R0(lambda(z))) on the unit disc.

The potential has finite support S, so the Birman-Schwinger operator
V R0 restricted to S is an |S| x |S| matrix and the determinant is an
ordinary one.  Everything downstream (zero finding, Hardy-space
factorization, trace residuals) consumes the three entry points here:

    det_eval        one sample, interior or boundary of the disc
    march_log       the one phase marcher: a continuous branch of log D
                    along a parametrised curve, bisecting every step whose
                    phase turns by more than pi/2
    log_det_path    march_log along the polygon through given points,
                    anchored at log D(0) = 0
    taylor_coeffs   c_n with  log D(z) = -sum_n c_n z^n,  via the Cauchy
                    integral on a circle that march_log shows encloses no
                    zeros

plus ``moment_relation_check`` which arbitrates, numerically, between
the two candidate closed forms tying c_n to the lattice trace moments.
The argument-principle zero search in ``zeros`` marches its contours
with ``march_log`` too.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .lattice import Potential, quasi_norm, trace_moments
from .conformal import lambda_of_z
from .resolvent import green_auto, green_torus, green_time, green_boundary

__all__ = [
    "QuadPolicy",
    "DeterminantSample",
    "TaylorCoeffs",
    "PathRefinementError",
    "PhaseMarch",
    "det_eval",
    "march_log",
    "log_det_path",
    "taylor_coeffs",
    "moment_relation_check",
    "hinf_constant",
]

_BOUNDARY_TOL = 1e-12
# interior samples must satisfy |z| <= RIM_RADIUS; the rim between it and
# the unit circle is refused
RIM_RADIUS = 1.0 - 1e-3
# bisections of one marched step before march_log gives up on it
_MARCH_MAX_DEPTH = 40


class PathRefinementError(ValueError):
    """Raised when march_log cannot resolve the phase along a step: the
    step passes through, or numerically next to, a zero of D."""


@dataclass(frozen=True)
class QuadPolicy:
    """Which Green engine det_eval uses at interior points.

    engine "auto" (the default, and the only mode the pipeline uses) lets
    green_auto pick torus quadrature or the oscillatory time engine by
    distance to the band.  "torus" and "time" force one interior engine, so
    a determinant can be cross-checked against an independent route.  The
    forced engines refuse points that "auto" handles: "torus" within 1e-3
    of the band, "time" on the real axis.  Samples on |z| = 1 always go
    through green_boundary.
    """

    engine: str = "auto"

    def __post_init__(self) -> None:
        if self.engine not in ("auto", "torus", "time"):
            raise ValueError(f"unknown engine {self.engine!r}")


@dataclass
class DeterminantSample:
    z: complex
    value: complex
    err_estimate: float
    log_value: Optional[complex] = None


@dataclass
class TaylorCoeffs:
    r: float
    c: list  # c[0] is c_1
    err_estimate: list  # per coefficient, same indexing

    @property
    def n_max(self) -> int:
        return len(self.c)


def _green_interior(n, lam, d, policy: QuadPolicy):
    if policy.engine == "torus":
        return green_torus(n, lam, d)
    if policy.engine == "time":
        return green_time(n, lam, d)
    return green_auto(n, lam, d)


def _green_on_circle(n, t, d):
    # z = e^{it} is approached radially from inside; lambda(z) then tends
    # to d*cos t with Im lambda -> -d*eps*sin t, so the upper semicircle
    # means the lower side of the cut.
    lam0 = d * math.cos(t)
    side = "minus" if math.sin(t) > 0.0 else "plus"
    return green_boundary(n, lam0, side, d)


def _assemble(V: Potential, green_of_diff) -> "tuple[np.ndarray, np.ndarray]":
    sites = V.support
    s = len(sites)
    M = np.empty((s, s), dtype=complex)
    E = np.empty((s, s), dtype=float)
    vd = V.as_dict()
    vals = [vd[x] for x in sites]
    for i, x in enumerate(sites):
        for j, y in enumerate(sites):
            diff = tuple(a - b for a, b in zip(x, y))
            g = green_of_diff(diff)
            M[i, j] = vals[i] * g.value
            E[i, j] = abs(vals[i]) * g.err_estimate
    return M, E


def _det_with_err(M: np.ndarray, E: np.ndarray, z: complex) -> DeterminantSample:
    s = M.shape[0]
    A = np.eye(s, dtype=complex) + M
    det = complex(np.linalg.det(A))
    # |d det| <= ||adj(A)||_2 * ||dA||_2; the adjugate's 2-norm is the
    # product of all singular values but the smallest.
    sigma = np.linalg.svd(A, compute_uv=False)
    adj_norm = float(np.prod(sigma[:-1])) if s > 1 else 1.0
    de = float(np.linalg.norm(E, 2))
    float_noise = s * 2.3e-16 * float(sigma[0]) if s else 0.0
    return DeterminantSample(z=z, value=det, err_estimate=adj_norm * (de + float_noise))


def det_eval(V: Potential, z: complex, policy: QuadPolicy = QuadPolicy()) -> DeterminantSample:
    """One determinant sample at z in the closed unit disc.

    Interior points (|z| <= 1 - margin) go through the off-spectrum Green
    engine that ``policy`` names; |z| = 1 goes through the two-sided
    boundary limit with the side fixed by the semicircle.  The thin rim in
    between is refused.  Empty support returns exactly 1.
    """
    z = complex(z)
    d = V.d
    if not V.support:
        return DeterminantSample(z=z, value=1.0 + 0.0j, err_estimate=0.0)
    az = abs(z)
    if az >= 1.0 + _BOUNDARY_TOL:
        raise ValueError(f"z={z} lies outside the closed unit disc")
    if az == 0.0:
        # D(0) = 1 exactly: lambda -> infinity and V R0 -> 0.
        return DeterminantSample(z=z, value=1.0 + 0.0j, err_estimate=0.0)
    if abs(az - 1.0) <= _BOUNDARY_TOL:
        t = cmath.phase(z)
        M, E = _assemble(V, lambda diff: _green_on_circle(diff, t, d))
        return _det_with_err(M, E, z)
    if az > RIM_RADIUS + 1e-12:
        raise ValueError(
            f"|z|={az:.6g} lies in the rim {RIM_RADIUS:g} < |z| < 1; "
            "evaluate on |z|=1 or deeper inside the disc"
        )
    lam = lambda_of_z(z, d)
    M, E = _assemble(V, lambda diff: _green_interior(diff, lam, d, policy))
    return _det_with_err(M, E, z)


@dataclass
class PhaseMarch:
    """What march_log returns.

    logs: continuous log D at the nodes; logs[0] is the principal log.
    min_abs, max_abs: extremes of |D| over every sample, bisection points
    included.
    z_dlog: sum over the marched steps of midpoint(z) * (increment of
    log D); over a closed contour, z_dlog / (2 pi i) approximates the sum
    of the enclosed zeros.
    """

    logs: np.ndarray
    min_abs: float
    max_abs: float
    z_dlog: complex


def march_log(
    f: Callable[[complex], complex],
    z_of: Callable[[float], complex],
    params: Sequence[float],
    values: Optional[Sequence[complex]] = None,
) -> PhaseMarch:
    """Phase-continuous log of f along the curve z_of over the nodes ``params``.

    ``values`` may hold f at the nodes already; otherwise they are sampled.
    Each step between neighbouring nodes is the principal log of the ratio
    of its end values.  A step whose phase turns by more than pi/2 is
    bisected in the parameter, recursively, so the march cannot drop a
    turn.  A step still unresolved after _MARCH_MAX_DEPTH bisections, or
    a sample where f vanishes, raises PathRefinementError.
    """
    zs = [z_of(s) for s in params]
    vals = [f(z) for z in zs] if values is None else list(values)
    min_abs = min(abs(v) for v in vals)
    max_abs = max(abs(v) for v in vals)
    if min_abs == 0.0:
        raise PathRefinementError("D vanishes at a node of the march")
    z_dlog = 0.0 + 0.0j

    def step(sa, sb, za, zb, fa, fb, depth):
        nonlocal min_abs, max_abs, z_dlog
        inc = cmath.log(fb / fa)
        if abs(inc.imag) <= 0.5 * math.pi:
            # log(|fb|/|fa|) equals inc.real to rounding; this form keeps the
            # zero finder's reported roots bit-identical to earlier releases
            z_dlog += 0.5 * (za + zb) * complex(math.log(abs(fb) / abs(fa)), inc.imag)
            return inc
        if depth >= _MARCH_MAX_DEPTH:
            raise PathRefinementError(
                f"phase step from z={za} to z={zb} still turns by {inc.imag:+.3f} "
                f"after {depth} bisections; a zero of D lies on or next to the path"
            )
        sm = 0.5 * (sa + sb)
        zm = z_of(sm)
        fm = f(zm)
        min_abs = min(min_abs, abs(fm))
        max_abs = max(max_abs, abs(fm))
        if fm == 0:
            raise PathRefinementError(f"D vanishes at z={zm}")
        return step(sa, sm, za, zm, fa, fm, depth + 1) + step(sm, sb, zm, zb, fm, fb, depth + 1)

    logs = np.empty(len(vals), dtype=complex)
    logs[0] = cmath.log(vals[0])
    for k in range(1, len(vals)):
        inc = step(params[k - 1], params[k], zs[k - 1], zs[k], vals[k - 1], vals[k], 0)
        logs[k] = logs[k - 1] + inc
    return PhaseMarch(logs=logs, min_abs=min_abs, max_abs=max_abs, z_dlog=z_dlog)


def log_det_path(V: Potential, path: Sequence[complex]) -> "list[DeterminantSample]":
    """Continuous branch of log D along ``path``, anchored at log D(0) = 0.

    The path must start at |z| <= 0.01 where D is within O(|z|) of 1, so
    the principal logarithm of the first sample is the anchored branch.
    The straight segments between consecutive points are marched by
    ``march_log``, which bisects them where the phase turns fast; a
    segment that passes through or next to a zero raises
    PathRefinementError instead of guessing a winding.
    """
    if not path:
        return []
    if abs(path[0]) > 0.01:
        raise ValueError(f"path must start at |z| <= 0.01, got |z|={abs(path[0]):.4g}")
    pts = [complex(z) for z in path]
    samples = [det_eval(V, z) for z in pts]
    for z, smp in zip(pts, samples):
        if abs(smp.value) < 1e-13:
            raise ValueError(f"path passes through a zero of the determinant at z={z}")

    def z_of(s: float) -> complex:
        k = int(s)
        return pts[k] if s == k else pts[k] + (s - k) * (pts[k + 1] - pts[k])

    march = march_log(
        lambda z: det_eval(V, z).value,
        z_of,
        range(len(pts)),
        [smp.value for smp in samples],
    )
    for smp, log_value in zip(samples, march.logs):
        smp.log_value = complex(log_value)
    return samples


def taylor_coeffs(
    V: Potential,
    r: float,
    n_max: int = 4,
    m_samples: int = 64,
) -> TaylorCoeffs:
    """Taylor coefficients c_n of -log D at 0 from the Cauchy integral.

    Samples D on |z| = r at 2*m_samples equispaced points (the requested
    grid plus its refinement, so the error estimate is a strict byproduct),
    marches a continuous log around the circle with ``march_log`` (which
    bisects between samples wherever the phase turns fast, so a zero close
    to the circle cannot hide between them), checks that the loop closes
    with winding zero (no zeros inside), and reads off

        c_n = -(1/(2 pi i)) oint log D(z) / z^{n+1} dz .
    """
    if not 0.0 < r < 1.0:
        raise ValueError("radius must lie in (0, 1)")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if m_samples < 8 * n_max:
        raise ValueError(f"m_samples={m_samples} < 8*n_max={8 * n_max}")
    if not V.support:
        zeros = [0.0 + 0.0j] * n_max
        return TaylorCoeffs(r=r, c=zeros, err_estimate=[0.0] * n_max)

    m2 = 2 * m_samples
    ts = 2.0 * math.pi * np.arange(m2 + 1) / m2  # the last node closes the loop
    pts = r * np.exp(1j * ts[:-1])
    vals = [det_eval(V, z).value for z in pts]
    march = march_log(
        lambda z: det_eval(V, z).value,
        lambda t: r * cmath.exp(1j * t),
        ts,
        vals + vals[:1],
    )
    winding = int(round((march.logs[-1] - march.logs[0]).imag / (2.0 * math.pi)))
    if winding != 0:
        raise ValueError(
            f"circle |z|={r:g} encloses {winding} zero(s) of the determinant; "
            "shrink the radius below r0"
        )
    if march.min_abs <= 1e-13:
        raise ValueError(f"determinant vanishes on the sampling circle |z|={r:g}")
    logs = march.logs[:-1]

    def coeffs_from(logvals: np.ndarray) -> np.ndarray:
        m = len(logvals)
        hat = np.fft.fft(logvals) / m
        n = np.arange(1, n_max + 1)
        return -hat[1 : n_max + 1] * r ** (-n.astype(float))

    fine = coeffs_from(logs)
    coarse = coeffs_from(logs[::2])
    err = np.abs(fine - coarse)
    # rounding in each log D sample is amplified by r^{-n}; the subsampling
    # difference cannot see that floor, so add it explicitly
    log_scale = max(1e-16, float(np.max(np.abs(logs))))
    ns = np.arange(1, n_max + 1, dtype=float)
    noise_floor = 8.0 * 2.3e-16 * log_scale * r ** (-ns)
    err = np.maximum(err, noise_floor)
    return TaylorCoeffs(r=r, c=[complex(c) for c in fine], err_estimate=[float(e) for e in err])


def _relation_predictions(d: int, moments: "list[complex]") -> "dict[str, list[complex]]":
    """The two candidate closed forms tying c_1..c_4 to trace moments.

    (A) takes the printed coefficient display at face value:
        c_1 = a d_1, c_2 = a^2 d_2, c_3 = a^3 d_3 - c_1, c_4 = a^4 d_4 - c_2.
    (B) composes the large-lambda expansion log Dhat = -sum d_n/(n lam^n)
    with 1/lam = a z/(1+z^2), which keeps the 1/n factors:
        c_1 = a d_1, c_2 = a^2 d_2 / 2, c_3 = a^3 d_3 / 3 - c_1,
        c_4 = a^4 d_4 / 4 - 2 c_2.
    Both lists use each relation's own lower coefficients on the right side,
    so each is a pure function of the moments.
    """
    a = 2.0 / d
    d1, d2, d3, d4 = moments[:4]
    ca1 = a * d1
    ca2 = a * a * d2
    ca3 = a ** 3 * d3 - ca1
    ca4 = a ** 4 * d4 - ca2
    cb1 = a * d1
    cb2 = a * a * d2 / 2.0
    cb3 = a ** 3 * d3 / 3.0 - cb1
    cb4 = a ** 4 * d4 / 4.0 - 2.0 * cb2
    return {"A": [ca1, ca2, ca3, ca4], "B": [cb1, cb2, cb3, cb4]}


def moment_relation_check(
    V: Potential,
    coeffs: TaylorCoeffs,
    rel_tol: float = 1e-6,
) -> dict:
    """Compare measured c_1..c_4 against both moment relations.

    The Cauchy-integral coefficients are authoritative; this reports the
    relative residual vector of each candidate and names the winner (the
    unique relation whose n = 2..4 residuals all fall below ``rel_tol``),
    or "both"/"none" when the data cannot separate them (e.g. V empty).
    """
    if coeffs.n_max < 4:
        raise ValueError("need coefficients through c_4")
    moments = trace_moments(V)
    preds = _relation_predictions(V.d, [moments.d1, moments.d2, moments.d3, moments.d4])
    measured = coeffs.c[:4]
    scale = max(max(abs(c) for c in measured), 1e-300)
    report: dict = {"scale": scale, "relations": {}}
    passing = []
    for name, pred in preds.items():
        resid = [abs(m - p) / scale for m, p in zip(measured, pred)]
        ok = all(rv <= rel_tol for rv in resid[1:4])
        report["relations"][name] = {
            "predicted": pred,
            "residual_rel": resid,
            "pass_n2_to_n4": ok,
        }
        if ok:
            passing.append(name)
    if len(passing) == 1:
        report["winner"] = passing[0]
    elif len(passing) == 2:
        report["winner"] = "both"
    else:
        report["winner"] = "none"
    report["c1_residuals"] = {
        name: abs(measured[0] - preds[name][0]) / scale for name in preds
    }
    return report


def hinf_constant(
    V: Potential,
    n_radii: int = 6,
    n_angles: int = 32,
    r_max: float = 0.997,
) -> dict:
    """Empirical constant in the uniform bound log|D| <= C * ||V||_{2/3}.

    Scans a polar grid of the disc, returns the maximum of log|D| and its
    ratio to the quasi-norm.  Reported, never asserted against theory: the
    true constant depends only on d but its value is unknown.
    """
    if not V.support:
        return {"c_emp": 0.0, "max_log_mod": 0.0, "quasi_norm": 0.0, "argmax_z": 0.0 + 0.0j}
    radii = np.linspace(0.15, r_max, n_radii)
    angles = 2.0 * math.pi * np.arange(n_angles) / n_angles
    grid = [complex(r * math.cos(t), r * math.sin(t)) for r in radii for t in angles]
    vals = [det_eval(V, z) for z in grid]
    logmods = [math.log(abs(s.value)) for s in vals]
    k = int(np.argmax(logmods))
    qn = quasi_norm(V)
    return {
        "c_emp": logmods[k] / qn,
        "max_log_mod": logmods[k],
        "quasi_norm": qn,
        "argmax_z": grid[k],
    }
