"""Perturbation determinant det(I + V R0(lambda(z))) on the unit disc.

The potential has finite support S, so the Birman-Schwinger operator
V R0 restricted to S is an |S| x |S| matrix and the determinant is an
ordinary one.  Everything downstream (zero finding, Hardy-space
factorization, trace residuals) consumes the entry points here:

    det_eval_many   samples at many points of the closed disc, the one
                    evaluation path
    det_eval        its one-point case
    march_log       the one phase marcher: a continuous branch of log D
                    along a parametrised curve, bisecting every step whose
                    phase turns by more than pi/2
    taylor_coeffs   c_n with  log D(z) = -sum_n c_n z^n,  via the Cauchy
                    integral on a circle that march_log shows encloses no
                    zeros

plus ``moment_relation_check`` which arbitrates, numerically, between
the two candidate closed forms tying c_n to the lattice trace moments.
The argument-principle zero search in ``zeros`` marches its contours
with ``march_log`` too.

Sampling is array-at-a-time.  A consumer that knows its points in
advance (Taylor and Jensen circles, the boundary grid and kink windows,
the initial nodes of a counting contour) passes them all to
``det_eval_many``.  That makes one block request per point group to the
Green engines (support differences x lambdas; the engines chunk the
lambda axis and memoize per value) and one stacked det/svd over the
(K, |S|, |S|) matrices.  Only ``march_log``'s bisection points and the
Newton steps of the zero polish, which are not known in advance, come
one at a time.  Batching changes no number: each sample equals, bit for
bit, the one ``det_eval`` returns for its point alone.

The circles are sampled as exact mirror images.  ``circle_grid`` builds
its first quadrant and fills the rest by exact conjugation and
negation; the Taylor circle here and the Jensen circles and boundary grid
in ``hardy`` use it.  ``lambda_of_z`` is exactly odd and conjugate-
equivariant in IEEE arithmetic, and a boundary point's band value
lambda0 = d Re z / |z| is exactly odd in z, with its side set by the sign
of Im z.  So the Green values of mirrored points are mirror images of one
memo entry (see ``resolvent``), and a circle costs about a quarter of its
points in Green evaluations.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .lattice import Potential, trace_moments
from .conformal import lambda_of_z
from .resolvent import green_boundary_many, green_many

__all__ = [
    "QuadPolicy",
    "DeterminantSample",
    "TaylorCoeffs",
    "NumericalError",
    "PathRefinementError",
    "PhaseMarch",
    "det_eval",
    "det_eval_many",
    "circle_grid",
    "march_log",
    "taylor_coeffs",
    "moment_relation_check",
]

_BOUNDARY_TOL = 1e-12
# interior samples must satisfy |z| <= RIM_RADIUS; the rim between it and
# the unit circle is refused
RIM_RADIUS = 1.0 - 1e-3
# bisections of one marched step before march_log gives up on it
_MARCH_MAX_DEPTH = 40


class NumericalError(ValueError):
    """A computation on valid input that cannot deliver a trustworthy
    result (the CLI exits 3 on it, not 2)."""


class PathRefinementError(NumericalError):
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


@dataclass
class TaylorCoeffs:
    r: float
    c: list  # c[0] is c_1
    err_estimate: list  # per coefficient, same indexing

    @property
    def n_max(self) -> int:
        return len(self.c)


def _det_with_err(M: np.ndarray, E: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """det(I + M[k]) and its error bound for a stack of K matrices M (K, s,
    s) with entrywise error bounds E.

    |d det| <= ||adj(A)||_2 ||dA||_2, where the adjugate's 2-norm is the
    product of all singular values of A but the smallest; rounding adds s
    ulps of the largest.  For s = 1 that is E + 2.3e-16 |1 + M|, with no
    LAPACK call (det of a 1x1 matrix goes through slogdet and need not
    return its entry).  Stacked det and svd factor each matrix on its own,
    so a sample does not depend on the others in the stack.
    """
    s = M.shape[1]
    if s == 1:
        a = 1.0 + M[:, 0, 0]
        return a, E[:, 0, 0] + 2.3e-16 * np.abs(a)
    A = np.eye(s) + M
    sigma = np.linalg.svd(A, compute_uv=False)
    adj_norm = sigma[:, 0].copy()
    for j in range(1, s - 1):
        adj_norm *= sigma[:, j]
    de = np.linalg.norm(E, 2, axis=(1, 2))
    return np.linalg.det(A), adj_norm * (de + s * 2.3e-16 * sigma[:, 0])


def det_eval_many(
    V: Potential,
    zs: "Sequence[complex]",
    policy: QuadPolicy = QuadPolicy(),
) -> "list[DeterminantSample]":
    """Determinant samples at every z of ``zs`` in the closed unit disc.

    This is the one evaluation path; ``det_eval`` is its one-point case.
    Interior points (|z| <= 1 - margin) go through the off-spectrum Green
    engines that ``policy`` names, |z| = 1 through the two-sided boundary
    limit with the side fixed by the semicircle; the thin rim in between
    is refused, as is any point outside the disc (the first such point is
    named).  z = 0 and an empty support give exactly 1.

    The points are classified by masks on |z| = ``np.hypot``: outside,
    rim, interior and z = 0.  The interior points are mapped by one
    ``lambda_of_z`` call and take one block of Green values (support
    differences x lambdas) from ``green_many``, which routes the lambdas
    to the oscillatory or the torus engine; the boundary points take one
    from ``green_boundary_many``.  The blocks fill stacked (K, |S|, |S|)
    matrices for ``_det_with_err``.  A sample is computed the same way
    whichever batch it is in.
    """
    zs = np.asarray(zs, dtype=complex)
    z_list = zs.tolist()
    d = V.d
    out = [DeterminantSample(z=z, value=1.0 + 0.0j, err_estimate=0.0) for z in z_list]
    if not V.support:
        return out
    az = np.hypot(zs.real, zs.imag)
    rim = abs(az - 1.0) <= _BOUNDARY_TOL
    bad = (az >= 1.0 + _BOUNDARY_TOL) | ((az > RIM_RADIUS + 1e-12) & ~rim)
    if bad.any():
        k = int(bad.argmax())
        if az[k] >= 1.0 + _BOUNDARY_TOL:
            raise ValueError(f"z={z_list[k]} lies outside the closed unit disc")
        raise ValueError(
            f"|z|={az[k]:.6g} lies in the rim {RIM_RADIUS:g} < |z| < 1; "
            "evaluate on |z|=1 or deeper inside the disc"
        )
    # D(0) = 1 exactly: lambda -> infinity and V R0 -> 0
    inner = (az != 0.0) & ~rim
    idx = inner.nonzero()[0].tolist()
    n_in = len(idx)
    idx += rim.nonzero()[0].tolist()
    if not idx:
        return out
    sites = V.support
    s = len(sites)
    diffs = [tuple(a - b for a, b in zip(x, y)) for x in sites for y in sites]
    vd = V.as_dict()
    v = np.array([vd[x] for x in sites], dtype=complex)
    G = np.empty((s * s, len(idx)), dtype=complex)
    Gerr = np.empty(G.shape)
    if n_in:
        G[:, :n_in], Gerr[:, :n_in] = green_many(diffs, lambda_of_z(zs[inner], d), d, policy.engine)
    if n_in < len(idx):
        # z = e^{it} is approached radially from inside; lambda(z) then
        # tends to d*cos t with Im lambda -> -d*eps*sin t, so the upper
        # semicircle means the lower side of the cut.  Re z / |z| <= 1
        # keeps lambda0 on the band, and it is exactly odd in z.
        zb = zs[rim]
        G[:, n_in:], Gerr[:, n_in:] = green_boundary_many(
            diffs, d * (zb.real / az[rim]), ~(zb.imag > 0.0), d)
    # row i of the Birman-Schwinger matrix is v_i G(x_i - y_j)
    M = v[None, :, None] * G.T.reshape(-1, s, s)
    E = np.abs(v)[None, :, None] * Gerr.T.reshape(-1, s, s)
    dets, errs = _det_with_err(M, E)
    for k, value, err in zip(idx, dets.tolist(), errs.tolist()):
        out[k] = DeterminantSample(z=z_list[k], value=value, err_estimate=err)
    return out


def circle_grid(r: float, n: int) -> np.ndarray:
    """The n points r e^(2 pi i k / n), k = 0..n-1, for even n, as exact
    mirror images: the first quadrant k <= n/4 directly (i r exactly at
    k = n/4), then z[n/2 - k] = -conj z[k] up to k = n/2 and z[n - k] =
    conj z[k] beyond, so that z[n/2 + k] = -z[k] as well."""
    if n < 2 or n % 2:
        raise ValueError(f"circle_grid needs an even number of points, got {n}")
    q, h = n // 4, n // 2
    z = np.empty(n, dtype=complex)
    z[:q + 1] = r * np.exp(2j * math.pi * np.arange(q + 1) / n)
    if 4 * q == n:
        # i r, its own image under z -> -conj z
        z[q] = complex(0.0, r)
    z[q + 1:h + 1] = -z[h - q - 1::-1].conj()
    z[h + 1:] = z[h - 1:0:-1].conj()
    return z


def det_eval(V: Potential, z: complex, policy: QuadPolicy = QuadPolicy()) -> DeterminantSample:
    """One determinant sample at z in the closed unit disc: the one-point
    case of ``det_eval_many``."""
    return det_eval_many(V, [z], policy)[0]


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
    if not 0.0 < r < RIM_RADIUS:
        raise ValueError(f"radius must lie in (0, {RIM_RADIUS:g})")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if m_samples < 8 * n_max:
        raise ValueError(f"m_samples={m_samples} < 8*n_max={8 * n_max}")
    if not V.support:
        zeros = [0.0 + 0.0j] * n_max
        return TaylorCoeffs(r=r, c=zeros, err_estimate=[0.0] * n_max)

    m2 = 2 * m_samples
    ts = 2.0 * math.pi * np.arange(m2 + 1) / m2  # the last node closes the loop
    vals = [smp.value for smp in det_eval_many(V, circle_grid(r, m2))]
    march = march_log(
        lambda z: det_eval(V, z).value,
        lambda t: r * cmath.exp(1j * t),
        ts,
        vals + vals[:1],
    )
    winding = int(round((march.logs[-1] - march.logs[0]).imag / (2.0 * math.pi)))
    if winding != 0:
        raise NumericalError(
            f"circle |z|={r:g} encloses {winding} zero(s) of the determinant; "
            "shrink the radius below r0"
        )
    if march.min_abs <= 1e-13:
        raise NumericalError(f"determinant vanishes on the sampling circle |z|={r:g}")
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

