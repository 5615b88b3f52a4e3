"""Perturbation determinant det(I + V R0(lambda(z))) on the unit disc.

The potential has finite support S, so the Birman-Schwinger operator
V R0 restricted to S is an |S| x |S| matrix and the determinant is an
ordinary one.  Everything downstream (zero finding, Hardy-space
factorization, trace residuals) consumes the entry points here:

    det_eval_many   D at many points of the closed disc, as a complex
                    array: the one sampling path
    det_eval        one point, with its error bound
    taylor_coeffs   c_n with  log D(z) = -sum_n c_n z^n,  from the FFT of
                    D on a circle and the power-series logarithm

plus ``moment_relation_check`` which arbitrates, numerically, between
the two candidate closed forms tying c_n to the lattice trace moments.
The zero search in ``zeros`` takes the same matrices from ``_stacks``
and inverts them for its contour moments.  No phase of D is marched
anywhere.

Sampling is array-at-a-time and returns values only.  A consumer passes
all its points to ``det_eval_many``: the Taylor and Jensen circles, the
boundary grid and kink windows, and each round of the zero search's
Newton polish.  ``_stacks``, the one generator of Birman-Schwinger
matrices, asks the Green engines for one block per _BLOCK_POINTS points
(orbits of the support differences x lambdas; the engines chunk the
lambda axis and memoize per value) and gathers the (K, |S|, |S|)
matrices from it _STACK_BYTES at a time, for stacked dets.
Batching changes no number: each value equals, bit for bit, the one
``det_eval`` returns for its point alone.  Only ``det_eval`` forms the
error bound, from a singular value decomposition of each |S| x |S|
matrix (|S| >= 2) and the 2-norm of its entrywise error bounds; the
CLI's ``det-eval`` reports it.

The circles are sampled as exact mirror images.  ``circle_grid`` builds
its first quadrant and fills the rest by exact conjugation and negation;
the Taylor circle here, the zero search's circle and the Jensen circles
and boundary grid in ``hardy`` use it.  ``lambda_of_z`` is exactly odd
and conjugate-equivariant in IEEE arithmetic, and a boundary point's band
value lambda0 = d Re z / |z| is exactly odd in z, with its side set by
the sign of Im z.  So the Green values of mirrored points are mirror
images of one memo entry (see ``resolvent``), and a circle costs about a
quarter of its points in Green evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lattice import Potential, trace_moments
from .conformal import lambda_of_z
from .resolvent import green_boundary_orbits, green_orbits, support_orbits

__all__ = [
    "QuadPolicy",
    "DeterminantSample",
    "TaylorCoeffs",
    "NumericalError",
    "det_eval",
    "det_eval_many",
    "circle_grid",
    "taylor_coeffs",
    "moment_relation_check",
]

_BOUNDARY_TOL = 1e-12
# interior samples must satisfy |z| <= RIM_RADIUS; the rim between it and
# the unit circle is refused
RIM_RADIUS = 1.0 - 1e-3
# most points of any sampled circle (boundary grid, Jensen and Taylor
# circles): 2^16 points already take a few MB per array
MAX_CIRCLE_POINTS = 2 ** 16
# most points of one Green block, and largest stack of Birman-Schwinger
# matrices gathered from it and factored or inverted in one call
_BLOCK_POINTS = 512
_STACK_BYTES = 2 ** 20
# moment_relation_check passes a relation whose relative residuals for
# n = 2..4 all lie below this
_RELATION_TOL = 1e-6


class NumericalError(ValueError):
    """A computation on valid input that cannot deliver a trustworthy
    result (the CLI exits 3 on it, not 2)."""


@dataclass(frozen=True)
class QuadPolicy:
    """Which Green engine det_eval uses at interior points.

    engine "auto" (the default, and the only mode the pipeline uses) lets
    green_auto pick the exact series or the oscillatory time engine by
    |z|.  "torus" and "time" force one interior reference engine, so a
    determinant can be cross-checked against an independent route.  The
    forced engines refuse points that "auto" handles: "torus" within 5e-3
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


def _matrix_points(V: Potential, zs: np.ndarray) -> "tuple[np.ndarray, int]":
    """The positions in ``zs`` of the points that need a Birman-Schwinger
    matrix, interior first, then |z| = 1, and the number of interior ones.
    Points not finite, outside the disc or in the rim are refused (the
    first is named), for an empty support too; z = 0 and an empty support
    need no matrix, since D is exactly 1 there.  The points are classified
    by masks on |z| = ``np.hypot``: outside, rim, interior and z = 0."""
    bad = ~np.isfinite(zs)
    if bad.any():
        raise ValueError(f"z={complex(zs[bad][0])} is not finite")
    az = np.hypot(zs.real, zs.imag)
    rim = abs(az - 1.0) <= _BOUNDARY_TOL
    bad = (az >= 1.0 + _BOUNDARY_TOL) | ((az > RIM_RADIUS + 1e-12) & ~rim)
    if bad.any():
        k = int(bad.argmax())
        if az[k] >= 1.0 + _BOUNDARY_TOL:
            raise ValueError(f"z={complex(zs[k])} lies outside the closed unit disc")
        raise ValueError(
            f"|z|={az[k]:.6g} lies in the rim {RIM_RADIUS:g} < |z| < 1; "
            "evaluate on |z|=1 or deeper inside the disc"
        )
    if not V.support:
        return np.zeros(0, dtype=int), 0
    # D(0) = 1 exactly: lambda -> infinity and V R0 -> 0
    inner = ((az != 0.0) & ~rim).nonzero()[0]
    return np.concatenate([inner, rim.nonzero()[0]]), len(inner)


def _green_block(V: Potential, zs: np.ndarray, n_in: int, engine: str):
    """What the Birman-Schwinger matrices of the points ``zs``, the first
    ``n_in`` interior and the rest on |z| = 1, are built from (``_stack``
    builds them): (index, G, Gerr), the orbit row ``index`` of each support
    difference and the Green block G (orbits, K) with its error bounds.

    The interior points are mapped by one ``lambda_of_z`` call and take one
    block from ``green_orbits``, which routes the lambdas as ``green_auto``
    does or to the engine named by ``engine``; the boundary points take one
    from ``green_boundary_orbits``.  Both take the orbits of the support
    differences as ``support_orbits`` maps them, once per support.
    """
    d = V.d
    canons, index = support_orbits(V.support, d)
    G = np.empty((len(canons), len(zs)), dtype=complex)
    Gerr = np.empty(G.shape)
    if n_in:
        G[:, :n_in], Gerr[:, :n_in] = green_orbits(canons, lambda_of_z(zs[:n_in], d), d, engine)
    if n_in < len(zs):
        # z = e^{it} is approached radially from inside; lambda(z) then
        # tends to d*cos t with Im lambda -> -d*eps*sin t, so the upper
        # semicircle means the lower side of the cut.  Re z / |z| <= 1
        # keeps lambda0 on the band, and it is exactly odd in z.
        zb = zs[n_in:]
        G[:, n_in:], Gerr[:, n_in:] = green_boundary_orbits(
            canons, d * (zb.real / np.hypot(zb.real, zb.imag)), ~(zb.imag > 0.0), d)
    return index, G, Gerr


def _stacks(V: Potential, zs: np.ndarray):
    """The Birman-Schwinger matrices of the points of ``zs`` that need one
    (``_matrix_points``, which refuses before any Green value is taken), as
    (positions, M): M (K, |S|, |S|) holds the matrices of the K points at
    those positions of ``zs``.  At most _BLOCK_POINTS points take one Green
    block (``_green_block``, routed as ``green_auto`` routes), and
    ``_stack`` gathers the matrices from it _STACK_BYTES at a time, so the
    memory stays bounded however many points are asked for."""
    pos, n_in = _matrix_points(V, zs)
    v = V.values
    for lo in range(0, len(pos), _BLOCK_POINTS):
        block = pos[lo:lo + _BLOCK_POINTS]
        index, G, _ = _green_block(V, zs[block], min(max(n_in - lo, 0), len(block)), "auto")
        step = max(1, _STACK_BYTES // (16 * index.size))
        for k in range(0, len(block), step):
            yield block[k:k + step], _stack(v, index, G[:, k:k + step])


def _stack(v: np.ndarray, index: np.ndarray, G: np.ndarray) -> np.ndarray:
    """The (K, s, s) matrices v_i G(x_i - y_j) of an orbit block G (orbits,
    K): entry (i, j) of a matrix reads G's row index[i * s + j].  This is
    the one gather from orbit rows to matrix entries."""
    s = len(v)
    return v[None, :, None] * G[index].T.reshape(-1, s, s)


def _det(M: np.ndarray) -> np.ndarray:
    """det(I + M[k]) for a stack of K matrices M (K, s, s).  For s = 1 it is
    1 + M, with no LAPACK call (det of a 1x1 matrix goes through slogdet
    and need not return its entry).  Stacked det factors each matrix on
    its own, so a value does not depend on the others in the stack."""
    s = M.shape[1]
    if s == 1:
        return 1.0 + M[:, 0, 0]
    return np.linalg.det(np.eye(s) + M)


def _det_err(M: np.ndarray, E: np.ndarray) -> np.ndarray:
    """The error bound of ``_det(M)`` for entrywise error bounds E.

    |d det| <= ||adj(A)||_2 ||dA||_2 with A = I + M, where the adjugate's
    2-norm is the product of all singular values of A but the smallest;
    rounding adds s ulps of the largest.  For s = 1 that is E + 2.3e-16
    |1 + M|, with no LAPACK call.
    """
    s = M.shape[1]
    if s == 1:
        return E[:, 0, 0] + 2.3e-16 * np.abs(1.0 + M[:, 0, 0])
    sigma = np.linalg.svd(np.eye(s) + M, compute_uv=False)
    adj_norm = sigma[:, 0].copy()
    for j in range(1, s - 1):
        adj_norm *= sigma[:, j]
    de = np.linalg.norm(E, 2, axis=(1, 2))
    return adj_norm * (de + s * 2.3e-16 * sigma[:, 0])


def det_eval_many(V: Potential, zs: "Sequence[complex]") -> np.ndarray:
    """D at every z of ``zs`` in the closed unit disc, as a complex array.

    This is the one sampling path.  Interior points (|z| <= 1 - margin) go
    through the off-spectrum Green engines as ``green_auto`` routes them,
    |z| = 1 through the two-sided boundary limit with the side fixed by
    the semicircle; the thin rim in between is refused, as is any point
    outside the disc (the first such point is named), for an empty support
    too.  z = 0 and an empty support give exactly 1.

    ``_det`` factors each bounded stack of matrices that ``_stacks``
    yields.  No error bound is formed: ``det_eval`` is the one place that
    returns it.  A value is computed the same way whichever batch, Green
    block or stack it is in.
    """
    zs = np.asarray(zs, dtype=complex)
    out = np.ones(len(zs), dtype=complex)
    for pos, M in _stacks(V, zs):
        out[pos] = _det(M)
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


def check_radius(r: float, name: str) -> None:
    """Raise ValueError unless the circle |z| = r is interior as
    ``_matrix_points`` bounds it: 0 < r <= RIM_RADIUS, to 1e-12."""
    if not 0.0 < r <= RIM_RADIUS + 1e-12:
        raise ValueError(f"{name} must lie in (0, {RIM_RADIUS:g}]")


def det_eval(V: Potential, z: complex, policy: QuadPolicy = QuadPolicy()) -> DeterminantSample:
    """One determinant sample at z in the closed unit disc, with its error
    bound.  The value comes from the assembly and the det of
    ``det_eval_many``, so it equals that function's value at z bit for
    bit; the bound (``_det_err``) takes a singular value decomposition of
    I + M and the 2-norm of its entrywise error bounds."""
    zs = np.array([z], dtype=complex)
    z = zs.tolist()[0]
    pos, n_in = _matrix_points(V, zs)
    if not len(pos):
        return DeterminantSample(z=z, value=1.0 + 0.0j, err_estimate=0.0)
    index, G, Gerr = _green_block(V, zs, n_in, policy.engine)
    v = V.values
    M = _stack(v, index, G)
    err = _det_err(M, _stack(np.abs(v), index, Gerr))
    return DeterminantSample(z=z, value=_det(M).tolist()[0], err_estimate=err.tolist()[0])


def taylor_coeffs(
    V: Potential,
    r: float,
    n_max: int = 4,
    m_samples: "int | None" = None,
) -> TaylorCoeffs:
    """Taylor coefficients c_n of -log D at 0, from D's own Taylor
    coefficients on the circle |z| = r.

    Samples D on ``circle_grid(r, 2 * m_samples)`` (m_samples must be at
    least 8*n_max, and None means max(64, 8*n_max); 2 * m_samples must not
    exceed MAX_CIRCLE_POINTS).  D is analytic in the
    disc, so the FFT of the samples gives its Taylor coefficients
    a_0 = D(0) = 1, a_1, ..., a_n_max whatever zeros the circle encloses.
    The power series of log D = sum_n b_n z^n follows from the recurrence

        n b_n = n a_n - sum_{k<n} k b_k a_{n-k},

    and c_n = -b_n.  The error estimate is the difference from the same
    coefficients on every other sample, and at least the rounding of the
    samples amplified by r^-n.
    """
    check_radius(r, "radius")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    m_samples = max(64, 8 * n_max) if m_samples is None else m_samples
    if m_samples < 8 * n_max:
        raise ValueError(f"m_samples={m_samples} < 8*n_max={8 * n_max}")
    if 2 * m_samples > MAX_CIRCLE_POINTS:
        raise ValueError(f"2*m_samples={2 * m_samples} exceeds {MAX_CIRCLE_POINTS} circle points")
    if not V.support:
        zeros = [0.0 + 0.0j] * n_max
        return TaylorCoeffs(r=r, c=zeros, err_estimate=[0.0] * n_max)

    vals = det_eval_many(V, circle_grid(r, 2 * m_samples))

    def coeffs_from(samples: np.ndarray) -> np.ndarray:
        a = (np.fft.fft(samples)[:n_max + 1] / len(samples)).tolist()
        a = [1.0] + [ak * r ** -k for k, ak in enumerate(a[1:], 1)]
        b = [0.0] * (n_max + 1)
        for n in range(1, n_max + 1):
            b[n] = a[n] - sum(k * b[k] * a[n - k] for k in range(1, n)) / n
        return -np.array(b[1:])

    fine = coeffs_from(vals)
    # rounding in each sample of D is amplified by r^{-n}; the subsampling
    # difference cannot see that floor, so add it explicitly
    noise_floor = 8.0 * 2.3e-16 * float(np.abs(vals).max()) * r ** -np.arange(1.0, n_max + 1)
    err = np.maximum(np.abs(fine - coeffs_from(vals[::2])), noise_floor)
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


def moment_relation_check(V: Potential, coeffs: TaylorCoeffs) -> dict:
    """Compare measured c_1..c_4 against both moment relations.

    The Cauchy-integral coefficients are authoritative; this reports the
    relative residual vector of each candidate and names the winner (the
    unique relation whose n = 2..4 residuals all fall below _RELATION_TOL),
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
        ok = all(rv <= _RELATION_TOL for rv in resid[1:4])
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

