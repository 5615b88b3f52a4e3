"""Zeros of the perturbation determinant in the unit disc.

Eigenvalues of H = H0 + V off the band correspond one-to-one (with
multiplicity) to zeros of D inside the disc.  D is the determinant of the
Birman-Schwinger matrix T(z) = I + M(z) on the support S, so its zeros are
the eigenvalues of the nonlinear eigenproblem T(z) v = 0, and
``find_zeros`` takes all of them inside one circle |z| = rho from contour
moments (Beyn, "An integral method for solving nonlinear eigenvalue
problems", Linear Algebra Appl. 436, 2012):

  1. T is sampled on ``circle_grid(rho, N)``, in the bounded stacks of
     ``determinant._stacks``, and the trapezoid sums of the moments
     A_p = (1/2 pi i) oint z^p T(z)^-1 dz, p = 0..3, and of the mean of
     log|D| are accumulated from the same samples.  N starts at _N_START
     and doubles, reusing the old nodes; the nested estimate of each sum
     is its difference from the sum over every other node.
  2. The moments are used once their nested estimate is below
     _MOMENT_TOL.  A zero next to the circle, inside or outside it, keeps
     the estimate large until N resolves it.  The number of zeros is the
     rank of A_0, read from its singular values above the nested
     estimate; once it reaches |S|, the block Hankel matrix
     [[A_0, A_1], [A_1, A_2]] sees up to 2|S| zeros.  The zeros are the
     eigenvalues of Beyn's reduced pencil.
  3. Each zero is polished as a simple root by Newton's method with a
     central-difference derivative, all zeros in one ``det_eval_many`` call
     per round.  Roots that coincide within their Newton steps merge into
     one multiple zero.
  4. The certificate is Jensen's formula on the sampled circle: the mean of
     log|D| must equal sum_j m_j log(rho / |z_j|) within its nested
     estimate.  A zero the rank missed, deeper inside than that estimate,
     breaks it.

A set that is not certified doubles N; past MAX_CIRCLE_POINTS the search raises
ZeroIsolationError.  No phase is marched and no contour is subdivided, so
no turn can be lost.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .lattice import Potential
from .conformal import lambda_of_z
from .resolvent import green_boundary
from .determinant import (
    MAX_CIRCLE_POINTS, RIM_RADIUS, NumericalError, _det, _stacks, check_radius, circle_grid, det_eval_many,
)

__all__ = [
    "ZeroRecord",
    "ZeroIsolationError",
    "find_zeros",
    "coupling_threshold",
]

# circle nodes: the first count (the largest is MAX_CIRCLE_POINTS)
_N_START = 512
# moments A_0..A_3: two block Hankel rows
_N_MOMENTS = 4
# the moments' nested estimate must fall below this, on the scale of
# T(0)^-1 = I, before their zeros are taken
_MOMENT_TOL = 1e-3
# Jensen's formula must hold on the circle to its nested estimate or this
_JENSEN_FLOOR = 1e-12
# singular values of the moments below this fraction of the largest
# summand |z T(z)^-1| are rounding
_RANK_FLOOR = 1e-11
# zeros inside this circle (|lambda| above about 500 d) are refused
_INNER_RADIUS = 1e-3
# Newton iterates stay within this radius, inside the evaluable disc with
# room for the difference stencil
_NEWTON_RADIUS = 1.0 - 1.05e-3
_NEWTON_ITERS = 60


@dataclass
class ZeroRecord:
    z: complex
    multiplicity: int
    lam: complex
    residual: float
    newton_radius: float


class ZeroIsolationError(NumericalError):
    """The contour moments gave no certified zero set by the node cap: a
    zero lies on or next to their circle."""


@dataclass
class _Sums:
    """Trapezoid sums over circle nodes: of z^(p+1) T(z)^-1 for
    p < _N_MOMENTS (moments, shape (_N_MOMENTS, s, s)) and of log|D(z)|,
    with the largest entry of any z T(z)^-1 (``big``)."""

    moments: np.ndarray
    log_abs: float
    big: float

    def __add__(self, other: "_Sums") -> "_Sums":
        return _Sums(self.moments + other.moments, self.log_abs + other.log_abs, max(self.big, other.big))


def _circle_sums(V: Potential, zs: np.ndarray) -> _Sums:
    """The sums of ``_Sums`` over the points ``zs`` (all inside the disc,
    none zero).  Each stack of matrices that ``_stacks`` yields is
    inverted, and its determinants taken as ``det_eval_many`` takes
    them."""
    s = len(V.support)
    powers = np.arange(1, _N_MOMENTS + 1)
    out = _Sums(np.zeros((_N_MOMENTS, s, s), dtype=complex), 0.0, 0.0)
    for pos, M in _stacks(V, zs):
        inv = np.linalg.inv(np.eye(s) + M)
        zk = zs[pos]
        out += _Sums(np.einsum("np,nij->pij", zk[:, None] ** powers, inv),
                     float(np.log(np.abs(_det(M))).sum()),
                     float(np.abs(inv).max() * abs(zk[0])))
    return out


def _hankel(A: np.ndarray, rows: int, shift: int) -> np.ndarray:
    """The block Hankel matrix [A_(i + j + shift)], i, j < rows."""
    return np.block([[A[i + j + shift] for j in range(rows)] for i in range(rows)])


def _pencil_zeros(A: np.ndarray, A_half: np.ndarray, floor: float) -> "tuple[np.ndarray, float]":
    """The eigenvalues of Beyn's reduced pencil from the moments A on N
    nodes and A_half on N/2, with the nested estimate of the Hankel matrix
    they come from.  The rank is the number of its singular values above
    that estimate (and above ``floor``); a second block row is used once
    one row's rank reaches its size."""
    s = A.shape[1]
    for rows in (1, 2):
        H0 = _hankel(A, rows, 0)
        U, sigma, Wh = np.linalg.svd(H0)
        err = float(np.linalg.norm(H0 - _hankel(A_half, rows, 0)))
        rank = int((sigma > max(err, floor)).sum())
        if rank < rows * s:
            break
    reduced = U[:, :rank].conj().T @ _hankel(A, rows, 1) @ Wh[:rank].conj().T / sigma[:rank]
    return np.linalg.eigvals(reduced), err


def _newton_polish(V: Potential, starts, tol: float) -> "list[tuple]":
    """(root, |D(root)|, |last Newton step|) from each start.

    Newton's method for a simple root, with the derivative from central
    differences x +- h.  Each round asks ``det_eval_many`` once for the
    stencils of all unfinished roots.  A root is done at the first iterate
    with |D| <= tol whose predecessor had |D| <= tol too, so that one step
    was taken from inside the tolerance and the root is accurate to about
    the square of that step; the last step is the one Newton would take
    next.  A root that never gets there returns its best point.  A start
    beyond _NEWTON_RADIUS is pulled in radially, and no step leaves the
    annulus 5e-4 <= |z| <= _NEWTON_RADIUS."""
    xs = [x if abs(x) <= _NEWTON_RADIUS else x * (_NEWTON_RADIUS / abs(x)) for x in starts]
    hs = [1e-7] * len(xs)
    steps = [math.inf] * len(xs)
    best = [None] * len(xs)
    settled = [False] * len(xs)
    live = list(range(len(xs)))
    for _ in range(_NEWTON_ITERS):
        if not live:
            break
        vals = det_eval_many(V, [p for k in live for p in (xs[k], xs[k] + hs[k], xs[k] - hs[k])]).tolist()
        going = []
        for j, k in enumerate(live):
            f, f_plus, f_minus = vals[3 * j:3 * j + 3]
            df = (f_plus - f_minus) / (2.0 * hs[k])
            step = -f / df if df else 0.0
            steps[k] = abs(step)
            done = settled[k] and abs(f) <= tol
            if done or best[k] is None or abs(f) < best[k][1]:
                best[k] = (xs[k], abs(f))
            if done or not step:
                continue
            settled[k] = abs(f) <= tol
            nxt = xs[k] + step
            while (abs(nxt) > _NEWTON_RADIUS or abs(nxt) < 5e-4) and abs(step) > 1e-17:
                step *= 0.5
                nxt = xs[k] + step
            xs[k] = nxt
            hs[k] = max(1e-10, min(hs[k], max(abs(step), 1e-12)))
            going.append(k)
        live = going
    return [(x, resid, step) for (x, resid), step in zip(best, steps)]


def _merged(roots: "list[tuple]") -> "list[tuple]":
    """(z, multiplicity, residual, newton_radius) per distinct root: roots
    closer than the sum of their radii (ten times the last Newton step)
    are one root, kept at the member with the smallest residual."""
    out = []
    for z, resid, step in sorted(roots, key=lambda root: root[1]):
        rad = 10.0 * step
        for k, (z0, m, resid0, rad0) in enumerate(out):
            if abs(z - z0) <= rad + rad0:
                out[k] = (z0, m + 1, resid0, max(rad0, rad))
                break
        else:
            out.append((z, 1, resid, rad))
    return out


def _certified(V: Potential, rho: float, n: int, full: _Sums, half: _Sums, tol: float):
    """The zero records of the sums over n nodes (``full``) and their even
    nodes (``half``), or None while the moments' nested estimate is above
    _MOMENT_TOL or Jensen's formula does not certify the polished zeros."""
    starts, moment_err = _pencil_zeros(full.moments / n, half.moments / (n // 2), _RANK_FLOOR * full.big)
    if moment_err > _MOMENT_TOL:
        return None
    inner = int((np.abs(starts) < _INNER_RADIUS).sum())
    if inner:
        raise NumericalError(f"{inner} zero(s) of D lie inside |z| = {_INNER_RADIUS:g}, below the searched "
                             f"annulus: eigenvalues with |lambda| >~ {abs(lambda_of_z(_INNER_RADIUS, V.d)):.0f}")
    zeros = [root for root in _merged(_newton_polish(V, starts.tolist(), tol)) if abs(root[0]) < rho]
    jensen = full.log_abs / n
    jensen_err = abs(jensen - half.log_abs / (n // 2))
    enclosed = math.fsum(m * math.log(rho / abs(z)) for z, m, _, _ in zeros)
    if abs(jensen - enclosed) > max(jensen_err, _JENSEN_FLOOR):
        return None
    records = [ZeroRecord(z=z, multiplicity=m, lam=lambda_of_z(z, V.d), residual=resid, newton_radius=rad)
               for z, m, resid, rad in zeros]
    records.sort(key=lambda rec: (abs(rec.z), cmath.phase(rec.z)))
    return records


def find_zeros(
    V: Potential,
    r_outer: float = RIM_RADIUS,
    tol: float = 1e-10,
) -> "list[ZeroRecord]":
    """All zeros of D in {|z| < r_outer}, polished and certified.

    The moments are taken on the circle |z| = r_outer (see the module
    docstring).  D(0) = 1, and a zero inside |z| = 1e-3 (|lambda| above
    about 500 d) raises NumericalError.  Zeros outside r_outer (eigenvalues
    collapsing onto the band) are out of scope and their absence from the
    output is the caller's responsibility to mind.  A zero within about
    1e-4 of the circle, inside or outside it, keeps the moments from
    converging by MAX_CIRCLE_POINTS nodes and raises ZeroIsolationError.
    """
    check_radius(r_outer, "r_outer")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if not V.support:
        return []
    nodes = circle_grid(r_outer, _N_START)
    half = _circle_sums(V, nodes[::2])
    full = half + _circle_sums(V, nodes[1::2])
    n = _N_START
    while True:
        records = _certified(V, r_outer, n, full, half, tol)
        if records is not None:
            return records
        if n >= MAX_CIRCLE_POINTS:
            raise ZeroIsolationError(
                f"the contour moments on |z| = {r_outer:g} are not certified at {n} nodes, the most "
                f"sampled: a zero of D lies on or next to the circle")
        half, full = full, full + _circle_sums(V, circle_grid(r_outer, 2 * n)[1::2])
        n *= 2


def coupling_threshold(d: int) -> float:
    """Critical single-site coupling: v above which V = {0 -> v} produces a
    bound state, from 1 + v G(0, band edge) = 0.

    Finite for d >= 3 because the edge Green value is finite there;
    ``green_boundary`` refuses any other d.
    """
    g = green_boundary((0,) * d, float(d), "plus", d)
    return 1.0 / abs(g.value)
