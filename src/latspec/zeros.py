"""Zeros of the perturbation determinant in the unit disc.

Eigenvalues of H = H0 + V off the band correspond one-to-one (with
multiplicity) to zeros of D inside the disc, so locating them is a
root-search for an analytic function we can only evaluate pointwise.
The strategy is classical:

  1. count zeros in annular sectors by the argument principle, with the
     phase marched adaptively (``determinant.march_log``) so no step can
     hide a full turn;
  2. quad-subdivide until every nonempty cell isolates one zero cluster;
  3. polish with a multiplicity-aware Newton step (derivative by central
     differences) and re-verify each root by a small winding circle.

All jitter used to dodge zeros sitting on cell boundaries is a fixed
golden-ratio offset, so runs are reproducible.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

from .lattice import Potential
from .conformal import lambda_of_z
from .resolvent import green_boundary
from .determinant import RIM_RADIUS, PathRefinementError, det_eval_many, march_log
from ._util import GOLDEN_FRAC

__all__ = [
    "AnnularSector",
    "ZeroRecord",
    "count_zeros",
    "find_zeros",
    "coupling_threshold",
]

_TWO_PI = 2.0 * math.pi
_WINDING_GUARD = 0.05
_MIN_ABS_FRAC = 1e-4  # boundary-too-close threshold relative to max |D| on the curve
_MAX_DEPTH = 24


@dataclass(frozen=True)
class AnnularSector:
    """{r_lo <= |z| <= r_hi, t_lo <= arg z <= t_hi}; a full circle when the
    angular span reaches 2*pi."""

    r_lo: float
    r_hi: float
    t_lo: float = 0.0
    t_hi: float = _TWO_PI

    def __post_init__(self) -> None:
        if not 0.0 < self.r_lo < self.r_hi < 1.0:
            raise ValueError(f"need 0 < r_lo < r_hi < 1, got [{self.r_lo}, {self.r_hi}]")
        if not self.t_lo < self.t_hi <= self.t_lo + _TWO_PI + 1e-15:
            raise ValueError("need t_lo < t_hi <= t_lo + 2*pi")

    @property
    def full_circle(self) -> bool:
        return self.t_hi - self.t_lo >= _TWO_PI - 1e-12

    @property
    def diameter(self) -> float:
        return max(self.r_hi - self.r_lo, self.r_hi * (self.t_hi - self.t_lo))

    def midpoint(self) -> complex:
        r = 0.5 * (self.r_lo + self.r_hi)
        t = 0.5 * (self.t_lo + self.t_hi)
        return cmath.rect(r, t)


@dataclass
class ZeroRecord:
    z: complex
    multiplicity: int
    lam: complex
    residual: float
    newton_radius: float


class ZeroIsolationError(RuntimeError):
    """A cell could not be resolved within the subdivision/verification budget."""


class _BoundaryTooClose(Exception):
    """Internal: |D| dipped below threshold on a counting contour."""


class _DetCache:
    """Memoized D(z) evaluations shared across all contours of one search:
    ``many`` evaluates the points not yet known in one batch; a call with
    one point is its one-point case."""

    def __init__(self, V: Potential):
        self.V = V
        self._memo: dict = {}

    def __call__(self, z: complex) -> complex:
        return self.many([z])[0]

    def many(self, zs: "Sequence[complex]") -> "list[complex]":
        new = [z for z in dict.fromkeys(zs) if z not in self._memo]
        if new:
            for z, smp in zip(new, det_eval_many(self.V, new)):
                self._memo[z] = smp.value
        return [self._memo[z] for z in zs]


def _winding(cache: _DetCache, pieces, where: str):
    """(winding, centroid) of D around a closed contour.

    ``pieces`` are (z_fun, s0, s1, n_init): curves z_fun([s0, s1]) that
    join into the contour, each marched by march_log from n_init + 1
    equispaced nodes, which are evaluated together up front.  The centroid is sum (1/2 pi i) oint z dlogD, the sum
    of the enclosed zeros.  Raises _BoundaryTooClose when |D| dips below
    _MIN_ABS_FRAC of its maximum on a piece or the phase cannot be marched.
    """
    total = 0.0
    centroid = 0.0 + 0.0j
    grids = [[s0 + (s1 - s0) * k / n_init for k in range(n_init + 1)] for _, s0, s1, n_init in pieces]
    # the initial nodes of every piece in one batch
    nodes = [[z_fun(s) for s in params] for (z_fun, *_), params in zip(pieces, grids)]
    cache.many([z for zs in nodes for z in zs])
    for (z_fun, *_), params, zs in zip(pieces, grids, nodes):
        try:
            march = march_log(cache, z_fun, params, cache.many(zs))
        except PathRefinementError:
            raise _BoundaryTooClose from None
        if march.min_abs < _MIN_ABS_FRAC * max(march.max_abs, 1e-30):
            raise _BoundaryTooClose
        total += (march.logs[-1] - march.logs[0]).imag
        centroid += march.z_dlog / (2.0j * math.pi)
    w = total / _TWO_PI
    if abs(w - round(w)) > _WINDING_GUARD:
        raise ZeroIsolationError(f"non-integer winding {w:.4f} on {where}")
    return int(round(w)), centroid


def _sector_winding(cache: _DetCache, sec: AnnularSector):
    """(winding, centroid) for an annular sector contour.

    A full circle decomposes into two closed circles (outer CCW minus
    inner CCW); a proper sector is one closed loop of four pieces.
    """
    pieces = []
    if sec.full_circle:
        pieces.append((lambda t: cmath.rect(sec.r_hi, t), sec.t_lo, sec.t_hi, 24))
        pieces.append((lambda t: cmath.rect(sec.r_lo, t), sec.t_hi, sec.t_lo, 24))
    else:
        pieces.append((lambda t: cmath.rect(sec.r_hi, t), sec.t_lo, sec.t_hi, 12))
        pieces.append((lambda r: cmath.rect(r, sec.t_hi), sec.r_hi, sec.r_lo, 8))
        pieces.append((lambda t: cmath.rect(sec.r_lo, t), sec.t_hi, sec.t_lo, 12))
        pieces.append((lambda r: cmath.rect(r, sec.t_lo), sec.r_lo, sec.r_hi, 8))
    return _winding(cache, pieces, f"sector {sec}")


def _count_with_retry(cache: _DetCache, sec: AnnularSector, max_retries: int = 5):
    """Sector winding with deterministic golden-ratio perturbation when a
    zero sits (numerically) on the contour."""
    for attempt in range(max_retries + 1):
        try:
            return _sector_winding(cache, sec), sec
        except _BoundaryTooClose:
            bump_t = GOLDEN_FRAC * (sec.t_hi - sec.t_lo) * 1e-3 * (attempt + 1)
            bump_r = GOLDEN_FRAC * (sec.r_hi - sec.r_lo) * 1e-3 * (attempt + 1)
            sec = AnnularSector(
                max(sec.r_lo - bump_r, 1e-6),
                min(sec.r_hi + bump_r, RIM_RADIUS),
                sec.t_lo - bump_t,
                min(sec.t_hi + bump_t, sec.t_lo - bump_t + _TWO_PI),
            )
    raise ZeroIsolationError(f"contour keeps landing on zeros near {sec}")


def count_zeros(V: Potential, region: "AnnularSector | Sequence[float]") -> int:
    """Number of zeros of D in an annular sector, counted with multiplicity."""
    if not isinstance(region, AnnularSector):
        region = AnnularSector(*region)
    if not V.support:
        return 0
    cache = _DetCache(V)
    (w, _), _ = _count_with_retry(cache, region)
    return w


def _split(sec: AnnularSector, attempt: int = 0) -> "list[AnnularSector]":
    # Cut along the longer side; split fraction drifts by a golden-ratio
    # offset on retries so a zero on the cut cannot pin the subdivision.
    frac = 0.5 + (attempt * (GOLDEN_FRAC - 0.5) * 0.2 if attempt else 0.0)
    radial = (sec.r_hi - sec.r_lo) > sec.r_hi * (sec.t_hi - sec.t_lo)
    if radial:
        rm = sec.r_lo + frac * (sec.r_hi - sec.r_lo)
        return [
            AnnularSector(sec.r_lo, rm, sec.t_lo, sec.t_hi),
            AnnularSector(rm, sec.r_hi, sec.t_lo, sec.t_hi),
        ]
    tm = sec.t_lo + frac * (sec.t_hi - sec.t_lo)
    return [
        AnnularSector(sec.r_lo, sec.r_hi, sec.t_lo, tm),
        AnnularSector(sec.r_lo, sec.r_hi, tm, sec.t_hi),
    ]


def _split_counted(cache: _DetCache, sec: AnnularSector, m: int):
    """Split a sector and count the children, retrying with drifted cut
    fractions until the counts exist and add up to the parent's."""
    for attempt in range(4):
        children = _split(sec, attempt)
        try:
            counted = [(_count_with_retry(cache, ch)[0][0], ch) for ch in children]
        except (_BoundaryTooClose, ZeroIsolationError):
            continue
        if sum(c for c, _ in counted) == m:
            return counted
    raise ZeroIsolationError(f"child counts never matched parent count {m} in {sec}")


def _newton_polish(cache: _DetCache, x0: complex, m: int, scale: float, tol: float, cell: float):
    """Multiplicity-aware Newton (Schroeder) iteration with finite-difference
    derivative.  Returns (root, |D(root)|, last_step)."""
    x = x0
    h = max(1e-6 * cell, 1e-12)
    best = (x, abs(cache(x)))
    last_step = cell
    for _ in range(60):
        f = cache(x)
        af = abs(f)
        if af < best[1]:
            best = (x, af)
        if af <= tol * scale:
            return x, af, last_step
        df = (cache(x + h) - cache(x - h)) / (2.0 * h)
        if df == 0:
            break
        step = -m * f / df
        # stay strictly inside the evaluable disc
        nxt = x + step
        while abs(nxt) > 1.0 - 1.05e-3 or abs(nxt) < 5e-4:
            step *= 0.5
            nxt = x + step
            if abs(step) < 1e-17:
                break
        x = nxt
        last_step = abs(step)
        h = max(1e-9 * cell, min(h, max(last_step, 1e-12)))
        if last_step < 1e-16:
            f = cache(x)
            best = min(best, (x, abs(f)), key=lambda p: p[1])
            break
    return best[0], best[1], last_step


def find_zeros(
    V: Potential,
    r_outer: float = RIM_RADIUS,
    tol: float = 1e-10,
) -> "list[ZeroRecord]":
    """All zeros of D in {1e-3 <= |z| <= r_outer}, polished and verified.

    D(0) = 1 so the origin is safe to exclude; zeros outside r_outer
    (eigenvalues collapsing onto the band) are out of scope and their
    absence from the output is the caller's responsibility to mind.
    """
    if r_outer > RIM_RADIUS + 1e-12:
        raise ValueError(f"r_outer must be <= {RIM_RADIUS:g}")
    if not V.support:
        return []
    cache = _DetCache(V)
    # angular datum at an irrational-ish angle: real potentials put zeros on
    # the real axis, which must not coincide with any subdivision seam
    root = AnnularSector(1e-3, r_outer, GOLDEN_FRAC, GOLDEN_FRAC + _TWO_PI)
    (total, _), root = _count_with_retry(cache, root)
    if total == 0:
        return []

    # subdivision: isolate clusters until each nonempty cell is small
    work = [(root, total, 0)]
    boxes: "list[tuple[AnnularSector, int]]" = []
    while work:
        sec, m, depth = work.pop()
        if m == 0:
            continue
        small = sec.diameter <= (1.2e-1 if m == 1 else 1e-3)
        if small:
            boxes.append((sec, m))
            continue
        if depth >= _MAX_DEPTH:
            raise ZeroIsolationError(
                f"subdivision depth cap exceeded; unresolved cell {sec} holding {m} zero(s)"
            )
        for c, ch in _split_counted(cache, sec, m):
            if c:
                work.append((ch, c, depth + 1))

    records: "list[ZeroRecord]" = []
    for sec, m in boxes:
        # centroid from the cell's own winding integral seeds the polish
        try:
            (w, centroid), sec2 = _count_with_retry(cache, sec)
        except ZeroIsolationError:
            w, centroid = m, sec.midpoint() * m
        if w != m:
            centroid = sec.midpoint() * m
        start = centroid / m if m else sec.midpoint()
        scale = max(abs(cache(sec.midpoint())), 1.0)
        z_hat, resid, last_step = _newton_polish(cache, start, m, scale, tol, sec.diameter)

        # re-verify: a small circle around the polished root must wind m times
        rad = max(10.0 * last_step, 1e-7)
        verified = None
        for _ in range(8):
            if rad > 0.25:
                break
            circle = (lambda t: z_hat + rad * cmath.exp(1j * t), 0.0, _TWO_PI, 16)
            try:
                wv, _ = _winding(cache, [circle], f"circle center={z_hat}, r={rad:g}")
            except (_BoundaryTooClose, ZeroIsolationError):
                rad *= 3.0
                continue
            if wv == m:
                verified = rad
                break
            rad *= 3.0
        if verified is None:
            raise ZeroIsolationError(
                f"could not re-verify multiplicity {m} around z={z_hat}"
            )
        records.append(
            ZeroRecord(
                z=z_hat,
                multiplicity=m,
                lam=lambda_of_z(z_hat, V.d),
                residual=resid,
                newton_radius=verified,
            )
        )
    records.sort(key=lambda rec: (abs(rec.z), cmath.phase(rec.z)))
    return records


def coupling_threshold(d: int, site_value_sign: int = 1) -> float:
    """Critical single-site coupling: |v| above which V = {0 -> sign*v}
    produces a bound state, from 1 + v G(0, band edge) = 0.

    Finite for d >= 3 because the edge Green value is finite there.
    """
    if d < 3:
        raise ValueError("coupling threshold needs d >= 3 (edge Green value finite)")
    if site_value_sign not in (1, -1):
        raise ValueError("site_value_sign must be +1 or -1")
    lam0 = float(site_value_sign * d)
    g = green_boundary((0,) * d, lam0, "plus", d)
    return 1.0 / abs(g.value)
