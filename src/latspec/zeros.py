"""Zeros of the perturbation determinant in the unit disc.

Eigenvalues of H = H0 + V off the band correspond one-to-one (with
multiplicity) to zeros of D inside the disc, so locating them is a
root-search for an analytic function we can only evaluate pointwise.
The strategy is classical:

  1. count zeros in annular sectors by the argument principle, with the
     phase marched adaptively (``determinant.march_log``) so no step can
     hide a full turn;
  2. quad-subdivide until every nonempty cell isolates one zero cluster;
     each cell is counted once, and carries its count and the centroid of
     its zeros (the z dlogD integral of the same march) to the polish;
  3. polish from that centroid with a multiplicity-aware Newton step
     (derivative by central differences) and re-verify each root by a
     small winding circle.

D is sampled in batches through one memo (``_DetCache``): the initial
nodes of both children of a split, the bisection midpoints of every piece
of a contour at each depth, the box midpoints and each Newton stencil
x, x + h, x - h are one ``det_eval_many`` call apiece.

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
_MAX_RETRIES = 5  # perturbations of a sector whose contour meets a zero
# Newton iterates stay within this radius, inside the evaluable disc with
# room for the difference stencil
_NEWTON_RADIUS = 1.0 - 1.05e-3


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
    ``many`` evaluates the points not yet known in one batch."""

    def __init__(self, V: Potential):
        self.V = V
        self._memo: dict = {}

    def many(self, zs: "Sequence[complex]") -> "list[complex]":
        new = [z for z in dict.fromkeys(zs) if z not in self._memo]
        if new:
            for z, smp in zip(new, det_eval_many(self.V, new)):
                self._memo[z] = smp.value
        return [self._memo[z] for z in zs]


def _grids(pieces):
    """(z_fun, params) for each of a contour's ``pieces`` (z_fun, s0, s1,
    n_init): n_init + 1 equispaced parameters on [s0, s1]."""
    return [(z_fun, [s0 + (s1 - s0) * k / n_init for k in range(n_init + 1)])
            for z_fun, s0, s1, n_init in pieces]


def _winding(cache: _DetCache, pieces, where: str):
    """(winding, centroid) of D around a closed contour.

    ``pieces`` are (z_fun, s0, s1, n_init): curves z_fun([s0, s1]) that
    join into the contour, marched from the nodes ``_grids`` gives them.
    One march_log call marches all the pieces, so their initial nodes are
    one batch, and so are the bisection points of every piece at each
    depth.  The centroid is sum (1/2 pi i) oint z dlogD, the sum of the
    enclosed zeros.  Raises _BoundaryTooClose when the phase cannot be
    marched or |D| dips below _MIN_ABS_FRAC of its maximum on a piece.
    """
    try:
        marches = march_log(cache.many, [(z_fun, params, None) for z_fun, params in _grids(pieces)])
    except PathRefinementError:
        raise _BoundaryTooClose from None
    total = 0.0
    centroid = 0.0 + 0.0j
    for march in marches:
        if march.min_abs < _MIN_ABS_FRAC * max(march.max_abs, 1e-30):
            raise _BoundaryTooClose
        total += (march.logs[-1] - march.logs[0]).imag
        centroid += march.z_dlog / (2.0j * math.pi)
    w = total / _TWO_PI
    if abs(w - round(w)) > _WINDING_GUARD:
        raise ZeroIsolationError(f"non-integer winding {w:.4f} on {where}")
    return int(round(w)), centroid


def _sector_pieces(sec: AnnularSector):
    """The pieces of an annular sector's contour, for ``_winding``.

    A full circle decomposes into two closed circles (outer CCW minus
    inner CCW); a proper sector is one closed loop of four pieces.
    """
    if sec.full_circle:
        return [
            (lambda t: cmath.rect(sec.r_hi, t), sec.t_lo, sec.t_hi, 24),
            (lambda t: cmath.rect(sec.r_lo, t), sec.t_hi, sec.t_lo, 24),
        ]
    return [
        (lambda t: cmath.rect(sec.r_hi, t), sec.t_lo, sec.t_hi, 12),
        (lambda r: cmath.rect(r, sec.t_hi), sec.r_hi, sec.r_lo, 8),
        (lambda t: cmath.rect(sec.r_lo, t), sec.t_hi, sec.t_lo, 12),
        (lambda r: cmath.rect(r, sec.t_lo), sec.r_lo, sec.r_hi, 8),
    ]


def _count_with_retry(cache: _DetCache, sec: AnnularSector):
    """(count, centroid, sector) of a sector's winding, with a deterministic
    golden-ratio perturbation of the sector when a zero sits (numerically)
    on the contour; ``sector`` is the one that was counted."""
    for attempt in range(_MAX_RETRIES + 1):
        try:
            return (*_winding(cache, _sector_pieces(sec), f"sector {sec}"), sec)
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
    return _count_with_retry(_DetCache(V), region)[0]


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
    fractions until the counts exist and add up to the parent's.  Returns
    (count, centroid, child) per child, the child as cut."""
    for attempt in range(4):
        children = _split(sec, attempt)
        # the initial nodes of both children in one batch; the memo
        # evaluates the points of their shared edge once
        cache.many([z_fun(s) for ch in children for z_fun, params in _grids(_sector_pieces(ch)) for s in params])
        try:
            counted = [(*_count_with_retry(cache, ch)[:2], ch) for ch in children]
        except ZeroIsolationError:
            continue
        if sum(c for c, _, _ in counted) == m:
            return counted
    raise ZeroIsolationError(f"child counts never matched parent count {m} in {sec}")


def _newton_polish(cache: _DetCache, x0: complex, m: int, scale: float, tol: float, cell: float):
    """Multiplicity-aware Newton (Schroeder) iteration with central-difference
    derivative; each iteration samples x, x + h and x - h in one batch.
    A start beyond _NEWTON_RADIUS (the centroid of a cell at the rim can
    lie there) is pulled in radially.  Returns (root, |D(root)|,
    last_step)."""
    x = x0 if abs(x0) <= _NEWTON_RADIUS else x0 * (_NEWTON_RADIUS / abs(x0))
    h = max(1e-6 * cell, 1e-12)
    best = None
    last_step = cell
    for _ in range(60):
        f, f_plus, f_minus = cache.many([x, x + h, x - h])
        af = abs(f)
        if best is None or af < best[1]:
            best = (x, af)
        if af <= tol * scale:
            return x, af, last_step
        df = (f_plus - f_minus) / (2.0 * h)
        if df == 0:
            break
        step = -m * f / df
        # stay strictly inside the evaluable disc
        nxt = x + step
        while abs(nxt) > _NEWTON_RADIUS or abs(nxt) < 5e-4:
            step *= 0.5
            nxt = x + step
            if abs(step) < 1e-17:
                break
        x = nxt
        last_step = abs(step)
        h = max(1e-9 * cell, min(h, max(last_step, 1e-12)))
        if last_step < 1e-16:
            af = abs(cache.many([x])[0])
            if af < best[1]:
                best = (x, af)
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
    total, centroid, root = _count_with_retry(cache, root)
    if total == 0:
        return []

    # subdivision: isolate clusters until each nonempty cell is small; a
    # cell keeps the centroid its count measured
    work = [(root, total, centroid, 0)]
    boxes: "list[tuple[AnnularSector, int, complex]]" = []
    while work:
        sec, m, centroid, depth = work.pop()
        small = sec.diameter <= (1.2e-1 if m == 1 else 1e-3)
        if small:
            boxes.append((sec, m, centroid))
            continue
        if depth >= _MAX_DEPTH:
            raise ZeroIsolationError(
                f"subdivision depth cap exceeded; unresolved cell {sec} holding {m} zero(s)"
            )
        for c, ch_centroid, ch in _split_counted(cache, sec, m):
            if c:
                work.append((ch, c, ch_centroid, depth + 1))

    records: "list[ZeroRecord]" = []
    # D at the box midpoints sets each polish's residual scale
    mids = cache.many([sec.midpoint() for sec, _, _ in boxes])
    for (sec, m, centroid), mid in zip(boxes, mids):
        # the centroid of the cell's zeros seeds the polish
        scale = max(abs(mid), 1.0)
        z_hat, resid, last_step = _newton_polish(cache, centroid / m, m, scale, tol, sec.diameter)

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
