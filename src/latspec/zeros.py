"""Zeros of the perturbation determinant in the unit disc.

Eigenvalues of H = H0 + V off the band correspond one-to-one (with
multiplicity) to zeros of D inside the disc, so locating them is a
root-search for an analytic function we can only evaluate pointwise.
The strategy is classical:

  1. count zeros in annular sectors by the argument principle, with the
     phase marched adaptively (``determinant.march_log``), which checks
     only that each step's end values turn by at most pi/2: a step next
     to a pair of zeros can still hide a full turn (ROADMAP item 10).
     The ``_MIN_ABS_FRAC`` guard hides that gap today, by refusing a
     piece where |D| dips below that fraction of its maximum;
  2. quad-subdivide until every nonempty cell isolates one zero cluster:
     each split cuts the longer side of a cell at its middle, once, and
     each cell is counted once and carries its count and the centroid of
     its zeros (the z dlogD integral of the same march) to the polish;
  3. polish from that centroid with a multiplicity-aware Newton step
     (derivative by central differences) and re-verify each root by one
     small winding circle, of radius ten times the last Newton step.

The one recovery perturbs a sector whose contour meets a zero
(``_count_with_retry``).  Any other failure raises a NumericalError:
PathRefinementError for a contour whose phase cannot be marched,
ZeroIsolationError for a non-integer winding, child counts that miss
their parent's, the depth cap, a failed verification circle or spent
retries, and NumericalError itself for zeros inside the root's inner
circle.

Every step of the search is a sampling generator: it yields the points
it needs and is sent their values (``_winding`` over a marching
``determinant.march_log``, ``_count_with_retry``, ``_split_counted``,
``_newton_polish``, and ``_resolve``, which splits a cell or polishes and
re-verifies it).  ``_together`` runs generators in lockstep and merges
the requests of all live ones into one round, and ``determinant.drive``
answers each round with one call to the memo (``_DetCache``), which makes
at most one ``det_eval_many`` call.  So both children of a split, the
cells at every depth, and each cell's midpoint, Newton stencils x, x + h,
x - h and verification circles share batches, while each cell samples
the points it would sample on its own.

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
from .determinant import RIM_RADIUS, NumericalError, PathRefinementError, det_eval_many, drive, march_log
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


class ZeroIsolationError(NumericalError):
    """A cell could not be resolved within the subdivision/verification budget."""


class _DetCache:
    """Memoized D(z) evaluations shared across all contours of one search:
    ``many`` evaluates the points not yet known in one batch."""

    def __init__(self, V: Potential):
        self.V = V
        self._memo: dict = {}

    def many(self, zs: "Sequence[complex]") -> "list[complex]":
        new = [z for z in dict.fromkeys(zs) if z not in self._memo]
        if new:
            self._memo.update(zip(new, det_eval_many(self.V, new).tolist()))
        return [self._memo[z] for z in zs]


def _together(tasks):
    """Run sampling generators in lockstep and return their results in
    task order.

    Each round merges the points that every live task asks for into one
    request, so they share one ``det_eval_many`` call; each task is sent
    back the values of its own points.  The first task to raise (in task
    order within a round) ends the run: its exception propagates and the
    other tasks are closed.
    """
    tasks = list(tasks)
    results = [None] * len(tasks)
    answers = dict.fromkeys(range(len(tasks)))
    try:
        while answers:
            asks = {}
            for k, vals in answers.items():
                try:
                    asks[k] = tasks[k].send(vals)
                except StopIteration as stop:
                    results[k] = stop.value
            if not asks:
                break
            vals = yield [z for zs in asks.values() for z in zs]
            answers, pos = {}, 0
            for k, zs in asks.items():
                answers[k] = vals[pos:pos + len(zs)]
                pos += len(zs)
    finally:
        for task in tasks:
            task.close()
    return results


def _grids(pieces):
    """(z_fun, params) for each of a contour's ``pieces`` (z_fun, s0, s1,
    n_init): n_init + 1 equispaced parameters on [s0, s1]."""
    return [(z_fun, [s0 + (s1 - s0) * k / n_init for k in range(n_init + 1)])
            for z_fun, s0, s1, n_init in pieces]


def _winding(pieces, where: str):
    """(winding, centroid, turns) of D around a closed contour: a sampling
    generator.

    ``pieces`` are (z_fun, s0, s1, n_init): curves z_fun([s0, s1]) that
    join into the contour, marched from the nodes ``_grids`` gives them.
    One march_log marches all the pieces, so their initial nodes are one
    request, and so are the bisection points of every piece at each
    depth.  The centroid is sum (1/2 pi i) oint z dlogD, the sum of the
    enclosed zeros; ``turns`` holds the phase change along each piece.
    Raises PathRefinementError when the phase cannot be marched or |D|
    dips below _MIN_ABS_FRAC of its maximum on a piece.
    """
    marches = yield from march_log([(z_fun, params, None) for z_fun, params in _grids(pieces)])
    turns = []
    centroid = 0.0 + 0.0j
    for march in marches:
        if march.min_abs < _MIN_ABS_FRAC * max(march.max_abs, 1e-30):
            raise PathRefinementError(f"|D| dips below {_MIN_ABS_FRAC:g} of its maximum on {where}")
        turns.append((march.logs[-1] - march.logs[0]).imag)
        centroid += march.z_dlog / (2.0j * math.pi)
    w = sum(turns) / _TWO_PI
    if abs(w - round(w)) > _WINDING_GUARD:
        raise ZeroIsolationError(f"non-integer winding {w:.4f} on {where}")
    return int(round(w)), centroid, turns


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


def _count_with_retry(sec: AnnularSector):
    """(count, centroid, turns, sector) of a sector's winding (see
    ``_winding``), with a deterministic golden-ratio perturbation of the
    sector when a zero sits (numerically) on the contour; ``sector`` is the
    one that was counted.  A sampling generator."""
    for attempt in range(_MAX_RETRIES + 1):
        try:
            return (*(yield from _winding(_sector_pieces(sec), f"sector {sec}")), sec)
        except PathRefinementError:
            bump_t = GOLDEN_FRAC * (sec.t_hi - sec.t_lo) * 1e-3 * (attempt + 1)
            bump_r = GOLDEN_FRAC * (sec.r_hi - sec.r_lo) * 1e-3 * (attempt + 1)
            sec = AnnularSector(
                max(sec.r_lo - bump_r, 1e-6),
                min(sec.r_hi + bump_r, RIM_RADIUS),
                sec.t_lo - bump_t,
                min(sec.t_hi + bump_t, sec.t_lo - bump_t + _TWO_PI),
            )
    raise ZeroIsolationError(f"contour keeps landing on zeros near {sec}")


def count_zeros(V: Potential, region: AnnularSector) -> int:
    """Number of zeros of D in an annular sector, counted with multiplicity."""
    if not V.support:
        return 0
    return drive(_count_with_retry(region), _DetCache(V).many)[0]


def _split(sec: AnnularSector) -> "list[AnnularSector]":
    """The two halves of a sector, cut across its longer side."""
    if (sec.r_hi - sec.r_lo) > sec.r_hi * (sec.t_hi - sec.t_lo):
        rm = sec.r_lo + 0.5 * (sec.r_hi - sec.r_lo)
        return [
            AnnularSector(sec.r_lo, rm, sec.t_lo, sec.t_hi),
            AnnularSector(rm, sec.r_hi, sec.t_lo, sec.t_hi),
        ]
    tm = sec.t_lo + 0.5 * (sec.t_hi - sec.t_lo)
    return [
        AnnularSector(sec.r_lo, sec.r_hi, sec.t_lo, tm),
        AnnularSector(sec.r_lo, sec.r_hi, tm, sec.t_hi),
    ]


def _split_counted(sec: AnnularSector, m: int):
    """Split a sector and count the children together; their counts must
    add up to the parent's.  Returns (count, centroid, child) per child,
    the child as cut.  A sampling generator."""
    children = _split(sec)
    counted = yield from _together(_count_with_retry(ch) for ch in children)
    counts = [c for c, _, _, _ in counted]
    if sum(counts) != m:
        raise ZeroIsolationError(f"child counts {counts} do not add up to parent count {m} in {sec}")
    return [(c, centroid, ch) for (c, centroid, _, _), ch in zip(counted, children)]


def _newton_polish(x0: complex, m: int, scale: float, tol: float, cell: float):
    """Multiplicity-aware Newton (Schroeder) iteration with central-difference
    derivative; each iteration asks for x, x + h and x - h at once.
    A start beyond _NEWTON_RADIUS (the centroid of a cell at the rim can
    lie there) is pulled in radially.  A sampling generator that returns
    (root, |D(root)|, last_step)."""
    x = x0 if abs(x0) <= _NEWTON_RADIUS else x0 * (_NEWTON_RADIUS / abs(x0))
    h = max(1e-6 * cell, 1e-12)
    best = None
    last_step = cell
    for _ in range(60):
        f, f_plus, f_minus = yield [x, x + h, x - h]
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
            (f,) = yield [x]
            if abs(f) < best[1]:
                best = (x, abs(f))
            break
    return best[0], best[1], last_step


def _resolve(sec: AnnularSector, m: int, centroid: complex, depth: int, tol: float):
    """The zeros of a counted cell, as (z, multiplicity, residual, radius):
    a sampling generator.

    A cell that is not yet small is split, and its nonempty children are
    resolved together.  A small one holds one cluster: the polish starts
    from the centroid of its zeros, with D at the cell's midpoint setting
    the residual scale, and one small circle around the polished root,
    of radius ten times the last Newton step, must then wind m times.
    """
    if sec.diameter > (1.2e-1 if m == 1 else 1e-3):
        if depth >= _MAX_DEPTH:
            raise ZeroIsolationError(
                f"subdivision depth cap exceeded; unresolved cell {sec} holding {m} zero(s)"
            )
        counted = yield from _split_counted(sec, m)
        found = yield from _together(_resolve(ch, c, ch_centroid, depth + 1, tol)
                                     for c, ch_centroid, ch in counted if c)
        return [zero for zs in found for zero in zs]

    (mid,) = yield [sec.midpoint()]
    scale = max(abs(mid), 1.0)
    z_hat, resid, last_step = yield from _newton_polish(centroid / m, m, scale, tol, sec.diameter)
    rad = max(10.0 * last_step, 1e-7)
    if rad <= 0.25:
        circle = (lambda t: z_hat + rad * cmath.exp(1j * t), 0.0, _TWO_PI, 16)
        try:
            wv, _, _ = yield from _winding([circle], f"circle center={z_hat}, r={rad:g}")
        except NumericalError:
            wv = None
        if wv == m:
            return [(z_hat, m, resid, rad)]
    raise ZeroIsolationError(f"could not re-verify multiplicity {m} around z={z_hat}")


def find_zeros(
    V: Potential,
    r_outer: float = RIM_RADIUS,
    tol: float = 1e-10,
) -> "list[ZeroRecord]":
    """All zeros of D in {|z| <= r_outer}, polished and verified.

    The search covers {1e-3 <= |z| <= r_outer}.  D(0) = 1, and zeros inside
    |z| = 1e-3 (|lambda| above about 500 d) make the root's inner circle
    wind, which raises NumericalError.  Zeros outside r_outer (eigenvalues
    collapsing onto the band) are out of scope and their absence from the
    output is the caller's responsibility to mind.
    """
    if r_outer > RIM_RADIUS + 1e-12:
        raise ValueError(f"r_outer must be <= {RIM_RADIUS:g}")
    if not V.support:
        return []
    cache = _DetCache(V)
    # angular datum at an irrational-ish angle: real potentials put zeros on
    # the real axis, which must not coincide with any subdivision seam
    root = AnnularSector(1e-3, r_outer, GOLDEN_FRAC, GOLDEN_FRAC + _TWO_PI)
    total, centroid, turns, root = drive(_count_with_retry(root), cache.many)
    inner = -round(turns[1] / _TWO_PI)  # the inner circle is marched clockwise
    if inner:
        raise NumericalError(f"{inner} zero(s) of D lie inside |z| = {root.r_lo:g}, below the searched "
                             f"annulus: eigenvalues with |lambda| >~ {abs(lambda_of_z(root.r_lo, V.d)):.0f}")
    if total == 0:
        return []
    records = [
        ZeroRecord(z=z, multiplicity=m, lam=lambda_of_z(z, V.d), residual=resid, newton_radius=rad)
        for z, m, resid, rad in drive(_resolve(root, total, centroid, 0, tol), cache.many)
    ]
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
