"""Free resolvent kernel G(n, lam) = (H0 - lam)^(-1)(n, 0) on Z^d.

Four interior evaluators, independent of each other:

* the exact series: G(n, lam(z)) = sum_k g_k z^k in the disc variable z of
  ``conformal``, each g_k an integer sum over lattice walk counts divided
  once with correct rounding (``_series_coeffs``), summed by Estrin's scheme
  up to a K set by the coefficients' tail at the largest |z| served.
* ``green_torus``: the momentum-space form, a d-fold periodic integral of
  cos(n.k) / (h(k) - lam) with h(k) = sum_j cos k_j: one axis integrated
  exactly by the 1-D kernel, the other d - 1 by tensor-product trapezoidal
  quadrature folded onto the half-period (the integrand is even in every
  k_j).  Geometrically convergent with rate set by the distance of lam to
  the band [-d, d].
* ``green_time``: the damped time representation, -i times the Fourier-
  Laplace transform of the free propagator, truncated at a horizon T where
  the factor e^(t Im lam) is negligible.  Needs Im(lam) bounded away from 0.
* an oscillatory time engine: the same integral split at a moderate T0,
  with the remainder summed analytically mode by mode from the
  large-argument Bessel expansion.  It stays accurate arbitrarily close
  to, and on, the band, for 3 <= d <= _OSC_D_MAX (10); beyond, its fixed
  Gauss panels stop resolving the integrand, and it refuses.

``green_auto`` picks, at every d, the series where |z(lam)| <= r(d) (0.8
at d >= 3, 0.71 and 0.84 at d = 1, 2) and the oscillatory engine inside
that circle's image, an ellipse around the band, refused where that
engine does not run (see ``green_auto``).  The torus is a forced engine only (``green_torus``,
``green_orbits(engine="torus")``).
``green_boundary`` gives the boundary values G(n, lambda0 -/+ i0) on the
band through the oscillatory engine alone; its independent checks
are Watson's closed form at the band edge and the small-epsilon limit of
the interior engines.

Every engine's core takes a list of orbits (rows) and an array of lambdas
(columns) and returns the whole block of values and error estimates;
(orbits, lambdas) is the one shape of a Green block up to determinant
assembly.  ``green_orbits`` (interior, with the engine routing of
``green_auto`` or one forced engine) and ``green_boundary_orbits`` serve
such blocks; ``green_auto``, ``green_torus``, ``green_time`` and
``green_boundary`` are the one-value cases, on the orbit of their site.

* The production engines (series and oscillatory) are array-at-a-time.
  Their per-orbit constants are built once per orbit set, in a bounded
  cache (its plan), so a call does only per-lambda work.
  ``_series_plan`` stacks the orbits' coefficients, each orbit's built
  once (``_series_coeffs``) from shared tables of Pascal's rows, one
  axis's walk-count weights and the weights of the substitution 1/lam =
  (2/d) z / (1 + z^2); nothing is built at import.  ``_osc_plan`` holds
  the set's horizon T0 and each orbit's Gauss kernel (from the set's one
  Bessel grid, ``_osc_grid``), its mode-tail polynomial per frequency
  (``_osc_tail_coeffs``) and its prefactor.
* The horizon rule: an orbit set has one horizon T0, set by its largest
  leading order n0 = max_j |n_j| over its orbits: T0 = _OSC_T0 (240)
  when n0 <= _OSC_NEAR (6), else T0 = 240 + 10 n0.  Up to n0 = 6 the
  engine's own estimate at T0 = 240 exceeds the one at 240 + 10 n0 by
  less than a tenth of a rounding unit eps (1 + |G|) of the value, at
  band points and near them; at n0 = 7 the excess nears a whole unit.
  Every orbit of the set is integrated to T0 on one Bessel grid, with
  the orders up to n0.  Its rows do not depend on that order (Miller's
  start is set by the largest node), so an orbit of a set whose orbits
  all lie within n0 <= 6 is the same alone and in the set, bit for bit;
  in a set with a farther orbit it is integrated to the longer horizon,
  which agrees with its own to rounding.
* The series runs Estrin's scheme in w = z^2 over every orbit at once, in
  real arithmetic, on a chunk of lambdas whose arrays stay within
  _CHUNK_BYTES (512 KB).
* The oscillatory engine takes its mode tails from one tail_integral_vec
  call per block at T0, one row per (frequency, lambda), shared by every
  orbit, which contracts each row with its polynomial of that frequency.
  It then walks the lambda axis in chunks whose phase block stays within
  _CHUNK_BYTES; in a chunk the phases are built once and shared by every
  orbit.
* The two reference engines, torus and damped time, work one lambda at a
  time.  The torus refuses a grid of more than _TORUS_MAX_POINTS folded
  points before its first lambda.
* Batching changes no number: a block entry is computed exactly as it is
  alone.  Array operations act elementwise along the lambda axis, and the
  contractions are ``np.einsum`` calls whose summation order is set by the
  grid, never by the number of lambdas (a BLAS product across lambdas
  could block differently for different batch sizes).

Three exact symmetries of the free kernel hold for every lambda, and
each is applied in one place.

* Lattice symmetry.  G depends on n only through its orbit under sign
  flips and coordinate permutations: ``_orbit`` maps every site to the
  orbit's representative and checks that it has d coordinates.
* Conjugation, G(n, conj lam) = conj G(n, lam).
* Bipartite staggering, G(n, -lam) = -(-1)^|n| G(n, lam) with |n| = sum_j
  |n_j|: shifting every k_j by pi turns h(k) into -h(k) and cos(n.k) into
  (-1)^|n| cos(n.k).

``_memo_block`` applies the last two for the series, oscillatory and
boundary paths: it asks the engine only for the image of each lambda in
the quadrant Re lam >= 0, Im lam <= 0, and unfolds the value by
conjugation and the factor -(-1)^|n|.  The oscillatory engine needs that
quadrant's half plane anyway: its integrand pairs e^(-i lam t) with the
forward evolution kernel, whose quarter-turn phase is i^(+|n|) per the
Fourier expansion of e^(i t cos k), and damping requires Im(lam) <= 0.
On the band a point lambda0 -/+ i0 has the image |lambda0| (the minus
side), conjugated where the side is plus XOR lambda0 < 0.  Unfolding is
exact, so a lambda and its mirror images share one memo entry bit for
bit; a fold agrees with a direct evaluation to rounding.

The damped time engine is the oracle that the c02 gate checks the torus
against, and the tests the series and the oscillatory engine; the torus
is a second reference, which shares no code with the production engines
but ``_orbit``.  Both stay outside the fold and the memo:
``green_orbits(engine="time")`` and ``green_orbits(engine="torus")`` call
``_time_block`` and ``_torus_block`` directly.  The time engine
conjugates for Im lam > 0 (its damping needs Im lam <= 0) and applies no
other symmetry; the torus evaluates every lambda as it is.

The series and the oscillatory engine keep one memo each.  An orbit set
(a tuple, the key of the plans too) holds its values in slots
(``_Slots``): a complex array of values and a real array of error
estimates, one row per orbit and one column per quadrant image of lam
held.  An entry, keyed by the set's slots and the image, names the
image's column; the memo holds at most _MEMO_SIZE values in all,
evicting the least recently used entry.  A block folds its lambdas to
their images and takes the distinct ones with array operations, looks
each distinct image up once, computes the missing ones in at most one
core call, stores them in the set's slots, and serves the block by one
gather of columns, unfolded with array operations.  Repeated evaluations
during determinant assembly are therefore free and bit-identical.
``green_cache_info`` reports each memo's hits, misses and size, the
number of orbits whose series coefficients were built and the number of
the oscillatory engine's Bessel grids built;
``clear_green_cache`` empties them, the plans, the series tables and
``support_orbits``, the orbit map of a support's differences that
determinant assembly builds once per support.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bessel import bessel_j_grid, hankel_amplitude_coeffs
from .conformal import dist_to_band, require_off_band, z_of_lambda
from .lattice import require_dimension_3, validate_dimension
from .quadrature import gl_panels, tail_integral_vec

Site = tuple[int, ...]

# Quarter-turn phases i^(+k) for k mod 4.
_IPOW = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)

# quadrature size law of auto_n_quad
_NQ_RATE = 40.0
_NQ_MIN = 32
_NQ_MAX = 512
# the series serves |z(lambda)| <= r(d) = _series_radius(d): _SERIES_RADIUS
# at d >= 3 (at d = 3 every lambda at distance >= 0.675 from the band),
# |z(i _DIST_MIN_LOW_D)| at d = 1, 2
_SERIES_RADIUS = 0.8
_DIST_MIN_LOW_D = 0.35
# an orbit's series stops at the first K where the largest |g_k| of the
# last _SERIES_WINDOW coefficients times r^(K+1) / (1 - r), r the largest
# |z| served, is below _SERIES_TOL (K = 156-162 for the orbits up to
# (2, 2, 0) at d = 3), or at _SERIES_K_MAX
_SERIES_TOL = 2.0 ** -60
_SERIES_WINDOW = 16
_SERIES_K_MAX = 400
# green_torus refuses lambda closer to the band than this, where its
# doubled-grid estimate falls below the true error (at d = 3, 2.9 times
# it at distance 1e-3, 0.13 times it at 5e-3), and a grid of more than
# _TORUS_MAX_POINTS folded points (n_quad + 1)^(d - 1), about 5 s at
# 140 ns a point on a 2-core box: every d = 3 grid, d = 4 up to n_quad
# 320, d = 5 up to 74
_TORUS_DELTA_MIN = 5e-3
_TORUS_MAX_POINTS = 2 ** 25
# green_time truncates its horizon where the neglected tail drops below this
_TIME_TOL = 1e-10
# the oscillatory engine integrates numerically up to the horizon T0 and
# keeps _OSC_N_TERMS terms of each mode's large-t expansion beyond it: T0 =
# _OSC_T0 for an orbit set whose largest n0 = max_j |n_j| is <= _OSC_NEAR,
# else _OSC_T0 + _OSC_T0_PER_ORDER * n0 (the horizon rule of the module
# docstring)
_OSC_T0 = 240.0
_OSC_NEAR = 6
_OSC_T0_PER_ORDER = 10.0
_OSC_N_TERMS = 11
# the engine serves d <= _OSC_D_MAX: beyond it the fixed panels below stop
# resolving the integrand (against a fine reference its error reaches 0.44
# of its estimate at d = 10, 1.6 times it at 11 and 84 times at 14)
_OSC_D_MAX = 10
# its Gauss panels on [0, T0]: T0 / _OSC_PANEL panels (T0 is a whole number
# of them) of _OSC_NPTS nodes at _OSC_OFFSETS from the panel's midpoint;
# _osc_phases builds the per-panel phases from _OSC_FINE consecutive panels
# and every _OSC_FINE-th one
_OSC_PANEL = 0.5
_OSC_NPTS = 10
_OSC_OFFSETS = 0.5 * _OSC_PANEL * np.polynomial.legendre.leggauss(_OSC_NPTS)[0]
_OSC_FINE = 16
# values (orbits times images) kept per engine memo.  Cold eigs runs on the
# four draws of perfbench's panel (seed 1) fill 6219, 1028, 1555 and 5305
# oscillatory values; the largest, draw 0, samples its circle on up to
# 8192 nodes (draw 3 on 4096), so no benchmark run evicts
_MEMO_SIZE = 8192
# largest array of one chunk of lambdas: oscillatory phases, or series
# partial sums
_CHUNK_BYTES = 2 ** 19


@dataclass(frozen=True)
class GreenValue:
    """One kernel value and its error estimate.

    Memoized per symmetry orbit of the site and quadrant image of lambda,
    so one value answers every site of the orbit and the mirror images of
    lambda; it therefore records neither the site nor lambda.
    """

    value: complex
    err_estimate: float


class _Slots:
    """One orbit set's values in a memo: column k of ``vals`` and ``errs``
    holds, per orbit (rows), the value and error estimate of the image
    whose memo key maps to k.  ``used`` columns have been handed out, and
    ``free`` lists those that evicted entries left, which are reused
    first; ``even`` marks the orbits with |n| even."""

    def __init__(self, canons: "tuple[Site, ...]") -> None:
        self.canons = canons
        self.vals = np.empty((len(canons), 0), dtype=complex)
        self.errs = np.empty((len(canons), 0))
        self.used = 0
        self.free: list = []
        self.even = np.array([sum(canon) % 2 == 0 for canon in canons], dtype=bool)

    def take(self, count: int) -> np.ndarray:
        """count columns for new entries: the free ones, then fresh ones,
        the arrays at least doubled when they run out."""
        split = len(self.free) - min(count, len(self.free))
        reused = self.free[split:]
        del self.free[split:]
        fresh = range(self.used, self.used + count - len(reused))
        self.used = fresh.stop
        if self.used > self.vals.shape[1]:
            grow = max(self.used, 2 * self.vals.shape[1]) - self.vals.shape[1]
            self.vals = np.concatenate([self.vals, np.empty((len(self.canons), grow), dtype=complex)], axis=1)
            self.errs = np.concatenate([self.errs, np.empty((len(self.canons), grow))], axis=1)
        return np.array([*reused, *fresh], dtype=int)


class _Memo:
    """Bounded map from (orbit set, image) to the image's values and error
    estimates.  ``sets`` maps each orbit set held to its _Slots; ``data``
    maps a key (slots, image) to the image's column there, in least
    recently used order.  ``size`` counts the values held, and while it
    exceeds _MEMO_SIZE the least recently used entry goes; an orbit set
    left without entries goes with its arrays."""

    def __init__(self) -> None:
        self.data: OrderedDict = OrderedDict()
        self.sets: dict = {}
        self.size = self.hits = self.misses = 0

    def clear(self) -> None:
        self.data.clear()
        self.sets.clear()
        self.size = self.hits = self.misses = 0


_MEMOS = {"series": _Memo(), "osc": _Memo()}


def clear_green_cache() -> None:
    for memo in _MEMOS.values():
        memo.clear()
    for cache in (support_orbits, _osc_grid, _osc_plan, _series_plan, _series_coeffs, _pascal_row, _axis_row,
                  _subst_row):
        cache.cache_clear()


def green_cache_info() -> dict:
    """Per memoised engine ("series", "osc"): memo hits, misses and size
    since the last ``clear_green_cache``.  A request counts once per
    (orbit, lambda) pair, a hit when the value was already known; ``size``
    counts the values held.  The series entry also counts the orbits whose
    coefficients were built ("orbits"), the oscillatory entry the Bessel
    grids built ("grids", one per largest leading order n0 of the orbit
    sets served; as with a miss, a grid refused for its size counts
    too)."""
    info = {name: {"hits": m.hits, "misses": m.misses, "size": m.size}
            for name, m in _MEMOS.items()}
    info["series"]["orbits"] = _series_coeffs.cache_info().misses
    info["osc"]["grids"] = _osc_grid.cache_info().misses
    return info


def _memo_block(engine: str, core, canons: "tuple[Site, ...]", lams: np.ndarray,
                up: "Sequence[bool] | None" = None):
    """core's block (values, errors) of shape (len(canons), len(lams)),
    served from the engine's memo where it can be, in one pass.

    The memo holds values on the quadrant Re lam >= 0, Im lam <= 0 only,
    one column per key (canons, lam).  Each lambda is looked up as its
    image q = |Re lam| - i |Im lam| there and unfolded by the exact
    symmetries of the module docstring: conjugated where up[k] differs
    from (Re lam < 0), and times -(-1)^|n| where Re lam < 0.  ``up``
    defaults to Im lam > 0; ``green_boundary_orbits`` passes its side, its
    lambdas being real.

    The images are folded with array operations (a zero imaginary part
    stays +0.0, so no image has a signed zero) and their distinct values,
    in order of first appearance, taken with one np.unique.  Every
    distinct image is looked up once, keyed by the orbit set's _Slots and
    the image.  core(canons, qs) is then called once, on the whole orbit
    set and the missing images, or not at all when none is missing; its
    columns are stored in the set's slots.  Each (orbit, lambda) pair
    counts once: a miss where its image was missing, else a hit (so a
    repeat of an image after its miss is a hit).  A lambda is a hit only
    when its image is bitwise a known key; there is no tolerance.  The
    block is then one gather of each lambda's column from the slots,
    unfolded by an exact conjugation and negation under masks; only then
    are the least recently used entries evicted.
    """
    memo = _MEMOS[engine]
    data = memo.data
    slots = memo.sets.get(canons)
    if slots is None:
        slots = memo.sets[canons] = _Slots(canons)
    image = np.empty_like(lams)
    image.real = np.abs(lams.real)
    image.imag = 0.0 - np.abs(lams.imag)
    qs, first, inverse = np.unique(image, return_index=True, return_inverse=True)
    # the distinct images in order of first appearance
    is_first = np.zeros(lams.size, dtype=bool)
    is_first[first] = True
    order = inverse[is_first]
    keys = [(slots, q) for q in qs[order].tolist()]
    col = list(map(data.get, keys))
    missing = [k for k, c in enumerate(col) if c is None]
    memo.misses += len(canons) * len(missing)
    memo.hits += len(canons) * (lams.size - len(missing))
    for key, c in zip(keys, col):
        if c is not None:
            data.move_to_end(key)
    if missing:
        fresh = slots.take(len(missing))
        slots.vals[:, fresh], slots.errs[:, fresh] = core(canons, qs[order[missing]])
        for k, c in zip(missing, fresh.tolist()):
            col[k] = data[keys[k]] = c
        memo.size += len(canons) * len(missing)
    at = np.empty(qs.size, dtype=int)
    at[order] = col
    at = at[inverse]
    vals, errs = slots.vals[:, at], slots.errs[:, at]
    while memo.size > _MEMO_SIZE:
        (owner, _), c = data.popitem(last=False)
        owner.free.append(c)
        memo.size -= len(owner.canons)
        if len(owner.free) == owner.used:
            del memo.sets[owner.canons]
    up = lams.imag > 0 if up is None else np.asarray(up, dtype=bool)
    negative = lams.real < 0
    np.conjugate(vals, out=vals, where=up != negative)
    # the value changes sign under lam -> -lam where |n| is even
    np.negative(vals, out=vals, where=slots.even[:, None] & negative)
    return vals, errs


def _canon(n: Sequence[int]) -> Site:
    """Representative of the signed-permutation orbit of n (kernel symmetry)."""
    return tuple(sorted((abs(int(c)) for c in n), reverse=True))


def _orbit(n: Sequence[int], d: int) -> Site:
    """_canon(n) for a site of exactly d coordinates, d checked first."""
    d = validate_dimension(d)
    canon = _canon(n)
    if len(canon) != d:
        raise ValueError(f"site {tuple(n)} has {len(canon)} coordinates, expected {d}")
    return canon


@functools.lru_cache(maxsize=16)
def support_orbits(support: "tuple[Site, ...]", d: int) -> "tuple[tuple[Site, ...], np.ndarray]":
    """The orbit set of the differences x - y of the sites of ``support``
    (a tuple of distinct orbits, the key of every per-set cache) and, per
    difference, its orbit's row, x major (the entries of a Birman-Schwinger
    matrix in row order): built once per support."""
    rows: dict = {}
    index = [rows.setdefault(_orbit([a - b for a, b in zip(x, y)], d), len(rows))
             for x in support for y in support]
    return tuple(rows), np.array(index, dtype=int)


# ---------------------------------------------------------------- torus path

def _torus_block(canons: "list[Site]", lams: np.ndarray, n_quad):
    """Torus values on the doubled grid (2 n_quad points per quadrature
    axis) with the difference from n_quad points as error estimate, per
    orbit (rows) and lambda (columns); ``n_quad`` is one grid size or one
    per lambda.  One lambda at a time, with no memo and no symmetry fold:
    this engine is a reference for the others (see ``_torus_column``).  A
    grid of more than _TORUS_MAX_POINTS folded points is refused before the
    first lambda."""
    d = len(canons[0])
    largest = int(np.max(n_quad))
    if (largest + 1) ** (d - 1) > _TORUS_MAX_POINTS:
        raise ValueError(f"the torus grid n_quad={largest} at d={d} has (n_quad + 1)^(d - 1) = "
                         f"{(largest + 1) ** (d - 1)} folded points, more than {_TORUS_MAX_POINTS}")
    vals = np.empty((len(canons), lams.size), dtype=complex)
    errs = np.empty(vals.shape)
    for k, (lam, nq) in enumerate(zip(lams.tolist(), np.broadcast_to(n_quad, lams.shape).tolist())):
        vals[:, k], errs[:, k] = _torus_column(canons, lam, nq)
    return vals, errs


def _torus_column(canons: "list[Site]", lam: complex, n_quad: int):
    """(2 pi)^(-d) int cos(n1 k1)...cos(nd kd) / (sum cos kj - lam) dk over
    the d-torus, per orbit, with error estimates.

    The axis of n1 = max_j |n_j| is integrated exactly: with mu = lam -
    sum_(j>=2) cos k_j, it gives the 1-D kernel G1(n1, mu) = 2 zeta^(n1+1)
    / (zeta^2 - 1), zeta = mu - sqrt(mu - 1) sqrt(mu + 1), computed as
    1 / (mu + sqrt(mu - 1) sqrt(mu + 1)) to avoid cancellation.  The other
    d - 1 axes take the trapezoid rule on N = 2 n_quad points, folded onto
    the N/2 + 1 points of the half-period by evenness in each k_j.  The
    first two of them form a slab, built at once; the axes beyond are
    walked one slab at a time.  The coarse grid is the fine grid's even
    points, so it reads the same values.  The error estimate is the
    difference of the two grids plus 4 eps times sum |w G1| for rounding,
    which is all of it at d = 1, where no axis is quadrature.
    """
    d = len(canons[0])
    m1 = n_quad + 1
    k = np.pi * np.arange(m1) / n_quad
    cos_k = np.cos(k)
    w = np.full(m1, 2.0)
    w[0] = w[-1] = 1.0
    # per orbit, the trapezoid weight times cos(n_j k) of each quadrature axis
    weights = [[w * np.cos(n_j * k) for n_j in canon[1:]] for canon in canons]
    # the slab's s axes and its contraction with their weights: "ij,i,j->"
    # at d >= 3, "i,i->" at d = 2 and "->" (the value itself) at d = 1
    s = min(d - 1, 2)
    spec = ",".join(["ij"[:s], *"ij"[:s]]) + "->"
    h = functools.reduce(np.add.outer, [cos_k] * s, np.float64(0.0))
    even = (slice(None, None, 2),) * s
    fine = np.zeros(len(canons), dtype=complex)
    coarse = np.zeros(len(canons), dtype=complex)
    abs_sum = np.zeros(len(canons))
    for idx in itertools.product(range(m1), repeat=d - 1 - s):
        mu = lam - (h + sum(cos_k[i] for i in idx))
        zeta = 1.0 / (mu + np.sqrt(mu - 1.0) * np.sqrt(mu + 1.0))
        on_coarse = all(i % 2 == 0 for i in idx)
        g1 = {n1: 2.0 * zeta ** (n1 + 1) / (zeta * zeta - 1.0) for n1 in {canon[0] for canon in canons}}
        for o, canon in enumerate(canons):
            g = g1[canon[0]]
            slab, rest = weights[o][:s], weights[o][s:]
            factor = math.prod(u[i] for u, i in zip(rest, idx))
            fine[o] += factor * np.einsum(spec, g, *slab)
            abs_sum[o] += abs(factor) * np.einsum(spec, np.abs(g), *map(np.abs, slab))
            if on_coarse:
                coarse[o] += factor * np.einsum(spec, g[even], *(u[::2] for u in slab))
    fine /= float(2 * n_quad) ** (d - 1)
    coarse /= float(n_quad) ** (d - 1)
    abs_sum /= float(2 * n_quad) ** (d - 1)
    return fine, np.abs(fine - coarse) + 4.0 * np.finfo(float).eps * abs_sum


def auto_n_quad(dist):
    """Quadrature size law: points per dimension ~ _NQ_RATE / dist, for
    lambda at distance dist > 0 from the band, clipped to
    [_NQ_MIN, _NQ_MAX] and rounded up to even; elementwise on a scalar
    (which gives a Python int) or an array."""
    n = np.minimum(np.maximum(np.ceil(_NQ_RATE / np.asarray(dist, dtype=float)), _NQ_MIN), _NQ_MAX)
    n = n.astype(int)
    n += n % 2
    return int(n) if n.ndim == 0 else n


def green_torus(
    n: Sequence[int],
    lam: complex,
    d: int,
    n_quad: int | None = None,
) -> GreenValue:
    """Momentum-representation kernel value with a doubled-grid error estimate.

    The returned value is computed on the doubled grid (2 n_quad points per
    quadrature axis; see ``_torus_column``); err_estimate is the difference
    between the two resolutions plus a rounding floor.  An explicit n_quad
    must be even and lie in [8, _NQ_MAX], the grids ``auto_n_quad`` picks
    from.
    """
    lam = complex(lam)
    _require_finite(lam, "lambda")
    dist = _torus_distance(lam, d)
    if n_quad is None:
        n_quad = auto_n_quad(dist)
    elif not 8 <= n_quad <= _NQ_MAX or n_quad % 2:
        raise ValueError(f"n_quad must be even and in [8, {_NQ_MAX}], got {n_quad}")
    return _one(_torus_block((_orbit(n, d),), np.array([lam]), n_quad))


def _torus_distance(lam, d: int):
    """dist_to_band(lam, d), scalar or array, refusing any lambda the torus
    cannot serve (the first one is named)."""
    dist = dist_to_band(lam, d)
    near = np.ravel(dist) < _TORUS_DELTA_MIN
    if near.any():
        k = int(near.argmax())
        raise ValueError(
            f"lambda={complex(np.ravel(lam)[k])} is within {_TORUS_DELTA_MIN} of the band [-{d},{d}] "
            "(dist={:.3e}); use green_boundary for on-band limits".format(float(np.ravel(dist)[k]))
        )
    return dist


# ------------------------------------------------------------ exact series path

def _series_radius(d: int) -> float:
    """r(d), the largest |z| the series serves: _SERIES_RADIUS at d >= 3,
    |z(i _DIST_MIN_LOW_D)| at d = 1, 2, a circle whose image lies within
    _DIST_MIN_LOW_D of the band and reaches that distance mid-band."""
    return _SERIES_RADIUS if d >= 3 else abs(z_of_lambda(1j * _DIST_MIN_LOW_D, d))


@functools.lru_cache(maxsize=None)
def _pascal_row(j: int) -> tuple:
    """C(j, 0), ..., C(j, j), from the row before (the builds ask for the
    rows in order, so the recursion is one level deep)."""
    if j == 0:
        return (1,)
    prev = _pascal_row(j - 1)
    return (1, *map(operator.add, prev, prev[1:]), 1)


@functools.lru_cache(maxsize=None)
def _axis_row(n: int, j: int) -> tuple:
    """The weights of one binomial convolution: C(j, i) C(j - i, (j - i +
    n) / 2) for i = (j - n) % 2, ..., j - n in steps of 2, the ways to place
    j - i of j steps on a new axis and to walk from 0 to n with them."""
    i0 = (j - n) % 2
    return tuple(map(operator.mul, _pascal_row(j)[i0:j - n + 1:2],
                     [_pascal_row(l)[(l + n) // 2] for l in range(j - i0, n - 1, -2)]))


@functools.lru_cache(maxsize=None)
def _subst_row(d: int, k: int) -> tuple:
    """(-1)^m C(k - 1 - m, m) d^(2m) for m = 0, ..., (k - 1) // 2: the
    weight of the walk count W_(k-1-2m) in the integer -g_k d^k / 2 (see
    _series_coeffs), by Pascal's rule along the diagonal from rows k - 1
    and k - 2 (the builds ask for the rows in order)."""
    if k <= 2:
        return (1,)
    a, b = _subst_row(d, k - 1), _subst_row(d, k - 2)
    return tuple(map(operator.sub, a + (0,) * (k % 2), (0, *map(operator.mul, b, itertools.repeat(d * d)))))


@functools.lru_cache(maxsize=256)
def _series_coeffs(canon: Site) -> "tuple[np.ndarray, float]":
    """The Taylor coefficients g_0, ..., g_K of G(n, lambda(z)) for the
    orbit n, and the largest |g_k| among the last _SERIES_WINDOW.

    With W_j(n) the number of walks of j steps from 0 to n,
    G = -sum_j W_j 2^(-j) lambda^(-(j+1)), and 1/lambda = (2/d) z / (1 + z^2)
    turns it into g_k = -2 d^(-k) sum_(j+1+2m=k) (-1)^m C(j+m, m) W_j
    d^(k-1-j).  The walk counts of the first two axes have the closed form
    C(j, (j+n1+n2)/2) C(j, (j+n1-n2)/2) (one axis: C(j, (j+n1)/2)); each
    further axis takes one binomial convolution.  The sum is an exact
    integer, and each g_k one correctly rounded division of two integers.
    g_k vanishes unless k - 1 >= |n| has the parity of |n|.  The build
    stops at the first K beyond 2|n| + _SERIES_WINDOW (the coefficients of
    a far orbit rise from tiny values and peak by k ~ 2|n|) at which that
    largest |g_k| times r^(K+1) / (1 - r), r = _series_radius(d), is below
    _SERIES_TOL, and at _SERIES_K_MAX in any case, which bounds the tables.
    An orbit with |n| >= _SERIES_K_MAX so gets only zeros and a zero tail:
    |g_k| <= e (k + 1) / d (Cauchy's estimate with |G| <= 1 / dist), so its
    values at |z| <= 0.84 are below 1e-26.
    """
    d = len(canon)
    r = _series_radius(d)
    comb = math.comb
    # levels[L][j]: the walk counts over the axes of level L (the first two,
    # then one more per level), zero below starts[L] and off its parity
    starts = list(itertools.accumulate(canon[2:], initial=sum(canon[:2])))
    plus, minus = sum(canon[:2]), canon[0] - sum(canon[1:2])
    levels: "list[list[int]]" = [[] for _ in starts]
    s = starts[-1]
    g, dk, top = [0.0], 1, 0.0
    for k in range(1, _SERIES_K_MAX + 1):
        j, dk = k - 1, dk * d
        if d > 2:
            _pascal_row(j)  # the convolutions' rows, built in order
        subst = _subst_row(d, k)
        for L, lo in enumerate(starts):
            if j < lo or (j - lo) % 2:
                w = 0
            elif L == 0:
                w = comb(j, (j + plus) // 2) * (comb(j, (j + minus) // 2) if d > 1 else 1)
            else:
                n, prev = canon[L + 1], starts[L - 1]
                w = sum(map(operator.mul, _axis_row(n, j)[(prev - (j - n) % 2) // 2:],
                            levels[L - 1][prev:j - n + 1:2]))
            levels[L].append(w)
        if j < s or (j - s) % 2:
            g.append(0.0)
            continue
        g.append(-2 * sum(map(operator.mul, subst[:(j - s) // 2 + 1], levels[-1][j::-2])) / dk)
        top = max(map(abs, g[-_SERIES_WINDOW:]))
        if k > 2 * s + _SERIES_WINDOW and top * r ** (k + 1) / (1.0 - r) <= _SERIES_TOL:
            break
    return np.array(g), top


@functools.lru_cache(maxsize=64)
def _series_plan(canons: "tuple[Site, ...]") -> tuple:
    """What _series_block needs of an orbit set, built once.  Per orbit
    (rows), as a polynomial in w = z^2: the coefficients g_(p+2i), p the
    parity of the orbit's nonzero g_k, zero beyond the orbit's last and up
    to a power of two, stored in bit-reversed order of i (the order in
    which Estrin's scheme pairs them); their absolute values; whether p = 1
    (the sum takes one more factor z); the number of terms; and the largest
    |g_k| among the last _SERIES_WINDOW."""
    built = [_series_coeffs(canon) for canon in canons]
    odd = np.array([sum(canon) % 2 == 0 for canon in canons])
    rows = [g[int(p)::2] for (g, _), p in zip(built, odd)]
    terms = np.array([row.size for row in rows])
    order = np.zeros(1, dtype=int)
    while order.size < terms.max():
        order = np.concatenate([2 * order, 2 * order + 1])
    coef = np.zeros((len(canons), order.size))
    for u, row in enumerate(rows):
        coef[u, :row.size] = row
    coef = np.ascontiguousarray(coef[:, order])
    top = np.array([t for _, t in built])
    return coef, np.abs(coef), odd[:, None], terms[:, None], top[:, None]


def _series_block(canons: "list[Site]", lams: np.ndarray):
    """Series values sum_k g_k z^k, z = z(lambda), per orbit (rows) and
    lambda (columns), with error estimates.

    Estrin's scheme in w = z^2 runs over every orbit at once on a chunk of
    lambdas whose arrays stay within _CHUNK_BYTES: each level pairs the
    first half of the coefficients with the second, c + c' W, and squares
    W (w, w^2, w^4, ...), so a chunk costs a few array operations per
    level, not per term.  It runs in real arithmetic: each entry is one
    sequence of correctly rounded products and sums, whatever the chunk
    and the orbit set.  The error estimate is the tail, the largest |g_k|
    of the last _SERIES_WINDOW times |z|^(K+2) / (1 - |z|^2), plus 4 eps
    per term of sum_k |g_k| |z|^k (the same scheme on |g_k| and |w|) for
    rounding.
    """
    coef, size, odd, terms, top = _series_plan(tuple(canons))
    z = z_of_lambda(lams, len(canons[0]))
    half = coef.shape[1] // 2
    chunk = max(1, _CHUNK_BYTES // (64 * half * len(canons)))
    rounding = 4.0 * np.finfo(float).eps * terms
    vals = np.empty((len(canons), lams.size), dtype=complex)
    errs = np.empty(vals.shape)
    for lo in range(0, lams.size, chunk):
        zr, zi = z.real[lo:lo + chunk], z.imag[lo:lo + chunk]
        cols = slice(lo, lo + zr.size)
        x, y = zr * zr - zi * zi, 2.0 * zr * zi
        aw = zr * zr + zi * zi
        # first level: real coefficients, c + c' w
        re = coef[:, half:, None] * x
        re += coef[:, :half, None]
        im = coef[:, half:, None] * y
        bound = size[:, half:, None] * aw
        bound += size[:, :half, None]
        m, ax, ay, aa = half, x, y, aw
        while m > 1:
            ax, ay, aa = ax * ax - ay * ay, 2.0 * ax * ay, aa * aa
            m //= 2
            # (re + i im)[:m] + (re + i im)[m:] (ax + i ay)
            r2, i2 = re[:, m:], im[:, m:]
            new_re = r2 * ax
            new_re -= i2 * ay
            new_re += re[:, :m]
            new_im = i2 * ax
            new_im += r2 * ay
            new_im += im[:, :m]
            re, im = new_re, new_im
            bound = bound[:, m:] * aa + bound[:, :m]
        re, im, bound = re[:, 0], im[:, 0], bound[:, 0]
        vals.real[:, cols] = np.where(odd, re * zr - im * zi, re)
        vals.imag[:, cols] = np.where(odd, re * zi + im * zr, im)
        tail = top * np.power(aw, terms) / (1.0 - aw)
        errs[:, cols] = (rounding * bound + tail) * np.where(odd, np.sqrt(aw), 1.0)
    return vals, errs


# ----------------------------------------------------------- damped time path

def green_time(n: Sequence[int], lam: complex, d: int) -> GreenValue:
    """Time-representation kernel value for lam off the real axis.

    Quadrature of -i int_0^T e^(-i lam t) K_n(t) dt with the forward kernel
    K_n(t) = i^(|n|) prod J_(n_j)(t); the horizon T is set so the neglected
    tail e^(T Im lam)/|Im lam| (using |K_n| <= 1) is below _TIME_TOL, capped
    at 1200 with the cap reflected honestly in err_estimate.
    """
    return _one(green_orbits((_orbit(n, d),), [complex(lam)], d, engine="time"))


def _time_value(canon: Site, lam: complex) -> "tuple[complex, float]":
    T = min(math.log(1.0 / _TIME_TOL) / abs(lam.imag), 1200.0)
    pref = -1j * _IPOW[sum(canon) % 4]
    vals = []
    for npts in (12, 10):
        nodes, weights = gl_panels(0.0, T, 0.5, npts=npts)
        rows = bessel_j_grid(nodes, canon[0])
        kern = np.ones_like(nodes)
        for m in canon:
            kern = kern * rows[m]
        vals.append(pref * np.sum(weights * np.exp(-1j * lam * nodes) * kern))
    tail = math.exp(T * lam.imag) / abs(lam.imag)
    err = abs(vals[0] - vals[1]) + tail
    return complex(vals[0]), err


def _time_block(canons: "list[Site]", lams: np.ndarray):
    """Time-engine values per orbit (rows) and lambda (columns).  The engine
    has a horizon, hence nodes, per lambda: one value at a time.  Its
    damping needs Im lam <= 0, so Im lam > 0 is served by conjugation,
    G(n, lam) = conj G(n, conj lam); no other symmetry is applied and no
    value is memoised, which keeps this oracle apart from the fold of the
    engines it checks."""
    vals = np.empty((len(canons), lams.size), dtype=complex)
    errs = np.empty(vals.shape)
    for u, canon in enumerate(canons):
        for k, lam in enumerate(lams.tolist()):
            if lam.imag > 0:
                value, errs[u, k] = _time_value(canon, lam.conjugate())
                vals[u, k] = value.conjugate()
            else:
                vals[u, k], errs[u, k] = _time_value(canon, lam)
    return vals, errs


# ------------------------------------------------------ oscillatory time path

def require_osc_dimension(d: int, context: str) -> int:
    """The oscillatory engine's range 3 <= d <= _OSC_D_MAX, returning d:
    below it the time integral diverges, beyond it the engine's fixed Gauss
    panels stop resolving its integrand."""
    d = require_dimension_3(d, context)
    if d > _OSC_D_MAX:
        raise ValueError(
            f"{context} requires lattice dimension d <= {_OSC_D_MAX} (got d={d}): the oscillatory "
            "engine's fixed Gauss panels do not resolve the time integral beyond it"
        )
    return d


def _osc_t0(n0: int) -> float:
    """The horizon T0 of an orbit set whose largest max_j |n_j| is n0:
    _OSC_T0 up to n0 = _OSC_NEAR, one per n0 beyond."""
    return _OSC_T0 if n0 <= _OSC_NEAR else _OSC_T0 + _OSC_T0_PER_ORDER * n0


@functools.lru_cache(maxsize=32)
def _osc_grid(n0: int) -> tuple[float, np.ndarray, np.ndarray]:
    """The horizon T0 = _osc_t0(n0) of an orbit set whose largest max_j
    |n_j| is n0, the Gauss weights on [0, T0], and J_0 .. J_n0 at the
    nodes: one Bessel grid serves every orbit of the set.  Its rows do not
    depend on n0 (Miller's start is set by the largest node)."""
    T0 = _osc_t0(n0)
    nodes, weights = gl_panels(0.0, T0, _OSC_PANEL, npts=_OSC_NPTS)
    # _osc_main's factoring needs whole panels, all of length _OSC_PANEL
    assert nodes.size == _OSC_NPTS * T0 / _OSC_PANEL, f"T0={T0} is not a whole number of panels"
    return T0, weights, bessel_j_grid(nodes, n0)


def _osc_phases(lams: np.ndarray, n_panels: int) -> "tuple[np.ndarray, np.ndarray]":
    """e^(-i lam t) on the Gauss nodes of n_panels panels, factored, one row
    per lambda: (row, panel).  row[:, j] is the phase of node j's offset
    from its panel's midpoint; panel[0] and panel[1] are the real and
    imaginary parts of the phase of panel p's midpoint (t = 0.25 + 0.5 p)
    in column p.  The panel phases are the outer product of _OSC_FINE
    consecutive panel steps and ceil(n_panels / _OSC_FINE) coarse ones:
    _OSC_FINE + ceil(n_panels / _OSC_FINE) exponentials per lambda in place
    of one per panel.  Panel p's phase does not depend on n_panels."""
    mlam = -1j * lams[:, None]
    row = np.exp(mlam * _OSC_OFFSETS)
    fine = np.exp(mlam * (_OSC_PANEL * np.arange(_OSC_FINE)))
    coarse_t = 0.5 * _OSC_PANEL + _OSC_FINE * _OSC_PANEL * np.arange(-(-n_panels // _OSC_FINE))
    panel = (np.exp(mlam * coarse_t)[:, :, None] * fine[:, None, :]).reshape(lams.size, -1)
    return row, np.stack([panel.real[:, :n_panels], panel.imag[:, :n_panels]])


def _osc_main(kw: np.ndarray, row: np.ndarray, panel: np.ndarray) -> np.ndarray:
    """The numeric part sum_t kw(t) e^(-i lam t) over the Gauss nodes, per
    lambda of the phases (row, panel) from _osc_phases: the panel phases
    are summed against each node row of kw first, in real arithmetic (a
    dot product over the panels per lambda, node and part), then the
    offset phases against those _OSC_NPTS sums."""
    sums = np.einsum("rkp,jp->rkj", panel, kw)
    return np.einsum("kj,kj->k", sums[0] + 1j * sums[1], row)


def _osc_tail_coeffs(canon: Site) -> np.ndarray:
    """The mode-tail coefficients of an orbit, shape (d + 1, _OSC_N_TERMS):
    row (S + d) / 2 holds the polynomial in 1/t of frequency S.  They are
    the product over the axes of one two-term factor, e^(-i(pi/2 n_j +
    pi/4)) A_(n_j) at frequency +1 and its conjugate at -1 (A_m the
    large-t amplitude of J_m), truncated at _OSC_N_TERMS after each axis,
    times (2/pi)^(d/2) 2^(-d)."""
    coef = np.ones((1, 1), dtype=complex)
    for n_j in canon:
        plus = np.exp(-1j * (np.pi / 2 * n_j + np.pi / 4)) * hankel_amplitude_coeffs(n_j, _OSC_N_TERMS)
        grown = np.zeros((len(coef) + 1, _OSC_N_TERMS), dtype=complex)
        for f, row in enumerate(coef):
            grown[f] += np.convolve(row, plus.conj())[:_OSC_N_TERMS]
            grown[f + 1] += np.convolve(row, plus)[:_OSC_N_TERMS]
        coef = grown
    return coef * ((2.0 / np.pi) ** (0.5 * len(canon)) * 0.5 ** len(canon))


@functools.lru_cache(maxsize=64)
def _osc_plan(canons: "tuple[Site, ...]") -> tuple:
    """What _osc_block needs of an orbit set, built once: its horizon T0
    and, per orbit, its Gauss kernel from the set's one grid _osc_grid(n0),
    n0 the set's largest max_j |n_j| (the Gauss weight times prod_j
    J_(n_j) at each node on [0, T0], shape (_OSC_NPTS, panels), row j
    holding node j of every panel; real, _osc_main applies the phases),
    its mode-tail coefficients per frequency (_osc_tail_coeffs) and the
    prefactor -i i^|n|."""
    T0, weights, rows = _osc_grid(max(canon[0] for canon in canons))
    orbits = []
    for canon in canons:
        kern = rows[canon[0]].copy()
        for n_j in canon[1:]:
            kern *= rows[n_j]
        kw = np.ascontiguousarray((weights * kern).reshape(-1, _OSC_NPTS).T)
        orbits.append((kw, _osc_tail_coeffs(canon), -1j * _IPOW[sum(canon) % 4]))
    return T0, orbits


def _osc_block(canons: "list[Site]", lams: np.ndarray):
    """High-accuracy kernel values for Im(lam) <= 0, including real lam, per
    orbit (rows) and lambda (columns), with error estimates; only
    ``_memo_block`` calls it, with quadrant images.

    Numeric Gauss-Legendre integral on [0, T0] plus analytic mode tails:
    beyond T0 each J-product factor is replaced by its two-sided large-t
    expansion, turning the remainder into sums of t^(-d/2-q) e^(i(S-lam)t)
    integrals with integer S in [-d, d], one polynomial in 1/t per
    frequency S.  The block makes one tail_integral_vec call for all d + 1
    frequencies and every lambda at the set's T0 (its rows are independent,
    so a row is the same bits as in a call of its own); per chunk of
    lambdas an orbit contracts each frequency's row of integrals with its
    polynomial, adding the rows up in frequency order.  The truncation
    estimate is the last term kept, summed in absolute value over the
    frequencies.  The per-orbit constants come from the orbit set's
    _osc_plan; a call does only the per-lambda work.
    """
    d = len(canons[0])
    T0, orbits = _osc_plan(tuple(canons))
    n_panels = int(T0 / _OSC_PANEL)
    chunk = max(1, _CHUNK_BYTES // (16 * n_panels))
    freqs = np.arange(-d, d + 1, 2)
    s_exps = 0.5 * d + np.arange(_OSC_N_TERMS, dtype=float)
    w = (freqs[:, None] - lams).ravel()
    block_tails = tail_integral_vec(s_exps, w, T0).reshape(freqs.size, lams.size, -1)
    vals = np.empty((len(canons), lams.size), dtype=complex)
    errs = np.empty(vals.shape)
    for lo in range(0, lams.size, chunk):
        lam = lams[lo:lo + chunk]
        cols = slice(lo, lo + lam.size)
        row, panel = _osc_phases(lam, n_panels)
        tails = block_tails[:, cols]
        for u, (kw, coef, pref) in enumerate(orbits):
            tail = sum(np.einsum("fkj,fj->fk", tails, coef))
            trunc = sum(np.abs(coef[:, -1, None] * tails[:, :, -1]))
            vals[u, cols] = value = pref * (_osc_main(kw, row, panel) + tail)
            errs[u, cols] = trunc + 1e-14 * (1.0 + np.abs(value))
    return vals, errs


# ------------------------------------------------------------ front doors

def _one(block) -> GreenValue:
    vals, errs = block
    return GreenValue(complex(vals[0, 0]), float(errs[0, 0]))


def _require_finite(lams, name: str) -> None:
    """Refuse a non-finite lambda, scalar or array (the first is named)."""
    lams = np.atleast_1d(lams)
    bad = ~np.isfinite(lams)
    if bad.any():
        raise ValueError(f"{name}={lams[bad][0]} is not finite")


def green_orbits(canons: "Sequence[Site]", lams: "Sequence[complex]", d: int,
                 engine: str = "auto") -> "tuple[np.ndarray, np.ndarray]":
    """Kernel values off the band for every orbit (rows) at every lambda
    (columns), and their error estimates: two arrays of shape
    (len(canons), len(lams)).  The orbits are representatives, as
    ``_orbit`` or ``support_orbits`` gives them; as a tuple they are the
    orbit set that keys the memo and the plans.

    engine "auto" routes each lambda as ``green_auto`` does (to the series
    or the oscillatory engine); "torus" and "time" force that engine, with
    the same refusals as ``green_torus`` and ``green_time``, the torus on
    each lambda's grid size auto_n_quad(dist).
    """
    canons = tuple(canons)
    lams = np.asarray(lams, dtype=complex)
    _require_finite(lams, "lambda")
    if engine == "time":
        flat = np.abs(lams.imag) < 1e-6
        if flat.any():
            raise ValueError(
                f"green_time needs |Im lambda| >= 1e-6 (got {lams[flat][0].imag:.2e}): "
                "the truncation tail is uncontrolled on the real axis; use green_boundary"
            )
        return _time_block(canons, lams)
    if engine == "torus":
        return _torus_block(canons, lams, auto_n_quad(_torus_distance(lams, d)))
    if engine != "auto":
        raise ValueError(f"unknown engine {engine!r}")
    # the caller's lambdas, before the fold: a refusal names the lambda given
    require_off_band(lams, d)
    # by the quadrant image, as the memo keys are: mirror images take one route
    image = np.abs(lams.real) - 1j * np.abs(lams.imag)
    radius = _series_radius(d)
    series = np.abs(z_of_lambda(image, d)) <= radius
    if not series.all():
        require_osc_dimension(d, f"green_auto outside |z| <= {radius:.4g}")
    vals = np.empty((len(canons), lams.size), dtype=complex)
    errs = np.empty(vals.shape)
    for name, core, cols in (("series", _series_block, series), ("osc", _osc_block, ~series)):
        if cols.any():
            vals[:, cols], errs[:, cols] = _memo_block(name, core, canons, lams[cols])
    return vals, errs


def green_auto(n: Sequence[int], lam: complex, d: int) -> GreenValue:
    """Dispatcher used by determinant assembly (through ``green_orbits``),
    routing by z = z(lam) of lam's quadrant image (so mirror images take
    one route).

    One rule at every d: the exact series where |z| <= r(d) =
    _series_radius(d), the oscillatory time engine inside that circle's
    image at 3 <= d <= _OSC_D_MAX (10) only; at other d a lam there is
    refused.  At d >= 3 r = 0.8, whose image is the ellipse with semi-axes
    1.025 d and 0.225 d (every lam there is within 0.675 of the band at
    d = 3).  The series is exact to rounding with about 160 terms there
    and costs a few microseconds per value; the oscillatory engine, about
    the same at every distance, keeps the points where the series would
    need many more terms, and its fixed Gauss panels never see a large
    |lam|.  At d = 1, 2 r is 0.71 and 0.84: the series serves every lam at
    distance >= 0.35 from the band, and nearer ones next to its ends.  No
    lam reaches the torus.
    """
    return _one(green_orbits((_orbit(n, d),), [complex(lam)], d))


# -------------------------------------------------------------- boundary path

def green_boundary_orbits(canons: "Sequence[Site]", lambda0s: "Sequence[float]",
                          plus: "Sequence[bool]", d: int) -> "tuple[np.ndarray, np.ndarray]":
    """Boundary values G(n, lambda0 + i0) where plus[k], else G(n, lambda0 -
    i0), for every orbit (rows) and band point lambda0 (columns), with error
    estimates; shapes as in ``green_orbits``.  ``require_osc_dimension``
    runs before any Green value."""
    d = require_osc_dimension(d, "green_boundary")
    lam0 = np.asarray(lambda0s, dtype=float)
    _require_finite(lam0, "lambda0")
    off = np.abs(lam0) > d
    if off.any():
        raise ValueError(f"lambda0={lam0[off][0]} is off the band [-{d},{d}]; use green_auto")
    return _memo_block("osc", _osc_block, tuple(canons), lam0.astype(complex), up=plus)


def green_boundary(n: Sequence[int], lambda0: float, side: str, d: int) -> GreenValue:
    """Boundary value G(n, lambda0 +/- i0) on the band [-d, d], 3 <= d <= 10.

    The oscillatory time engine evaluates directly at real lambda0: its
    analytic tail sums are valid on the closed lower half plane, which
    gives the minus side; the plus side is its conjugate, served from the
    same cached value.  The band edges need no special treatment.  The
    dimension rule runs before the site's length is checked.
    """
    if side not in ("plus", "minus"):
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")
    d = require_osc_dimension(d, "green_boundary")
    return _one(green_boundary_orbits((_orbit(n, d),), [lambda0], [side == "plus"], d))
