"""Free resolvent kernel G(n, lam) = (H0 - lam)^(-1)(n, 0) on Z^d.

Three interior evaluators, independent of each other:

* ``green_torus``: the momentum-space form, a d-fold periodic integral of
  cos(n.k) / (h(k) - lam) with h(k) = sum_j cos k_j, by tensor-product
  trapezoidal quadrature folded onto the half-period (the integrand is even
  in every k_j).  Geometrically convergent with rate set by the distance of
  lam to the band [-d, d].
* ``green_time``: the damped time representation, -i times the Fourier-
  Laplace transform of the free propagator, truncated at a horizon T where
  the factor e^(t Im lam) is negligible.  Needs Im(lam) bounded away from 0.
* an oscillatory time engine: the same integral split at a moderate T0,
  with the remainder summed analytically mode by mode from the
  large-argument Bessel expansion.  It stays accurate arbitrarily close
  to, and on, the band, for d >= 3.

``green_auto`` picks, at d >= 3, the oscillatory engine within distance
1.25 of the band, where the torus grid is larger than its floor, and the
torus engine from there out; at d = 1 and 2 only the torus exists, and
distances below 0.35 are refused at the entry (see ``green_auto``).
``green_boundary`` gives the boundary values G(n, lambda0 -/+ i0) on the
band through the oscillatory engine alone; its independent checks
are Watson's closed form at the band edge and the small-epsilon limit of
the interior engines.

Every engine is array-at-a-time.  Its core takes a list of orbits (rows)
and an array of lambdas (columns) and returns the whole block of values
and error estimates; (orbits, lambdas) is the one shape of a Green block
up to determinant assembly.  ``green_orbits`` (interior, with the engine
routing of ``green_auto`` or one forced engine) and
``green_boundary_orbits`` serve such blocks; ``green_auto``,
``green_torus``, ``green_time`` and ``green_boundary`` are the one-value
cases, on the orbit of their site.

* An engine's per-orbit constants are built once per orbit set, in a
  bounded cache (its plan), so a call does only per-lambda work.
  ``_osc_plan`` holds each orbit's Gauss kernel (one Bessel grid per
  max_j |n_j|, ``_osc_grid``), the index of its horizon T0, its mode
  tails' phases, frequency rows and polynomials, and its prefactor;
  ``_torus_plan`` holds both grids' cosine weights and, on grids with
  few enough index tuples (green_auto's floor grid among them), their
  sums over the tuples.
* The oscillatory engine walks the lambda axis in chunks whose phase
  block stays within _CHUNK_BYTES (512 KB).  In a chunk the phases are
  built once and shared by every orbit, and the mode tails of every
  (T0, frequency, lambda) come from one tail_integral_vec call, shared by
  the orbits with that T0 (T0 depends only on max_j |n_j|).
* The torus engine builds 1 / (h(k) - lam) on the folded grid once per
  lambda, for a chunk of lambdas at a time, and contracts it against each
  orbit's separable cosine weights, by one contraction in every
  dimension.  The integrand is symmetric in the first r = min(d, 3) axes,
  so it is built on their sorted index tuples only (one sixth of the
  grid for r = 3), against weights summed over the orderings.
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

``_memo_block`` applies the last two for the torus, oscillatory and
boundary paths: it asks the engine only for the image of each lambda in
the quadrant Re lam >= 0, Im lam <= 0, and unfolds the value by
conjugation and the factor -(-1)^|n|.  The oscillatory engine needs that
quadrant's half plane anyway: its integrand pairs e^(-i lam t) with the
forward evolution kernel, whose quarter-turn phase is i^(+|n|) per the
Fourier expansion of e^(i t cos k), and damping requires Im(lam) <= 0.
On the band a point lambda0 -/+ i0 has the image |lambda0| (the minus
side), conjugated where the side is plus XOR lambda0 < 0.  Unfolding is
exact, so a lambda and its mirror images share one memo entry bit for
bit.  For the torus the conjugate fold is even bitwise equal to a direct
evaluation (the engine negates Im lam exactly); the other folds agree
with one to rounding.

The damped time engine is the oracle that the c02 gate checks the torus
and oscillatory engines against, so it stays outside the fold and the
memo: ``green_orbits(engine="time")`` calls ``_time_block`` directly, which
conjugates for Im lam > 0 (its damping needs Im lam <= 0) and applies no
other symmetry.

The torus and the oscillatory engine keep one memo each, keyed like the
plans by the orbit set (a tuple): an entry (orbit set, quadrant image of
lam, plus the grid size for the torus) holds the image's column of
values and error estimates, at most _MEMO_SIZE values in all, evicting
the least recently used.  A block looks every distinct image up once,
computes the missing ones in at most one core call and unfolds with
array operations, in one pass.  Repeated evaluations during determinant
assembly are therefore free and bit-identical.
``green_cache_info`` reports each memo's hits, misses and size;
``clear_green_cache`` empties them, the plans and ``support_orbits``, the
orbit map of a support's differences that determinant assembly builds
once per support.
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
from .conformal import dist_to_band
from .lattice import require_dimension_3, validate_dimension
from .quadrature import gl_panels, tail_integral_vec

Site = tuple[int, ...]

# Quarter-turn phases i^(+k) for k mod 4.
_IPOW = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)

# quadrature size law of auto_n_quad
_NQ_RATE = 40.0
_NQ_MIN = 32
_NQ_MAX = 512
# green_auto's torus/oscillatory switch at d >= 3: the distance to the band
# at which auto_n_quad reaches its floor
_DIST_SWITCH = _NQ_RATE / _NQ_MIN
# green_auto's torus refuses distances below this at d = 1, 2
_DIST_MIN_LOW_D = 0.35
# green_torus refuses lambda closer to the band than this
_TORUS_DELTA_MIN = 1e-3
# green_time truncates its horizon where the neglected tail drops below this
_TIME_TOL = 1e-10
# the oscillatory engine integrates numerically up to
# T0 = _OSC_T0 + _OSC_T0_PER_ORDER * max_j |n_j| and keeps _OSC_N_TERMS
# terms of each mode's large-t expansion beyond it
_OSC_T0 = 240.0
_OSC_T0_PER_ORDER = 10.0
_OSC_N_TERMS = 11
# its Gauss panels on [0, T0]: T0 / _OSC_PANEL panels (T0 is a whole number
# of them) of _OSC_NPTS nodes at _OSC_OFFSETS from the panel's midpoint;
# _osc_phases builds the per-panel phases from _OSC_FINE consecutive panels
# and every _OSC_FINE-th one
_OSC_PANEL = 0.5
_OSC_NPTS = 10
_OSC_OFFSETS = 0.5 * _OSC_PANEL * np.polynomial.legendre.leggauss(_OSC_NPTS)[0]
_OSC_FINE = 16
# values (orbits times images) kept per engine memo; the largest benchmark
# run (a cold eigs on the 5-site draw 2 of perfbench's panel) fills 5325
# oscillatory values, so no benchmark run evicts
_MEMO_SIZE = 8192
# largest array of one chunk of lambdas: oscillatory phases, or torus
# values on the grid's index triples
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


class _Memo:
    """Bounded map from (orbit set, image[, n_quad]) to the image's column
    (values, err_estimates), two lists; ``size`` counts the values held,
    and while it exceeds _MEMO_SIZE the least recently used entry goes."""

    def __init__(self) -> None:
        self.data: OrderedDict = OrderedDict()
        self.size = self.hits = self.misses = 0

    def clear(self) -> None:
        self.data.clear()
        self.size = self.hits = self.misses = 0


_MEMOS = {"torus": _Memo(), "osc": _Memo()}


def clear_green_cache() -> None:
    for memo in _MEMOS.values():
        memo.clear()
    for cache in (support_orbits, _torus_plan, _osc_grid, _osc_plan):
        cache.cache_clear()


def green_cache_info() -> dict:
    """Per memoised engine ("torus", "osc"): memo hits, misses and size since
    the last ``clear_green_cache``.  A request counts once per (orbit,
    lambda) pair, a hit when the value was already known; ``size`` counts
    the values held."""
    return {name: {"hits": m.hits, "misses": m.misses, "size": m.size}
            for name, m in _MEMOS.items()}


def _memo_block(engine: str, core, canons: "tuple[Site, ...]", lams: np.ndarray, extra: tuple = (),
                up: "Sequence[bool] | None" = None):
    """core's block (values, errors) of shape (len(canons), len(lams)),
    served from the engine's memo where it can be, in one pass.

    The memo holds values on the quadrant Re lam >= 0, Im lam <= 0 only,
    one column per key (canons, lam, *extra).  Each lambda is looked up as
    its image q = |Re lam| - i |Im lam| there and unfolded by the exact
    symmetries of the module docstring: conjugated where up[k] differs
    from (Re lam < 0), and times -(-1)^|n| where Re lam < 0.  ``up``
    defaults to Im lam > 0; ``green_boundary_orbits`` passes its side, its
    lambdas being real.

    Every distinct image is looked up once.  core(canons, qs, *extra) is
    then called once, on the whole orbit set and the missing images, or
    not at all when none is missing; one column is stored per missing
    image.  Each (orbit, lambda) pair counts once: a miss where its image
    was missing, else a hit (so a repeat of an image after its miss is a
    hit).  A lambda is a hit only when its image is bitwise a known key;
    there is no tolerance.  The columns of the distinct images are then
    unfolded with array operations: a gather of each lambda's image
    column, and an exact conjugation and negation under masks.
    """
    memo = _MEMOS[engine]
    data = memo.data
    at: dict = {}
    col = [at.setdefault(complex(abs(lam.real), 0.0 - abs(lam.imag)), len(at)) for lam in lams.tolist()]
    keys = [(canons, q, *extra) for q in at]
    got = [data.get(key) for key in keys]
    missing = [k for k, g in enumerate(got) if g is None]
    memo.misses += len(canons) * len(missing)
    memo.hits += len(canons) * (len(col) - len(missing))
    for key, g in zip(keys, got):
        if g is not None:
            data.move_to_end(key)
    if missing:
        v, e = core(canons, np.array([keys[k][1] for k in missing]), *extra)
        for k, column in zip(missing, zip(v.T.tolist(), e.T.tolist())):
            got[k] = data[keys[k]] = column
        memo.size += len(canons) * len(missing)
        while memo.size > _MEMO_SIZE:
            memo.size -= len(data.popitem(last=False)[1][0])
    shape = (len(keys), len(canons))
    vals = np.array([g[0] for g in got], dtype=complex).reshape(shape).T[:, col]
    errs = np.array([g[1] for g in got], dtype=float).reshape(shape).T[:, col]
    up = lams.imag > 0 if up is None else np.asarray(up, dtype=bool)
    negative = lams.real < 0
    np.conjugate(vals, out=vals, where=up != negative)
    # the value changes sign under lam -> -lam where |n| is even
    even = np.array([sum(canon) % 2 == 0 for canon in canons], dtype=bool)
    np.negative(vals, out=vals, where=even[:, None] & negative)
    return vals, errs


def _canon(n: Sequence[int]) -> Site:
    """Representative of the signed-permutation orbit of n (kernel symmetry)."""
    return tuple(sorted((abs(int(c)) for c in n), reverse=True))


def _orbit(n: Sequence[int], d: int) -> Site:
    """_canon(n) for a site that must have exactly d coordinates."""
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

def _torus_weights(canons: "list[Site]", N: int) -> np.ndarray:
    """Trapezoid weight times cos(n_j k) on the folded grid k = 2 pi i / N,
    i = 0..N/2, per orbit and axis: shape (orbits, d, N/2 + 1)."""
    m = N // 2
    k = 2.0 * np.pi * np.arange(m + 1) / N
    w = np.full(m + 1, 2.0)
    w[0] = 1.0
    w[-1] = 1.0
    return np.array([[w * np.cos(n_j * k) for n_j in canon] for canon in canons])


_TRIPLE_CHUNK = _CHUNK_BYTES // 64


def _triple_chunks(m1: int, r: int):
    """The sorted index tuples i_1 <= ... <= i_r (r <= 3) of a folded grid
    axis of m1 points, the last index major and the others in lexicographic
    order, in chunks of at most _TRIPLE_CHUNK tuples: r index arrays."""
    parts = []
    for c in range(m1):
        # the sorted (r - 1)-tuples of 0..c, lexicographic
        head = np.triu_indices(c + 1) if r == 3 else (np.arange(c + 1),) * (r - 1)
        parts.append((*head, np.full(head[0].size if head else 1, c)))
        if sum(p[-1].size for p in parts) >= _TRIPLE_CHUNK or c == m1 - 1:
            yield tuple(np.concatenate(x) for x in zip(*parts))
            parts = []


def _symmetric_weights(u: np.ndarray, *idx: np.ndarray) -> np.ndarray:
    """Per orbit and sorted index tuple idx = (i_1, ..., i_r): the sum of
    u_1 ... u_r over the distinct orderings of the tuple, shape (orbits,
    tuples)."""
    total = sum(functools.reduce(operator.mul, (u[:, j, p] for j, p in enumerate(perm)))
                for perm in itertools.permutations(idx))
    # permutations() yields each distinct ordering (e + 1)! times, e the
    # number of equal neighbours in the sorted tuple (r <= 3); the gathers
    # come out column-major, and the contraction must see each orbit's row
    # laid out as for a single orbit
    equal = sum(p == q for p, q in zip(idx, idx[1:]))
    return np.ascontiguousarray(total / np.array([1.0, 2.0, 6.0])[equal])


def _torus_chunk(coarse: np.ndarray, fine: np.ndarray, idx: tuple) -> tuple:
    """One chunk of the fine grid's sorted index tuples: (idx, even, fine
    weights, coarse weights), ``even`` indexing the tuples of even points,
    which form the coarse grid."""
    even = np.nonzero(functools.reduce(np.logical_and, (i % 2 == 0 for i in idx)))[0]
    return (idx, even, _symmetric_weights(fine, *idx),
            _symmetric_weights(coarse, *(i[even] // 2 for i in idx)))


@functools.lru_cache(maxsize=64)
def _torus_plan(canons: "tuple[Site, ...]", n_quad: int) -> tuple:
    """The _torus_weights of an orbit set's coarse and fine grids and the
    fine grid's one chunk of sorted index tuples (over the first r =
    min(d, 3) axes) with its weights, or None where the grid has more (the
    n_quad = 32 floor that green_auto uses at d >= 3 has 6,545 triples):
    larger grids are built as they are walked."""
    coarse, fine = _torus_weights(canons, n_quad), _torus_weights(canons, 2 * n_quad)
    m1, r = n_quad + 1, min(len(canons[0]), 3)
    if math.comb(m1 + r - 1, r) > _TRIPLE_CHUNK:
        return coarse, fine, None
    return coarse, fine, [_torus_chunk(coarse, fine, next(_triple_chunks(m1, r)))]


def _torus_block(canons: "list[Site]", lams: np.ndarray, n_quad: int):
    """Torus values on the doubled grid (2 n_quad points per dimension) with
    the difference from n_quad points as error estimate, per orbit (rows)
    and lambda (columns).

    (2 pi)^(-d) int cos(n1 k1)...cos(nd kd) / (sum cos kj - lam) dk over the
    d-torus; evenness in each kj folds the grid to N/2 + 1 points per axis.
    1 / (h(k) - lam) = (x + i y) / (x^2 + y^2), x = h(k) - Re lam and y =
    Im lam, is symmetric in the first r = min(d, 3) axes: it is built on
    their sorted index tuples only, per point of the other d - r axes, for
    a chunk of lambdas at a time, and contracted against each orbit's
    weights summed over the orderings of a tuple.  The coarse grid is the
    fine grid's even points, so it reads the same values.
    """
    coarse, fine, chunks = _torus_plan(tuple(canons), n_quad)
    n_orb, d, m1 = fine.shape
    r = min(d, 3)
    cos_k = np.cos(2.0 * np.pi * np.arange(m1) / (2 * n_quad))
    acc_c = np.zeros((n_orb, lams.size), dtype=complex)
    acc_f = np.zeros((n_orb, lams.size), dtype=complex)
    if chunks is None:
        chunks = (_torus_chunk(coarse, fine, idx) for idx in _triple_chunks(m1, r))
    for tuples, even, s_f, s_c in chunks:
        h_r = sum(cos_k[i] for i in tuples)
        step = max(1, _CHUNK_BYTES // (24 * tuples[0].size))
        for idx in itertools.product(range(m1), repeat=d - r):
            w_f = np.ones(n_orb)
            w_c = np.ones(n_orb)
            for j, i in enumerate(idx):
                w_f = w_f * fine[:, j + r, i]
                w_c = w_c * coarse[:, j + r, i // 2]
            on_coarse = all(i % 2 == 0 for i in idx)
            h = h_r + sum(cos_k[i] for i in idx)
            for lo in range(0, lams.size, step):
                lam = lams[lo:lo + step]
                x = h - lam.real[:, None]
                inv = x * x
                inv += (lam.imag * lam.imag)[:, None]
                np.reciprocal(inv, out=inv)
                x *= inv
                inv *= lam.imag[:, None]
                cols = slice(lo, lo + lam.size)
                acc_f[:, cols] += w_f[:, None] * (np.einsum("ol,kl->ok", s_f, x)
                                                  + 1j * np.einsum("ol,kl->ok", s_f, inv))
                if on_coarse:
                    # gathered columns come out column-major; the contraction
                    # must see rows laid out as for a single lambda
                    x_c, inv_c = (np.ascontiguousarray(f[:, even]) for f in (x, inv))
                    acc_c[:, cols] += w_c[:, None] * (np.einsum("ol,kl->ok", s_c, x_c)
                                                      + 1j * np.einsum("ol,kl->ok", s_c, inv_c))
    v2 = acc_f / float(2 * n_quad) ** d
    return v2, np.abs(v2 - acc_c / float(n_quad) ** d)


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
    dimension); err_estimate is the difference between the two resolutions.
    An explicit n_quad must be even and >= 8.
    """
    d = validate_dimension(d)
    lam = complex(lam)
    _require_finite(lam, "lambda")
    dist = _torus_distance(lam, d)
    if n_quad is None:
        n_quad = auto_n_quad(dist)
    elif n_quad < 8 or n_quad % 2:
        raise ValueError(f"n_quad must be even and >= 8, got {n_quad}")
    return _one(_memo_block("torus", _torus_block, (_orbit(n, d),), np.array([lam]), (n_quad,)))


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


# ----------------------------------------------------------- damped time path

def green_time(n: Sequence[int], lam: complex, d: int) -> GreenValue:
    """Time-representation kernel value for lam off the real axis.

    Quadrature of -i int_0^T e^(-i lam t) K_n(t) dt with the forward kernel
    K_n(t) = i^(|n|) prod J_(n_j)(t); the horizon T is set so the neglected
    tail e^(T Im lam)/|Im lam| (using |K_n| <= 1) is below _TIME_TOL, capped
    at 1200 with the cap reflected honestly in err_estimate.
    """
    d = validate_dimension(d)
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

def _osc_t0(n0: int) -> float:
    """The horizon T0 of the orbits with max_j |n_j| = n0."""
    return _OSC_T0 + _OSC_T0_PER_ORDER * n0


@functools.lru_cache(maxsize=32)
def _osc_grid(n0: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Gauss nodes and weights on [0, T0], T0 = _osc_t0(n0), and J_0 ..
    J_n0 at the nodes: one Bessel grid serves every orbit with max_j |n_j|
    = n0."""
    T0 = _osc_t0(n0)
    nodes, weights = gl_panels(0.0, T0, _OSC_PANEL, npts=_OSC_NPTS)
    # _osc_main's factoring needs whole panels, all of length _OSC_PANEL
    assert nodes.size == _OSC_NPTS * T0 / _OSC_PANEL, f"T0={T0} is not a whole number of panels"
    return nodes, weights, bessel_j_grid(nodes, n0)


def _osc_kw(canon_n: Site) -> np.ndarray:
    """Gauss weight times prod_j J_(n_j) at each numeric node, shape
    (_OSC_NPTS, panels): row j holds node j of every panel (real;
    _osc_main applies the phases)."""
    _, weights, rows = _osc_grid(canon_n[0])
    kern = rows[canon_n[0]].copy()
    for m in canon_n[1:]:
        kern *= rows[m]
    return np.ascontiguousarray((weights * kern).reshape(-1, _OSC_NPTS).T)


def _osc_phases(lams: np.ndarray, n_panels: int) -> "tuple[np.ndarray, np.ndarray]":
    """e^(-i lam t) on the Gauss nodes of n_panels panels, factored, one row
    per lambda: (row, panel).  row[:, j] is the phase of node j's offset
    from its panel's midpoint; panel[0] and panel[1] are the real and
    imaginary parts of the phase of panel p's midpoint (t = 0.25 + 0.5 p)
    in column p.  The panel phases are the outer product of _OSC_FINE
    consecutive panel steps and ceil(n_panels / _OSC_FINE) coarse ones:
    _OSC_FINE + ceil(n_panels / _OSC_FINE) exponentials per lambda in place
    of one per panel.  Panel p's phase does not depend on n_panels, so one
    set serves every orbit with a shorter T0."""
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
    sums = np.einsum("rkp,jp->rkj", panel[:, :, :kw.shape[1]], kw)
    return np.einsum("kj,kj->k", sums[0] + 1j * sums[1], row)


def _osc_tail_data(canon_n: Site) -> tuple:
    """Per sign pattern s in {+,-}^d, in pattern order: the constant phases
    (a list), the integer frequencies S and the coefficient polynomials of
    prod_j A or conj(A) truncated at _OSC_N_TERMS (one array each)."""
    amps = {m: hankel_amplitude_coeffs(m, _OSC_N_TERMS) for m in set(canon_n)}
    ph0s, s_freqs, polys = [], [], []
    for signs in itertools.product((1, -1), repeat=len(canon_n)):
        s_freqs.append(sum(signs))
        arg = -(np.pi / 2) * sum(s * m for s, m in zip(signs, canon_n)) - (np.pi / 4) * s_freqs[-1]
        ph0s.append(complex(np.exp(1j * arg)))
        poly = np.ones(1, dtype=complex)
        for s, m in zip(signs, canon_n):
            poly = np.convolve(poly, amps[m] if s > 0 else np.conj(amps[m]))[:_OSC_N_TERMS]
        polys.append(poly)
    return ph0s, np.array(s_freqs), np.array(polys)


@functools.lru_cache(maxsize=64)
def _osc_plan(canons: "tuple[Site, ...]") -> tuple:
    """What _osc_block needs of an orbit set, built once: the panel count
    of its longest T0, its horizons T0 in ascending order, and per orbit
    its Gauss kernel (_osc_kw), the index of its T0 among the horizons, per
    sign pattern the constant phase, the row (S + d) / 2 of its frequency S
    and its polynomial (_osc_tail_data), and the prefactor -i i^|n|."""
    d = len(canons[0])
    horizons = sorted({_osc_t0(canon[0]) for canon in canons})
    orbits = []
    for canon in canons:
        ph0s, s_freqs, polys = _osc_tail_data(canon)
        orbits.append((_osc_kw(canon), horizons.index(_osc_t0(canon[0])), ph0s, (s_freqs + d) // 2, polys,
                       -1j * _IPOW[sum(canon) % 4]))
    return max(kw.shape[1] for kw, *_ in orbits), horizons, orbits


def _osc_block(canons: "list[Site]", lams: np.ndarray):
    """High-accuracy kernel values for Im(lam) <= 0, including real lam, per
    orbit (rows) and lambda (columns), with error estimates.

    Numeric Gauss-Legendre integral on [0, T0] plus 2^d analytic mode tails:
    beyond T0 each J-product factor is replaced by its two-sided large-t
    expansion, turning the remainder into sums of t^(-d/2-q) e^(i(S-lam)t)
    integrals with integer S in [-d, d].  They depend on a sign pattern
    only through its frequency S, so each chunk of lambdas makes one
    tail_integral_vec call for all d + 1 frequencies at every T0 of the
    block, and an orbit sums its 2^d patterns' polynomials against them in
    one stacked contraction, added up in pattern order.  The per-orbit
    constants come from the orbit set's _osc_plan; a call does only the
    per-lambda work.
    """
    if (lams.imag > 1e-15).any():
        raise ValueError("oscillatory engine requires Im(lambda) <= 0")
    d = len(canons[0])
    n_panels, horizons, orbits = _osc_plan(tuple(canons))
    chunk = max(1, _CHUNK_BYTES // (16 * n_panels))
    freqs = np.arange(-d, d + 1, 2)
    s_exps = 0.5 * d + np.arange(_OSC_N_TERMS, dtype=float)
    mode_factor = (2.0 / np.pi) ** (0.5 * d) * 0.5 ** d
    vals = np.empty((len(canons), lams.size), dtype=complex)
    errs = np.empty(vals.shape)
    for lo in range(0, lams.size, chunk):
        lam = lams[lo:lo + chunk]
        cols = slice(lo, lo + lam.size)
        row, panel = _osc_phases(lam, n_panels)
        w = (freqs[:, None] - lam).ravel()
        tails = tail_integral_vec(s_exps, w, horizons).reshape(len(horizons), freqs.size, lam.size, -1)
        for u, (kw, h, ph0s, at_freq, polys, pref) in enumerate(orbits):
            pieces = tails[h][at_freq]
            sums = np.einsum("pkj,pj->pk", pieces, polys)
            tail = sum(ph0 * part for ph0, part in zip(ph0s, sums))
            trunc = sum(np.abs(polys[:, -1, None] * pieces[:, :, -1]))
            vals[u, cols] = value = pref * (_osc_main(kw, row, panel) + mode_factor * tail)
            errs[u, cols] = mode_factor * trunc + 1e-14 * (1.0 + np.abs(value))
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

    engine "auto" routes each lambda as ``green_auto`` does; "torus" and
    "time" force that engine, with the same refusals as ``green_torus``
    and ``green_time``.
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
        dist = _torus_distance(lams, d)
        torus = np.ones(lams.size, dtype=bool)
    elif engine == "auto":
        dist = dist_to_band(lams, d)
        on_band = dist == 0.0
        if on_band.any():
            raise ValueError(f"lambda={lams[on_band][0]} lies on the band; use green_boundary")
        torus = dist >= (_DIST_SWITCH if d >= 3 else _DIST_MIN_LOW_D)
        if not torus.all():
            require_dimension_3(d, f"green_auto within {_DIST_MIN_LOW_D} of the band")
    else:
        raise ValueError(f"unknown engine {engine!r}")
    # per lambda: the torus grid size auto_n_quad(dist), or 0 for the
    # oscillatory engine; one memoised block per value
    n_quad = np.zeros(lams.size, dtype=int)
    n_quad[torus] = auto_n_quad(dist[torus])
    vals = np.empty((len(canons), lams.size), dtype=complex)
    errs = np.empty(vals.shape)
    for nq in sorted(set(n_quad.tolist())):
        cols = n_quad == nq
        if nq:
            block = _memo_block("torus", _torus_block, canons, lams[cols], (nq,))
        else:
            block = _memo_block("osc", _osc_block, canons, lams[cols])
        vals[:, cols], errs[:, cols] = block
    return vals, errs


def green_auto(n: Sequence[int], lam: complex, d: int) -> GreenValue:
    """Dispatcher used by determinant assembly (through ``green_orbits``).

    At d >= 3: the oscillatory time engine within _DIST_SWITCH =
    _NQ_RATE / _NQ_MIN (1.25) of the band, torus quadrature from there out.
    The oscillatory engine costs about the same at every distance.  The
    torus grid has _NQ_RATE / dist points per axis until it reaches its
    _NQ_MIN floor at 1.25, so closer in it costs more the closer lam is.
    From 1.25 out its cost is flat, and it stays accurate for every lam,
    whereas the oscillatory engine's fixed Gauss panels stop resolving
    e^(-i lam t) once |lam| is large.

    At d = 1, 2 the oscillatory engine does not exist: the torus serves
    distances >= _DIST_MIN_LOW_D (0.35) and closer points are refused.
    """
    d = validate_dimension(d)
    return _one(green_orbits((_orbit(n, d),), [complex(lam)], d))


# -------------------------------------------------------------- boundary path

def green_boundary_orbits(canons: "Sequence[Site]", lambda0s: "Sequence[float]",
                          plus: "Sequence[bool]", d: int) -> "tuple[np.ndarray, np.ndarray]":
    """Boundary values G(n, lambda0 + i0) where plus[k], else G(n, lambda0 -
    i0), for every orbit (rows) and band point lambda0 (columns), d >= 3,
    with error estimates; shapes as in ``green_orbits``."""
    lam0 = np.asarray(lambda0s, dtype=float)
    _require_finite(lam0, "lambda0")
    off = np.abs(lam0) > d
    if off.any():
        raise ValueError(f"lambda0={lam0[off][0]} is off the band [-{d},{d}]; use green_torus")
    return _memo_block("osc", _osc_block, tuple(canons), lam0.astype(complex), up=plus)


def green_boundary(n: Sequence[int], lambda0: float, side: str, d: int) -> GreenValue:
    """Boundary value G(n, lambda0 +/- i0) on the band [-d, d], d >= 3.

    The oscillatory time engine evaluates directly at real lambda0: its
    analytic tail sums are valid on the closed lower half plane, which
    gives the minus side; the plus side is its conjugate, served from the
    same cached value.  The band edges need no special treatment.
    """
    d = require_dimension_3(d, "green_boundary")
    if side not in ("plus", "minus"):
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")
    return _one(green_boundary_orbits((_orbit(n, d),), [lambda0], [side == "plus"], d))
