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
and error estimates.  ``green_many`` (interior, with the engine routing of
``green_auto`` or one forced engine) and ``green_boundary_many`` serve
such blocks to determinant assembly; ``green_auto``, ``green_torus``,
``green_time`` and ``green_boundary`` are their one-value cases.

* The oscillatory engine walks the lambda axis in chunks whose phase
  block stays within _CHUNK_BYTES (512 KB).  In a chunk the phases are
  built once and shared by every orbit, and the mode tails of every
  (T0, frequency, lambda) come from one tail_integral_vec call, shared by
  the orbits with that T0 (T0 depends only on max_j |n_j|).  The Gauss
  kernels of the orbits with one max_j |n_j| come from one Bessel grid.
* The torus engine builds 1 / (h(k) - lam) on the folded grid once per
  lambda, for a chunk of lambdas at a time, and contracts it against each
  orbit's separable cosine weights.  The integrand is symmetric in the
  first three axes, so it is built on their sorted index triples only
  (one sixth of the grid), against weights summed over the orderings.
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
memo: ``green_many(engine="time")`` calls ``_time_block`` directly, which
conjugates for Im lam > 0 (its damping needs Im lam <= 0) and applies no
other symmetry.

The torus and the oscillatory engine keep one memo each: a dict of at
most _MEMO_SIZE values keyed by (orbit, quadrant image of lam), plus the
grid size for the torus, evicting the least recently used entry.  A
block looks every key up once, computes the missing ones in at most one
core call and unfolds, in one pass.  Repeated evaluations during
determinant assembly are therefore free and bit-identical.
``green_cache_info`` reports each memo's hits, misses and size;
``clear_green_cache`` empties them all.
"""

from __future__ import annotations

import functools
import itertools
import math
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
# values kept per engine cache; the largest benchmark run (a cold eigs on
# the 5-site draw 2 of perfbench's panel) fills 5325 oscillatory entries,
# so no benchmark run evicts
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
    """Bounded map from a kernel key to (value, err_estimate), with hit and
    miss counts; beyond _MEMO_SIZE entries the least recently used goes."""

    def __init__(self) -> None:
        self.data: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0

    def clear(self) -> None:
        self.data.clear()
        self.hits = self.misses = 0


_MEMOS = {"torus": _Memo(), "osc": _Memo()}


def clear_green_cache() -> None:
    for memo in _MEMOS.values():
        memo.clear()
    _OSC_KW.clear()
    for cache in (_osc_nodes, _osc_tail_data, _one_chunk_triples, _torus_chunk_cached):
        cache.cache_clear()


def green_cache_info() -> dict:
    """Per memoised engine ("torus", "osc"): memo hits, misses and size since
    the last ``clear_green_cache``.  A request counts once per (orbit,
    lambda) pair, a hit when the value was already known."""
    return {name: {"hits": m.hits, "misses": m.misses, "size": len(m.data)}
            for name, m in _MEMOS.items()}


def _memo_block(engine: str, core, canons: "list[Site]", lams: np.ndarray, extra: tuple = (),
                up: "Sequence[bool] | None" = None):
    """core's block (values, errors) of shape (len(canons), len(lams)),
    served from the engine's memo where it can be, in one pass.

    The memo holds values on the quadrant Re lam >= 0, Im lam <= 0 only,
    keyed (canon, lam, *extra).  Each lambda is looked up as its image q =
    |Re lam| - i |Im lam| there and unfolded by the exact symmetries of the
    module docstring: conjugated where up[k] differs from (Re lam < 0), and
    times -(-1)^|n| where Re lam < 0.  ``up`` defaults to Im lam > 0;
    ``green_boundary_many`` passes its side, its lambdas being real.

    Every (orbit, distinct image) key is looked up once.  core(canons, qs,
    *extra) is then called once, on the orbits and images that have a
    missing key, or not at all when none is missing; only the missing keys
    are stored.  Each (orbit, lambda) pair counts once: a miss where its
    key was missing, else a hit (so a repeat of an image after its miss is
    a hit).  A lambda is a hit only when its image is bitwise a known key;
    there is no tolerance.
    """
    memo = _MEMOS[engine]
    data = memo.data
    lam_list = lams.tolist()
    if up is None:
        up = [lam.imag > 0 for lam in lam_list]
    quad = [complex(abs(lam.real), 0.0 - abs(lam.imag)) for lam in lam_list]
    uniq = list(dict.fromkeys(quad))
    keys = [[(canon, q, *extra) for q in uniq] for canon in canons]
    got = [[data.get(key) for key in row] for row in keys]
    missing = [(u, k) for u, row in enumerate(got) for k, g in enumerate(row) if g is None]
    memo.misses += len(missing)
    memo.hits += len(canons) * len(quad) - len(missing)
    for row, known in zip(keys, got):
        for key, g in zip(row, known):
            if g is not None:
                data.move_to_end(key)
    if missing:
        rows = sorted({u for u, _ in missing})
        cols = sorted({k for _, k in missing})
        v, e = core([canons[u] for u in rows], np.array([uniq[k] for k in cols]), *extra)
        v, e = v.tolist(), e.tolist()
        at_row = {u: i for i, u in enumerate(rows)}
        at_col = {k: j for j, k in enumerate(cols)}
        for u, k in missing:
            i, j = at_row[u], at_col[k]
            got[u][k] = data[keys[u][k]] = (v[i][j], e[i][j])
            if len(data) > _MEMO_SIZE:
                data.popitem(last=False)
    at = {q: k for k, q in enumerate(uniq)}
    # per lambda: its image's column, whether the value is conjugated,
    # whether lam -> -lam
    folds = [(at[q], bool(u) != (lam.real < 0), lam.real < 0) for q, lam, u in zip(quad, lam_list, up)]
    # the value changes sign under lam -> -lam where |n| is even
    flips = [sum(canon) % 2 == 0 for canon in canons]
    vals = np.array([[_unfold(row[k][0], c, n and f) for k, c, n in folds]
                     for row, f in zip(got, flips)], dtype=complex).reshape(len(canons), len(quad))
    errs = np.array([[row[k][1] for k, _, _ in folds] for row in got]).reshape(vals.shape)
    return vals, errs


def _unfold(value: complex, conj: bool, negate: bool) -> complex:
    if conj:
        value = value.conjugate()
    return -value if negate else value


def _canon(n: Sequence[int]) -> Site:
    """Representative of the signed-permutation orbit of n (kernel symmetry)."""
    return tuple(sorted((abs(int(c)) for c in n), reverse=True))


def _orbit(n: Sequence[int], d: int) -> Site:
    """_canon(n) for a site that must have exactly d coordinates."""
    canon = _canon(n)
    if len(canon) != d:
        raise ValueError(f"site {tuple(n)} has {len(canon)} coordinates, expected {d}")
    return canon


def _orbits(sites: "Sequence[Sequence[int]]", d: int) -> "tuple[list[Site], np.ndarray]":
    """The distinct orbits of ``sites`` and, per site, its orbit's row."""
    rows: dict = {}
    index = [rows.setdefault(_orbit(n, d), len(rows)) for n in sites]
    return list(rows), np.array(index, dtype=int)


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


def _torus_low_d(u: np.ndarray, lam: complex, N: int) -> np.ndarray:
    """Folded trapezoidal values with N points per dimension at d = 1, 2,
    one per orbit of the weights u from _torus_weights."""
    d = u.shape[1]
    c = np.cos(2.0 * np.pi * np.arange(u.shape[2]) / N)
    if d == 1:
        return np.array([np.sum(uo[0] / (c - lam)) for uo in u]) / float(N)
    r = 1.0 / (c[:, None] + c[None, :] - lam)
    return np.array([np.einsum("a,a->", uo[0], np.einsum("ab,b->a", r, uo[1])) for uo in u]) / float(N) ** 2


_TRIPLE_CHUNK = _CHUNK_BYTES // 64


def _triple_chunks(m1: int):
    """The index triples a <= b <= c of a folded grid axis of m1 points, in
    chunks of at most _TRIPLE_CHUNK triples: (a, b, c) index arrays."""
    parts = []
    for c in range(m1):
        a, b = np.triu_indices(c + 1)
        parts.append((a, b, np.full(a.size, c)))
        if sum(p[0].size for p in parts) >= _TRIPLE_CHUNK or c == m1 - 1:
            yield tuple(np.concatenate(x) for x in zip(*parts))
            parts = []


def _symmetric_weights(u: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Per orbit and sorted triple (a, b, c): the sum of u_0 u_1 u_2 over
    the distinct orderings of the triple, shape (orbits, triples)."""
    total = sum(u[:, 0, p] * u[:, 1, q] * u[:, 2, r] for p, q, r in itertools.permutations((a, b, c)))
    # each distinct ordering appears 6 / (number of distinct orderings) times
    return total / np.where(a == c, 6.0, np.where((a == b) | (b == c), 2.0, 1.0))


def _torus_chunk(canons: "list[Site]", n_quad: int, a, b, c) -> tuple:
    """One chunk of fine-grid triples: (a, b, c, even, fine weights, coarse
    weights), ``even`` indexing the triples of even points, which form the
    coarse grid."""
    even = np.nonzero((a % 2 == 0) & (b % 2 == 0) & (c % 2 == 0))[0]
    return (a, b, c, even,
            _symmetric_weights(_torus_weights(canons, 2 * n_quad), a, b, c),
            _symmetric_weights(_torus_weights(canons, n_quad), a[even] // 2, b[even] // 2, c[even] // 2))


@functools.lru_cache(maxsize=4)
def _one_chunk_triples(m1: int) -> tuple:
    return next(_triple_chunks(m1))


@functools.lru_cache(maxsize=64)
def _torus_chunk_cached(canon: Site, n_quad: int) -> tuple:
    return _torus_chunk([canon], n_quad, *_one_chunk_triples(n_quad + 1))


def _torus_chunks(canons: "list[Site]", n_quad: int):
    """_torus_chunk over the fine grid's triples.  A grid of one chunk (the
    n_quad = 32 floor that green_auto uses has 6,545 triples) is cached
    per orbit; larger ones are built as they are walked."""
    m1 = n_quad + 1
    if m1 * (m1 + 1) * (m1 + 2) // 6 > _TRIPLE_CHUNK:
        return (_torus_chunk(canons, n_quad, *abc) for abc in _triple_chunks(m1))
    parts = [_torus_chunk_cached(canon, n_quad) for canon in canons]
    a, b, c, even = parts[0][:4]
    return [(a, b, c, even, np.concatenate([p[4] for p in parts]), np.concatenate([p[5] for p in parts]))]


def _torus_block(canons: "list[Site]", lams: np.ndarray, n_quad: int):
    """Torus values on the doubled grid (2 n_quad points per dimension) with
    the difference from n_quad points as error estimate, per orbit (rows)
    and lambda (columns).

    (2 pi)^(-d) int cos(n1 k1)...cos(nd kd) / (sum cos kj - lam) dk over the
    d-torus; evenness in each kj folds the grid to N/2 + 1 points per axis.
    From d = 3 up, 1 / (h(k) - lam) = (x + i y) / (x^2 + y^2), x = h(k) -
    Re lam and y = Im lam, is symmetric in the first three axes: it is
    built on their sorted index triples only, per point of the other d - 3
    axes, for a chunk of lambdas at a time, and contracted against each
    orbit's weights summed over the orderings of a triple.  The coarse
    grid is the fine grid's even points, so it reads the same values.
    """
    coarse = _torus_weights(canons, n_quad)
    fine = _torus_weights(canons, 2 * n_quad)
    n_orb, d, m1 = fine.shape
    if d < 3:
        vals = np.empty((n_orb, lams.size), dtype=complex)
        errs = np.empty(vals.shape)
        for k, lam in enumerate(lams.tolist()):
            v1, v2 = _torus_low_d(coarse, lam, n_quad), _torus_low_d(fine, lam, 2 * n_quad)
            vals[:, k] = v2
            errs[:, k] = np.abs(v2 - v1)
        return vals, errs
    cos_k = np.cos(2.0 * np.pi * np.arange(m1) / (2 * n_quad))
    acc_c = np.zeros((n_orb, lams.size), dtype=complex)
    acc_f = np.zeros((n_orb, lams.size), dtype=complex)
    for a, b, c, even, s_f, s_c in _torus_chunks(canons, n_quad):
        h3 = cos_k[a] + cos_k[b] + cos_k[c]
        step = max(1, _CHUNK_BYTES // (24 * a.size))
        for idx in itertools.product(range(m1), repeat=d - 3):
            w_f = np.ones(n_orb)
            w_c = np.ones(n_orb)
            for j, i in enumerate(idx):
                w_f = w_f * fine[:, j + 3, i]
                w_c = w_c * coarse[:, j + 3, i // 2]
            on_coarse = all(i % 2 == 0 for i in idx)
            h = h3 + sum(cos_k[i] for i in idx)
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
    dist = _torus_distance(lam, d)
    if n_quad is None:
        n_quad = auto_n_quad(dist)
    elif n_quad < 8 or n_quad % 2:
        raise ValueError(f"n_quad must be even and >= 8, got {n_quad}")
    return _one(_memo_block("torus", _torus_block, [_orbit(n, d)], np.array([lam]), (n_quad,)))


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
    return _one(green_many([n], [complex(lam)], d, engine="time"))


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

def _osc_t0(canon_n: Site) -> float:
    return _OSC_T0 + _OSC_T0_PER_ORDER * canon_n[0]


@functools.lru_cache(maxsize=32)
def _osc_nodes(T0: float) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = gl_panels(0.0, T0, _OSC_PANEL, npts=_OSC_NPTS)
    # _osc_main's factoring needs whole panels, all of length _OSC_PANEL
    assert nodes.size == _OSC_NPTS * T0 / _OSC_PANEL, f"T0={T0} is not a whole number of panels"
    return nodes, weights


# _osc_kw's values per orbit, least recently used first
_OSC_KW: OrderedDict = OrderedDict()
_OSC_KW_SIZE = 4096


def _osc_kws(canons: "list[Site]") -> "list[np.ndarray]":
    """_osc_kw of each orbit.  Its Bessel rows depend on the orbit only
    through n0 = max_j |n_j| (the nodes through T0, the orders up to n0),
    so the orbits not yet known share one bessel_j_grid call per n0."""
    missing = [canon for canon in dict.fromkeys(canons) if canon not in _OSC_KW]
    for n0 in sorted({canon[0] for canon in missing}):
        group = [canon for canon in missing if canon[0] == n0]
        nodes, weights = _osc_nodes(_osc_t0(group[0]))
        rows = bessel_j_grid(nodes, n0)
        for canon in group:
            kern = rows[n0].copy()
            for m in canon[1:]:
                kern *= rows[m]
            _OSC_KW[canon] = np.ascontiguousarray((weights * kern).reshape(-1, _OSC_NPTS).T)
    for canon in canons:
        _OSC_KW.move_to_end(canon)
    kws = [_OSC_KW[canon] for canon in canons]
    while len(_OSC_KW) > _OSC_KW_SIZE:
        _OSC_KW.popitem(last=False)
    return kws


def _osc_kw(canon_n: Site) -> np.ndarray:
    """Gauss weight times prod_j J_(n_j) at each numeric node, shape
    (_OSC_NPTS, panels): row j holds node j of every panel (real;
    _osc_main applies the phases)."""
    return _osc_kws([canon_n])[0]


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


@functools.lru_cache(maxsize=4096)
def _osc_tail_data(canon_n: Site) -> tuple:
    """Per sign pattern s in {+,-}^d: (constant phase, integer frequency S,
    coefficient polynomial of prod_j A or conj(A) truncated at _OSC_N_TERMS)."""
    d = len(canon_n)
    amps = {m: hankel_amplitude_coeffs(m, _OSC_N_TERMS) for m in set(canon_n)}
    out = []
    for signs in itertools.product((1, -1), repeat=d):
        s_freq = sum(signs)
        arg = -(np.pi / 2) * sum(s * m for s, m in zip(signs, canon_n)) - (np.pi / 4) * s_freq
        ph0 = complex(np.exp(1j * arg))
        poly = np.ones(1, dtype=complex)
        for s, m in zip(signs, canon_n):
            factor = amps[m] if s > 0 else np.conj(amps[m])
            poly = np.convolve(poly, factor)[:_OSC_N_TERMS]
        out.append((ph0, s_freq, poly))
    return tuple(out)


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
    one stacked contraction, added up in pattern order.
    """
    if (lams.imag > 1e-15).any():
        raise ValueError("oscillatory engine requires Im(lambda) <= 0")
    d = len(canons[0])
    kws = _osc_kws(canons)
    n_panels = max(kw.shape[1] for kw in kws)
    chunk = max(1, _CHUNK_BYTES // (16 * n_panels))
    freqs = np.arange(-d, d + 1, 2)
    s_exps = 0.5 * d + np.arange(_OSC_N_TERMS, dtype=float)
    mode_factor = (2.0 / np.pi) ** (0.5 * d) * 0.5 ** d
    horizons = sorted({_osc_t0(canon) for canon in canons})
    # per orbit: its horizon, and per sign pattern the constant phase, the
    # frequency's row and the coefficient polynomial
    patterns = []
    for canon in canons:
        data = _osc_tail_data(canon)
        patterns.append((horizons.index(_osc_t0(canon)), [ph0 for ph0, _, _ in data],
                         np.array([(s_freq + d) // 2 for _, s_freq, _ in data]),
                         np.array([poly for _, _, poly in data])))
    vals = np.empty((len(canons), lams.size), dtype=complex)
    errs = np.empty(vals.shape)
    for lo in range(0, lams.size, chunk):
        lam = lams[lo:lo + chunk]
        cols = slice(lo, lo + lam.size)
        row, panel = _osc_phases(lam, n_panels)
        w = (freqs[:, None] - lam).ravel()
        tails = tail_integral_vec(s_exps, w, horizons).reshape(len(horizons), freqs.size, lam.size, -1)
        for u, (canon, (h, ph0s, at_freq, polys)) in enumerate(zip(canons, patterns)):
            sums = np.einsum("pkj,pj->pk", tails[h][at_freq], polys)
            cut = np.abs(polys[:, -1, None] * tails[h][at_freq, :, -1])
            tail = np.zeros(lam.size, dtype=complex)
            trunc = np.zeros(lam.size)
            for p, ph0 in enumerate(ph0s):
                tail += ph0 * sums[p]
                trunc += cut[p]
            pref = -1j * _IPOW[sum(canon) % 4]
            vals[u, cols] = value = pref * (_osc_main(kws[u], row, panel) + mode_factor * tail)
            errs[u, cols] = mode_factor * trunc + 1e-14 * (1.0 + np.abs(value))
    return vals, errs


# ------------------------------------------------------------ front doors

def _one(block) -> GreenValue:
    vals, errs = block
    return GreenValue(complex(vals[0, 0]), float(errs[0, 0]))


def green_many(
    sites: "Sequence[Sequence[int]]",
    lams: "Sequence[complex]",
    d: int,
    engine: str = "auto",
) -> "tuple[np.ndarray, np.ndarray]":
    """Kernel values off the band for every site (rows) at every lambda
    (columns), and their error estimates: two arrays of shape (len(sites),
    len(lams)).  Sites of one orbit share a row of work.

    engine "auto" routes each lambda as ``green_auto`` does; "torus" and
    "time" force that engine, with the same refusals as ``green_torus``
    and ``green_time``.
    """
    d = validate_dimension(d)
    lams = np.asarray(lams, dtype=complex)
    canons, index = _orbits(sites, d)
    if engine == "time":
        flat = np.abs(lams.imag) < 1e-6
        if flat.any():
            raise ValueError(
                f"green_time needs |Im lambda| >= 1e-6 (got {lams[flat][0].imag:.2e}): "
                "the truncation tail is uncontrolled on the real axis; use green_boundary"
            )
        vals, errs = _time_block(canons, lams)
        return vals[index], errs[index]
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
    return vals[index], errs[index]


def green_auto(n: Sequence[int], lam: complex, d: int) -> GreenValue:
    """Dispatcher used by determinant assembly (through ``green_many``).

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
    return _one(green_many([n], [complex(lam)], d))


# -------------------------------------------------------------- boundary path

def green_boundary_many(
    sites: "Sequence[Sequence[int]]",
    lambda0s: "Sequence[float]",
    plus: "Sequence[bool]",
    d: int,
) -> "tuple[np.ndarray, np.ndarray]":
    """Boundary values G(n, lambda0 + i0) where plus[k], else G(n, lambda0 -
    i0), for every site (rows) and band point lambda0 (columns), d >= 3,
    with error estimates; shapes as in ``green_many``."""
    d = require_dimension_3(d, "green_boundary")
    lam0 = np.asarray(lambda0s, dtype=float)
    off = np.abs(lam0) > d
    if off.any():
        raise ValueError(f"lambda0={lam0[off][0]} is off the band [-{d},{d}]; use green_torus")
    canons, index = _orbits(sites, d)
    vals, errs = _memo_block("osc", _osc_block, canons, lam0.astype(complex), up=plus)
    return vals[index], errs[index]


def green_boundary(n: Sequence[int], lambda0: float, side: str, d: int) -> GreenValue:
    """Boundary value G(n, lambda0 +/- i0) on the band [-d, d], d >= 3.

    The oscillatory time engine evaluates directly at real lambda0: its
    analytic tail sums are valid on the closed lower half plane, which
    gives the minus side; the plus side is its conjugate, served from the
    same cached value.  The band edges need no special treatment.
    """
    if side not in ("plus", "minus"):
        require_dimension_3(d, "green_boundary")
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")
    return _one(green_boundary_many([n], [lambda0], [side == "plus"], d))
