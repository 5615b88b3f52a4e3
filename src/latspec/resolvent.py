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

``green_auto`` picks the torus engine far from the band and the
oscillatory engine close to it; d = 1 and 2 are refused there, at the
entry.  ``green_boundary`` gives the boundary values G(n, lambda0 -/+ i0)
on the band through the oscillatory engine alone; its independent checks
are Watson's closed form at the band edge and the small-epsilon limit of
the interior engines.

Two exact symmetries are applied in one place each.  G depends on n only
through its orbit under sign flips and coordinate permutations: ``_orbit``
maps every site to the orbit's representative and checks that it has d
coordinates.  The time integrand pairs e^(-i lam t) with the forward
evolution kernel, whose quarter-turn phase is i^(+|n|) per the Fourier
expansion of e^(i t cos k); damping then requires Im(lam) <= 0, and
``_lower_half`` reaches the opposite half plane through the reflection
G(n, conj lam) = conj G(n, lam).  The plus side of the band is the
reflection of the minus side.

Each engine core keeps its own ``functools.lru_cache`` of at most
``_MEMO_SIZE`` values, keyed by (orbit, lam, d), so repeated evaluations
during determinant assembly are free and bit-identical;
``clear_green_cache`` empties them all.
"""

from __future__ import annotations

import functools
import itertools
import math
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

# green_auto uses the torus engine at distances to the band >= this, the
# oscillatory time engine closer in
_DIST_SWITCH = 0.35
# quadrature size law of auto_n_quad
_NQ_RATE = 40.0
_NQ_MIN = 32
_NQ_MAX = 512
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
# values kept per engine cache; the largest benchmark run (eigs on the
# 5-site draw 2 of perfbench's panel) fills 3635 torus and 3170 oscillatory
# entries, so no benchmark run evicts
_MEMO_SIZE = 8192


def clear_green_cache() -> None:
    for cache in (_torus_cached, _time_cached, _osc_cached,
                  _osc_nodes, _osc_kernel, _osc_tail_data):
        cache.cache_clear()


@dataclass(frozen=True)
class GreenValue:
    """One kernel value and its error estimate.

    Memoized per symmetry orbit of the site, so one value answers every
    site of the orbit (and its reflection answers conj lambda); it
    therefore records neither the site nor lambda.
    """

    value: complex
    err_estimate: float


def _canon(n: Sequence[int]) -> Site:
    """Representative of the signed-permutation orbit of n (kernel symmetry)."""
    return tuple(sorted((abs(int(c)) for c in n), reverse=True))


def _orbit(n: Sequence[int], d: int) -> Site:
    """_canon(n) for a site that must have exactly d coordinates."""
    canon = _canon(n)
    if len(canon) != d:
        raise ValueError(f"site {tuple(n)} has {len(canon)} coordinates, expected {d}")
    return canon


def _conj(gv: GreenValue) -> GreenValue:
    return GreenValue(gv.value.conjugate(), gv.err_estimate)


def _lower_half(core, canon: Site, lam: complex, d: int) -> GreenValue:
    """core(canon, lam, d) for a core that needs Im(lam) <= 0, extended to
    the upper half plane by G(n, conj lam) = conj G(n, lam)."""
    if lam.imag > 0:
        return _conj(core(canon, lam.conjugate(), d))
    return core(canon, lam, d)


# ---------------------------------------------------------------- torus path

def _torus_value(canon_n: Site, lam: complex, d: int, N: int) -> complex:
    """Folded trapezoidal value with N points per dimension (N even).

    (2 pi)^(-d) int cos(n1 k1)...cos(nd kd) / (sum cos kj - lam) dk over the
    d-torus; evenness in each kj folds the grid to N/2 + 1 points per axis.
    """
    m = N // 2
    k = 2.0 * np.pi * np.arange(m + 1) / N
    w = np.full(m + 1, 2.0)
    w[0] = 1.0
    w[-1] = 1.0
    c = np.cos(k)
    u = [w * np.cos(canon_n[j] * k) for j in range(d)]
    if d == 1:
        acc = complex(np.sum(u[0] / (c - lam)))
    else:
        # one 2-d slab over the first two axes per point of the other d - 2
        # (a single empty point when d = 2)
        c01 = c[:, None] + c[None, :]
        acc = 0.0 + 0.0j
        for idx in itertools.product(range(m + 1), repeat=d - 2):
            shift = sum(c[i] for i in idx) - lam
            wex = 1.0
            for j, i in enumerate(idx):
                wex *= u[j + 2][i]
            if wex == 0.0:
                continue
            r = 1.0 / (c01 + shift)
            acc += wex * complex(u[0] @ (r @ u[1]))
    return acc / float(N) ** d


def auto_n_quad(dist: float) -> int:
    """Quadrature size law: points per dimension ~ _NQ_RATE / dist, for
    lambda at distance dist > 0 from the band, clipped to
    [_NQ_MIN, _NQ_MAX] and rounded up to even."""
    n = int(min(max(math.ceil(_NQ_RATE / dist), _NQ_MIN), _NQ_MAX))
    return n + (n % 2)


def green_torus(
    n: Sequence[int],
    lam: complex,
    d: int,
    n_quad: int | None = None,
) -> GreenValue:
    """Momentum-representation kernel value with a doubled-grid error estimate.

    The returned value is computed on the doubled grid (2 n_quad points per
    dimension); err_estimate is the difference between the two resolutions.
    """
    d = validate_dimension(d)
    lam = complex(lam)
    dist = dist_to_band(lam, d)
    if dist < _TORUS_DELTA_MIN:
        raise ValueError(
            f"lambda={lam} is within {_TORUS_DELTA_MIN} of the band [-{d},{d}] "
            "(dist={:.3e}); use green_boundary for on-band limits".format(dist)
        )
    if n_quad is None:
        n_quad = auto_n_quad(dist)
    else:
        n_quad = int(n_quad)
        if n_quad < 8:
            raise ValueError(f"n_quad must be >= 8, got {n_quad}")
        n_quad += n_quad % 2
    return _torus_cached(_orbit(n, d), lam, d, n_quad)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _torus_cached(canon: Site, lam: complex, d: int, n_quad: int) -> GreenValue:
    v1 = _torus_value(canon, lam, d, n_quad)
    v2 = _torus_value(canon, lam, d, 2 * n_quad)
    return GreenValue(v2, abs(v2 - v1))


# ----------------------------------------------------------- damped time path

def green_time(n: Sequence[int], lam: complex, d: int) -> GreenValue:
    """Time-representation kernel value for lam off the real axis.

    Quadrature of -i int_0^T e^(-i lam t) K_n(t) dt with the forward kernel
    K_n(t) = i^(|n|) prod J_(n_j)(t); the horizon T is set so the neglected
    tail e^(T Im lam)/|Im lam| (using |K_n| <= 1) is below _TIME_TOL, capped
    at 1200 with the cap reflected honestly in err_estimate.
    """
    d = validate_dimension(d)
    lam = complex(lam)
    if abs(lam.imag) < 1e-6:
        raise ValueError(
            f"green_time needs |Im lambda| >= 1e-6 (got {lam.imag:.2e}): "
            "the truncation tail is uncontrolled on the real axis; use green_boundary"
        )
    return _lower_half(_time_cached, _orbit(n, d), lam, d)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _time_cached(canon: Site, lam: complex, d: int) -> GreenValue:
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
    return GreenValue(complex(vals[0]), err)


# ------------------------------------------------------ oscillatory time path

def _osc_t0(canon_n: Site) -> float:
    return _OSC_T0 + _OSC_T0_PER_ORDER * canon_n[0]


@functools.lru_cache(maxsize=32)
def _osc_nodes(T0: float) -> tuple[np.ndarray, np.ndarray]:
    return gl_panels(0.0, T0, 0.5, npts=10)


@functools.lru_cache(maxsize=4096)
def _osc_kernel(canon_n: Site) -> np.ndarray:
    """prod_j J_(n_j) on the numeric nodes (real; phases applied by callers)."""
    nodes, _ = _osc_nodes(_osc_t0(canon_n))
    rows = bessel_j_grid(nodes, canon_n[0])
    kern = rows[canon_n[0]].copy()
    for m in canon_n[1:]:
        kern *= rows[m]
    return kern


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


def _green_osc(canon_n: Site, lam: complex, d: int) -> tuple[complex, float]:
    """High-accuracy kernel value for Im(lam) <= 0, including real lam.

    Numeric Gauss-Legendre integral on [0, T0] plus 2^d analytic mode tails:
    beyond T0 each J-product factor is replaced by its two-sided large-t
    expansion, turning the remainder into sums of t^(-d/2-q) e^(i(S-lam)t)
    integrals with integer S in [-d, d].
    """
    if lam.imag > 1e-15:
        raise ValueError("oscillatory engine requires Im(lambda) <= 0")
    T0 = _osc_t0(canon_n)
    nodes, weights = _osc_nodes(T0)
    kern = _osc_kernel(canon_n)
    main = np.sum(weights * np.exp(-1j * lam * nodes) * kern)
    mode_factor = (2.0 / np.pi) ** (0.5 * d) * 0.5 ** d
    s_exps = 0.5 * d + np.arange(_OSC_N_TERMS, dtype=float)
    tail = 0.0 + 0.0j
    trunc = 0.0
    for ph0, s_freq, poly in _osc_tail_data(canon_n):
        omega = s_freq - lam
        pieces = tail_integral_vec(s_exps[: poly.size], omega, T0)
        tail += ph0 * np.dot(poly, pieces)
        trunc += abs(poly[-1] * pieces[-1])
    pref = -1j * _IPOW[sum(canon_n) % 4]
    value = pref * (main + mode_factor * tail)
    err = mode_factor * trunc + 1e-14 * (1.0 + abs(value))
    return complex(value), float(err)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _osc_cached(canon: Site, lam: complex, d: int) -> GreenValue:
    return GreenValue(*_green_osc(canon, lam, d))


def green_auto(n: Sequence[int], lam: complex, d: int) -> GreenValue:
    """Dispatcher used by determinant assembly: torus quadrature while the
    auto grid stays cheap (roughly 40/dist points per axis), oscillatory
    time engine closer in where its flat ~ms cost wins; the latter needs
    d >= 3."""
    d = validate_dimension(d)
    lam = complex(lam)
    dist = dist_to_band(lam, d)
    if dist == 0.0:
        raise ValueError(f"lambda={lam} lies on the band; use green_boundary")
    if dist >= _DIST_SWITCH:
        return green_torus(n, lam, d)
    d = require_dimension_3(d, f"green_auto within {_DIST_SWITCH} of the band")
    return _lower_half(_osc_cached, _orbit(n, d), lam, d)


# -------------------------------------------------------------- boundary path

def green_boundary(n: Sequence[int], lambda0: float, side: str, d: int) -> GreenValue:
    """Boundary value G(n, lambda0 +/- i0) on the band [-d, d], d >= 3.

    The oscillatory time engine evaluates directly at real lambda0: its
    analytic tail sums are valid on the closed lower half plane, which
    gives the minus side; the plus side is its conjugate, served from the
    same cached value.  The band edges need no special treatment.
    """
    d = require_dimension_3(d, "green_boundary")
    lambda0 = float(lambda0)
    if abs(lambda0) > d:
        raise ValueError(f"lambda0={lambda0} is off the band [-{d},{d}]; use green_torus")
    if side not in ("plus", "minus"):
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")
    gv = _osc_cached(_orbit(n, d), complex(lambda0), d)
    return _conj(gv) if side == "plus" else gv
