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
  to, and on, the band.

``green_auto`` picks the torus engine far from the band and the
oscillatory engine close to it.  ``green_boundary`` gives the boundary
values G(n, lambda0 -/+ i0) on the band through the oscillatory engine
alone; its independent checks are Watson's closed form at the band edge
and the small-epsilon limit of the interior engines.

The time integrand pairs e^(-i lam t) with the forward evolution kernel,
whose quarter-turn phase is i^(+|n|) per the Fourier expansion of e^(i t
cos k); damping then requires Im(lam) <= 0, and the opposite half plane is
reached through the conjugation symmetry G(n, conj lam) = conj G(n, lam).

All evaluators canonicalize n up to sign flips and coordinate permutations
(exact symmetries of the kernel) and share a memo cache, so repeated
evaluations during determinant assembly are free and bit-identical.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
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

_MEMO: dict = {}
_MEMO_LOCK = threading.Lock()


def clear_green_cache() -> None:
    with _MEMO_LOCK:
        _MEMO.clear()
    _osc_nodes.cache_clear()
    _osc_jgrid.cache_clear()
    _osc_kernel.cache_clear()
    _osc_tail_data.cache_clear()


@dataclass(frozen=True)
class GreenValue:
    """One kernel value and its error estimate.

    Memoized per symmetry orbit of the site, so one object answers every
    site of the orbit; it therefore records neither the site nor lambda.
    """

    value: complex
    err_estimate: float


def _canon(n: Sequence[int]) -> Site:
    """Representative of the signed-permutation orbit of n (kernel symmetry)."""
    return tuple(sorted((abs(int(c)) for c in n), reverse=True))


def _memo_get(key):
    with _MEMO_LOCK:
        return _MEMO.get(key)


def _memo_put(key, gv: GreenValue) -> GreenValue:
    with _MEMO_LOCK:
        _MEMO[key] = gv
    return gv


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
    elif d == 2:
        r = 1.0 / (c[:, None] + c[None, :] - lam)
        acc = complex(u[0] @ r @ u[1])
    else:
        c01 = c[:, None] + c[None, :]
        acc = 0.0 + 0.0j
        extra_axes = list(itertools.product(range(m + 1), repeat=d - 2))
        for idx in extra_axes:
            shift = sum(c[i] for i in idx) - lam
            wex = 1.0
            for j, i in enumerate(idx):
                wex *= u[j + 2][i]
            if wex == 0.0:
                continue
            r = 1.0 / (c01 + shift)
            acc += wex * complex(u[0] @ (r @ u[1]))
    return acc / float(N) ** d


def auto_n_quad(lam: complex, d: int) -> int:
    """Quadrature size law: points per dimension ~ _NQ_RATE / dist(lam, band),
    clipped to [_NQ_MIN, _NQ_MAX] and rounded up to even."""
    dist = dist_to_band(lam, d)
    if dist <= 0:
        return _NQ_MAX
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
        n_quad = auto_n_quad(lam, d)
    else:
        n_quad = int(n_quad)
        if n_quad < 8:
            raise ValueError(f"n_quad must be >= 8, got {n_quad}")
        n_quad += n_quad % 2
    canon = _canon(n)
    if len(canon) != d:
        raise ValueError(f"site {tuple(n)} has {len(canon)} coordinates, expected {d}")
    key = ("torus", canon, lam, d, n_quad)
    hit = _memo_get(key)
    if hit is not None:
        return hit
    v1 = _torus_value(canon, lam, d, n_quad)
    v2 = _torus_value(canon, lam, d, 2 * n_quad)
    return _memo_put(key, GreenValue(v2, abs(v2 - v1)))


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
    canon = _canon(n)
    if len(canon) != d:
        raise ValueError(f"site {tuple(n)} has {len(canon)} coordinates, expected {d}")
    if lam.imag > 0:
        gv = green_time(n, lam.conjugate(), d)
        return GreenValue(gv.value.conjugate(), gv.err_estimate)
    T = min(math.log(1.0 / _TIME_TOL) / abs(lam.imag), 1200.0)
    key = ("dtime", canon, lam, d)
    hit = _memo_get(key)
    if hit is not None:
        return hit
    phase_total = sum(canon) % 4
    pref = -1j * _IPOW[phase_total]
    vals = []
    for npts in (12, 10):
        nodes, weights = gl_panels(0.0, T, 0.5, npts=npts)
        rows = bessel_j_grid(nodes, canon[0] if canon else 0)
        kern = np.ones_like(nodes)
        for m in canon:
            kern = kern * rows[m]
        vals.append(pref * np.sum(weights * np.exp(-1j * lam * nodes) * kern))
    tail = math.exp(T * lam.imag) / abs(lam.imag)
    err = abs(vals[0] - vals[1]) + tail
    return _memo_put(key, GreenValue(complex(vals[0]), err))


# ------------------------------------------------------ oscillatory time path

@functools.lru_cache(maxsize=32)
def _osc_nodes(T0: float) -> tuple[np.ndarray, np.ndarray]:
    return gl_panels(0.0, T0, 0.5, npts=10)


@functools.lru_cache(maxsize=32)
def _osc_jgrid(T0: float, m_cap: int) -> np.ndarray:
    nodes, _ = _osc_nodes(T0)
    return bessel_j_grid(nodes, m_cap)


@functools.lru_cache(maxsize=4096)
def _osc_kernel(canon_n: Site, T0: float) -> np.ndarray:
    """prod_j J_(n_j) on the numeric nodes (real; phases applied by callers)."""
    m_max = canon_n[0] if canon_n else 0
    m_cap = ((m_max // 8) + 1) * 8  # quantized so the J-grid cache is shared
    rows = _osc_jgrid(T0, m_cap)
    kern = rows[canon_n[0]].copy() if canon_n else np.ones(rows.shape[1])
    for m in canon_n[1:]:
        kern *= rows[m]
    return kern


@functools.lru_cache(maxsize=4096)
def _osc_tail_data(canon_n: Site, n_terms: int) -> tuple:
    """Per sign pattern s in {+,-}^d: (constant phase, integer frequency S,
    coefficient polynomial of prod_j A or conj(A) truncated at n_terms)."""
    d = len(canon_n)
    amps = {m: hankel_amplitude_coeffs(m, n_terms) for m in set(canon_n)}
    out = []
    for signs in itertools.product((1, -1), repeat=d):
        s_freq = sum(signs)
        arg = -(np.pi / 2) * sum(s * m for s, m in zip(signs, canon_n)) - (np.pi / 4) * s_freq
        ph0 = complex(np.exp(1j * arg))
        poly = np.ones(1, dtype=complex)
        for s, m in zip(signs, canon_n):
            factor = amps[m] if s > 0 else np.conj(amps[m])
            poly = np.convolve(poly, factor)[:n_terms]
        out.append((ph0, s_freq, poly))
    return tuple(out)


def _green_osc(canon_n: Site, lam: complex, d: int, T0: float | None = None, n_terms: int = 11) -> tuple[complex, float]:
    """High-accuracy kernel value for Im(lam) <= 0, including real lam.

    Numeric Gauss-Legendre integral on [0, T0] plus 2^d analytic mode tails:
    beyond T0 each J-product factor is replaced by its two-sided large-t
    expansion, turning the remainder into sums of t^(-d/2-q) e^(i(S-lam)t)
    integrals with integer S in [-d, d].
    """
    if lam.imag > 1e-15:
        raise ValueError("oscillatory engine requires Im(lambda) <= 0")
    m_max = canon_n[0] if canon_n else 0
    if T0 is None:
        T0 = 240.0 + 10.0 * m_max
    nodes, weights = _osc_nodes(T0)
    kern = _osc_kernel(canon_n, T0)
    main = np.sum(weights * np.exp(-1j * lam * nodes) * kern)
    mode_factor = (2.0 / np.pi) ** (0.5 * d) * 0.5 ** d
    s_exps = 0.5 * d + np.arange(n_terms, dtype=float)
    tail = 0.0 + 0.0j
    trunc = 0.0
    for ph0, s_freq, poly in _osc_tail_data(canon_n, n_terms):
        omega = s_freq - lam
        pieces = tail_integral_vec(s_exps[: poly.size], omega, T0)
        tail += ph0 * np.dot(poly, pieces)
        trunc += abs(poly[-1] * pieces[-1])
    pref = -1j * _IPOW[sum(canon_n) % 4]
    value = pref * (main + mode_factor * tail)
    err = mode_factor * trunc + 1e-14 * (1.0 + abs(value))
    return complex(value), float(err)


def green_auto(n: Sequence[int], lam: complex, d: int) -> GreenValue:
    """Dispatcher used by determinant assembly: torus quadrature while the
    auto grid stays cheap (roughly 40/dist points per axis), oscillatory
    time engine closer in where its flat ~ms cost wins."""
    d = validate_dimension(d)
    lam = complex(lam)
    dist = dist_to_band(lam, d)
    if dist == 0.0:
        raise ValueError(f"lambda={lam} lies on the band; use green_boundary")
    if dist >= _DIST_SWITCH:
        return green_torus(n, lam, d)
    canon = _canon(n)
    key = ("osc", canon, lam, d)
    hit = _memo_get(key)
    if hit is not None:
        return hit
    if lam.imag <= 0:
        value, err = _green_osc(canon, lam, d)
    else:
        value, err = _green_osc(canon, lam.conjugate(), d)
        value = value.conjugate()
    return _memo_put(key, GreenValue(value, err))


# -------------------------------------------------------------- boundary path

def green_boundary(n: Sequence[int], lambda0: float, side: str, d: int) -> GreenValue:
    """Boundary value G(n, lambda0 +/- i0) on the band [-d, d], d >= 3.

    The oscillatory time engine evaluates directly at real lambda0: its
    analytic tail sums are valid on the closed lower half plane, which
    gives the minus side; the plus side is its conjugate.  The band edges
    need no special treatment.
    """
    d = require_dimension_3(d, "green_boundary")
    lambda0 = float(lambda0)
    if abs(lambda0) > d:
        raise ValueError(f"lambda0={lambda0} is off the band [-{d},{d}]; use green_torus")
    if side not in ("plus", "minus"):
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")
    canon = _canon(n)
    if len(canon) != d:
        raise ValueError(f"site {tuple(n)} has {len(canon)} coordinates, expected {d}")
    key = ("boundary", canon, lambda0, side, d)
    hit = _memo_get(key)
    if hit is not None:
        return hit
    value, err = _green_osc(canon, complex(lambda0), d)
    if side == "plus":
        value = value.conjugate()
    return _memo_put(key, GreenValue(value, err))
