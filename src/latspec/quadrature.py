"""Quadrature building blocks: composite Gauss-Legendre panels and the
asymptotic tail of oscillatory integrals with power-law decay.

``tail_integral_vec`` computes I(s, w, T) = integral over [T, inf) of
t^(-s) * exp(i w t) dt for several s > 1 at one w with Im(w) >= 0 (so the
exponential is bounded on the ray).  Three regimes:

* w == 0: the integral is elementary, T^(1-s)/(s-1).
* |w| T >= 2 s + 30 (direct): integration by parts gives the asymptotic
  series -exp(iwT) sum_k (s)_k T^(-(s+k)) / (iw)^(k+1), whose error is
  bounded by the first omitted term.  It is truncated at the first term
  below 1e-18 of the partial sum, or before the first term that grows
  (the optimal truncation of an asymptotic series).
* |w| T smaller (bridged): push the endpoint out to T* where the series is
  safe for every bridged s by integrating t = T e^u on log-spaced
  Gauss-Legendre panels (the integrand is smooth and barely oscillatory
  over each short panel), then add the tails at T*, all direct there.

Integration by parts also gives the downward recurrence (DLMF 8.8)

    I(s) = (s I(s + 1) - T^(-s) exp(iwT)) / (iw).

Among the direct exponents of one call, those whose s + 1 is in the list
come from it, largest first; the series runs only at the others, which is
once per call for the unit-spaced exponents of the Green engine.  Each
step multiplies the error carried down by s / (|w| T) <= 1/2, so the
recurrence is stable, and it reproduces the series at the lower exponents
to rounding, since the series' terms obey the same recurrence.

At the crossover |w| T = 2 s + 30 itself the series' smallest term, hence
its error, is about 3e-13 of I at s = 1.5 and 1.4e-11 at s = 11.5 (against
the closed form (-iw)^(s-1) Gamma(1-s, -iwT)); it falls to rounding once
|w| T exceeds 2 s + 40.  In the Green engine (s = d/2 + j, j <= 10, T >=
240) that is far below its 1e-14 error floor, because |I| <= T^(-s) / |w|
there.
"""

from __future__ import annotations

import cmath
import functools

import numpy as np


@functools.lru_cache(maxsize=64)
def _gl_nodes(npts: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    x, w = np.polynomial.legendre.leggauss(npts)
    return tuple(x), tuple(w)


def gl_panels(a: float, b: float, panel_len: float, npts: int = 12) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes/weights on [a, b] with fixed panel size.

    The last panel absorbs the remainder; degenerate ranges return empty
    arrays so callers can skip the dot product.
    """
    if b <= a:
        return np.empty(0), np.empty(0)
    n_panels = max(1, int(np.floor((b - a) / panel_len)))
    edges = np.linspace(a, a + n_panels * panel_len, n_panels + 1)
    if edges[-1] < b - 1e-12 * max(1.0, abs(b)):
        edges = np.append(edges, b)
    else:
        edges[-1] = b
    x0, w0 = _gl_nodes(npts)
    x0 = np.asarray(x0)
    w0 = np.asarray(w0)
    nodes = []
    weights = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        nodes.append(mid + half * x0)
        weights.append(half * w0)
    return np.concatenate(nodes), np.concatenate(weights)


def _tail_series(s: float, w: complex, T: float, max_terms: int = 60) -> complex:
    """Integration-by-parts series for the tail; valid when |w| T >> s.

    Term k is -(s)_k T^(-(s+k)) / (iw)^(k+1); each is the previous one times
    (s + k - 1) / (iw T), whose modulus r decides the truncation.
    """
    iw = 1j * w
    x = abs(w) * T
    q = 1.0 / (iw * T)
    term = -T ** (-s) / iw
    total = term
    mag = abs(term)
    for k in range(max_terms - 1):
        r = (s + k) / x
        if r > 1.0:
            break
        term *= (s + k) * q
        total += term
        mag *= r
        if mag < 1e-18 * abs(total):
            break
    return cmath.exp(iw * T) * total


def _tail_direct(s_list: np.ndarray, w: complex, T: float) -> np.ndarray:
    """Tails at exponents that are all in the direct regime, largest first:
    the downward recurrence from I(s + 1) where s + 1 is in the list, the
    series elsewhere."""
    iw = 1j * w
    edge = cmath.exp(iw * T)
    s_py = s_list.tolist()
    out = np.empty(len(s_py), dtype=complex)
    done: dict = {}
    for i in sorted(range(len(s_py)), key=s_py.__getitem__, reverse=True):
        s = s_py[i]
        above = done.get(s + 1.0)
        if above is None:
            val = _tail_series(s, w, T)
        else:
            val = (s * above - T ** (-s) * edge) / iw
        out[i] = done[s] = val
    return out


def _check_tail_args(s: float, w: complex, T: float) -> None:
    if s <= 1:
        raise ValueError(f"tail requires s > 1, got s={s}")
    if T <= 0:
        raise ValueError(f"tail requires T > 0, got T={T}")
    if w.imag < -1e-12 * max(1.0, abs(w)):
        raise ValueError(f"tail requires Im(w) >= 0 for convergence, got w={w}")


def tail_integral_vec(s_list: np.ndarray, w: complex, T: float) -> np.ndarray:
    """integral_T^inf t^(-s) exp(i w t) dt for each s > 1 in ``s_list`` at
    one frequency w with Im(w) >= 0, sharing one series along each run of
    exponents a unit apart and the logarithmic bridge grid across all s
    that need it."""
    s_list = np.asarray(s_list, dtype=float)
    w = complex(w)
    _check_tail_args(float(s_list.min()), w, T)
    aw = abs(w)
    if aw * T < 1e-13:
        return T ** (1.0 - s_list) / (s_list - 1.0) + 0.0j
    direct = aw * T >= 2.0 * s_list + 30.0
    out = np.empty(s_list.size, dtype=complex)
    out[direct] = _tail_direct(s_list[direct], w, T)
    if not direct.all():
        bridged = ~direct
        s_b = s_list[bridged]
        t_star = (2.0 * float(s_b.max()) + 32.0) / aw
        u_nodes, u_weights = gl_panels(0.0, np.log(t_star / T), 0.25, npts=12)
        t = T * np.exp(u_nodes)
        phase = np.exp(1j * w * t) * u_weights
        powers = t[None, :] ** (1.0 - s_b[:, None])
        out[bridged] = powers @ phase + _tail_direct(s_b, w, t_star)
    return out

