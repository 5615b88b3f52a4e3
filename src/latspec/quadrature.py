"""Quadrature building blocks: composite Gauss-Legendre panels and the
asymptotic tail of oscillatory integrals with power-law decay.

``tail_integral_vec`` computes I(s, w, T) = integral over [T, inf) of
t^(-s) * exp(i w t) dt for several s > 1 at one w with Im(w) >= 0 (so the
exponential is bounded on the ray).  Three regimes:

* w == 0: the integral is elementary, T^(1-s)/(s-1).
* |w| T large: integration by parts gives the asymptotic series
  -exp(iwT) sum_k (s)_k T^(-(s+k)) / (iw)^(k+1), whose error is bounded by
  the first omitted term; we truncate when terms stop decreasing.
* |w| T small: push the endpoint out to T* where the series is safe by
  integrating t = T e^u on log-spaced Gauss-Legendre panels (the integrand
  is smooth and barely oscillatory over each short panel), then recurse.

The crossover |w| T >= 2 s + 30 keeps the series error near machine epsilon
for s up to ~40, which covers every use in this package (s = d/2 + j with
j <= 12 or so).
"""

from __future__ import annotations

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
    """Integration-by-parts series for the tail; valid when |w| T >> s."""
    iw = 1j * w
    total = 0.0 + 0.0j
    term = -1.0 / iw  # after k parts: -(s)_k / (iw)^(k+1), T powers tracked in tk
    poch = 1.0
    tk = T ** (-s)
    prev = np.inf
    for k in range(max_terms):
        contrib = term * poch * tk
        mag = abs(contrib)
        if mag > prev:
            break
        total += contrib
        prev = mag
        if mag < 1e-18 * max(1.0, abs(total)):
            break
        poch *= s + k
        term /= iw
        tk /= T
    return np.exp(iw * T) * total


def _check_tail_args(s: float, w: complex, T: float) -> None:
    if s <= 1:
        raise ValueError(f"tail requires s > 1, got s={s}")
    if T <= 0:
        raise ValueError(f"tail requires T > 0, got T={T}")
    if w.imag < -1e-12 * max(1.0, abs(w)):
        raise ValueError(f"tail requires Im(w) >= 0 for convergence, got w={w}")


def tail_integral_vec(s_list: np.ndarray, w: complex, T: float) -> np.ndarray:
    """integral_T^inf t^(-s) exp(i w t) dt for each s > 1 in ``s_list`` at
    one frequency w with Im(w) >= 0, sharing the logarithmic bridge grid
    across all s that need it."""
    s_list = np.asarray(s_list, dtype=float)
    w = complex(w)
    out = np.empty(s_list.size, dtype=complex)
    aw = abs(w)
    if aw * T < 1e-13:
        return T ** (1.0 - s_list) / (s_list - 1.0) + 0.0j
    direct = aw * T >= 2.0 * s_list + 30.0
    for i in np.nonzero(direct)[0]:
        _check_tail_args(s_list[i], w, T)
        out[i] = _tail_series(s_list[i], w, T)
    bridged = np.nonzero(~direct)[0]
    if bridged.size:
        s_b = s_list[bridged]
        _check_tail_args(float(s_b.min()), w, T)
        t_star = (2.0 * float(s_b.max()) + 32.0) / aw
        u_nodes, u_weights = gl_panels(0.0, np.log(t_star / T), 0.25, npts=12)
        t = T * np.exp(u_nodes)
        phase = np.exp(1j * w * t) * u_weights
        powers = t[None, :] ** (1.0 - s_b[:, None])
        bridge = powers @ phase
        for k, i in enumerate(bridged):
            out[i] = bridge[k] + _tail_series(s_list[i], w, t_star)
    return out

