"""Quadrature building blocks: composite Gauss-Legendre panels and the
asymptotic tail of oscillatory integrals with power-law decay.

``tail_integral_vec`` computes I(s, w, T) = integral over [T, inf) of
t^(-s) * exp(i w t) dt on an exponent ladder s = s0, s0 + 1, ..., s0 + n - 1
with s0 > 1 (the Green engine's d/2 + 0..10), at one horizon T and each
frequency w with Im(w) >= 0 (so the exponential is bounded on the ray).
Three regimes:

* w == 0: the integral is elementary, T^(1-s)/(s-1).
* |w| T >= 2 s + 30 (direct): integration by parts gives the asymptotic
  series -exp(iwT) sum_k (s)_k T^(-(s+k)) / (iw)^(k+1), whose error is
  bounded by the first omitted term.  It is truncated at the first term
  below 1e-18 of the partial sum, or before the first term that grows
  (the optimal truncation of an asymptotic series).
* |w| T smaller (bridged): push the endpoint out to T* = (2 s_max + 32) /
  |w|, where the series is safe for every rung, by integrating t = T e^u on
  log-spaced Gauss-Legendre panels (the integrand is smooth and barely
  oscillatory over each short panel), then add the tails at T*, all direct
  there.  The panels start at T and have one length in u, so every whole
  panel is the same in every bridged row of a call: its nodes, weights and
  powers t^(1 - s) are computed once per call, and a row adds only its
  last, shorter or stretched, panel.

The direct edge 2 s + 30 grows with s, so the direct rungs of a row are a
prefix of the ladder, its first k.  The series runs at the last of them,
the row's head, and integration by parts gives the rungs below it by the
downward recurrence (DLMF 8.8)

    I(s) = (s I(s + 1) - T^(-s) exp(iwT)) / (iw).

Each step multiplies the error carried down by s / (|w| T) <= 1/2, so the
recurrence is stable, and it reproduces the series at the lower exponents
to rounding, since the series' terms obey the same recurrence.  The bridge
serves rungs k and up: at T* its head is the top rung, and the recurrence
runs down to rung k.

A call is one pass over all its frequency rows: one series call over
every row's head, one recurrence, and one bridge over the bridged rows.
The series lays its terms out term-major, one row of the array per term,
so each product and sum runs across all rows at once; it first sums a
window of _SERIES_WINDOW terms (24) and sums all _SERIES_TERMS (60) again
only for the rows whose stop lies beyond the window; most stop near term
12.

At the crossover |w| T = 2 s + 30 itself the series' smallest term, hence
its error, is about 3e-13 of I at s = 1.5 and 1.4e-11 at s = 11.5 (against
the closed form (-iw)^(s-1) Gamma(1-s, -iwT)); it falls to rounding once
|w| T exceeds 2 s + 40.  In the Green engine (s = d/2 + j, j <= 10, T >=
240) that is far below its 1e-14 error floor, because |I| <= T^(-s) / |w|
there.
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
    x0, w0 = (np.asarray(v) for v in _gl_nodes(npts))
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    return (mid[:, None] + half[:, None] * x0).ravel(), (half[:, None] * w0).ravel()


_SERIES_TERMS = 60
# terms of the series' first pass; a row whose stop lies beyond it is
# summed again over all _SERIES_TERMS
_SERIES_WINDOW = 24
# largest array of one block of bridged rows
_BLOCK_BYTES = 2 ** 19
_BRIDGE_PANEL = 0.25
_BRIDGE_NPTS = 12


def _modulus(z: np.ndarray) -> np.ndarray:
    """|z| as Python's abs computes it (libm hypot); numpy's complex
    absolute rounds differently, and |w| T decides each exponent's regime."""
    return np.hypot(z.real, z.imag)


def _series_terms(s: np.ndarray, w: np.ndarray, T: np.ndarray, t_pow: np.ndarray, n_terms: int):
    """The series over n_terms terms, one column per row (frequency w,
    exponent s, horizon T, t_pow = T^(-s)): (value at the row's stop,
    whether the stop was found within the n_terms).  Products, sums and
    ratios are taken in place, which keeps a call's memory near three
    arrays of its size."""
    iw = 1j * w
    sk = s + np.arange(n_terms - 1.0)[:, None]
    totals = np.concatenate([(-t_pow / iw)[None], sk * (1.0 / (iw * T))])
    np.cumprod(totals, axis=0, out=totals)
    np.cumsum(totals, axis=0, out=totals)
    ratio = sk
    ratio /= _modulus(w) * T
    grows = ratio > 1.0
    mags = np.concatenate([_modulus(totals[:1]), ratio])
    np.cumprod(mags, axis=0, out=mags)
    floor = _modulus(totals[1:])
    floor *= 1e-18
    small = mags[1:] < floor
    found = grows.any(axis=0), small.any(axis=0)
    last = n_terms - 1
    stop = np.minimum(np.where(found[0], grows.argmax(axis=0), last),
                      np.where(found[1], small.argmax(axis=0) + 1, last))
    return np.exp(iw * T) * totals[stop, np.arange(w.size)], found[0] | found[1]


def _series(s: np.ndarray, w: np.ndarray, T: np.ndarray, t_pow: np.ndarray) -> np.ndarray:
    """Integration-by-parts series for each row: frequency w[i], exponent
    s[i], horizon T[i] and t_pow[i] = T[i]^(-s[i]); valid when |w| T >> s.

    Term k is -(s)_k T^(-(s+k)) / (iw)^(k+1), the previous term times
    (s + k - 1) / (iw T).  A row's terms come from one cumprod and their
    partial sums from one cumsum, and it keeps the partial sum at its own
    stopping index: the last term before the first ratio r = (s + k) /
    (|w| T) above 1 (the optimal truncation of an asymptotic series), or
    the first term below 1e-18 of its partial sum, else the last of
    _SERIES_TERMS.  The first pass builds _SERIES_WINDOW terms; only the
    rows whose stop it does not reach get all _SERIES_TERMS.  Products and
    sums run term by term, so a row's stop and sum are the same bits in
    either pass.
    """
    out, found = _series_terms(s, w, T, t_pow, _SERIES_WINDOW)
    r = np.nonzero(~found)[0]
    out[r] = _series_terms(s[r], w[r], T[r], t_pow[r], _SERIES_TERMS)[0]
    return out


def _tail_direct(s_list: np.ndarray, w: np.ndarray, T: np.ndarray, t_pow: np.ndarray,
                 head: np.ndarray) -> np.ndarray:
    """Tails of row i on rungs 0..head[i] of the ladder (0 above), all in
    the direct regime at horizon T[i], with t_pow[i, j] = T[i]^(-s_j): the
    series at each row's head, in one call, then the downward recurrence
    below it."""
    iw = 1j * w
    edge = np.exp(iw * T)
    rows = np.arange(w.size)
    vals = np.zeros(t_pow.shape, dtype=complex)
    vals[rows, head] = _series(s_list[head], w, T, t_pow[rows, head])
    for j in range(int(head.max()) - 1, -1, -1):
        vals[:, j] = np.where(head > j, (s_list[j] * vals[:, j + 1] - t_pow[:, j] * edge) / iw, vals[:, j])
    return vals


def _bridge_panels(lo: np.ndarray, hi: np.ndarray, T: float):
    """The Gauss nodes of the panels [lo[k], hi[k]] in u: their weights and
    t = T e^u, each of shape (k, node)."""
    x0, w0 = (np.asarray(v) for v in _gl_nodes(_BRIDGE_NPTS))
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return half[:, None] * w0, T * np.exp(mid[:, None] + half[:, None] * x0)


def _join(shared: np.ndarray, own: np.ndarray) -> np.ndarray:
    """Per row of ``own`` (nodes on the last axis), the nodes ``shared``
    by every row and then its own: one contiguous array."""
    n = shared.shape[-1]
    out = np.empty(own.shape[:-1] + (n + own.shape[-1],))
    out[..., :n] = shared
    out[..., n:] = own
    return out


def _tail_bridged(s_list: np.ndarray, w: np.ndarray, T: float, low: np.ndarray) -> np.ndarray:
    """Tails of row i on rungs low[i] and up of the ladder (0 below) at the
    horizon T, whose |w| T is below the direct edge: t = T e^u on Gauss
    panels of _BRIDGE_PANEL in u up to T* = (2 s_max + 32) / |w|, s_max
    the top rung, plus the tails at T*, direct there.  The panels are those
    of gl_panels(0, log(T* / T), _BRIDGE_PANEL, _BRIDGE_NPTS): whole panels
    [k, k + 1] _BRIDGE_PANEL, then a last one that ends at log(T* / T).
    The whole panels are the same in every row of the call, so their
    weights, nodes and powers t^(1 - s) are computed once, for the longest
    row; a row computes only its last panel.  Rows with as many panels are
    integrated together, in blocks whose largest array stays within
    _BLOCK_BYTES, each block's panels laid out row by row as one
    contiguous (row, rung, node) array of powers."""
    out = np.empty((w.size, s_list.size), dtype=complex)
    t_star = (2.0 * s_list[-1] + 32.0) / _modulus(w)
    b = np.log(t_star / T)
    n_panels = np.maximum(1, np.floor(b / _BRIDGE_PANEL).astype(int))
    # gl_panels' remainder rule: a short last panel, or the last edge moved to b
    extra = n_panels * _BRIDGE_PANEL < b - 1e-12 * np.maximum(1.0, np.abs(b))
    whole = n_panels - 1 + extra
    edges = _BRIDGE_PANEL * np.arange(whole.max() + 1, dtype=float)
    # the whole panels node after node, as every row lays them out
    uw, t = (a.ravel() for a in _bridge_panels(edges[:-1], edges[1:], T))
    t_pow = t ** (1.0 - s_list[:, None])
    uw_last, t_last = _bridge_panels(edges[whole], b, T)
    for m in sorted(set(whole.tolist())):
        group = np.nonzero(whole == m)[0]
        n = _BRIDGE_NPTS * m
        step = max(1, _BLOCK_BYTES // (8 * s_list.size * (n + _BRIDGE_NPTS)))
        for g in (group[i:i + step] for i in range(0, group.size, step)):
            rows_t = _join(t[:n], t_last[g])
            powers = _join(t_pow[:, :n], rows_t[:, None, n:] ** (1.0 - s_list[:, None]))
            phase = np.exp(1j * w[g][:, None] * rows_t) * _join(uw[:n], uw_last[g])
            out[g] = np.einsum("gsn,gn->gs", powers, phase)
    top = np.full(w.size, s_list.size - 1)
    out += _tail_direct(s_list, w, t_star, t_star[:, None] ** -s_list, top)
    return np.where(np.arange(s_list.size) >= low[:, None], out, 0.0)


def _check_tail_args(s: float, w: np.ndarray, T: float) -> None:
    if s <= 1:
        raise ValueError(f"tail requires s > 1, got s={s}")
    if T <= 0:
        raise ValueError(f"tail requires T > 0, got T={T}")
    bad = w.imag < -1e-12 * np.maximum(1.0, _modulus(w))
    if bad.any():
        raise ValueError(f"tail requires Im(w) >= 0 for convergence, got w={complex(w[bad][0])}")


def tail_integral_vec(s_list: np.ndarray, w: np.ndarray, T: float) -> np.ndarray:
    """integral_T^inf t^(-s) exp(i w t) dt for each s of the ladder
    ``s_list`` = s0, s0 + 1, ..., s0 + n - 1 (s0 > 1; any other list is
    refused) at each frequency of the 1-D array ``w`` (Im(w) >= 0) and the
    horizon T > 0: shape (len(w), len(s_list)).  Every frequency row is
    computed on its own, so a row does not depend on the others in the
    call.  T^(-s) is Python's scalar power at T and numpy's array power at
    the bridges' T*.
    """
    s_list = np.asarray(s_list, dtype=float)
    if s_list.ndim != 1 or not s_list.size or not np.array_equal(s_list, s_list[0] + np.arange(s_list.size)):
        raise ValueError(f"tail exponents must be a ladder s0, s0 + 1, ..., got {s_list.tolist()}")
    w = np.asarray(w, dtype=complex)
    T = float(T)
    _check_tail_args(float(s_list[0]), w, T)
    xT = _modulus(w) * T
    zero = xT < 1e-13
    # per row: its number of direct rungs, the head's rung plus one
    k = np.where(zero, 0, (xT[:, None] >= 2.0 * s_list + 30.0).sum(axis=1))
    out = np.zeros((w.size, s_list.size), dtype=complex)
    direct = np.nonzero(k)[0]
    if direct.size:
        t_pow = np.tile([T ** -s for s in s_list.tolist()], (direct.size, 1))
        out[direct] = _tail_direct(s_list, w[direct], np.full(direct.size, T), t_pow, k[direct] - 1)
    bridged = np.nonzero(~zero & (k < s_list.size))[0]
    if bridged.size:
        out[bridged] += _tail_bridged(s_list, w[bridged], T, k[bridged])
    out[zero] = T ** (1.0 - s_list) / (s_list - 1.0)
    return out
