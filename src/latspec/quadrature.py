"""Quadrature building blocks: composite Gauss-Legendre panels and the
asymptotic tail of oscillatory integrals with power-law decay.

``tail_integral_vec`` computes I(s, w, T) = integral over [T, inf) of
t^(-s) * exp(i w t) dt for several s > 1, at each frequency w with Im(w) >=
0 (so the exponential is bounded on the ray) and each horizon T.  Three
regimes:

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

Among the direct exponents of a row, those whose s + 1 is in the list come
from it, largest first; the series runs only at the others (the heads),
which is once per row for the unit-spaced exponents of the Green engine.
Each step multiplies the error carried down by s / (|w| T) <= 1/2, so the
recurrence is stable, and it reproduces the series at the lower exponents
to rounding, since the series' terms obey the same recurrence.

A call is one pass over all its (horizon, frequency) rows: one recurrence,
one series call over every head pair, each with its own exponent and
horizon, and one bridge over the bridged rows.  The series first sums a
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
# (row, term) entries of one block of series rows, which bounds the
# series' working arrays
_SERIES_BLOCK = 2 ** 12
# largest array of one block of bridged rows
_BLOCK_BYTES = 2 ** 19
_BRIDGE_PANEL = 0.25
_BRIDGE_NPTS = 12


def _modulus(z: np.ndarray) -> np.ndarray:
    """|z| as Python's abs computes it (libm hypot); numpy's complex
    absolute rounds differently, and |w| T decides each exponent's regime."""
    return np.hypot(z.real, z.imag)


def _series_terms(s: np.ndarray, w: np.ndarray, T: np.ndarray, t_pow: np.ndarray, n_terms: int):
    """The series over n_terms terms, one row per frequency: (value at the
    row's stop, whether the stop was found within the n_terms).  Products,
    sums and ratios are taken in place, which keeps a call's memory near
    three arrays of its size."""
    iw = 1j * w
    sk = s[:, None] + np.arange(n_terms - 1.0)
    totals = np.column_stack([-t_pow / iw, sk * (1.0 / (iw * T))[:, None]])
    np.cumprod(totals, axis=1, out=totals)
    np.cumsum(totals, axis=1, out=totals)
    ratio = sk
    ratio /= (_modulus(w) * T)[:, None]
    grows = ratio > 1.0
    mags = np.column_stack([_modulus(totals[:, 0]), ratio])
    np.cumprod(mags, axis=1, out=mags)
    floor = _modulus(totals[:, 1:])
    floor *= 1e-18
    small = mags[:, 1:] < floor
    found = grows.any(axis=1), small.any(axis=1)
    last = n_terms - 1
    stop = np.minimum(np.where(found[0], grows.argmax(axis=1), last),
                      np.where(found[1], small.argmax(axis=1) + 1, last))
    return np.exp(iw * T) * totals[np.arange(w.size), stop], found[0] | found[1]


def _series(s, w: np.ndarray, T, t_pow=None) -> np.ndarray:
    """Integration-by-parts series for each frequency w[i], at exponent s
    and horizon T (each one value or one per frequency); valid when |w| T
    >> s.  ``t_pow`` is T^(-s) per frequency where the caller has it
    (T ** -s otherwise).

    Term k is -(s)_k T^(-(s+k)) / (iw)^(k+1), the previous term times
    (s + k - 1) / (iw T).  A row's terms come from one cumprod and their
    partial sums from one cumsum, and it keeps the partial sum at its own
    stopping index: the last term before the first ratio r = (s + k) /
    (|w| T) above 1 (the optimal truncation of an asymptotic series), or
    the first term below 1e-18 of its partial sum, else the last of
    _SERIES_TERMS.  The first pass builds _SERIES_WINDOW terms; only the
    rows whose stop it does not reach get all _SERIES_TERMS.  Products and
    sums run term by term, so a row's stop and sum are the same bits in
    either pass.  Each pass takes its rows in blocks of _SERIES_BLOCK
    (row, term) entries.
    """
    if t_pow is None:
        t_pow = T ** -s
    s, T, t_pow = (np.broadcast_to(np.asarray(v, dtype=float), w.shape) for v in (s, T, t_pow))
    out = np.empty(w.shape, dtype=complex)
    found = np.empty(w.shape, dtype=bool)

    def run(rows: np.ndarray, n_terms: int) -> None:
        step = _SERIES_BLOCK // n_terms
        for r in (rows[lo:lo + step] for lo in range(0, rows.size, step)):
            out[r], found[r] = _series_terms(s[r], w[r], T[r], t_pow[r], n_terms)

    run(np.arange(w.size), _SERIES_WINDOW)
    run(np.nonzero(~found)[0], _SERIES_TERMS)
    return out


def _tail_direct(s_list: np.ndarray, w: np.ndarray, T: np.ndarray, t_pow: np.ndarray,
                 mask: np.ndarray) -> np.ndarray:
    """Tails at the (row, exponent) pairs of ``mask``, all in the direct
    regime, at horizon T[i] for row i, with t_pow[i, j] = T[i]^(-s_j).
    Largest exponent first: the downward recurrence from I(s + 1) where
    s + 1 is in the list and masked in the same row, the series elsewhere,
    at every such head pair of every row in one call.  Unmasked pairs are
    0.  The recurrence runs on every row that has a masked pair, and the
    series values replace it at the heads."""
    rows = np.nonzero(mask.any(axis=1))[0]
    if not rows.size:
        return np.zeros(mask.shape, dtype=complex)
    sub = mask[rows]
    wr = w[rows]
    Tr = T[rows]
    iw = 1j * wr
    edge = np.exp(iw * Tr)
    column = {s: j for j, s in enumerate(s_list.tolist())}
    steps = [(j, float(s_list[j]), column.get(float(s_list[j]) + 1.0))
             for j in np.argsort(-s_list, kind="stable")]
    heads = sub.copy()
    for j, _, up in steps:
        if up is not None:
            heads[:, j] &= ~sub[:, up]
    vals = np.zeros(sub.shape, dtype=complex)
    hr, hj = np.nonzero(heads)
    vals[hr, hj] = _series(s_list[hj], wr[hr], Tr[hr], t_pow[rows[hr], hj])
    for j, s, up in steps:
        if up is not None:
            vals[:, j] = np.where(heads[:, j], vals[:, j], (s * vals[:, up] - t_pow[rows, j] * edge) / iw)
    out = np.zeros(mask.shape, dtype=complex)
    out[rows] = np.where(sub, vals, 0.0)
    return out


def _tail_bridged(s_list: np.ndarray, w: np.ndarray, T: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Tails at the (row, exponent) pairs of ``mask``, whose |w| T is below
    the direct edge (T[i] the horizon of row i): t = T e^u on Gauss panels
    of _BRIDGE_PANEL in u up to T* = (2 s_max + 32) / |w| (s_max the row's
    largest masked exponent), plus the tails at T*, direct there.  The
    panels are those of gl_panels(0, log(T* / T), _BRIDGE_PANEL,
    _BRIDGE_NPTS); rows that share a panel layout are integrated together,
    in blocks whose largest array stays within _BLOCK_BYTES.  Unmasked
    pairs are 0."""
    x0, w0 = (np.asarray(v) for v in _gl_nodes(_BRIDGE_NPTS))
    out = np.zeros(mask.shape, dtype=complex)
    rows = np.nonzero(mask.any(axis=1))[0]
    s_max = np.where(mask[rows], s_list, -np.inf).max(axis=1)
    t_star = (2.0 * s_max + 32.0) / _modulus(w[rows])
    b = np.log(t_star / T[rows])
    n_panels = np.maximum(1, np.floor(b / _BRIDGE_PANEL).astype(int))
    # gl_panels' remainder rule: a short last panel, or the last edge moved to b
    extra = n_panels * _BRIDGE_PANEL < b - 1e-12 * np.maximum(1.0, np.abs(b))
    for n_p, ext in sorted(set(zip(n_panels.tolist(), extra.tolist()))):
        group = np.nonzero((n_panels == n_p) & (extra == ext))[0]
        step = max(1, _BLOCK_BYTES // (8 * s_list.size * _BRIDGE_NPTS * (n_p + ext)))
        for g in (group[i:i + step] for i in range(0, group.size, step)):
            edges = np.tile(_BRIDGE_PANEL * np.arange(n_p + 1, dtype=float), (g.size, 1))
            if ext:
                edges = np.column_stack([edges, b[g]])
            else:
                edges[:, -1] = b[g]
            half = 0.5 * (edges[:, 1:] - edges[:, :-1])
            mid = 0.5 * (edges[:, 1:] + edges[:, :-1])
            u = (mid[:, :, None] + half[:, :, None] * x0).reshape(g.size, -1)
            uw = (half[:, :, None] * w0).reshape(g.size, -1)
            t = T[rows[g]][:, None] * np.exp(u)
            phase = np.exp(1j * w[rows[g]][:, None] * t) * uw
            powers = t[:, None, :] ** (1.0 - s_list[None, :, None])
            out[rows[g]] = np.einsum("gsn,gn->gs", powers, phase)
    t_pow = t_star[:, None] ** -s_list
    out[rows] = np.where(mask[rows], out[rows], 0.0) + _tail_direct(s_list, w[rows], t_star, t_pow, mask[rows])
    return out


def _check_tail_args(s: float, w: np.ndarray, T: float) -> None:
    if s <= 1:
        raise ValueError(f"tail requires s > 1, got s={s}")
    if T <= 0:
        raise ValueError(f"tail requires T > 0, got T={T}")
    bad = w.imag < -1e-12 * np.maximum(1.0, _modulus(w))
    if bad.any():
        raise ValueError(f"tail requires Im(w) >= 0 for convergence, got w={complex(w[bad][0])}")


def tail_integral_vec(s_list: np.ndarray, w, T) -> np.ndarray:
    """integral_T^inf t^(-s) exp(i w t) dt for each s > 1 in ``s_list`` at
    each frequency w with Im(w) >= 0 and each horizon T > 0.

    ``w`` is one frequency (one entry per exponent) or an array of them
    (one row per frequency); ``T`` is one horizon or an array of them,
    which adds a leading axis, one block per horizon.  Every (horizon,
    frequency) row is computed on its own, so a row does not depend on the
    others in the call, and one horizon of several is the same bits as that
    horizon alone.  The call is one pass over all rows: one downward
    recurrence, one series call over every head pair, one bridge over the
    bridged rows.  T^(-s) is Python's scalar power at each horizon and
    numpy's array power at the bridges' T*.
    """
    s_list = np.asarray(s_list, dtype=float)
    w_in = np.asarray(w, dtype=complex)
    T_in = np.asarray(T, dtype=float)
    horizons = T_in.ravel().tolist()
    w = np.tile(np.atleast_1d(w_in), len(horizons))
    _check_tail_args(float(s_list.min()), w, min(horizons))
    # row i belongs to horizon at[i]
    at = np.repeat(np.arange(len(horizons)), w_in.size)
    T_rows = T_in.ravel()[at]
    xT = _modulus(w) * T_rows
    zero = xT < 1e-13
    direct = (xT[:, None] >= 2.0 * s_list + 30.0) & ~zero[:, None]
    bridged = ~direct & ~zero[:, None]
    t_pow = np.array([[h ** -s for s in s_list.tolist()] for h in horizons])
    out = _tail_direct(s_list, w, T_rows, t_pow[at], direct)
    if bridged.any():
        out += _tail_bridged(s_list, w, T_rows, bridged)
    if zero.any():
        out[zero] = np.array([h ** (1.0 - s_list) / (s_list - 1.0) for h in horizons])[at[zero]]
    return out.reshape(T_in.shape + w_in.shape + s_list.shape)
