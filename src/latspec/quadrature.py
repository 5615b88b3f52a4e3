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


_SERIES_TERMS = 60
# largest array of one block of bridged rows
_BLOCK_BYTES = 2 ** 19
_BRIDGE_PANEL = 0.25
_BRIDGE_NPTS = 12


def _modulus(z: np.ndarray) -> np.ndarray:
    """|z| as Python's abs computes it (libm hypot); numpy's complex
    absolute rounds differently, and |w| T decides each exponent's regime."""
    return np.hypot(z.real, z.imag)


def _series(s: float, w: np.ndarray, T) -> np.ndarray:
    """Integration-by-parts series at one exponent s for each frequency w[i]
    (T one horizon or one per frequency); valid when |w| T >> s.

    Term k is -(s)_k T^(-(s+k)) / (iw)^(k+1), the previous term times
    (s + k - 1) / (iw T).  Every row gets all _SERIES_TERMS terms from one
    cumprod and their partial sums from one cumsum, and keeps the partial
    sum at its own stopping index: the last term before the first ratio
    r = (s + k) / (|w| T) above 1 (the optimal truncation of an asymptotic
    series), or the first term below 1e-18 of its partial sum.
    """
    iw = 1j * w
    x = _modulus(w) * T
    q = 1.0 / (iw * T)
    sk = s + np.arange(_SERIES_TERMS - 1)
    term0 = -(T ** -s) / iw
    totals = np.cumsum(np.cumprod(np.column_stack([term0, sk * q[:, None]]), axis=1), axis=1)
    ratio = sk / x[:, None]
    mags = np.cumprod(np.column_stack([_modulus(term0), ratio]), axis=1)
    grows = ratio > 1.0
    small = mags[:, 1:] < 1e-18 * _modulus(totals[:, 1:])
    last = _SERIES_TERMS - 1
    stop = np.minimum(np.where(grows.any(axis=1), grows.argmax(axis=1), last),
                      np.where(small.any(axis=1), small.argmax(axis=1) + 1, last))
    return np.exp(iw * T) * totals[np.arange(w.size), stop]


def _tail_direct(s_list: np.ndarray, w: np.ndarray, T, mask: np.ndarray) -> np.ndarray:
    """Tails at the (row, exponent) pairs of ``mask``, all in the direct
    regime, largest exponent first: the downward recurrence from I(s + 1)
    where s + 1 is in the list and masked in the same row, the series
    elsewhere.  T is one horizon or one per row; unmasked pairs are 0.
    The recurrence runs on every row that has a masked pair, and the
    series then overwrites the rows where it starts a run."""
    out = np.zeros(mask.shape, dtype=complex)
    rows = np.nonzero(mask.any(axis=1))[0]
    if not rows.size:
        return out
    sub = mask[rows]
    wr = w[rows]
    Tr = T if np.ndim(T) == 0 else T[rows]
    iw = 1j * wr
    edge = np.exp(iw * Tr)
    vals = np.zeros(sub.shape, dtype=complex)
    column = {s: j for j, s in enumerate(s_list.tolist())}
    for j in np.argsort(-s_list, kind="stable"):
        s = float(s_list[j])
        up = column.get(s + 1.0)
        head = sub[:, j]
        if up is not None:
            vals[:, j] = (s * vals[:, up] - Tr ** -s * edge) / iw
            head = head & ~sub[:, up]
        if head.any():
            vals[head, j] = _series(s, wr[head], Tr if np.ndim(Tr) == 0 else Tr[head])
    out[rows] = np.where(sub, vals, 0.0)
    return out


def _tail_bridged(s_list: np.ndarray, w: np.ndarray, T: float, mask: np.ndarray) -> np.ndarray:
    """Tails at the (row, exponent) pairs of ``mask``, whose |w| T is below
    the direct edge: t = T e^u on Gauss panels of _BRIDGE_PANEL in u up to
    T* = (2 s_max + 32) / |w| (s_max the row's largest masked exponent),
    plus the tails at T*, direct there.  The panels are those of
    gl_panels(0, log(T* / T), _BRIDGE_PANEL, _BRIDGE_NPTS); rows that share
    a panel layout are integrated together, in blocks whose largest array
    stays within _BLOCK_BYTES.  Unmasked pairs are 0."""
    x0, w0 = (np.asarray(v) for v in _gl_nodes(_BRIDGE_NPTS))
    out = np.zeros(mask.shape, dtype=complex)
    rows = np.nonzero(mask.any(axis=1))[0]
    s_max = np.where(mask[rows], s_list, -np.inf).max(axis=1)
    t_star = (2.0 * s_max + 32.0) / _modulus(w[rows])
    b = np.log(t_star / T)
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
            t = T * np.exp(u)
            phase = np.exp(1j * w[rows[g]][:, None] * t) * uw
            powers = t[:, None, :] ** (1.0 - s_list[None, :, None])
            out[rows[g]] = np.einsum("gsn,gn->gs", powers, phase)
    out[rows] = np.where(mask[rows], out[rows], 0.0) + _tail_direct(s_list, w[rows], t_star, mask[rows])
    return out


def _check_tail_args(s: float, w: np.ndarray, T: float) -> None:
    if s <= 1:
        raise ValueError(f"tail requires s > 1, got s={s}")
    if T <= 0:
        raise ValueError(f"tail requires T > 0, got T={T}")
    bad = w.imag < -1e-12 * np.maximum(1.0, _modulus(w))
    if bad.any():
        raise ValueError(f"tail requires Im(w) >= 0 for convergence, got w={complex(w[bad][0])}")


def tail_integral_vec(s_list: np.ndarray, w, T: float) -> np.ndarray:
    """integral_T^inf t^(-s) exp(i w t) dt for each s > 1 in ``s_list`` at
    each frequency w with Im(w) >= 0.

    ``w`` is one frequency (the result has one entry per exponent) or an
    array of them (one row per frequency).  Each row is computed on its
    own, so a row does not depend on the others in the call.  Along each
    run of exponents a unit apart one series serves the run; the bridged
    rows share one quadrature per panel layout.
    """
    s_list = np.asarray(s_list, dtype=float)
    w_in = np.asarray(w, dtype=complex)
    w = np.atleast_1d(w_in)
    _check_tail_args(float(s_list.min()), w, T)
    xT = _modulus(w) * T
    zero = xT < 1e-13
    direct = (xT[:, None] >= 2.0 * s_list + 30.0) & ~zero[:, None]
    bridged = ~direct & ~zero[:, None]
    out = _tail_direct(s_list, w, T, direct)
    if bridged.any():
        out += _tail_bridged(s_list, w, T, bridged)
    out[zero] = T ** (1.0 - s_list) / (s_list - 1.0)
    return out[0] if w_in.ndim == 0 else out
