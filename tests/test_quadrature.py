import cmath

import numpy as np
import pytest

from latspec import quadrature
from latspec.quadrature import gl_panels, tail_integral_vec


def test_gl_panels_exact_on_polynomials():
    nodes, weights = gl_panels(0.0, 2.0, 0.5, npts=6)
    # 6-point Gauss is exact through degree 11
    for p in range(11):
        val = float(np.sum(weights * nodes ** p))
        assert val == pytest.approx(2.0 ** (p + 1) / (p + 1), rel=1e-13)


def test_gl_panels_degenerate_interval():
    nodes, weights = gl_panels(1.0, 1.0, 0.5)
    assert nodes.size == 0 and weights.size == 0


def test_gl_panels_remainder_absorbed():
    # panel_len not dividing the range: total weight still equals the length
    nodes, weights = gl_panels(0.0, 1.0, 0.3, npts=8)
    assert float(np.sum(weights)) == pytest.approx(1.0, abs=1e-14)
    assert nodes.min() > 0.0 and nodes.max() < 1.0


def test_tail_integral_against_closed_form():
    # int_T^inf t^(-s) e^(iwt) dt for s > 1, w = 0 reduces to T^(1-s)/(s-1)
    s_list = np.array([1.5, 2.5, 3.5])
    got = tail_integral_vec(s_list, np.array([0.0]), 50.0)[0]
    for k, s in enumerate(s_list):
        assert got[k] == pytest.approx(50.0 ** (1.0 - s) / (s - 1.0), rel=1e-10)


def _brute_tail(s_list, w, T):
    # brute-force finite quadrature on [T, T + 2000] (many cycles), plus the
    # remaining tail beyond it, which is ~1e-5 of the whole at s = 1.5
    nodes, weights = gl_panels(T, T + 2000.0, 0.5, npts=12)
    rest = tail_integral_vec(s_list, np.array([w]), T + 2000.0)[0]
    return [np.sum(weights * nodes ** (-s) * np.exp(1j * w * nodes)) + rest[k]
            for k, s in enumerate(s_list)]


def test_tail_integral_oscillatory_vs_quadrature():
    # moderate w: |w| T = 36 puts s = 1.5 and 2.5 on the direct series
    # (|w| T >= 2 s + 30) and s = 3.5 on the logarithmic bridge
    s_list, w, T = np.array([1.5, 2.5, 3.5]), 0.9, 40.0
    got = tail_integral_vec(s_list, np.array([w]), T)[0]
    for k, ref in enumerate(_brute_tail(s_list, w, T)):
        assert abs(got[k] - ref) <= 1e-11 * abs(ref)


def test_tail_series_stops_relative_to_its_sum():
    # |I| ~ 1e-26 here: a stopping test absolute below |sum| = 1 kept one
    # term and came out 19% off (exactly the first omitted term)
    s_list, w, T = np.array([10.5]), 0.2206, 250.0
    assert abs(w) * T >= 2.0 * s_list[0] + 30.0
    got = tail_integral_vec(s_list, np.array([w]), T)[0, 0]
    ref = _brute_tail(s_list, w, T)[0]
    assert abs(got - ref) <= 1e-11 * abs(ref)


def _tail_series(s, w, T, max_terms=60):
    # the integration-by-parts series term by term, each term the previous
    # one times (s + k) / (iwT), stopped before a growing term or at a
    # term below 1e-18 of the sum: the sequential oracle of the engine's
    # array series
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


def test_series_block_matches_sequential_series(rng):
    # one cumprod/cumsum block over 60 terms, truncated per row, against
    # the term-by-term loop, over exponents 1.5..12.5 and the whole direct
    # regime; numpy's complex products and quotients may round differently
    # from Python's (fused multiply-add), so the bound is 4 ulps (2 seen)
    s = rng.choice(np.arange(1.5, 13.0), 2000)
    T = rng.uniform(50.0, 300.0, 2000)
    w = rng.uniform(2.0 * s + 30.0, 3000.0) / T * np.exp(1j * rng.uniform(0.0, np.pi, 2000))
    # damping up to that at distance 1.25 from the band, as in the engine
    w.imag = np.minimum(w.imag, 1.25)
    for s_k in np.unique(s):
        at = s == s_k
        got = quadrature._series(np.full(at.sum(), s_k), w[at], T[at], T[at] ** -s_k)
        for g, w_k, T_k in zip(got, w[at], T[at]):
            ref = _tail_series(float(s_k), complex(w_k), float(T_k))
            assert abs(g - ref) <= 4 * np.finfo(float).eps * abs(ref)


def test_tail_rows_do_not_depend_on_the_batch():
    # a frequency's row is the same, bit for bit, alone or among others,
    # in the direct, bridged and w = 0 regimes
    s_exps = 1.5 + np.arange(11, dtype=float)
    ws = np.array([0.0, 1e-3 + 2e-4j, 0.05, 0.1 - 0.0j, 0.21 + 0.03j, 1.7, -2.3 + 0.4j, 6.0])
    got = tail_integral_vec(s_exps, ws, 240.0)
    for k in range(ws.size):
        assert np.array_equal(tail_integral_vec(s_exps, ws[k:k + 1], 240.0)[0], got[k])


def _direct_w(w_t, theta, T):
    # w = (w_t / T) e^(i theta), nudged up until |w| T >= w_t in floating point
    w = w_t / T * cmath.exp(1j * theta)
    while abs(w) * T < w_t:
        w *= 1.0 + 2.0 ** -52
    return w


def test_tail_recurrence_matches_series_per_exponent():
    # the Green engine's exponents s = d/2 + j, j = 0..10, all in the direct
    # regime, from its edge |w| T = 2 s_max + 30 outward, with Im(w) up to
    # 1.25 as at distance 1.25 from the band: one series and the downward
    # recurrence must reproduce the series at every exponent
    for d in (3, 4):
        s_exps = 0.5 * d + np.arange(11, dtype=float)
        edge = 2.0 * s_exps[-1] + 30.0
        for T in (240.0, 290.0):
            for w_t in (edge, edge + 5.0, 80.0, 200.0, 1000.0):
                for theta in np.linspace(0.0, np.pi, 13):
                    w = _direct_w(w_t, theta, T)
                    if w.imag > 1.25:
                        continue
                    got = tail_integral_vec(s_exps, np.array([w]), T)[0]
                    for k, s in enumerate(s_exps):
                        ref = _tail_series(s, w, T)
                        assert abs(got[k] - ref) <= 1e-14 * abs(ref)


def test_tail_mixed_exponents_keep_the_bridge(monkeypatch):
    # |w| T = 40 puts s = 1.5 .. 4.5 in the direct regime and the rest on
    # the logarithmic bridge, which must still run, once, from the rung
    # above the last direct one; every exponent must also match the
    # brute-force oracle
    s_exps = 1.5 + np.arange(11, dtype=float)
    w, T = 40.0 / 240.0, 240.0
    direct = abs(w) * T >= 2.0 * s_exps + 30.0
    assert direct.any() and not direct.all()
    bridged = []
    bridge = quadrature._tail_bridged

    def counted(s_list, ws, T, low):
        bridged.append(low.tolist())
        return bridge(s_list, ws, T, low)

    monkeypatch.setattr(quadrature, "_tail_bridged", counted)
    got = tail_integral_vec(s_exps, np.array([w]), T)[0]
    assert bridged == [[direct.sum()]] and direct[:direct.sum()].all()
    for k in np.nonzero(direct)[0]:
        ref = _tail_series(s_exps[k], w, T)
        assert abs(got[k] - ref) <= 1e-14 * abs(ref)
    for k, ref in enumerate(_brute_tail(s_exps, w, T)):
        assert abs(got[k] - ref) <= 1e-11 * abs(ref)


def test_tail_integral_refuses_divergent_exponents():
    # at w = 0 the tail of t^(-s) diverges for s <= 1
    for s in (0.5, 1.0):
        with pytest.raises(ValueError, match="s > 1"):
            tail_integral_vec([s], np.array([0.0]), 2.0)


# ---- the tail pass as it was before the one-pass rewrite, kept as the
# bit-for-bit oracle: one exponent's series per call over all 60 terms,
# then the recurrence and the bridge

def _ref_series(s, w, T):
    # (value, stopping index) per row
    iw = 1j * w
    x = quadrature._modulus(w) * T
    q = 1.0 / (iw * T)
    sk = s + np.arange(59)
    term0 = -(T ** -s) / iw
    totals = np.cumsum(np.cumprod(np.column_stack([term0, sk * q[:, None]]), axis=1), axis=1)
    ratio = sk / x[:, None]
    mags = np.cumprod(np.column_stack([quadrature._modulus(term0), ratio]), axis=1)
    grows = ratio > 1.0
    small = mags[:, 1:] < 1e-18 * quadrature._modulus(totals[:, 1:])
    stop = np.minimum(np.where(grows.any(axis=1), grows.argmax(axis=1), 59),
                      np.where(small.any(axis=1), small.argmax(axis=1) + 1, 59))
    return np.exp(iw * T) * totals[np.arange(w.size), stop], stop


def _ref_direct(s_list, w, T, mask):
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
            vals[head, j] = _ref_series(s, wr[head], Tr if np.ndim(Tr) == 0 else Tr[head])[0]
    out[rows] = np.where(sub, vals, 0.0)
    return out


def _ref_bridged(s_list, w, T, mask):
    x0, w0 = (np.asarray(v) for v in quadrature._gl_nodes(12))
    out = np.zeros(mask.shape, dtype=complex)
    rows = np.nonzero(mask.any(axis=1))[0]
    s_max = np.where(mask[rows], s_list, -np.inf).max(axis=1)
    t_star = (2.0 * s_max + 32.0) / quadrature._modulus(w[rows])
    b = np.log(t_star / T)
    n_panels = np.maximum(1, np.floor(b / 0.25).astype(int))
    extra = n_panels * 0.25 < b - 1e-12 * np.maximum(1.0, np.abs(b))
    for n_p, ext in sorted(set(zip(n_panels.tolist(), extra.tolist()))):
        group = np.nonzero((n_panels == n_p) & (extra == ext))[0]
        step = max(1, 2 ** 19 // (8 * s_list.size * 12 * (n_p + ext)))
        for g in (group[i:i + step] for i in range(0, group.size, step)):
            edges = np.tile(0.25 * np.arange(n_p + 1, dtype=float), (g.size, 1))
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
    out[rows] = np.where(mask[rows], out[rows], 0.0) + _ref_direct(s_list, w[rows], t_star, mask[rows])
    return out


def _ref_tail(s_list, w, T):
    xT = quadrature._modulus(w) * T
    zero = xT < 1e-13
    direct = (xT[:, None] >= 2.0 * s_list + 30.0) & ~zero[:, None]
    bridged = ~direct & ~zero[:, None]
    out = _ref_direct(s_list, w, T, direct)
    if bridged.any():
        out += _ref_bridged(s_list, w, T, bridged)
    out[zero] = T ** (1.0 - s_list) / (s_list - 1.0)
    return out


def _w_with_stop(s, stop, T, theta):
    # the first |w| T on a grid from the direct edge out at which the
    # series at exponent s stops at term ``stop``
    w = np.arange(2.0 * s + 30.0, 200.0, 0.01) / T * cmath.exp(1j * theta)
    at = np.nonzero(_ref_series(s, w, T)[1] == stop)[0]
    assert at.size, f"no |w| T gives stop {stop} at s = {s}"
    return w[at[0]]


def test_tail_matches_single_horizon_oracle(rng):
    # one pass at each horizon T equals, bit for bit, the single-horizon
    # oracle: rows in the w = 0, direct and bridged regimes, series
    # stopping just inside the first pass's window, at its edge, just
    # beyond it and late (the 60-term pass), including the rows that stop
    # at no term, and a ladder from 1.5 to 10.5
    window = quadrature._SERIES_WINDOW
    targets = [window - 2, window - 1, window, window + 12, 59]
    cases = []
    for d in (3, 4):
        s_exps = 0.5 * d + np.arange(11, dtype=float)
        freqs = np.arange(-d, d + 1, 2)
        lams = np.concatenate([rng.uniform(-d - 1.0, d + 1.0, 12) - 1j * rng.uniform(0.0, 1.25, 12),
                               rng.uniform(-d, d, 6), [float(d), -1.0, 0.0],
                               [d - 0.02, d - 0.15 - 0.01j, 1e-3, -1.0 + 0.2 - 0.05j]])
        # rows whose head, where the series runs, is the largest exponent
        crafted = [_w_with_stop(s_exps[-1], stop, 250.0, theta) for theta in (0.4, 2.0) for stop in targets]
        assert _ref_series(s_exps[-1], np.array(crafted), 250.0)[1].tolist() == targets * 2
        cases.append((s_exps, np.concatenate([(freqs[:, None] - lams).ravel(), crafted])))
    cases.append((1.5 + np.arange(10, dtype=float), np.array([0.0, 0.05, 0.2206, 1.7 + 0.3j, 0.9])))
    for T in (40.0, 240.0, 250.0, 260.0):
        for s_exps, w in cases:
            assert (w == 0).any()
            xT = quadrature._modulus(w) * T
            direct = xT[:, None] >= 2.0 * s_exps + 30.0
            assert direct.all(axis=1).any() and (~direct & (xT[:, None] > 0)).any()
            got = tail_integral_vec(s_exps, w, T)
            assert got.shape == (w.size, s_exps.size)
            assert np.array_equal(got, _ref_tail(s_exps, w, T))


@pytest.mark.parametrize("s_list", [[1.5, 2.0, 3.0], [1.5, 3.5], [2.5, 1.5], [[1.5, 2.5]], []])
def test_tail_integral_refuses_exponents_off_a_ladder(s_list):
    # the pass serves the ladders s0, s0 + 1, ... of the Green engine only
    with pytest.raises(ValueError, match="ladder"):
        tail_integral_vec(s_list, np.array([0.5]), 40.0)


# ---- the bridge as it was before its whole panels were shared across
# rows, kept as the bit-for-bit oracle: every row builds all its panels,
# their nodes and powers t^(1 - s) itself

def _per_row_bridged(s_list, w, T, low):
    x0, w0 = (np.asarray(v) for v in quadrature._gl_nodes(quadrature._BRIDGE_NPTS))
    out = np.empty((w.size, s_list.size), dtype=complex)
    t_star = (2.0 * s_list[-1] + 32.0) / quadrature._modulus(w)
    b = np.log(t_star / T)
    n_panels = np.maximum(1, np.floor(b / quadrature._BRIDGE_PANEL).astype(int))
    # gl_panels' remainder rule: a short last panel, or the last edge moved to b
    extra = n_panels * quadrature._BRIDGE_PANEL < b - 1e-12 * np.maximum(1.0, np.abs(b))
    for n_p, ext in sorted(set(zip(n_panels.tolist(), extra.tolist()))):
        group = np.nonzero((n_panels == n_p) & (extra == ext))[0]
        step = max(1, quadrature._BLOCK_BYTES // (8 * s_list.size * quadrature._BRIDGE_NPTS * (n_p + ext)))
        for g in (group[i:i + step] for i in range(0, group.size, step)):
            edges = np.tile(quadrature._BRIDGE_PANEL * np.arange(n_p + 1, dtype=float), (g.size, 1))
            if ext:
                edges = np.column_stack([edges, b[g]])
            else:
                edges[:, -1] = b[g]
            half = 0.5 * (edges[:, 1:] - edges[:, :-1])
            mid = 0.5 * (edges[:, 1:] + edges[:, :-1])
            u = (mid[:, :, None] + half[:, :, None] * x0).reshape(g.size, -1)
            uw = (half[:, :, None] * w0).reshape(g.size, -1)
            t = T * np.exp(u)
            phase = np.exp(1j * w[g][:, None] * t) * uw
            powers = t[:, None, :] ** (1.0 - s_list[None, :, None])
            out[g] = np.einsum("gsn,gn->gs", powers, phase)
    top = np.full(w.size, s_list.size - 1)
    out += quadrature._tail_direct(s_list, w, t_star, t_star[:, None] ** -s_list, top)
    return np.where(np.arange(s_list.size) >= low[:, None], out, 0.0)


def test_shared_bridge_panels_match_the_per_row_bridge(monkeypatch):
    # the engine's ladders at d = 3, 4 and 10 and horizons 240, 310 and
    # 2160, |w| log-spaced from 1e-12 to the direct edge, real and with
    # Im w > 0, plus rows whose panel count T* / T lands on a whole
    # number of panels: every tail equals the per-row bridge's bit for bit,
    # over rows with one panel and rows with and without the extra one
    def layout(s_list, w, T):
        b = np.log((2.0 * s_list[-1] + 32.0) / quadrature._modulus(w) / T)
        n_panels = np.maximum(1, np.floor(b / quadrature._BRIDGE_PANEL).astype(int))
        return n_panels, n_panels * quadrature._BRIDGE_PANEL < b - 1e-12 * np.maximum(1.0, np.abs(b))

    counts, extras = set(), set()
    for d in (3, 4, 10):
        s_list = 0.5 * d + np.arange(11, dtype=float)
        for T in (240.0, 310.0, 2160.0):
            mags = np.logspace(-12.0, np.log10((2.0 * s_list[-1] + 30.0) / T), 300)
            on_edges = (2.0 * s_list[-1] + 32.0) / (T * np.exp(quadrature._BRIDGE_PANEL * np.arange(1, 9)))
            w = np.concatenate([mags, mags * np.exp(0.3j), -mags * np.exp(-1.1j), on_edges])
            n_panels, extra = layout(s_list, w, T)
            counts.update(n_panels.tolist())
            extras.update(zip((n_panels == 1).tolist(), extra.tolist()))
            got = tail_integral_vec(s_list, w, T)
            with monkeypatch.context() as m:
                m.setattr(quadrature, "_tail_bridged", _per_row_bridged)
                ref = tail_integral_vec(s_list, w, T)
            assert np.array_equal(got, ref), (d, T)
    assert 1 in counts and max(counts) > 100
    assert extras == {(True, False), (True, True), (False, False), (False, True)}
