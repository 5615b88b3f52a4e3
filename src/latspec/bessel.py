"""Integer-order Bessel functions J_m(t), the factors of the lattice free propagator.

Everything here is self-contained (no external special-function library) so
that the evaluation chain stays auditable:

* power series for small arguments,
* Miller's downward recurrence, normalized by J_0 + 2 sum J_{2k} = 1, for the
  broad middle range (vectorized over many arguments at once, with on-the-fly
  rescaling so unnormalized iterates never overflow),
* the large-argument expansion J_m(t) ~ sqrt(2/(pi t)) Re[e^{i chi} A_m(t)],
  chi = t - m pi/2 - pi/4, whose complex amplitude coefficients are shared
  with the resolvent module's oscillatory tail integrals.

The free propagator on Z^d factorizes over coordinates into a product of
Bessel values with a quarter-turn phase per unit of |n|; its pointwise decay
t^(-d/3) is what makes the time representation of the resolvent integrable
for d >= 3.  ``check_uniform_bound`` and ``beta_estimate`` measure the
transition-regime constant and the integral beta = sup_m int_1^inf |J_m|^d dt
empirically; both are reported artifacts with no asserted ground truth.

scipy is imported only inside ``beta_estimate``, for its Simpson rule, and
only the ``bessel-check`` subcommand calls that; the pipeline subcommands
load numpy alone.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .lattice import require_dimension_3
from .quadrature import gl_panels

_RESCALE = 1e250
_INV_RESCALE = 1e-250
# bessel_j_grid refuses a grid larger than this (64 MiB), which every
# grid of bessel-check and of the oscillatory engine's orbits up to
# max_j |n_j| = 192 stays within
_GRID_BYTES = 2 ** 26
# terms of the power series and of the large-argument expansion at most
_SERIES_TERMS = 120
_ASYMPTOTIC_TERMS = 28
# check_uniform_bound's grid: this many orders by arguments, spread evenly
# over its ranges
_UNIFORM_GRID = (100, 400)
# largest order and argument check_uniform_bound accepts: its Bessel grid
# has (m + 1) x 400 values, at most 32 MB, and Miller's recurrence starts
# above both
_UNIFORM_MAX = 10_000
# beta_estimate's Simpson step, and its largest order and horizon T: the
# grid of (m_max + 1) x (T - 1) / _BETA_DT values stays under 65 MB
_BETA_DT = 0.05
_BETA_M_MAX = 200
_BETA_T_MAX = 2000.0


def _series_value(m: int, t: float) -> float:
    """Ascending power series; m >= 0, t >= 0 small enough that terms decay."""
    if t == 0.0:
        return 1.0 if m == 0 else 0.0
    log_pref = m * math.log(0.5 * t) - math.lgamma(m + 1)
    if log_pref < -745.0:  # below double-precision underflow
        return 0.0
    pref = math.exp(log_pref)
    q = -0.25 * t * t
    term = 1.0
    total = 1.0
    for k in range(1, _SERIES_TERMS):
        term *= q / (k * (m + k))
        total += term
        if abs(term) < 1e-17 * abs(total):
            break
    return pref * total


def hankel_amplitude_coeffs(m: int, n_terms: int) -> np.ndarray:
    """Coefficients a_j of the complex amplitude A_m(t) = sum_j a_j t^(-j).

    a_0 = 1, a_j = a_{j-1} * i * (4m^2 - (2j-1)^2) / (8j).  The real and
    imaginary parts reproduce the classical P and Q cosine/sine series.
    """
    mu = 4.0 * m * m
    a = np.empty(n_terms, dtype=complex)
    a[0] = 1.0
    for j in range(1, n_terms):
        a[j] = a[j - 1] * 1j * (mu - (2 * j - 1) ** 2) / (8.0 * j)
    return a


def _asymptotic_value(m: int, t: float) -> float:
    """Large-argument expansion; m >= 0, t large versus m^2."""
    mu = 4.0 * m * m
    amp = 1.0 + 0.0j
    term = 1.0 + 0.0j
    prev = math.inf
    for j in range(1, _ASYMPTOTIC_TERMS):
        term *= 1j * (mu - (2 * j - 1) ** 2) / (8.0 * j * t)
        mag = abs(term)
        if mag >= prev:
            break
        amp += term
        prev = mag
        if mag < 1e-18:
            break
    chi = t - 0.5 * m * math.pi - 0.25 * math.pi
    val = math.sqrt(2.0 / (math.pi * t)) * (np.exp(1j * chi) * amp).real
    return float(val)


def _miller_grid(tp: np.ndarray, m_max: int) -> np.ndarray:
    """All orders 0..m_max at every t in tp (strictly positive), by downward
    recurrence from above the turning point, normalized per column.

    Unnormalized iterates grow by orders of magnitude; columns are rescaled
    by 1e-250 whenever they exceed 1e250, with per-column counts recorded at
    storage time so each stored row can be mapped back to the final scale.
    The counts take the narrowest integer type that holds the number of
    steps, and the stored rows are normalized and mapped back in place, one
    row at a time, so the peak stays near the output's size.
    """
    tp = np.asarray(tp, dtype=float)
    nt = tp.size
    tmax = float(tp.max())
    base = max(m_max, int(math.ceil(tmax)), 1)
    start = base + int(8.0 * base ** (1.0 / 3.0)) + 50
    if start % 2:
        start += 1
    inv_t = 1.0 / tp
    jp = np.zeros(nt)
    jc = np.full(nt, 1e-300)
    sc_now = np.zeros(nt, dtype=np.int64)
    norm = np.zeros(nt)
    rows = np.zeros((m_max + 1, nt))
    sc_at = np.zeros((m_max + 1, nt), dtype=np.min_scalar_type(start))
    for k in range(start, -1, -1):
        if k <= m_max:
            rows[k] = jc
            sc_at[k] = sc_now
        if k % 2 == 0:
            norm += (1.0 if k == 0 else 2.0) * jc
        if k > 0:
            jn = (2.0 * k) * inv_t * jc - jp
            jp, jc = jc, jn
            big = np.abs(jc) > _RESCALE
            if big.any():
                jc[big] *= _INV_RESCALE
                jp[big] *= _INV_RESCALE
                norm[big] *= _INV_RESCALE
                sc_now[big] += 1
    with np.errstate(under="ignore"):
        for row, sc in zip(rows, sc_at):
            row /= norm
            row *= float(_INV_RESCALE) ** (sc_now - sc)
    return rows


def bessel_j_grid(t: Sequence[float] | np.ndarray, m_max: int) -> np.ndarray:
    """J_m(t) for m = 0..m_max over an array of t >= 0; shape (m_max+1, len(t)).

    A grid of more than _GRID_BYTES is refused before anything is allocated.
    """
    if m_max < 0:
        raise ValueError(f"m_max must be >= 0, got {m_max}")
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if (t < 0).any():
        raise ValueError("bessel_j_grid requires t >= 0; use parity for negative arguments")
    size = 8 * (m_max + 1) * t.size
    if size > _GRID_BYTES:
        raise ValueError(f"a Bessel grid of {m_max + 1} orders x {t.size} arguments takes "
                         f"{size / 2 ** 20:.0f} MiB, above the bound of {_GRID_BYTES // 2 ** 20} MiB")
    pos = t > 0
    if pos.all():
        return _miller_grid(t, m_max)
    out = np.zeros((m_max + 1, t.size))
    out[0, ~pos] = 1.0
    if pos.any():
        out[:, pos] = _miller_grid(t[pos], m_max)
    return out


def bessel_j(m: int, t: float) -> float:
    """J_m(t) for any integer m and real t: power series for |t| <= 12,
    the large-argument expansion for |t| >= max(35, 3 m^2), Miller's
    recurrence in between."""
    m = int(m)
    t = float(t)
    sign = 1.0
    mm = abs(m)
    if m < 0 and mm % 2 == 1:
        sign = -sign  # J_{-m} = (-1)^m J_m
    tt = abs(t)
    if t < 0 and mm % 2 == 1:
        sign = -sign  # J_m(-t) = (-1)^m J_m(t)
    if tt <= 12.0:
        return sign * _series_value(mm, tt)
    if tt >= max(35.0, 3.0 * mm * mm):
        return sign * _asymptotic_value(mm, tt)
    col = _miller_grid(np.array([tt]), mm)
    return sign * float(col[mm, 0])


def integral_representation(m: int, t: float) -> float:
    """(1/pi) int_0^pi cos(m theta - t sin theta) d theta, by panel quadrature.

    Independent cross-check of bessel_j.  The phase swings through O(m + t)
    cycles on [0, pi], so the panel count grows with m + |t| to keep
    roughly four panels (48 Gauss nodes) per cycle.
    """
    cycles = (m + abs(t)) / (2.0 * math.pi)
    n_panels = max(64, int(4.0 * cycles) + 8)
    nodes, weights = gl_panels(0.0, math.pi, math.pi / n_panels, npts=12)
    vals = np.cos(m * nodes - t * np.sin(nodes))
    return float(np.sum(vals * weights) / math.pi)


def check_uniform_bound(
    eps: float,
    m_range: tuple[int, int] = (1, 200),
    t_range: tuple[float, float] = (1.0, 400.0),
) -> dict:
    """Empirical constants for the three large-parameter regimes of J_m(t).

    Transition (|m - t| < eps*t): C_emp = max |J_m(t)| t^(1/4) (t^(1/3) + |m-t|)^(1/4).
    Oscillatory (t >= (1+eps) m): ratio of |J_m(t)| to the envelope sqrt(2/(pi t)).
    Exponential (m >= (1+eps) t): per-order geometric mean |J_m(t)|^(1/m) against
    the saddle value e t / (2m), which it must stay below.
    Points with t < 1 are excluded (the bound shapes are stated for t >= 1).
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0,1), got {eps}")
    if not (m_range[1] <= _UNIFORM_MAX and t_range[1] <= _UNIFORM_MAX):
        raise ValueError(f"orders and arguments must not exceed {_UNIFORM_MAX}, "
                         f"got m up to {m_range[1]} and t up to {t_range[1]}")
    nm, nt = _UNIFORM_GRID
    m_vals = np.unique(np.linspace(m_range[0], m_range[1], nm).round().astype(int))
    m_vals = m_vals[m_vals >= 0]
    t_vals = np.linspace(t_range[0], t_range[1], nt)
    excluded = int(np.sum(t_vals < 1.0))
    t_vals = t_vals[t_vals >= 1.0]
    if m_vals.size == 0 or t_vals.size == 0:
        raise ValueError("grid is empty after applying t >= 1")
    jm = bessel_j_grid(t_vals, int(m_vals.max()))[m_vals, :]
    absj = np.abs(jm)
    mg = m_vals[:, None].astype(float)
    tg = t_vals[None, :]

    def _argmax_point(mask: np.ndarray, quantity: np.ndarray):
        q = np.where(mask, quantity, -np.inf)
        if not mask.any():
            return None, None
        i, j = np.unravel_index(int(np.argmax(q)), q.shape)
        return float(q[i, j]), {"m": int(m_vals[i]), "t": float(t_vals[j])}

    trans_mask = np.abs(mg - tg) < eps * tg
    c_emp, worst = _argmax_point(trans_mask, absj * tg ** 0.25 * (tg ** (1.0 / 3.0) + np.abs(mg - tg)) ** 0.25)
    if c_emp is None:
        raise ValueError("grid does not cover the transition regime |m - t| < eps*t")
    osc_mask = tg >= (1.0 + eps) * mg
    osc_ratio, osc_pt = _argmax_point(osc_mask, absj / np.sqrt(2.0 / (np.pi * tg)))
    exp_mask = (mg >= (1.0 + eps) * tg) & (mg >= 5)
    with np.errstate(divide="ignore"):
        exp_quant = absj ** (1.0 / mg) * (2.0 * mg / (np.e * tg))
    exp_ratio, exp_pt = _argmax_point(exp_mask, exp_quant)
    return {
        "eps": eps,
        "C_emp": c_emp,
        "worst_point": worst,
        "oscillatory_max_ratio": osc_ratio,
        "oscillatory_point": osc_pt,
        "exponential_max_ratio": exp_ratio,
        "exponential_point": exp_pt,
        "excluded_points_t_lt_1": excluded,
        "grid_spec": {"m_range": list(m_range), "t_range": list(t_range), "grid": list(_UNIFORM_GRID)},
    }


def beta_estimate(d: int, m_max: int = 200, T: float = 1000.0) -> dict:
    """Estimate beta = sup_m int_1^inf |J_m(t)|^d dt.

    The finite part [1, T] uses Simpson's rule on a uniform grid of step
    _BETA_DT, with a coarse/fine comparison as the error estimate; the tail
    beyond T is bounded analytically through |J_m(t)| <= sqrt(2/(pi t)):
    tail <= (2/pi)^(d/2) * (2/(d-2)) * T^(1-d/2).  T must lie in [10, 2000]
    and m_max in [0, 200].
    """
    # imported here, not at the top: loading scipy would add most of a fresh
    # interpreter's start-up to every CLI run
    from scipy.integrate import simpson

    d = require_dimension_3(d, "beta_estimate")
    if not 10.0 <= T <= _BETA_T_MAX:
        raise ValueError(f"T must lie in [10, {_BETA_T_MAX:g}], got {T}")
    if not 0 <= m_max <= _BETA_M_MAX:
        raise ValueError(f"m_max must lie in [0, {_BETA_M_MAX}], got {m_max}")
    n_steps = int(math.ceil((T - 1.0) / _BETA_DT))
    if n_steps % 2:
        n_steps += 1
    t = np.linspace(1.0, T, n_steps + 1)
    jm = bessel_j_grid(t, m_max)
    integrand = np.abs(jm) ** d
    per_m = simpson(integrand, x=t, axis=1)
    coarse = simpson(integrand[:, ::2], x=t[::2], axis=1)
    err = float(np.max(np.abs(per_m - coarse))) / 15.0
    tail_bound = (2.0 / math.pi) ** (0.5 * d) * (2.0 / (d - 2)) * T ** (1.0 - 0.5 * d)
    m_star = int(np.argmax(per_m))
    # Cauchy-style check that the integrand has stopped contributing.
    half = integrand[m_star, t >= 0.5 * T]
    last_chunk = float(simpson(half, x=t[t >= 0.5 * T]))
    return {
        "d": d,
        "T": T,
        "per_m": per_m.tolist(),
        "sup": float(per_m[m_star]),
        "argmax_m": m_star,
        "tail_bound": tail_bound,
        "beta_sup": float(per_m[m_star]) + tail_bound,
        "quadrature_err": err,
        "last_half_interval": last_chunk,
    }
