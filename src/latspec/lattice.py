"""Finitely supported potentials on Z^d and trace moments of H^n - H0^n.

The free operator is the discrete Laplacian acting as the average over
nearest neighbours with weight 1/2 per step,

    (H0 f)(n) = (1/2) * sum_j [ f(n + e_j) + f(n - e_j) ],

whose spectrum is the segment [-d, d].  A potential is a finite complex-valued
function on the lattice; H = H0 + V.  For n = 1..4 the trace of H^n - H0^n
reduces to short closed forms in V (odd powers of H0 are traceless on the
bipartite lattice, and the diagonal of H0^2 equals d/2), which
``trace_moments`` implements.  ``brute_force_moments`` recomputes the same
traces from dense matrices on a finite box and serves as the independent
cross-check: the difference trace is exact once the box extends 4 sites
beyond the support of V, because closed paths that never visit the support
contribute identically to H^n and H0^n.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

Site = tuple[int, ...]

# the exponent q of the l^q quasi-norm that the eigenvalue bounds use
_QUASI_NORM_Q = 2.0 / 3.0


def validate_dimension(d: int) -> int:
    """Check that d is a positive integer lattice dimension."""
    if isinstance(d, (bool, np.bool_)) or not isinstance(d, (int, np.integer)):
        raise TypeError(f"dimension must be an integer, got {type(d).__name__}")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got d={d}")
    return int(d)


def require_dimension_3(d: int, context: str) -> int:
    """Reject d < 3 for operations whose convergence needs the propagator
    decay t^(-d/3) to be integrable in d dimensions."""
    d = validate_dimension(d)
    if d < 3:
        raise ValueError(
            f"{context} requires lattice dimension d >= 3 (got d={d}): "
            "the time integral of the propagator fails to converge below three dimensions"
        )
    return d


def _is_integer(c) -> bool:
    """True for an int or an integral float, and for their numpy kinds; a
    bool is no coordinate."""
    if isinstance(c, (bool, np.bool_)):
        return False
    if isinstance(c, (int, np.integer)):
        return True
    return isinstance(c, (float, np.floating)) and float(c).is_integer()


@dataclass(frozen=True)
class Potential:
    """Finitely supported complex potential on Z^d.

    Entries are stored sorted lexicographically by site so that iteration
    order (and everything derived from it) is deterministic.  Exact zero
    values are dropped; duplicate sites, site coordinates that are not
    integers (booleans included) and values that are not finite are
    rejected.
    """

    d: int
    entries: tuple[tuple[Site, complex], ...]

    def __init__(self, d: int, values: Mapping[Site, complex] | Iterable[tuple[Site, complex]] = ()):
        d = validate_dimension(d)
        items = list(values.items()) if isinstance(values, Mapping) else list(values)
        seen: dict[Site, complex] = {}
        for site, val in items:
            if not all(_is_integer(c) for c in site):
                raise ValueError(f"site {list(site)} has a coordinate that is not an integer")
            site = tuple(int(c) for c in site)
            if len(site) != d:
                raise ValueError(f"site {site} has {len(site)} coordinates, expected {d}")
            if site in seen:
                raise ValueError(f"duplicate site {site}")
            val = complex(val)
            if not cmath.isfinite(val):
                raise ValueError(f"site {site} has a value that is not finite: {val}")
            seen[site] = val
        ordered = tuple(sorted((kv for kv in seen.items() if kv[1] != 0), key=lambda kv: kv[0]))
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "entries", ordered)

    @property
    def support(self) -> tuple[Site, ...]:
        """Sites carrying an entry, in lexicographic order."""
        return tuple(site for site, _ in self.entries)

    @property
    def values(self) -> np.ndarray:
        return np.array([v for _, v in self.entries], dtype=complex)

    def as_dict(self) -> dict[Site, complex]:
        return dict(self.entries)

    def support_radius(self) -> int:
        """Sup-norm radius of the support (0 for the empty potential)."""
        if not self.entries:
            return 0
        return max(max(abs(c) for c in site) for site, _ in self.entries)

    def scale(self, factor: complex) -> "Potential":
        return Potential(self.d, [(s, factor * v) for s, v in self.entries])

    def is_real(self) -> bool:
        return all(v.imag == 0.0 for _, v in self.entries)

    @staticmethod
    def from_json(text: str) -> "Potential":
        payload = json.loads(text)
        if not isinstance(payload, dict) or "d" not in payload or "entries" not in payload:
            raise ValueError("potential JSON must be an object with 'd' and 'entries'")
        unknown = sorted(set(payload) - {"d", "entries"})
        if unknown:
            raise ValueError(f"potential JSON has an unknown key {unknown[0]!r}")
        if not isinstance(payload["entries"], list):
            raise ValueError("'entries' must be a list")
        entries = []
        for k, rec in enumerate(payload["entries"]):
            if not isinstance(rec, dict) or not isinstance(rec.get("site"), list):
                raise ValueError(f"entry {k} must be an object with a 'site' list")
            unknown = sorted(set(rec) - {"site", "re", "im"})
            if unknown:
                raise ValueError(f"entry {k} has an unknown key {unknown[0]!r}")
            if "re" not in rec and "im" not in rec:
                raise ValueError(f"entry {k} needs 're' or 'im'")
            x, y = rec.get("re", 0.0), rec.get("im", 0.0)
            if not all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in (x, y)):
                raise ValueError(f"entry {k}: 're' and 'im' must be numbers, got {x!r} and {y!r}")
            entries.append((tuple(rec["site"]), complex(float(x), float(y))))
        return Potential(payload["d"], entries)

    @staticmethod
    def from_file(path: str) -> "Potential":
        with open(path, "r", encoding="utf-8") as fh:
            return Potential.from_json(fh.read())


@dataclass(frozen=True)
class MomentSet:
    """Traces d_n = Tr(H^n - H0^n) for n = 1..4."""

    d1: complex
    d2: complex
    d3: complex
    d4: complex

    def as_tuple(self) -> tuple[complex, complex, complex, complex]:
        return (self.d1, self.d2, self.d3, self.d4)


def quasi_norm(potential: Potential) -> float:
    """The l^(2/3) quasi-norm (sum |V_n|^(2/3))^(3/2) of the bounds."""
    if not potential.entries:
        return 0.0
    total = math.fsum(abs(v) ** _QUASI_NORM_Q for _, v in potential.entries)
    return total ** (1.0 / _QUASI_NORM_Q)


def _neighbour_sum(potential: Potential) -> complex:
    """sum_n V_n * sum_j (V_{n+e_j} + V_{n-e_j})."""
    table = potential.as_dict()
    total = 0.0 + 0.0j
    for site, v in potential.entries:
        acc = 0.0 + 0.0j
        for j in range(potential.d):
            for sgn in (1, -1):
                nb = tuple(c + (sgn if k == j else 0) for k, c in enumerate(site))
                acc += table.get(nb, 0.0)
        total += v * acc
    return total


def trace_moments(potential: Potential) -> MomentSet:
    """Closed-form moments of H^n - H0^n for n = 1..4.

    With the 1/2 hopping weight the only free-operator contributions through
    fourth order are the diagonal of H0^2 (equal to d/2 at every site) and the
    nearest-neighbour correlation 2 Tr(H0 V H0 V) = (1/2) sum_n V_n sum_nb V_nb.
    """
    d = potential.d
    v = potential.values
    s1 = complex(np.sum(v))
    s2 = complex(np.sum(v * v))
    s3 = complex(np.sum(v * v * v))
    s4 = complex(np.sum(v * v * v * v))
    d1 = s1
    d2 = s2
    d3 = s3 + 1.5 * d * s1
    d4 = s4 + 2.0 * d * s2 + 0.5 * _neighbour_sum(potential)
    return MomentSet(d1, d2, d3, d4)


@functools.lru_cache(maxsize=8)
def _box_free_operator(d: int, radius: int) -> tuple[np.ndarray, np.ndarray, dict]:
    """H0 on the box, its square, and the site index (cached: V-independent)."""
    sites = list(itertools.product(range(-radius, radius + 1), repeat=d))
    index = {s: i for i, s in enumerate(sites)}
    m = len(sites)
    h0 = np.zeros((m, m))
    for s, i in index.items():
        for j in range(d):
            for sgn in (1, -1):
                nb = tuple(c + (sgn if k == j else 0) for k, c in enumerate(s))
                if nb in index:
                    h0[i, index[nb]] = 0.5
    return h0, h0 @ h0, index


def brute_force_moments(potential: Potential, box_radius: int | None = None) -> list[complex]:
    """Dense-matrix oracle for Tr(H^n - H0^n), n = 1..4 (the moments a
    ``MomentSet`` holds).

    The operators are restricted to the box [-box_radius, box_radius]^d.  The
    difference trace is exact (not merely approximate) provided
    box_radius >= support_radius + 4, since any closed path of length at
    most 4 that touches both the support and the box boundary would have
    to travel further than the box allows; smaller boxes are refused.
    """
    d = potential.d
    r_supp = potential.support_radius()
    if box_radius is None:
        box_radius = r_supp + 4
    if box_radius < r_supp + 4:
        raise ValueError(
            f"box_radius={box_radius} too small: need >= support_radius + 4 = {r_supp + 4}; "
            "the truncated trace would be wrong, not approximate"
        )
    h0, h02, index = _box_free_operator(d, box_radius)
    m = h0.shape[0]
    vdiag = np.zeros(m, dtype=complex)
    for site, val in potential.entries:
        vdiag[index[site]] = val
    h = h0 + np.diag(vdiag)
    # H^2 from the cached H0^2 in O(m^2): cross terms are row/col scalings.
    h2 = h02 + h0 * vdiag[None, :] + vdiag[:, None] * h0 + np.diag(vdiag * vdiag)
    return [
        complex(np.sum(vdiag)),
        complex(np.trace(h2) - np.trace(h02)),
        # Tr(A^3) = sum(A^2 ∘ A^T) and Tr(A^4) = sum(A^2 ∘ (A^2)^T) avoid a
        # full matmul.
        complex(np.sum(h2 * h.T) - np.sum(h02 * h0.T)),
        complex(np.sum(h2 * h2.T) - np.sum(h02 * h02.T)),
    ]
