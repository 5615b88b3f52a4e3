"""Finitely supported potentials on Z^d and trace moments of H^n - H0^n.

The free operator is the discrete Laplacian acting as the average over
nearest neighbours with weight 1/2 per step,

    (H0 f)(n) = (1/2) * sum_j [ f(n + e_j) + f(n - e_j) ],

whose spectrum is the segment [-d, d].  A potential is a finite complex-valued
function on the lattice; H = H0 + V.  For n = 1..4 the trace of H^n - H0^n
reduces to short closed forms in V (odd powers of H0 are traceless on the
bipartite lattice, and the diagonal of H0^2 equals d/2), which
``trace_moments`` implements.  ``brute_force_moments`` recomputes the same
traces by applying the stencil itself and serves as the independent
cross-check: closed walks that never visit the support contribute
identically to H^n and H0^n, so only the diagonal entries at sites within
l1 distance 2 of the support differ, and each follows from H and H0
applied twice to that site's unit vector.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

Site = tuple[int, ...]

# the exponent q of the l^q quasi-norm that the eigenvalue bounds use
_QUASI_NORM_Q = 2.0 / 3.0
# most (site, ball site) entries of brute_force_moments' arrays; the
# 343-site cube {-3, ..., 3}^3 takes 25,375
_WALK_MAX_ENTRIES = 2 ** 20


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


def _plus(a: Site, b: Site) -> Site:
    return tuple(x + y for x, y in zip(a, b))


def brute_force_moments(potential: Potential) -> list[complex]:
    """Oracle for Tr(H^n - H0^n), n = 1..4 (the moments a ``MomentSet``
    holds), from the stencil applied literally.

    A closed walk of length at most 4 never leaves the l1 ball of radius 2
    around its start, so (H^n - H0^n)_yy vanishes unless y lies within l1
    distance 2 of the support.  For each such y, H e_y and H^2 e_y are
    exact on that ball, and H is complex symmetric: (H^2)_yy = sum
    (H e_y)^2, (H^3)_yy = sum (H^2 e_y)(H e_y) and (H^4)_yy = sum
    (H^2 e_y)^2, and likewise for H0.  All y are taken at once, as arrays
    of (y, ball site) entries; an input that needs more than
    _WALK_MAX_ENTRIES of them is refused before any array is built.
    """
    d = potential.d
    origin = (0,) * d
    steps = [tuple(s * (k == j) for k in range(d)) for j in range(d) for s in (1, -1)]
    ball = sorted({_plus(a, b) for a in (origin, *steps) for b in (origin, *steps)})
    ys = sorted({_plus(y, o) for y in potential.support for o in ball})
    if len(ys) * len(ball) > _WALK_MAX_ENTRIES:
        raise ValueError(f"the walks from {len(ys)} sites over a ball of {len(ball)} sites take "
                         f"{len(ys) * len(ball)} entries, more than {_WALK_MAX_ENTRIES}")
    index = {o: i for i, o in enumerate(ball)}
    # row k: the ball index of each ball site's k-th neighbour, or len(ball)
    # for one outside the ball, which reads a padded 0 (H e_y and H^2 e_y
    # vanish there)
    nbr = np.array([[index.get(_plus(o, s), len(ball)) for s in steps] for o in ball]).T
    table = potential.as_dict()
    vs = np.array([[table.get(_plus(y, o), 0.0) for o in ball] for y in ys], dtype=complex).reshape(-1, len(ball))
    e = np.array([[o == origin for o in ball]], dtype=complex)

    def diagonals(v: np.ndarray) -> np.ndarray:
        """(H^n)_yy, n = 1..4, one column per y, for H = H0 + v on each ball."""
        def apply(f: np.ndarray) -> np.ndarray:
            padded = np.pad(f, ((0, 0), (0, 1)))
            return 0.5 * sum(padded[:, k] for k in nbr) + v * f

        u = apply(e)
        w = apply(u)
        return np.stack([u[:, index[origin]], np.sum(u * u, axis=1), np.sum(w * u, axis=1), np.sum(w * w, axis=1)])

    return [complex(m) for m in np.sum(diagonals(vs) - diagonals(np.zeros_like(e)), axis=1)]
