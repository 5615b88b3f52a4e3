"""Seeded inputs and output oracles for the three benchmark workloads.

Every workload writes potential JSON files; the CLI receives only those
files.  The workload seed picks a lattice symmetry (a signed permutation of
the axes plus a translation) that is applied to every potential.  Such a
symmetry leaves D(z), its zeros and the work the pipeline does unchanged,
so runs on different seeds feed different files but stay comparable.  The
``eigs_multisite`` draws themselves come from a separate panel seed, so a
claim can be re-checked on unseen draws by changing it.

The oracles avoid the library wherever the problem allows it: off-band
real kernels come from a Laplace integral of scipy's modified Bessel
functions, and real eigenvalues from ``brentq`` on them.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
import random
import warnings
from dataclasses import dataclass
from pathlib import Path

D = 3
R_OUTER = 1.0 - 1e-3  # the CLI's default search radius

LAM_TOL = 1e-8  # relative, on lambda(z1); the quad kernel is good to ~1e-13
Z_TOL = 1e-7
# trace-identity tolerances of the acceptance gates c07 and c08
JENSEN_TOL = 1e-6
RHO0_FLOOR = -1e-6
SIN_TOL = 1e-3
# eigs: |D| at a reported zero through the time-representation engine, and
# the Jensen mismatch allowed on a counting circle kept JENSEN_CLEAR away
# from every reported zero.  A zero missed at |z0| < r moves the Jensen sum
# by log(r/|z0|), so only a missed zero in r*exp(-COUNT_TOL) < |z0| < R_OUTER
# goes unseen: the rim 0.995 < |z| < 0.999 when the first radius is clear.
ZERO_RESID_TOL = 1e-6
COUNT_TOL = 1e-6
JENSEN_CLEAR = 0.005
# 4096 trapezoid points converge like exp(-4096 * min(log(1/r), clearance)),
# below 1e-8 on every radius here; the radii are tried largest first
JENSEN_POINTS = 4096
JENSEN_RADII = tuple(round(0.995 - 0.001 * k, 3) for k in range(500))

V3 = [((0, 0, 0), 3.0 + 0j)]
SWEEP_V = [((0, 0, 0), 3.0 + 0j), ((1, 1, 0), -2.5 + 0j)]
SWEEP_GRID = (0.6, 1.4, 5)
SWEEP_GRID_TINY = (0.6, 1.4, 2)
PANEL_SIZE = 4


@dataclass
class Verdict:
    ok: bool
    why: str = ""


@dataclass
class Op:
    """One input of a workload: the CLI arguments around its potential file
    (`{out}` is replaced by a fresh output path per operation) and the
    oracle that judges an output."""

    label: str
    potential: Path
    cli: list
    check: "callable"  # (output path) -> Verdict


# ------------------------------------------------------------------ inputs

def symmetry(rng: random.Random):
    """A random lattice symmetry: signed permutation of the axes, then a
    translation."""
    perm = list(range(D))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(D)]
    shift = [rng.randint(-4, 4) for _ in range(D)]
    return lambda site: [signs[j] * site[perm[j]] + shift[j] for j in range(D)]


def write_potential(path: Path, entries, transform) -> Path:
    payload = {
        "d": D,
        "entries": [
            {"site": transform(list(site)), "re": v.real, "im": v.imag}
            for site, v in entries
        ],
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def multisite_draws(panel_seed: int, count: int):
    """`count` complex potentials, each with 4-6 sites in {-1,0,1}^2 x {0},
    |V_n| uniform in [0.8, 1.6] and uniform phase.  Never filtered."""
    rng = random.Random(panel_seed)
    plane = [(a, b, 0) for a in (-1, 0, 1) for b in (-1, 0, 1)]
    draws = []
    for _ in range(count):
        sites = rng.sample(plane, rng.randint(4, 6))
        draws.append([(s, cmath.rect(rng.uniform(0.8, 1.6), rng.uniform(0.0, 2.0 * math.pi)))
                      for s in sites])
    return draws


def build(name: str, seed: int, panel_seed: int, tiny: bool, work: Path) -> "list[Op]":
    """The inputs of one workload, written under `work`.  `tiny` shrinks
    the grids for the smoke self-test."""
    transform = symmetry(random.Random(seed))
    if name == "trace_v3":
        kernel = RealKernel()
        pot = write_potential(work / "v3.json", V3, transform)
        extra = ["--jensen-grid", "256", "--r-list", "0.5"] if tiny else []
        return [Op("v3", pot, ["trace-check", "-p", str(pot), "-o", "{out}"] + extra,
                   lambda out: check_trace_v3(out, pot, kernel))]
    if name == "sweep_coupling":
        kernel = RealKernel()
        grid = SWEEP_GRID_TINY if tiny else SWEEP_GRID
        pot = write_potential(work / "sweep.json", SWEEP_V, transform)
        cli = ["sweep", "-p", str(pot), "--scale-grid", "%g:%g:%d" % grid, "-o", "{out}"]
        return [Op("sweep", pot, cli, lambda out: check_sweep(out, pot, kernel, grid))]
    if name == "eigs_multisite":
        oracle = MultisiteOracle()
        ops = []
        for k, entries in enumerate(multisite_draws(panel_seed, 1 if tiny else PANEL_SIZE)):
            pot = write_potential(work / f"draw{k}.json", entries, transform)
            ops.append(Op(f"draw{k}", pot, ["eigs", "-p", str(pot), "-o", "{out}"],
                          lambda out, pot=pot: oracle(pot, out)))
        return ops
    raise ValueError(f"unknown workload {name!r}")


# ------------------------------------------------------------ oracle kernel

def lam_of_z(z: complex) -> complex:
    return 0.5 * D * (z + 1.0 / z)


class RealKernel:
    """G(n, lam) for real |lam| > d from the heat-kernel Laplace transform

        G(n, lam) = -int_0^inf e^{-(lam-d)t} prod_j ive(n_j, t) dt,   lam > d,

    since e^{t H0}(n, 0) = prod_j I_{n_j}(t); lam < -d follows from the
    staggering symmetry G(n, -lam) = -(-1)^|n| G(n, lam).  It shares no code
    with the library's torus, time or oscillatory engines."""

    def __init__(self):
        from scipy import integrate, special

        self._quad = integrate.quad
        self._ive = special.ive
        self._cache: dict = {}

    def __call__(self, n, lam: float) -> float:
        n = tuple(sorted(abs(int(c)) for c in n))
        got = self._cache.get((n, lam))
        if got is None:
            a = abs(lam) - D
            ive = self._ive

            def f(t):
                p = math.exp(-a * t)
                for m in n:
                    p *= ive(m, t)
                return p

            with warnings.catch_warnings():
                # near the band edge quad reports a roundoff floor ~1e-15
                warnings.simplefilter("ignore")
                got = -self._quad(f, 0.0, math.inf, epsabs=1e-14, epsrel=1e-13, limit=400)[0]
            if lam < 0 and sum(n) % 2 == 0:
                got = -got
            self._cache[(n, lam)] = got
        return got


def real_zeros(entries, kernel: RealKernel) -> "list[complex]":
    """Disc zeros of D for a real potential: sign changes of the real
    determinant det(I + V G(lambda(z))) on a grid of real z in
    (-R_OUTER, R_OUTER), refined by brentq.  Sorted as find_zeros sorts
    them: by |z|, then by phase."""
    import numpy as np
    from scipy.optimize import brentq

    sites = [s for s, _ in entries]
    vals = [v.real for _, v in entries]

    def det(z: float) -> float:
        lam = lam_of_z(z).real
        M = np.array([[vals[i] * kernel([a - b for a, b in zip(x, y)], lam) for y in sites]
                      for i, x in enumerate(sites)])
        return float(np.linalg.det(np.eye(len(sites)) + M))

    roots = []
    for sign in (1.0, -1.0):
        grid = [sign * R_OUTER * k / 64 for k in range(1, 65)]
        fs = [det(z) for z in grid]
        for za, zb, fa, fb in zip(grid, grid[1:], fs, fs[1:]):
            if fa == 0.0:
                roots.append(za)
            elif fa * fb < 0:
                roots.append(brentq(det, za, zb, xtol=1e-14, rtol=1e-14))
    return sorted((complex(r) for r in roots), key=lambda z: (abs(z), cmath.phase(z)))


# ----------------------------------------------------------------- oracles

def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _cplx(obj) -> complex:
    return complex(obj["re"], obj["im"])


def read_potential(path) -> list:
    """The (site, value) entries of the file the program was given."""
    return [(tuple(e["site"]), _cplx(e)) for e in _load(path)["entries"]]


def check_trace_v3(report_path, potential_path, kernel: RealKernel) -> Verdict:
    """One zero at lambda from brentq on 1 + v G(0, lambda), plus the
    Jensen, rho0 and sin-identity gates."""
    from scipy.optimize import brentq

    rep = _load(report_path)
    zs = [_cplx(z) for z in rep["zeros"]]
    if len(zs) != 1:
        return Verdict(False, f"expected one zero, got {len(zs)}")
    (_, v), = read_potential(potential_path)
    v = v.real
    lam_ref = brentq(lambda lam: 1.0 + v * kernel((0, 0, 0), lam),
                     D + 1e-6, D + v + 1.0, xtol=1e-14, rtol=1e-15)
    lam = lam_of_z(zs[0])
    if abs(lam - lam_ref) > LAM_TOL * abs(lam_ref):
        return Verdict(False, f"lambda(z1)={lam} vs brentq {lam_ref}")
    worst = max(j["residual"] for j in rep["jensen"])
    if worst > JENSEN_TOL:
        return Verdict(False, f"Jensen residual {worst:.3e}")
    if rep["rho0"] < RHO0_FLOOR:
        return Verdict(False, f"rho0 {rep['rho0']:.3e}")
    sin = rep["t52"]["sin"]["residual"]
    if sin > SIN_TOL:
        return Verdict(False, f"t52 sin residual {sin:.3e}")
    return Verdict(True)


def check_sweep(csv_path, potential_path, kernel: RealKernel, grid) -> Verdict:
    """Per scale: zero count and z1 against brentq, and exact_pass."""
    entries = read_potential(potential_path)
    lo, hi, num = grid
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != num:
        return Verdict(False, f"{len(rows)} rows, expected {num}")
    for k, row in enumerate(rows):
        t = lo + (hi - lo) * k / max(num - 1, 1)
        if abs(float(row["scale"]) - t) > 1e-12:
            return Verdict(False, f"row {k}: scale {row['scale']} != {t}")
        ref = real_zeros([(s, t * v) for s, v in entries], kernel)
        if int(row["n_zeros"]) != len(ref):
            return Verdict(False, f"scale {t}: n_zeros {row['n_zeros']} vs brentq {len(ref)}")
        if ref:
            z1 = complex(float(row["z1_re"]), float(row["z1_im"]))
            if abs(z1 - ref[0]) > Z_TOL:
                return Verdict(False, f"scale {t}: z1 {z1} vs brentq {ref[0]}")
        if row["exact_pass"] != "True":
            return Verdict(False, f"scale {t}: exact_pass is {row['exact_pass']}")
    return Verdict(True)


class MultisiteOracle:
    """Checks an `eigs` report on a complex potential.

    Every reported zero must make |D| small through the damped
    time-representation engine (the second engine of gate c02), and the
    zero set must satisfy Jensen's formula on a circle near the search
    radius and clear of the zeros, which pins down how many lie inside it.
    The count evaluates D with the library's default engine: no independent
    kernel reaches |z| = 0.995 (|Im lambda| down to ~1e-4) at a usable cost.
    That engine's Green values on the circle do not depend on the potential,
    so the memo is kept across the draws of a run."""

    def __init__(self):
        from latspec.determinant import QuadPolicy, det_eval
        from latspec.hardy import jensen_check
        from latspec.lattice import Potential
        from latspec.zeros import ZeroRecord

        self._det = det_eval
        self._jensen = jensen_check
        self._time = QuadPolicy(engine="time")
        self._load_potential = Potential.from_file
        self._record = ZeroRecord

    def __call__(self, potential_path, report_path) -> Verdict:
        V = self._load_potential(str(potential_path))
        zeros = [self._record(_cplx(r["z"]), int(r["multiplicity"]), 0j, 0.0, 0.0)
                 for r in _load(report_path)["zeros"]]
        for rec in zeros:
            resid = abs(self._det(V, rec.z, self._time).value)
            if resid > ZERO_RESID_TOL:
                return Verdict(False, f"|D|={resid:.2e} at reported zero {rec.z}")
        r = next((c for c in JENSEN_RADII
                  if all(abs(c - abs(rec.z)) >= JENSEN_CLEAR for rec in zeros)), None)
        if r is None:
            return Verdict(False, "no counting circle clear of the zeros")
        mismatch = self._jensen(V, zeros, r, n_grid=JENSEN_POINTS)
        if mismatch > COUNT_TOL:
            return Verdict(False, f"Jensen on |z|={r}: mismatch {mismatch:.3e}")
        return Verdict(True)
