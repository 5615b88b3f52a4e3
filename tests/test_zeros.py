import cmath
import itertools
import math
import warnings

import numpy as np
import pytest
from numpy.polynomial import polynomial as P
from scipy.optimize import brentq

from latspec.conformal import lambda_of_z
from latspec import determinant, zeros
from latspec.determinant import NumericalError, det_eval
from latspec.hardy import jensen_check
from latspec.lattice import Potential
from latspec.resolvent import green_auto
from latspec.zeros import coupling_threshold, find_zeros


def _scalar_eigenvalue(v: float) -> float:
    # root of 1 + v G(0, lam) = 0 above the band, bisected independently
    f = lambda lam: 1.0 + v * green_auto((0, 0, 0), lam, 3).value.real
    return brentq(f, 3.0 + 1e-6, 12.0, xtol=1e-13)


def test_find_zeros_inside_a_smaller_circle(v3, zeros_v3):
    # the moments are taken on |z| = r_outer: z1 ~ 0.55 lies outside 0.4
    # and inside 0.7, where it is found at the same place
    assert find_zeros(v3, 0.4) == []
    recs = find_zeros(v3, 0.7, tol=1e-12)
    assert [rec.multiplicity for rec in recs] == [1]
    assert abs(recs[0].z - zeros_v3[0].z) <= 1e-13
    # a circle of radius 0 or below, or in the rim, is refused
    for r_outer in (0.0, -0.5, 0.9995):
        with pytest.raises(ValueError, match="r_outer must lie in"):
            find_zeros(v3, r_outer)


def test_find_zeros_refuses_a_tolerance_that_is_not_positive(v3):
    # the Newton tolerance is the library's rule, for the empty potential too
    for V in (v3, Potential(3)):
        for tol in (0.0, -1e-10, math.nan):
            with pytest.raises(ValueError, match="tol must be positive"):
                find_zeros(V, tol=tol)


def test_count_zeros_full_disc(v3):
    # the full disc holds exactly one zero of V = 3 delta_0, counted with
    # multiplicity, and Jensen's formula on the circle agrees
    recs = find_zeros(v3)
    assert sum(rec.multiplicity for rec in recs) == 1
    assert jensen_check(v3, recs, 0.9, n_grid=256) <= 1e-10


def test_every_search_failure_is_a_numerical_error():
    assert issubclass(zeros.ZeroIsolationError, NumericalError)


def test_find_zeros_strong_single_site(v3, zeros_v3):
    assert len(zeros_v3) == 1
    rec = zeros_v3[0]
    assert rec.multiplicity == 1
    assert abs(rec.z.imag) < 1e-10  # real potential, real zero
    assert rec.residual < 1e-12
    lam_ref = _scalar_eigenvalue(3.0)
    assert rec.lam.real == pytest.approx(lam_ref, abs=1e-10)
    assert rec.lam == pytest.approx(lambda_of_z(rec.z, 3), rel=1e-14)


def test_find_zeros_mirror_negative_site():
    V = Potential(3, [((0, 0, 0), -3.0 + 0j)])
    recs = find_zeros(V, tol=1e-12)
    assert len(recs) == 1
    # eigenvalue below the band mirrors the positive case
    assert recs[0].lam.real == pytest.approx(-_scalar_eigenvalue(3.0), abs=1e-10)


def test_find_zeros_below_threshold_is_empty():
    V = Potential(3, [((0, 0, 0), 1.5 + 0j)])
    assert find_zeros(V) == []


def test_find_zeros_weak_complex_potential_binds_nothing(mix3):
    # total strength well below threshold: empty spectrum off the band
    assert find_zeros(mix3) == []


def test_find_zeros_complex_multi_site(mix3):
    recs = find_zeros(mix3.scale(4.0), tol=1e-11)
    assert len(recs) == 3
    for rec in recs:
        # the determinant really vanishes there
        assert rec.residual < 1e-9
        assert abs(rec.z) < 1.0
    # genuinely complex spectrum: some zero off the real axis
    assert any(abs(r.z.imag) > 0.05 for r in recs)
    # records arrive sorted by modulus then phase
    keys = [(abs(r.z), cmath.phase(r.z) % (2.0 * math.pi)) for r in recs]
    assert keys == sorted(keys)


def _record_circle_blocks(monkeypatch):
    """The points of each Green block that the zero search's circle takes
    (``determinant._green_block``), and of each det_eval_many call of its
    Newton polish, whose own blocks are left out."""
    blocks, rounds, polishing = [], [], [False]
    real_block, real_many = determinant._green_block, zeros.det_eval_many

    def block(V, zs, n_in, engine):
        if not polishing[0]:
            blocks.append(zs.tolist())
        return real_block(V, zs, n_in, engine)

    def many(V, zs):
        rounds.append(len(zs))
        polishing[0] = True
        try:
            return real_many(V, zs)
        finally:
            polishing[0] = False

    monkeypatch.setattr(determinant, "_green_block", block)
    monkeypatch.setattr(zeros, "det_eval_many", many)
    return blocks, rounds


def test_find_zeros_batches_its_samples(mix3, monkeypatch):
    # the circle is assembled at most 512 points at a time, each node once
    # (doubling N reuses the old nodes), and the polish makes one
    # det_eval_many call per Newton round: x, x + h and x - h for every
    # unfinished zero of mix3 x 4, which has three
    blocks, rounds = _record_circle_blocks(monkeypatch)
    recs = find_zeros(mix3.scale(4.0), tol=1e-11)
    assert len(recs) == 3
    n = sum(map(len, blocks))
    points = {z for block in blocks for z in block}
    assert max(map(len, blocks)) <= 512 and len(points) == n >= 512 and n & (n - 1) == 0
    assert rounds[0] == 9 and all(k % 3 == 0 and k <= 9 for k in rounds)


def test_find_zeros_counts_each_cell_once(mix3, v3, monkeypatch):
    # the one cell is the circle: each of its nodes is assembled exactly
    # once, also across a doubling of N.  V = 3 delta_0 is certified on the
    # first 512 nodes; mix3 x 4 needs one doubling
    blocks, _ = _record_circle_blocks(monkeypatch)
    assert len(find_zeros(mix3.scale(4.0), tol=1e-11)) == 3
    points = [z for block in blocks for z in block]
    assert len(points) == len(set(points)) == 1024
    blocks.clear()
    assert len(find_zeros(v3, tol=1e-12)) == 1
    points = [z for block in blocks for z in block]
    assert len(points) == len(set(points)) == 512


def test_find_zeros_five_site_complex():
    # the 5-site potential of benchmark panel draw 2 (panel seed 1): five
    # simple zeros spread over the disc, each pinned to 1e-12, where |D|
    # lies within det_eval's error bound.  The fourth pin was 2.2e-11 off
    # until the polish took a step from inside the tolerance: |D| is
    # 6.0e-11 at 0.5314116132228796 - 0.7476848810280294j, against a bound
    # of 1.8e-13.
    V = Potential(3, [
        ((-1, -1, 0), -0.7027842035027629 + 1.024389084315739j),
        ((0, -1, 0), 0.0922031016259035 - 1.3383064090232242j),
        ((1, -1, 0), 1.3982196432802514 - 0.6958356225452828j),
        ((1, 0, 0), 0.9797427736582445 - 0.5689165965531313j),
        ((0, 1, 0), 1.244065031143438 + 0.9038693903920579j),
    ])
    pinned = [
        0.009610715447570715 + 0.8269159187266535j,
        0.7245397339338525 + 0.5388924776565649j,
        -0.31195915778077293 - 0.8510759384387299j,
        0.5314116132300106 - 0.7476848810069967j,
        0.41508030750663205 + 0.8839040147988874j,
    ]
    recs = find_zeros(V)
    assert [rec.multiplicity for rec in recs] == [1] * 5
    for rec, z in zip(recs, pinned):
        assert abs(rec.z - z) <= 1e-12
        sample = det_eval(V, rec.z)
        assert abs(sample.value) <= sample.err_estimate


def test_find_zeros_deterministic(v3, zeros_v3):
    again = find_zeros(v3, tol=1e-12)
    assert len(again) == len(zeros_v3)
    assert again[0].z == zeros_v3[0].z  # bitwise equality, same code path


def test_coupling_threshold_value():
    thr = coupling_threshold(3)
    assert 1.968 <= thr <= 1.989
    with pytest.raises(ValueError):
        coupling_threshold(2)


def test_threshold_bracketing():
    thr = coupling_threshold(3)
    below = Potential(3, [((0, 0, 0), 0.95 * thr + 0j)])
    above = Potential(3, [((0, 0, 0), 1.05 * thr + 0j)])
    assert find_zeros(below) == []
    assert len(find_zeros(above)) == 1


def _laplace_green_origin(lam: float) -> float:
    # G(0, lam) for real lam > 3 at d = 3 from e^(t H0)(0, 0) = I_0(t)^3:
    # G = -int_0^inf e^(-(lam - 3) t) ive(0, t)^3 dt, with scipy's Bessel
    # function and quadrature (no library code)
    from scipy import integrate, special

    a = lam - 3.0
    with warnings.catch_warnings():
        # next to the band edge quad reports its roundoff floor
        warnings.simplefilter("ignore")
        return -integrate.quad(lambda t: math.exp(-a * t) * special.ive(0, t) ** 3,
                               0.0, math.inf, epsabs=1e-14, epsrel=1e-13, limit=400)[0]


@pytest.mark.parametrize("c", [
    1.0008,
    pytest.param(1.0005, marks=pytest.mark.xfail(
        raises=zeros.ZeroIsolationError, strict=True,
        reason="ROADMAP item 6(a)-(c): the zero lies between RIM_RADIUS and 1")),
])
def test_find_zeros_single_site_next_to_the_rim(c):
    # V = +-c thr delta_0 just above the threshold: one real zero next to
    # the rim.  At c = 1.0008 it lies 4.6e-4 inside the circle |z| = 0.999,
    # which takes the most nodes the search samples; at c = 1.0005 it lies
    # outside that circle, next to it, and the search refuses.
    # Oracle: brentq on 1 + v G(0, lambda(x)) for real x with the Laplace
    # kernel above; the zero of -v is the mirror image (staggering).
    v = c * coupling_threshold(3)
    x_ref = brentq(lambda x: 1.0 + v * _laplace_green_origin(1.5 * (x + 1.0 / x)),
                   0.99, 1.0 - 1e-9, xtol=1e-15, rtol=1e-15)
    for sign in (1.0, -1.0):
        recs = find_zeros(Potential(3, [((0, 0, 0), complex(sign * v))]))
        assert [rec.multiplicity for rec in recs] == [1]
        assert abs(recs[0].z - sign * x_ref) <= 1e-12


def test_find_zeros_refuses_zeros_inside_the_root_circle():
    # V = c delta_0 with c in the thousands has one zero near z = d / (2c):
    # at c = 1000 it lies at |z| ~ 1.5e-3, inside the searched annulus, and
    # is found; at c = 2000 it lies inside |z| = 1e-3, where the contour
    # moments see it and the search refuses instead of returning it.
    # Oracle: brentq on 1 + c G(0, lambda) with the Laplace kernel below,
    # and z of lambda on the real axis.
    lam_ref = brentq(lambda lam: 1.0 + 1000.0 * _laplace_green_origin(lam), 1000.0, 1010.0,
                     xtol=1e-12)
    z_ref = (lam_ref - math.sqrt(lam_ref ** 2 - 9.0)) / 3.0
    recs = find_zeros(Potential(3, [((0, 0, 0), 1000.0 + 0j)]))
    assert [rec.multiplicity for rec in recs] == [1]
    assert abs(recs[0].z - z_ref) <= 1e-12
    with pytest.raises(NumericalError, match="1 zero\\(s\\) of D lie inside"):
        find_zeros(Potential(3, [((0, 0, 0), 2000.0 + 0j)]))


def _assert_complete(V, recs):
    # Jensen's formula on two circles, one near 0.995 and one near 0.5,
    # each kept 0.005 from every returned zero: the returned zeros must
    # account for the mean of log|D| on both
    for start in (0.995, 0.5):
        r = start
        while any(abs(r - abs(rec.z)) < 0.005 for rec in recs):
            r = round(r - 0.001, 3)
        assert jensen_check(V, recs, r, n_grid=4096) <= 1e-6


@pytest.mark.parametrize("entries", [
    # the draws below are where an argument-principle count with a marched
    # phase lost a turn or refused.  Benchmark panel seed 4, draw 1: three
    # zeros, at |z| ~ 0.815, 0.819 and 0.891
    pytest.param([
        ((0, 0, 0), 0.8723866092649852 - 0.42754343263553024j),
        ((-1, 1, 0), 0.5098849334716791 - 1.3714169399951721j),
        ((1, -1, 0), 0.5012009042562224 + 1.350344253119822j),
        ((-1, -1, 0), -0.7317085507629885 - 0.7501033392462589j),
        ((1, 0, 0), 0.846771491183013 - 1.0966457872123705j),
    ], id="panel4-draw1"),
    # panel seed 14, draw 3: one zero, at |z| ~ 0.952
    pytest.param([
        ((0, -1, 0), -1.4385869744150412 - 0.004339816970605918j),
        ((0, 0, 0), 0.3661008846321496 - 0.8023668598926801j),
        ((1, 1, 0), -0.16692303543281192 + 0.8554954138673004j),
        ((1, 0, 0), -0.04987886388414298 - 0.8208839412791938j),
        ((-1, 0, 0), -0.8794489739353002 - 0.14362510062856249j),
        ((1, -1, 0), -0.8677900783299105 + 0.10720508498839179j),
    ], id="panel14-draw3"),
    # panel seed 18, draw 3: three zeros, the third at |z| ~ 0.982
    pytest.param([
        ((0, -1, 0), 0.9802870172288368 + 1.0620512274803209j),
        ((1, 1, 0), -1.0831333554910088 - 0.5411286040288954j),
        ((0, 1, 0), 0.4614187220729608 + 1.4586050313823988j),
        ((1, -1, 0), 0.5613771325569105 - 0.8366394156623789j),
    ], id="panel18-draw3"),
    # the real 27-site cube V_n = 3.6 (1 + |n|_2)^-3 on {-1,0,1}^3: one
    # zero, where D changes sign on the real axis between 0.43 and 0.44;
    # min |D| on |z| = 0.999 is 0.0167 against a maximum of 402
    pytest.param([
        (n, complex(3.6 * (1.0 + math.sqrt(sum(c * c for c in n))) ** -3))
        for n in itertools.product((-1, 0, 1), repeat=3)
    ], id="real-27-site-cube"),
    # panel seed 1, draw 3 (benchmark draw 3): four zeros, at |z| ~ 0.90667,
    # 0.91983, 0.97010 and 0.98770
    pytest.param([
        ((0, 0, 0), 1.019157025891015 - 0.6451156434083732j),
        ((-1, 0, 0), -0.20273665995050216 + 0.9300392295778187j),
        ((0, 1, 0), -1.5787484413115083 + 0.006328145650932794j),
        ((-1, 1, 0), -1.216987901738925 + 0.9643201408980512j),
        ((1, 1, 0), -1.4712028857039334 + 0.18372494244239618j),
        ((0, -1, 0), -1.150245772206626 + 0.789250585286258j),
    ], id="panel1-draw3"),
    # panel seed 2, draw 0: one zero; min |D| on |z| = 0.999 is 1.35e-3
    # against a maximum of 19.2
    pytest.param([
        ((-1, 0, 0), -0.6711084868981062 - 1.21585860719869j),
        ((1, 1, 0), -0.8230848377984518 - 0.6463070357481626j),
        ((-1, 1, 0), -1.1217238988795573 - 0.6277699051964934j),
        ((1, 0, 0), -0.8401616525352027 + 0.39104086363596957j),
    ], id="panel2-draw0"),
    # panel seed 19, draw 1: four zeros on four sites, so the rank of A_0
    # reaches |S| and the second block Hankel row decides
    pytest.param([
        ((0, -1, 0), -0.11516269152543483 - 1.1048638186481288j),
        ((-1, 0, 0), -1.2389728643983269 + 0.7386483591232188j),
        ((0, 0, 0), -0.12121272955928095 - 0.8710937862769109j),
        ((1, 1, 0), -1.1155234205248492 + 0.8534128300822298j),
    ], id="panel19-draw1"),
])
def test_find_zeros_returns_every_zero(entries):
    V = Potential(3, entries)
    recs = find_zeros(V)
    assert all(rec.multiplicity == 1 for rec in recs)
    _assert_complete(V, recs)


def _laplace_green_axis(n: int, lam: float) -> float:
    # G((n, 0, 0), lam) for real lam > 3 at d = 3, as _laplace_green_origin:
    # e^(t H0)((n, 0, 0), 0) = I_n(t) I_0(t)^2
    from scipy import integrate, special

    a = lam - 3.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return -integrate.quad(lambda t: math.exp(-a * t) * special.ive(n, t) * special.ive(0, t) ** 2,
                               0.0, math.inf, epsabs=1e-14, epsrel=1e-13, limit=400)[0]


def test_find_zeros_separates_a_cluster_pair():
    # V = 3 (delta_0 + delta_(6,0,0)): D factors into 1 + 3 (G_0 +- G_6),
    # each with one simple real zero, 2.7e-4 apart.  The subdivision search
    # returned one zero of multiplicity 2 between them (ROADMAP item 5).
    # Oracle: brentq on each factor with the Laplace kernels above.
    V = Potential(3, [((0, 0, 0), 3.0 + 0j), ((6, 0, 0), 3.0 + 0j)])
    refs = sorted(
        brentq(lambda x: 1.0 + 3.0 * (_laplace_green_axis(0, 1.5 * (x + 1.0 / x))
                                      + sign * _laplace_green_axis(6, 1.5 * (x + 1.0 / x))),
               0.5, 0.6, xtol=1e-15, rtol=1e-15)
        for sign in (1.0, -1.0)
    )
    assert refs == pytest.approx([0.549954, 0.550228], abs=1e-6)
    recs = find_zeros(V)
    assert [rec.multiplicity for rec in recs] == [1, 1]
    for rec, x in zip(recs, refs):
        assert abs(rec.z - x) <= 1e-10


def _exact_zeros_1d(entries, r):
    # at d = 1, G(n, lambda(z)) = 2 z^(|n|+1) / (z^2 - 1), so (z^2 - 1)^|S|
    # D(z) = det((z^2 - 1) I + 2 V Z), Z_ij = z^(|n_i - n_j| + 1), is a
    # polynomial (Leibniz's formula on coefficient arrays); its roots
    # inside |z| < r, by numpy.roots, sorted as find_zeros sorts its zeros
    sites = [n for (n,), _ in entries]
    v = [complex(val) for _, val in entries]

    def entry(i, j):
        c = np.zeros(abs(sites[i] - sites[j]) + 2, dtype=complex)
        c[-1] = 2.0 * v[i]
        return P.polyadd(c, [-1.0, 0.0, 1.0]) if i == j else c

    det = np.zeros(1, dtype=complex)
    for perm in itertools.permutations(range(len(sites))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = np.ones(1, dtype=complex)
        for i, j in enumerate(perm):
            term = P.polymul(term, entry(i, j))
        det = P.polyadd(det, (-1) ** inversions * term)
    roots = np.roots(det[::-1])
    return sorted(roots[np.abs(roots) < r].tolist(), key=lambda z: (abs(z), cmath.phase(z)))


@pytest.mark.parametrize("entries", [
    [((0,), 2.0)],
    [((0,), 1.2 - 0.7j)],
    [((0,), 1.5), ((2,), 1.5)],
    [((0,), 1.0 + 0.5j), ((1,), -2.0)],
    [((-1,), 0.8 + 0.3j), ((0,), -1.1), ((2,), 0.6 - 0.9j)],
    [((0,), 2.0), ((1,), 0.5j), ((3,), -1.5 + 0.2j)],
], ids=["site", "complex-site", "equal-pair", "pair", "three-a", "three-b"])
def test_find_zeros_in_one_dimension_matches_the_exact_polynomial(entries):
    # the circle |z| = 0.7 lies inside the series' disc |z| <= 0.7095 at
    # d = 1, so every sample is a series value; it was refused as lying
    # within 0.35 of the band.  Oracle: the roots of (z^2 - 1)^|S| D(z)
    exact = _exact_zeros_1d(entries, 0.7)
    if len(entries) == 2 and entries[0][1] == entries[1][1]:
        # equal couplings at distance |n|: (z^2 - 1 + 2v(z + z^(|n|+1))) times
        # (z^2 - 1 + 2v(z - z^(|n|+1))), each factor with simple roots
        (n0,), v = entries[0]
        n = abs(entries[1][0][0] - n0)
        factors = []
        for sign in (1.0, -1.0):
            c = np.zeros(n + 2, dtype=complex)
            c[1] += 2.0 * v
            c[n + 1] += sign * 2.0 * v
            roots = np.roots(P.polyadd(c, [-1.0, 0.0, 1.0])[::-1])
            factors += roots[np.abs(roots) < 0.7].tolist()
        assert np.allclose(sorted(factors, key=abs), sorted(exact, key=abs), rtol=0, atol=1e-14)
    recs = find_zeros(Potential(1, entries), 0.7)
    got = [rec.z for rec in recs for _ in range(rec.multiplicity)]
    assert len(got) == len(exact) >= 1
    assert max(abs(a - b) for a, b in zip(got, exact)) <= 1e-13
