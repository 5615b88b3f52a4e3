import cmath
import itertools
import math
import warnings

import pytest
from scipy.optimize import brentq

from latspec.conformal import lambda_of_z
from latspec import zeros
from latspec.determinant import NumericalError
from latspec.hardy import jensen_check
from latspec.lattice import Potential
from latspec.resolvent import green_auto
from latspec.zeros import (
    AnnularSector,
    coupling_threshold,
    count_zeros,
    find_zeros,
)


def _scalar_eigenvalue(v: float) -> float:
    # root of 1 + v G(0, lam) = 0 above the band, bisected independently
    f = lambda lam: 1.0 + v * green_auto((0, 0, 0), lam, 3).value.real
    return brentq(f, 3.0 + 1e-6, 12.0, xtol=1e-13)


def test_annular_sector_validation():
    AnnularSector(0.1, 0.9)
    with pytest.raises(ValueError):
        AnnularSector(0.9, 0.1)
    with pytest.raises(ValueError):
        AnnularSector(0.1, 1.5)
    with pytest.raises(ValueError):
        AnnularSector(0.1, 0.9, 0.0, 7.0)  # angular span > 2 pi


def test_count_zeros_full_disc(v3):
    assert count_zeros(v3, AnnularSector(1e-3, 0.999)) == 1


def test_count_zeros_empty_region(v3):
    # z1 ~ 0.55: an annulus that excludes it must count zero
    assert count_zeros(v3, AnnularSector(0.7, 0.999)) == 0
    assert count_zeros(v3, AnnularSector(1e-3, 0.4)) == 0


def test_count_zeros_sector_additivity(v3):
    whole = count_zeros(v3, AnnularSector(0.3, 0.8))
    left = count_zeros(v3, AnnularSector(0.3, 0.8, 0.9, 0.9 + math.pi))
    right = count_zeros(v3, AnnularSector(0.3, 0.8, 0.9 + math.pi, 0.9 + 2.0 * math.pi))
    assert left + right == whole == 1


def test_split_halves_the_longer_side():
    # one cut at the middle: across the angle of a wide sector, across the
    # radius of a long thin one
    wide = AnnularSector(0.5, 0.6, 1.0, 3.0)
    assert zeros._split(wide) == [AnnularSector(0.5, 0.6, 1.0, 2.0), AnnularSector(0.5, 0.6, 2.0, 3.0)]
    thin = AnnularSector(0.2, 0.6, 1.0, 1.1)
    assert zeros._split(thin) == [AnnularSector(0.2, 0.4, 1.0, 1.1), AnnularSector(0.4, 0.6, 1.0, 1.1)]


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


def test_find_zeros_batches_its_samples(mix3, monkeypatch):
    # the search runs every live cell in lockstep: each round merges the
    # march levels of all contours, the Newton stencils, the box midpoints
    # and the verification circles into one request, so the search on
    # mix3 x 4 makes exactly 24 batched and 2 one-point det_eval_many calls
    # on the 891 distinct points that a cell-by-cell search samples, and
    # finds the zeros of test_find_zeros_complex_multi_site
    sizes = []
    points = set()
    real = zeros.det_eval_many

    def counting(V, zs, *args, **kwargs):
        sizes.append(len(zs))
        points.update(zs)
        return real(V, zs, *args, **kwargs)

    monkeypatch.setattr(zeros, "det_eval_many", counting)
    recs = find_zeros(mix3.scale(4.0), tol=1e-11)
    assert (sizes.count(1), sum(n > 1 for n in sizes)) == (2, 24)
    assert len(points) == sum(sizes) == 891
    assert len(recs) == 3
    assert all(rec.residual < 1e-9 and abs(rec.z) < 1.0 for rec in recs)
    assert any(abs(r.z.imag) > 0.05 for r in recs)


def test_find_zeros_counts_each_cell_once(mix3, v3, monkeypatch):
    # every march_log generator counts the root, a child of a split or a
    # verification circle: a cell carries the centroid its own count
    # measured to the polish and is never counted a second time
    calls = []
    real = zeros.march_log

    def counting(*args, **kwargs):
        gen = real(*args, **kwargs)
        calls.append(gen)
        return gen

    monkeypatch.setattr(zeros, "march_log", counting)
    assert len(find_zeros(mix3.scale(4.0), tol=1e-11)) == 3
    assert len(calls) == 52
    calls.clear()
    assert len(find_zeros(v3, tol=1e-12)) == 1
    assert len(calls) == 20


def test_find_zeros_five_site_complex():
    # the 5-site potential of benchmark panel draw 2 (panel seed 1): five
    # simple zeros spread over the disc, each pinned to 1e-12
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
        0.5314116132228796 - 0.7476848810280294j,
        0.41508030750663205 + 0.8839040147988874j,
    ]
    recs = find_zeros(V)
    assert [rec.multiplicity for rec in recs] == [1] * 5
    for rec, z in zip(recs, pinned):
        assert abs(rec.z - z) <= 1e-12


def test_find_zeros_deterministic(v3, zeros_v3):
    again = find_zeros(v3, tol=1e-12)
    assert len(again) == len(zeros_v3)
    assert again[0].z == zeros_v3[0].z  # bitwise equality, same code path


def test_coupling_threshold_value():
    thr = coupling_threshold(3)
    assert 1.968 <= thr <= 1.989
    # threshold is where the band-edge determinant hits zero
    assert coupling_threshold(3, site_value_sign=-1) == pytest.approx(thr, rel=1e-12)
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
    # the rim.  At c = 1.0008 the cell's centroid lay in the rim, outside
    # the evaluable disc, and the polish started there (exit 2, bad input).
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
    # is found; at c = 2000 it lies inside the root's inner circle
    # |z| = 1e-3, which then winds once, and the search refuses instead of
    # returning no zeros.  Oracle: brentq on 1 + c G(0, lambda) with the
    # Laplace kernel below, and z of lambda on the real axis.
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


_ITEM_10 = "ROADMAP item 10: the phase march can drop a turn next to a pair of zeros"


@pytest.mark.parametrize("entries", [
    # benchmark panel seed 4, draw 1: the children of the root's first
    # split count [2, 0] under a parent count of 1
    pytest.param([
        ((0, 0, 0), 0.8723866092649852 - 0.42754343263553024j),
        ((-1, 1, 0), 0.5098849334716791 - 1.3714169399951721j),
        ((1, -1, 0), 0.5012009042562224 + 1.350344253119822j),
        ((-1, -1, 0), -0.7317085507629885 - 0.7501033392462589j),
        ((1, 0, 0), 0.846771491183013 - 1.0966457872123705j),
    ], id="panel4-draw1", marks=pytest.mark.xfail(
        raises=zeros.ZeroIsolationError, strict=True, reason=_ITEM_10)),
    # panel seed 14, draw 3: no zeros returned, but Jensen reads 0.044 at
    # r = 0.995; the missed zero has |z| ~ 0.952
    pytest.param([
        ((0, -1, 0), -1.4385869744150412 - 0.004339816970605918j),
        ((0, 0, 0), 0.3661008846321496 - 0.8023668598926801j),
        ((1, 1, 0), -0.16692303543281192 + 0.8554954138673004j),
        ((1, 0, 0), -0.04987886388414298 - 0.8208839412791938j),
        ((-1, 0, 0), -0.8794489739353002 - 0.14362510062856249j),
        ((1, -1, 0), -0.8677900783299105 + 0.10720508498839179j),
    ], id="panel14-draw3", marks=pytest.mark.xfail(
        raises=AssertionError, strict=True, reason=_ITEM_10)),
    # panel seed 18, draw 3: two zeros returned, a third with |z| ~ 0.982
    # missed
    pytest.param([
        ((0, -1, 0), 0.9802870172288368 + 1.0620512274803209j),
        ((1, 1, 0), -1.0831333554910088 - 0.5411286040288954j),
        ((0, 1, 0), 0.4614187220729608 + 1.4586050313823988j),
        ((1, -1, 0), 0.5613771325569105 - 0.8366394156623789j),
    ], id="panel18-draw3", marks=pytest.mark.xfail(
        raises=AssertionError, strict=True, reason=_ITEM_10)),
    # the real 27-site cube V_n = 3.6 (1 + |n|_2)^-3 on {-1,0,1}^3: D
    # changes sign on the real axis between 0.43 and 0.44, and Jensen with
    # no zeros reads 0.142 = log(0.5 / 0.434) at r = 0.5, yet the root
    # count fails, as min |D| on the marched root circle is 0.0167 against
    # a maximum of 402
    pytest.param([
        (n, complex(3.6 * (1.0 + math.sqrt(sum(c * c for c in n))) ** -3))
        for n in itertools.product((-1, 0, 1), repeat=3)
    ], id="real-27-site-cube", marks=pytest.mark.xfail(
        raises=zeros.ZeroIsolationError, strict=True, reason=_ITEM_10)),
])
def test_find_zeros_returns_every_zero(entries):
    V = Potential(3, entries)
    _assert_complete(V, find_zeros(V))
