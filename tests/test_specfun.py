"""Airy/Scorer special functions against frozen high-precision references.

Reference values were computed once with an independent arbitrary-precision
library (30 significant digits) and frozen here.
"""

import math

import numpy as np
import pytest

from tunnelclock import DomainError
from tunnelclock import specfun

# (z, Ai, Ai', Bi, Bi') frozen at 30-digit precision
AIRY_REFERENCE = [
    (0.5, 0.23169360648083348, -0.2249105326646839,
     0.8542770431031554, 0.5445725641405923),
    (-2.3, 0.02670633305735697, 0.700033662876576,
     -0.45492823439436497, -0.005811059307051358),
    (7.9, 6.239640097283934e-08, -1.7729958329430335e-07,
     907790.6160619947, 2521924.1139567844),
    (-35.0, 0.13033638994602217, -1.1342272299930087,
     0.1918760545743106, 0.7724538046794022),
    (2 + 3j,
     0.008104457809530535 + 0.13117838260456602j,
     0.0966581790331129 - 0.23198718538548632j,
     -0.3963682550403921 - 0.5697309129559497j,
     0.3494576719294665 - 1.1053285889338564j),
    (-4.5 + 1.5j,
     2.9312456903646247 - 3.6600383028079326j,
     -8.713620307341706 - 5.153033903018488j,
     3.6735886390556636 + 2.923594476478158j,
     5.174996910568934 - 8.687273188180582j),
    (0.3 - 6j,
     4.161161877740665 + 109.07883031321025j,
     -187.02760168518745 - 187.25772236164667j,
     109.07925609537874 - 4.161577194491958j,
     -187.2576849847897 + 187.0261279797228j),
]

# (x, Gi(x)) frozen at 30-digit precision
SCORER_REFERENCE = [
    (-30.0, -0.23505648637067258),
    (-5.5, -0.42505761300671857),
    (-1.0, -0.11667221729601528),
    (0.0, 0.20497554248200026),
    (0.7, 0.24511128708757435),
    (3.2, 0.10637441894761071),
    (12.0, 0.02655689271351241),
    (80.0, 0.003978889120379489),
]


@pytest.mark.parametrize("z,ai,aip,bi,bip", AIRY_REFERENCE)
def test_airy_against_frozen_reference(z, ai, aip, bi, bip):
    b = specfun.airy(z)
    # floor the tolerance by the function-quartet scale: components near a
    # zero cannot beat absolute cancellation at machine precision
    scale = max(abs(ai), abs(aip), abs(bi), abs(bip))
    for got, ref in ((b.ai, ai), (b.ai_prime, aip),
                     (b.bi, bi), (b.bi_prime, bip)):
        assert abs(got - ref) <= max(1e-13 * abs(ref), 2e-15 * scale)


@pytest.mark.parametrize("x,gi", SCORER_REFERENCE)
def test_scorer_gi_against_frozen_reference(x, gi):
    assert specfun.scorer_gi(x) == pytest.approx(gi, rel=1e-10)


def test_wronskian_conditioning_aware():
    """Ai Bi' - Ai' Bi = 1/pi, with tolerance scaled by the cancellation.

    In dominant sectors both products grow like e^{2|Re zeta|} while their
    difference stays 1/pi, so the achievable absolute error is bounded below
    by the conditioning cond = pi (|Ai Bi'| + |Ai' Bi|) times machine eps.
    """
    rng = np.random.default_rng(7)
    for _ in range(300):
        r = rng.uniform(0.1, 50.0)
        phi = rng.uniform(-math.pi, math.pi)
        z = r * complex(math.cos(phi), math.sin(phi))
        b = specfun.airy(z)
        if not all(np.isfinite([b.ai, b.ai_prime, b.bi, b.bi_prime])):
            continue
        cond = math.pi * (abs(b.ai * b.bi_prime) + abs(b.ai_prime * b.bi))
        err = abs(math.pi * b.wronskian() - 1.0)
        assert err <= max(2e-10, 1e-12 * cond)


def test_validation_representations_agree_with_production():
    """The Maclaurin series cross-checks the backend."""
    rng = np.random.default_rng(3)
    for _ in range(60):
        r = rng.uniform(0.3, 6.0)
        phi = rng.uniform(-math.pi, math.pi)
        z = r * complex(math.cos(phi), math.sin(phi))
        s = specfun._airy_series(z)
        b = specfun.airy(z)
        scale = max(abs(b.ai), abs(b.bi))
        assert abs(s.ai - b.ai) <= 1e-10 * scale
        assert abs(s.bi - b.bi) <= 1e-10 * scale


def test_crossover_continuity_away_from_positive_axis():
    """The series holds out to the crossover circle, against 30-digit mpmath.

    Restricted to |arg z| in [pi/3, pi]: near the positive real axis the
    series loses e^{2 Re zeta} eps to cancellation.
    """
    mpmath = pytest.importorskip("mpmath")
    r = specfun.SERIES_RADIUS
    with mpmath.workdps(30):
        for phi in np.linspace(math.pi / 3.0, math.pi, 41):
            for sign in (1.0, -1.0):
                z = r * complex(math.cos(sign * phi), math.sin(sign * phi))
                a = specfun._airy_series(z)
                ai = complex(mpmath.airyai(z))
                bi = complex(mpmath.airybi(z))
                scale = max(abs(a.ai), abs(a.bi))
                assert abs(a.ai - ai) <= 5e-10 * scale
                assert abs(a.bi - bi) <= 5e-10 * scale


def test_ai_real_vectorized_matches_scalar():
    """The real kernel agrees with complex `airy` (AMOS) on the real axis."""
    xs = np.linspace(-12.0, 4.0, 37)
    vec = specfun.ai_real(xs)
    for x, v in zip(xs, vec):
        assert v == pytest.approx(specfun.airy(x).ai.real, rel=1e-13, abs=1e-300)


def test_taylor_anchors_are_30_digit_values_to_one_ulp():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for a, row in zip(range(-9, 10), specfun._ANCHORS):
            ref = [float(f) for f in (mpmath.airyai(a), mpmath.airyai(a, 1),
                                      mpmath.airybi(a), mpmath.airybi(a, 1))]
            assert np.all(np.abs(row - ref) <= np.spacing(np.abs(ref))), a


def test_ai_bi_scaled_against_mpmath_on_committed_grid():
    """Ai e^zeta and Bi e^-zeta against 30-digit mpmath, zeta taken exactly:
    relative for x >= 0; for x < 0 relative to the envelope max(|Ai|, |Bi|,
    |x|^-1/4 / sqrt(pi)), to eps zeta past -9.5, the rounding of the phase."""
    mpmath = pytest.importorskip("mpmath")
    g = np.logspace(-3, math.log10(30.0), 121)
    xs = np.concatenate([[0.0], g, -g, np.linspace(-12.0, 12.0, 241),
                         [9.5, -9.5, 9.499999999999998, -9.499999999999998,
                          100.0, -100.0, 103.5, 700.0, -777.7, 1e3, -1e3,
                          1e4, -1e4]])
    ai, bi, zeta = specfun.ai_bi_scaled(xs)
    ref = []
    with mpmath.workdps(30):
        for x in xs:
            z = mpmath.mpf(2) / 3 * abs(mpmath.mpf(x)) ** 1.5
            scale = mpmath.exp(z if x > 0 else 0)
            ref.append([float(mpmath.airyai(x) * scale),
                        float(mpmath.airybi(x) / scale), float(z)])
    ref_ai, ref_bi, z = np.array(ref).T
    np.testing.assert_allclose(zeta, np.where(xs > 0.0, z, 0.0), rtol=4e-16, atol=0.0)
    neg = xs < 0.0
    scale = np.abs([ref_ai, ref_bi])
    scale[:, neg] = np.maximum(scale.max(axis=0)[neg],
                               np.abs(xs[neg]) ** -0.25 / math.sqrt(math.pi))
    err = np.abs([ai - ref_ai, bi - ref_bi]) / scale
    bound = np.select([xs >= 9.5, xs >= 0.0, xs > -9.5], [5e-16, 4e-15, 4e-16],
                      1.5 * np.finfo(float).eps * z)
    assert np.all(err <= bound)


def test_overflow_raises():
    """Outside |z| <= 1e4, for complex and real Airy, and where Bi overflows
    inside it (z > 103.2), for complex `airy`."""
    for z in (1e8, 110.0):
        with pytest.raises(DomainError):
            specfun.airy(z)
    for func in (specfun.ai_real, specfun.ai_bi_scaled):
        for x in (1.0001e4, -1e5, np.array([0.5, -1.0001e4])):
            with pytest.raises(DomainError):
                func(x)


def test_scorer_gi_rejects_overflow_region():
    with pytest.raises(DomainError):
        specfun.scorer_gi(-1e9)


def test_scorer_gi_array_against_scalar_and_mpmath():
    """One array call equals the scalar calls and matches mpmath.scorergi:
    relative for x >= 0; for x < 0 relative to the Bi envelope, since
    Gi = Bi - Hi there carries the error of Bi."""
    mpmath = pytest.importorskip("mpmath")
    xs = np.concatenate([[0.0], np.logspace(-3, 3, 61), -np.logspace(-3, 3, 61)])
    gi = specfun.scorer_gi(xs)
    assert [specfun.scorer_gi(x) for x in xs] == gi.tolist()
    ref = np.array([float(mpmath.scorergi(x)) for x in xs])
    nonneg = xs >= 0.0
    assert np.all(np.abs(gi - ref)[nonneg] <= 1e-14 * np.abs(ref[nonneg]))
    envelope = np.maximum(np.abs(ref[~nonneg]),
                          np.abs(xs[~nonneg]) ** -0.25 / math.sqrt(math.pi))
    assert np.all(np.abs(gi - ref)[~nonneg] <= 2e-12 * envelope)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_argument_raises_domain_error(value):
    for arg in (value, complex(0.5, value)):  # airy takes one complex z
        with pytest.raises(DomainError):
            specfun.airy(arg)
    for func in (specfun.ai_real, specfun.ai_bi_scaled, specfun.scorer_gi):
        for arg in (value, np.array([0.5, value])):
            with pytest.raises(DomainError):
                func(arg)


def test_scorer_equation_residual():
    """Gi solves y'' - x y = -1/pi (inhomogeneous Airy equation)."""
    h = 1e-3
    for x in (-8.0, -2.0, 0.5, 3.0):
        y = [specfun.scorer_gi(x + k * h) for k in (-2, -1, 0, 1, 2)]
        second = (-y[0] + 16 * y[1] - 30 * y[2] + 16 * y[3] - y[4]) / (12 * h * h)
        assert second - x * y[2] == pytest.approx(-1.0 / math.pi, abs=5e-7)
