"""The fixed cubic-phase rule, and the adaptive reference it is checked against."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tunnelclock import DomainError, NonConvergenceError
from tunnelclock import attoclock, oscquad, specfun


def test_integrate_finite_exponential():
    res = oscquad.integrate_finite(np.exp, 0.0, 1.0, tol=1e-13)
    assert res.value == pytest.approx(math.e - 1.0, rel=1e-13)
    assert res.abs_error_estimate < 1e-10
    assert res.evaluations >= 15


def test_integrate_finite_oscillatory():
    # int_0^3 cos(40 x) dx = sin(120)/40
    res = oscquad.integrate_finite(lambda x: np.cos(40.0 * x), 0.0, 3.0,
                                   tol=1e-12)
    assert res.value == pytest.approx(math.sin(120.0) / 40.0, abs=1e-11)


def test_integrate_finite_complex_integrand():
    res = oscquad.integrate_finite(lambda x: np.exp(1j * x), 0.0, 2.0,
                                   tol=1e-13)
    expected = (cmath.exp(2j) - 1.0) / 1j
    assert abs(res.value - expected) < 1e-12


def test_integrate_finite_many_intervals_work_and_value():
    """A 318-cycle exponential bisects into 512 intervals of near-equal
    error, so the order of bisection among near-ties sets the work; the
    count is pinned to the value of the sort-based loop it replaced."""
    res = oscquad.integrate_finite(lambda x: np.exp(200j * x), 0.0, 10.0)
    assert (res.evaluations - 15) // 30 + 1 == 512
    assert res.evaluations == 15345
    expected = (cmath.exp(2000j) - 1.0) / 200j
    assert abs(res.value - expected) < 1e-13
    assert res.abs_error_estimate <= 1e-10


def test_integrate_finite_near_singular_endpoint():
    # int_0^1 1/sqrt(x) dx = 2; integrable endpoint blow-up
    res = oscquad.integrate_finite(lambda x: 1.0 / np.sqrt(np.abs(x) + 1e-30),
                                   1e-12, 1.0, tol=1e-9)
    assert res.value == pytest.approx(2.0, rel=1e-5)


@settings(max_examples=30, deadline=None)
@given(st.floats(-3.0, 3.0), st.floats(0.1, 4.0), st.floats(0.5, 8.0))
def test_integrate_finite_polynomial_property(a, width, cubic):
    # cubic polynomials are integrated essentially exactly by G7/K15
    b = a + width
    f = lambda x: cubic * x ** 3 - x + 0.5
    exact = (cubic * (b ** 4 - a ** 4) / 4.0
             - (b ** 2 - a ** 2) / 2.0 + 0.5 * (b - a))
    res = oscquad.integrate_finite(f, a, b)
    assert res.value == pytest.approx(exact, rel=1e-12, abs=1e-12)


def test_cubic_phase_keystone_identity():
    """Half-line integral of e^{-i kappa (u^3/3 + w u)} equals the
    Airy/Scorer combination pi kappa^{-1/3} [Ai - i Gi](kappa^{2/3} w)."""
    for kappa in (1.0, 3.0, 10.0):
        for w in (-2.5, -0.5, 0.0, 1.0, 3.0):
            val = oscquad.cubic_phase_integral(kappa, w)
            arg = kappa ** (2.0 / 3.0) * w
            ref = (math.pi * kappa ** (-1.0 / 3.0)
                   * (specfun.airy(arg).ai.real - 1j * specfun.scorer_gi(arg)))
            assert abs(val - ref) <= 1e-9 * max(abs(ref), 1e-3)


def test_cubic_phase_contour_rotation_independence(monkeypatch):
    ref = oscquad.cubic_phase_integral(3.0, -1.0, lower=-4.0)
    for rotation in (-math.pi / 6.0, -math.pi / 4.0, -0.3):
        monkeypatch.setattr(oscquad, "_ROTATION", rotation)
        val = oscquad.cubic_phase_integral(3.0, -1.0, lower=-4.0)
        assert abs(val - ref) <= 1e-10


def test_cubic_phase_linearity_in_g():
    g1 = lambda u: 1.0 / (u * u + 4.0)
    g2 = lambda u: u / (u * u + 4.0) ** 2
    combo = lambda u: 2.0 * g1(u) - 0.5 * g2(u)
    a = oscquad.cubic_phase_integral(2.0, 0.5, g=g1, poles=(2j, -2j))
    b = oscquad.cubic_phase_integral(2.0, 0.5, g=g2, poles=(2j, -2j))
    c = oscquad.cubic_phase_integral(2.0, 0.5, g=combo, poles=(2j, -2j))
    assert abs(c - (2.0 * a - 0.5 * b)) <= 1e-12


def test_cubic_phase_large_negative_lower_boundary_layer():
    """Deep-launch tails (thin boundary layer on the rotated ray) must not
    be silently lost by coarse first probes."""
    direct = oscquad.cubic_phase_integral(3.0, -1.0, lower=24.0)
    # split at an interior point: integral over [24, inf) = [24, 30] + [30, inf)
    seg = oscquad.integrate_finite(
        lambda u: np.exp(-1j * 3.0 * (u ** 3 / 3.0 - u)), 24.0, 30.0,
        tol=1e-13)
    rest = oscquad.cubic_phase_integral(3.0, -1.0, lower=30.0)
    assert abs(direct - (seg.value + rest)) <= 1e-10
    assert abs(direct) > 1e-5   # the tail is not negligible here


def test_pole_near_contour_raises():
    # pole sitting on the rotated tail ray
    split = oscquad.tail_split_point(3.0, 1.0, -2.0)
    pole = split + 1.0 * cmath.exp(-1j * math.pi / 6.0)
    with pytest.raises(DomainError, match="rotated tail ray passes within"):
        oscquad.cubic_phase_integral(3.0, 1.0, lower=-2.0,
                                     g=lambda u: 1.0 / (u - pole),
                                     poles=(pole,))


def test_tail_split_point_properties():
    assert oscquad.tail_split_point(3.0, 1.0, 0.0) >= 2.0
    assert oscquad.tail_split_point(3.0, -9.0, 0.0) >= 3.0
    assert oscquad.tail_split_point(3.0, 1.0, 7.5) == pytest.approx(7.5)


def test_invalid_arguments():
    with pytest.raises(DomainError):
        oscquad.cubic_phase_integral(-1.0, 0.0)
    with pytest.raises(DomainError):
        oscquad.cubic_phase_integral(3.0, 0.0, lower=[])
    with pytest.raises(DomainError):
        oscquad.integrate_finite(np.exp, 2.0, 1.0)
    assert oscquad.integrate_finite(np.exp, 1.0, 1.0).value == 0j


@pytest.mark.parametrize("edges", [[0.0, math.nan, 1.0], [0.0, math.inf],
                                   [-math.inf, 0.0]])
def test_gl_panels_rejects_non_finite_edges(edges):
    with pytest.raises(DomainError, match="edges"):
        oscquad.gl_panels(np.array(edges))


PREFACTORS = {"numerator": attoclock._g_delay, "denominator": attoclock._overlap_g}


@pytest.mark.parametrize("name", sorted(PREFACTORS))
def test_array_lower_matches_scalar_calls(name):
    """One call over many lower limits (unsorted, repeated, beyond the
    default split point) equals the element-wise scalar calls."""
    g = PREFACTORS[name]
    lower = np.array([[-7.3, 0.0, 2.5], [-0.4, 11.0, -7.3]])
    arr = oscquad.cubic_phase_integral(4.0, 1.0, lower=lower, g=g,
                                       poles=attoclock.OVERLAP_POLES)
    assert arr.shape == lower.shape
    for lo, val in zip(lower.ravel(), arr.ravel()):
        ref = oscquad.cubic_phase_integral(4.0, 1.0, lower=lo, g=g,
                                           poles=attoclock.OVERLAP_POLES)
        assert isinstance(ref, complex)
        assert abs(val - ref) <= 1e-14


@pytest.mark.parametrize("kappa", [2.0, 5.0, 10.0, 20.0])
def test_stacked_prefactors_match_single_calls(kappa):
    """g returning N's and D's prefactors stacked gives each one's own call
    on a leading axis, within 1e-15 of its largest value (measured 1.2e-16:
    the broadcast product rounds differently in the last bit)."""
    lower = np.array([[-7.3, 0.0, 2.5], [-0.4, 11.0, -7.3]])
    for lo in (lower, -np.linspace(0.0, 10.0, 41), 0.5, 3.0):
        stacked = oscquad.cubic_phase_integral(
            kappa, 1.0, lower=lo, poles=attoclock.OVERLAP_POLES,
            g=lambda t: np.stack([PREFACTORS["numerator"](t),
                                  PREFACTORS["denominator"](t)]))
        assert stacked.shape == (2,) + np.shape(lo)
        for part, name in zip(stacked, ("numerator", "denominator")):
            single = oscquad.cubic_phase_integral(
                kappa, 1.0, lower=lo, g=PREFACTORS[name],
                poles=attoclock.OVERLAP_POLES)
            assert np.max(np.abs(part - single)) \
                <= 1e-15 * np.max(np.abs(single))


@pytest.mark.parametrize("kappa", [2.0, 5.0, 10.0])
@pytest.mark.parametrize("name", sorted(PREFACTORS))
def test_lower_limit_differences_match_adaptive_reference(kappa, name):
    """I(-u_i) - I(-u_{i+1}) is the integral over [-u_{i+1}, -u_i]."""
    g = PREFACTORS[name]
    lower = -np.linspace(0.0, 10.0, 41)
    vals = oscquad.cubic_phase_integral(kappa, 1.0, lower=lower, g=g,
                                        poles=attoclock.OVERLAP_POLES)

    def f(t):
        return g(t) * np.exp(-1j * kappa * (t ** 3 / 3.0 + t))

    for i in range(lower.size - 1):
        ref = oscquad.integrate_finite(f, lower[i + 1], lower[i], tol=1e-13,
                                       rel_tol=1e-12).value
        assert abs((vals[i + 1] - vals[i]) - ref) <= 1e-13 + 1e-12 * abs(ref)


def test_panel_cap_refuses_before_evaluating():
    calls = []

    def g(u):
        calls.append(1)
        return np.ones_like(u)

    with pytest.raises(NonConvergenceError):
        oscquad.cubic_phase_integral(3.0, 1.0, lower=-1000.0, g=g)
    assert not calls
