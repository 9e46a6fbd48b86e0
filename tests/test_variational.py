"""Airy-matching resonances, variational times, and square-barrier checks."""

import cmath
import math

import numpy as np
import pytest

from tunnelclock import (HELIUM_IP, DomainError, NonConvergenceError,
                         params_from_kappa)
from tunnelclock import oscquad, variational

import oracles
from test_acceptance import _BARRIER_TRIPLES


PARAMS = params_from_kappa(HELIUM_IP, 3.0)


def test_resonance_near_bound_state():
    res = variational.find_resonance(PARAMS)
    assert res.energy.real == pytest.approx(-PARAMS.ip, rel=0.05)
    assert res.energy.imag < 0.0
    assert res.width == pytest.approx(-2.0 * res.energy.imag, rel=1e-12)
    assert res.lifetime == pytest.approx(1.0 / res.width, rel=1e-12)


def test_resonance_defect_vanishes_at_root():
    res = variational.find_resonance(PARAMS)
    d0 = abs(variational.consistency_determinant(PARAMS, res.energy))
    d1 = abs(variational.consistency_determinant(PARAMS, res.energy + 1e-3))
    assert d0 <= 1e-10 * d1


def test_residual_landscape_quadratic_in_squared_defect():
    """|det|^2 grows quadratically around the root along complex rays."""
    res = variational.find_resonance(PARAMS)
    for direction in (1.0, 1j, cmath.exp(0.7j)):
        hs = np.array([1e-4, 2e-4, 4e-4, 8e-4])
        vals = np.array([
            abs(variational.consistency_determinant(
                PARAMS, res.energy + h * direction)) ** 2
            for h in hs])
        slope = np.polyfit(np.log(hs), np.log(vals), 1)[0]
        assert 1.8 <= slope <= 2.2


def test_width_exponent_in_kappa():
    """ln Gamma falls linearly in kappa with slope approx. -4/3.

    Gamma ~ exp(-2 kappa_tilde^3 / (3 F)) gives d ln Gamma / d kappa = -4/3
    at fixed ip (kappa changes through the field).
    """
    kappas = np.array([3.0, 4.0, 5.0, 6.0])
    lng = np.array([
        math.log(variational.find_resonance(
            params_from_kappa(HELIUM_IP, k)).width)
        for k in kappas])
    slope = np.polyfit(kappas, lng, 1)[0]
    assert slope == pytest.approx(-4.0 / 3.0, rel=0.10)


def test_matching_solution_reproduces_continuity():
    res = variational.find_resonance(PARAMS)
    aug = variational._matching_system(PARAMS, res.energy)[0]
    coeff = np.linalg.lstsq(aug[:, :3], aug[:, 3], rcond=None)[0]
    # defect per component must be tiny at the resonance energy
    assert np.linalg.norm(aug[:, :3] @ coeff - aug[:, 3]) <= 1e-9


def test_variational_time_positive_and_stable():
    """Positive, and the same number again from a fresh resonance search."""
    tau = variational.larmor_time_variational(PARAMS)
    assert tau > 0.0
    assert variational.larmor_time_variational(PARAMS) == tau


@pytest.mark.parametrize("kappa", [2.0, 4.0, 8.0])
def test_one_airy_call_per_newton_step(kappa, monkeypatch):
    """The delta-core condition and its slope come from one Airy bundle."""
    calls = []
    airy = variational.specfun.airy
    monkeypatch.setattr(variational.specfun, "airy",
                        lambda z: calls.append(z) or airy(z))
    res = variational.find_resonance(params_from_kappa(HELIUM_IP, kappa))
    assert len(calls) == res.newton_steps


@pytest.mark.parametrize("kappa", [2.0, 4.0, 10.0, 20.0])
def test_resonance_and_time_against_mpmath(kappa):
    """E's width within 1e-12 and tau within 1e-10 relative of 40 digits:
    the mpmath root of det[M | rhs] and mpmath.diff of the least-squares
    phase there, residual term included."""
    mpmath = pytest.importorskip("mpmath")
    params = params_from_kappa(HELIUM_IP, kappa)
    res = variational.find_resonance(params)
    with mpmath.workdps(40):
        energy = oracles.resonance_by_mpmath(mpmath, params, res.energy)
        tau = float(oracles.lsq_phase_time_by_mpmath(mpmath, params, energy))
    width = -2.0 * float(energy.imag)
    assert abs(res.width - width) <= 1e-12 * width
    assert abs(variational.larmor_time_variational(params) - tau) \
        <= 1e-10 * tau


@pytest.mark.parametrize("kappa", [25.0, 30.0])
def test_width_against_mpmath_at_large_kappa(kappa):
    """The width within 1e-13 relative of the 40-digit root of det[M | rhs]
    (measured 3.9e-14 at kappa 25 and 2.9e-14 at 30); tau is not checked
    here, it is 6.2e-10 and 1.7e-10 off."""
    mpmath = pytest.importorskip("mpmath")
    params = params_from_kappa(HELIUM_IP, kappa)
    res = variational.find_resonance(params)
    with mpmath.workdps(40):
        energy = oracles.resonance_by_mpmath(mpmath, params, res.energy)
    width = -2.0 * float(energy.imag)
    assert abs(res.width - width) <= 1e-13 * width


@pytest.mark.parametrize("kappa", [33.25, 40.75])
def test_exact_newton_slope_ends_on_a_decaying_energy(kappa):
    """A finite-difference slope ended Newton at Im E > 0 here, between
    neighbours that decay; the exact slope ends at Im E < 0."""
    res = variational.find_resonance(params_from_kappa(HELIUM_IP, kappa))
    assert res.energy.imag < 0.0
    assert 1 <= res.newton_steps <= 80


@pytest.mark.parametrize("kappa", [50.0, 60.0])
def test_variational_time_rank_deficient_raises(kappa):
    """Singular-value ratio 1.0e-15 at kappa 50 and 1.2e-18 at 60."""
    with pytest.raises(NonConvergenceError, match="rank-deficient"):
        variational.larmor_time_variational(params_from_kappa(HELIUM_IP, kappa))


def test_variational_time_refused_on_rank_deficient_matching_system():
    """At kappa 52.75 the matching system at the resonance has sv ratio
    1.6e-16 (a finite-difference tau read -173,838 there)."""
    with pytest.raises(NonConvergenceError, match="rank-deficient"):
        variational.larmor_time_variational(params_from_kappa(HELIUM_IP, 52.75))


def test_square_barrier_unitarity_and_wronskians():
    for (v0, a, k) in [(1.0, 1.0, 0.8), (2.5, 0.7, 1.2), (0.9, 2.0, 0.5)]:
        b = variational.square_barrier(v0, a, k)
        assert abs(b.r) ** 2 + abs(b.t) ** 2 == pytest.approx(1.0, abs=1e-13)
        assert abs(b.t - b.t_t) <= 1e-13
        assert abs(b.r * np.conj(b.t) + np.conj(b.r_t) * b.t) <= 1e-13


def test_square_barrier_wavefunctions_satisfy_matching():
    b = variational.square_barrier(1.0, 1.0, 0.8)
    # transmitted-conjugate state times initial state integrates to the
    # weak-value numerator; just check continuity at the right edge
    eps = 1e-9
    inside = oracles.barrier_psi_initial(b, 1.0 - eps)
    outside = oracles.barrier_psi_initial(b, 1.0 + eps)
    assert abs(inside - outside) <= 1e-6


def test_weak_equals_variational_time():
    tau_weak, tau_var = variational.scattering_equivalence(1.0, 1.0, 0.8)
    assert tau_weak.real == pytest.approx(tau_var, rel=1e-6)


def test_square_barrier_envelope():
    """Inside q a <= 177 the weak time holds; outside it is DomainError."""
    k = 0.8
    q = math.sqrt(2.0 - k * k)
    tau_weak, tau_var = variational.scattering_equivalence(1.0, 176.9 / q, k)
    assert tau_weak.real == pytest.approx(tau_var, rel=1e-6)
    # q a = 210 and 466: past 177 e^{-4qa} leaves the normal double range and
    # the weak time is lost; past ~355 sinh(2qa) overflows.
    for halfwidth in (math.nan, math.inf, 0.0, -1.0, 180.0, 400.0):
        with pytest.raises(DomainError):
            variational.square_barrier(1.0, halfwidth, k)
        with pytest.raises(DomainError):
            variational.scattering_equivalence(1.0, halfwidth, k)


def _phase_time_by_mpmath(mpmath, height, halfwidth, k):
    """(-d(arg T)/dV, T) at 40 digits, T = e^{-2ika}/D with
    D = cosh 2qa + i eps sinh 2qa.

    arg is taken of T(V) T(height)^*, which stays near 0, so the
    difference stencil never straddles the branch cut."""
    with mpmath.workdps(40):
        a, k, v0 = mpmath.mpf(halfwidth), mpmath.mpf(k), mpmath.mpf(height)

        def t(v):
            q = mpmath.sqrt(2 * v - k * k)
            eps = (q * q - k * k) / (2 * k * q)
            d = mpmath.cosh(2 * q * a) + 1j * eps * mpmath.sinh(2 * q * a)
            return mpmath.exp(-2j * k * a) / d

        t0 = t(v0)
        tau = -mpmath.diff(lambda v: mpmath.arg(t(v) * mpmath.conj(t0)), v0)
        return float(tau), complex(t0)


_QA_EDGE = [(1.0, qa / math.sqrt(2.0 - 0.8 ** 2), 0.8)
            for qa in (176.99, 177.0)]


@pytest.mark.parametrize("height, halfwidth, k",
                         list(_BARRIER_TRIPLES) + _QA_EDGE)
def test_variational_time_is_the_exact_phase_derivative(height, halfwidth, k):
    """tau_var against a 40-digit derivative of arg T, and the weak value
    against tau_var, both to 1e-13 relative, up to q a = 177 (the phase
    time takes no second barrier, so q a = 176.99 and 177 return).  The
    closed-form T is the linear solve's T to 1e-13."""
    mpmath = pytest.importorskip("mpmath")
    tau_weak, tau_var = variational.scattering_equivalence(height, halfwidth, k)
    exact, t_exact = _phase_time_by_mpmath(mpmath, height, halfwidth, k)
    assert abs(variational.square_barrier(height, halfwidth, k).t - t_exact) \
        <= 1e-13 * abs(t_exact)
    assert abs(tau_var - exact) <= 1e-13 * abs(exact)
    assert abs(tau_weak.real - tau_var) <= 1e-13 * abs(tau_var)


def test_hartman_saturation():
    """Opaque-barrier phase time saturates at k/(q V0), independent of a."""
    k, v0 = 0.8, 1.0
    q = math.sqrt(2.0 * v0 - k * k)
    times = []
    for a in (2.0, 4.0, 8.0):
        _, tau_var = variational.scattering_equivalence(v0, a, k)
        times.append(tau_var)
    saturated = k / (q * v0)
    assert times[-1] == pytest.approx(saturated, rel=1e-2)
    assert abs(times[2] - times[1]) < abs(times[1] - times[0])


def test_nonconvergence_reported(monkeypatch):
    """A condition without a zero (e^E) runs Newton out of steps."""
    monkeypatch.setattr(variational, "_core_condition",
                        lambda params, energy: (cmath.exp(energy),) * 2)
    with pytest.raises(NonConvergenceError):
        variational.find_resonance(PARAMS)


@pytest.mark.parametrize("height, halfwidth, k", [(1.0, 1.0, 0.8),
                                                  (1.3, 0.9, 0.7),
                                                  (2.5, 2.2, 0.5)])
def test_weak_overlap_closed_form_matches_adaptive_reference(height,
                                                             halfwidth, k):
    sb = variational.square_barrier(height, halfwidth, k)

    def overlap_density(x):
        psi_t_conj = sb.c_p * np.exp(sb.q * x) + sb.d_p * np.exp(-sb.q * x)
        return psi_t_conj * oracles.barrier_psi_initial(sb, x)

    ref = oscquad.integrate_finite(overlap_density, -halfwidth, halfwidth,
                                   tol=1e-14, rel_tol=1e-12).value / (k * sb.t)
    tau_weak, _ = variational.scattering_equivalence(height, halfwidth, k)
    assert abs(tau_weak - ref) <= 1e-12 * abs(ref)
