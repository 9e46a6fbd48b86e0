"""Circular-field saddle points, imaginary action, and the spectrum."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tunnelclock import DomainError, HELIUM_IP, NonConvergenceError
from tunnelclock import ppt

import oracles


CONST = ppt.pulse_from_gamma(HELIUM_IP, 0.569, 1.0, envelope="constant")
COS4 = ppt.pulse_from_gamma(HELIUM_IP, 0.569, 1.0, envelope="cos4")


def test_pulse_gamma_invariant():
    assert CONST.gamma == pytest.approx(
        math.sqrt(2.0 * CONST.ip) / CONST.a0, rel=1e-14)
    with pytest.raises(DomainError):
        ppt.PulseParams(a0=1.0, omega=0.5, ip=0.9, gamma=2.0,
                        envelope="constant")


def test_analytic_saddle_satisfies_saddle_equation():
    for p in (0.3, 0.9, 2.0):
        for theta in (-2.0, 0.0, 1.3):
            t_s = oracles.saddle_analytic(CONST, p, theta)
            resid = abs(complex(ppt.saddle_function(CONST, p, theta, t_s)))
            assert resid <= 1e-12 * (p * p + 2.0 * CONST.ip)
            assert t_s.imag > 0.0


def test_numeric_matches_analytic_on_constant_envelope():
    for p in (0.3, 0.9, 2.0):
        for theta in (-2.0, 0.0, 1.3):
            sa = oracles.saddle_analytic(CONST, p, theta)
            sn = ppt.spectrum(CONST, [p], [theta]).saddle_times[0, 0]
            assert abs(sa - sn) <= 1e-10


def test_action_against_closed_form_constant_envelope():
    """For the constant envelope the vertical-contour action is elementary:

    Im S = p A0 sinh(w tau)/w - (p^2 + A0^2) tau / 2 - Ip tau
    """
    for p in (0.4, 1.0, 1.8):
        t_s = oracles.saddle_analytic(CONST, p, 0.7)
        tau = t_s.imag
        w = CONST.omega
        exact = (p * CONST.a0 * math.sinh(w * tau) / w
                 - 0.5 * (p * p + CONST.a0 ** 2) * tau - CONST.ip * tau)
        got = ppt.action_im(CONST, p, 0.7, t_s)
        assert got == pytest.approx(exact, rel=1e-12)


def _action_by_mpmath(mpmath, pulse, p, theta, t_s):
    """(1/2) Im of the integral of f from t_s down to t_i = Re t_s, with the
    cos^4 envelope written out (not as a polynomial in exp(i w t / 2))."""
    w, a0 = mpmath.mpf(pulse.omega), mpmath.mpf(pulse.a0)
    p, theta = mpmath.mpf(p), mpmath.mpf(theta)

    def f(s):  # at t = t_i + i s; dt = i ds
        t = t_s.real + 1j * s
        amp = a0 * mpmath.cos(w * t / 4) ** 4
        return (p * p + amp * amp - 2 * p * amp * mpmath.cos(w * t - theta)
                + 2 * pulse.ip)

    return -mpmath.re(mpmath.quad(f, [0, t_s.imag])) / 2


def test_action_against_mpmath_line_integral_cos4():
    """The closed-form Im S at 24 cos^4 saddles against 30-digit quadrature."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for gamma, p, theta in itertools.product(
                (0.5, 1.0), (0.3, 1.5, 3.5), (-2.9, 0.4, 1.7, math.pi)):
            pulse = ppt.pulse_from_gamma(HELIUM_IP, 0.569, gamma)
            t_s = complex(ppt.spectrum(pulse, [p], [theta]).saddle_times[0, 0])
            exact = _action_by_mpmath(mpmath, pulse, p, theta, t_s)
            assert abs(ppt.action_im(pulse, p, theta, t_s) - exact) <= 1e-14


def test_action_negative_for_physical_saddles():
    t_s = oracles.saddle_analytic(CONST, 1.0, 0.0)
    assert ppt.action_im(CONST, 1.0, 0.0, t_s) < 0.0


def test_conjugate_root_theorem_realization():
    """The saddle at -theta is the negated conjugate of the one at theta."""
    for p in (0.8, 1.5):
        for theta in (0.4, 1.3, 2.7, math.pi):
            a = ppt.spectrum(COS4, [p], [theta]).saddle_times[0, 0]
            b = ppt.spectrum(COS4, [p], [-theta]).saddle_times[0, 0]
            assert abs(b - (-a.conjugate())) <= 1e-10


def test_spectrum_mirror_symmetry_and_normalization():
    p_grid = np.linspace(0.3, 3.5, 40)
    theta_grid = np.linspace(-math.pi, math.pi, 61)
    grid = ppt.spectrum(COS4, p_grid, theta_grid)
    assert grid.weights.max() == 1.0
    assert np.all(grid.weights >= 0.0)
    asym = np.abs(grid.weights - grid.weights[:, ::-1]).max()
    assert asym <= 1e-8
    assert not grid.flags.any()


def test_spectrum_peak_radius_nonadiabatic():
    """Peak momentum sits at or above 0.8 A0 for gamma near 1."""
    p_grid = np.linspace(0.2, 4.0, 60)
    theta_grid = np.linspace(-math.pi, math.pi, 61)
    grid = ppt.spectrum(COS4, p_grid, theta_grid)
    i, _ = np.unravel_index(np.argmax(grid.weights), grid.weights.shape)
    assert p_grid[i] >= 0.8 * COS4.a0


@settings(max_examples=25, deadline=None)
@given(gamma=st.floats(0.5, 1.0), p_lo=st.floats(0.2, 3.0),
       theta_lo=st.floats(-math.pi, math.pi - 0.8),
       i=st.integers(0, 8), j=st.integers(0, 8))
def test_node_saddle_does_not_depend_on_grid(gamma, p_lo, theta_lo, i, j):
    """A node of a 9x9 grid selects the saddle of its own 1x1 grid."""
    pulse = ppt.pulse_from_gamma(HELIUM_IP, 0.569, gamma, envelope="cos4")
    p_grid = np.linspace(p_lo, p_lo + 2.0, 9)
    theta_grid = np.linspace(theta_lo, theta_lo + 0.8, 9)
    grid = ppt.spectrum(pulse, p_grid, theta_grid)
    assert not grid.flags[i, j]
    one = ppt.spectrum(pulse, p_grid[i:i + 1], theta_grid[j:j + 1])
    assert abs(one.saddle_times[0, 0] - grid.saddle_times[i, j]) <= 1e-12


def test_spectrum_mirror_symmetry_at_next_lobe_input():
    """At these gammas and grid a node once converged to a root in the next
    cos^4 lobe and broke the mirror symmetry by 0.037 and 0.042."""
    for gamma in (0.562521410551148, 0.5624864852237789):
        pulse = ppt.pulse_from_gamma(HELIUM_IP, 0.569, gamma, envelope="cos4")
        p_grid = np.linspace(0.2, 3.0 * math.sqrt(2.0 * HELIUM_IP) / gamma,
                             139)
        theta_grid = np.linspace(-math.pi, math.pi, 197)
        grid = ppt.spectrum(pulse, p_grid, theta_grid)
        assert np.abs(grid.weights - grid.weights[:, ::-1]).max() <= 1e-8
        assert not grid.flags.any()


def _cli_theta_grid(n):
    lin = np.linspace(-math.pi, math.pi, n)
    return 0.5 * (lin - lin[::-1])


@pytest.mark.parametrize("gamma, n_p, theta_grid", [
    (0.562521410551148, 139, np.linspace(-math.pi, math.pi, 197)),
    (0.5624864852237789, 139, np.linspace(-math.pi, math.pi, 197)),
    (0.75, 20, _cli_theta_grid(61))],
    ids=["next_lobe_a", "next_lobe_b", "reference_cli_grid"])
def test_mirrored_half_matches_direct_solve(gamma, n_p, theta_grid):
    """The theta < 0 half, taken from the mirror of the theta > 0 solve,
    against Newton run at every node's own theta (the next-lobe inputs
    above, and the reference ppt_spectrum input on the CLI grid)."""
    pulse = ppt.pulse_from_gamma(HELIUM_IP, 0.569, gamma, envelope="cos4")
    p_grid = np.linspace(0.2, 3.0 * math.sqrt(2.0 * HELIUM_IP) / gamma, n_p)
    grid = ppt.spectrum(pulse, p_grid, theta_grid)
    direct = oracles.spectrum_direct(pulse, p_grid, theta_grid)
    assert np.abs(grid.weights - direct.weights).max() <= 1e-8
    assert np.array_equal(grid.flags, direct.flags)
    neg = (theta_grid[None, :] < 0.0) & ~grid.flags
    pp, tt = np.meshgrid(p_grid, theta_grid, indexing="ij")
    resid = np.abs(ppt.saddle_function(pulse, pp[neg], tt[neg],
                                       grid.saddle_times[neg]))
    assert np.all(resid < 1e-10 * (pp[neg] ** 2 + 2.0 * HELIUM_IP))


def test_spectrum_solves_each_abs_theta_once():
    theta_grid = _cli_theta_grid(21)
    grid = ppt.spectrum(COS4, np.linspace(0.3, 3.5, 12), theta_grid)
    assert grid.solved_nodes == 12 * 11
    assert np.array_equal(grid.weights, grid.weights[:, ::-1])
    skewed = ppt.spectrum(COS4, np.linspace(0.3, 3.5, 12),
                          np.linspace(-3.0, 3.1, 21))
    assert skewed.solved_nodes == 12 * 21


def test_spectrum_without_any_saddle_raises(monkeypatch):
    def nowhere_zero(pulse, p, theta, t):
        return np.ones(np.shape(t), dtype=complex)

    monkeypatch.setattr(ppt, "saddle_function", nowhere_zero)
    with pytest.raises(NonConvergenceError):
        ppt.spectrum(COS4, np.linspace(0.3, 3.0, 5),
                     np.linspace(-math.pi, math.pi, 7))


def test_saddle_residuals_bound_roots_and_flag_misses():
    """Each node's residual is the |f| of the root it keeps, under the root
    filter's 1e-10 (p^2 + 2 ip), and inf where no root was kept."""
    p_grid = np.linspace(0.05, 4.0 * math.sqrt(2.0 * HELIUM_IP), 40)
    theta_grid = np.linspace(-math.pi, math.pi, 41)
    grid = ppt.spectrum(COS4, p_grid, theta_grid)
    assert 0 < grid.flags.sum() < grid.flags.size
    resid = grid.saddle_residuals
    bound = 1e-10 * (p_grid[:, None] ** 2 + 2.0 * HELIUM_IP)
    assert np.all((resid < bound) | grid.flags)
    assert np.all(resid[grid.flags] == np.inf)


def test_spectrum_reports_newton_work():
    p_grid = np.linspace(0.3, 3.5, 12)
    theta_grid = np.linspace(-math.pi, math.pi, 21)
    grid = ppt.spectrum(COS4, p_grid, theta_grid)
    # four blend steps, at least one pass each, at most 60
    assert 4 <= grid.newton_sweeps <= 240
    assert grid.newton_sweeps <= grid.node_iterations
    assert grid.node_iterations <= 3 * grid.flags.size * grid.newton_sweeps
    cycle = 2.0 * math.pi / COS4.omega
    assert np.all(np.abs(grid.saddle_times[~grid.flags].real) <= cycle)


def test_offset_angle_synthetic_even_peak():
    th = np.linspace(-math.pi, math.pi, 181)
    p = np.linspace(0.5, 1.5, 20)
    w = np.exp(-((p[:, None] - 1.0) ** 2)) * np.exp(-th[None, :] ** 2)
    grid = ppt.SpectrumGrid(
        p_values=p, theta_values=th, weights=w / w.max(),
        saddle_times=np.zeros_like(w, dtype=complex),
        saddle_residuals=np.zeros_like(w),
        flags=np.zeros_like(w, dtype=bool))
    assert ppt.offset_angle(grid) == pytest.approx(0.0, abs=1e-12)


def test_offset_angle_synthetic_shifted_peak():
    th = np.linspace(-math.pi, math.pi, 181)
    p = np.linspace(0.5, 1.5, 20)
    w = np.exp(-((p[:, None] - 1.0) ** 2)) * np.exp(-(th[None, :] - 0.3) ** 2)
    grid = ppt.SpectrumGrid(
        p_values=p, theta_values=th, weights=w / w.max(),
        saddle_times=np.zeros_like(w, dtype=complex),
        saddle_residuals=np.zeros_like(w),
        flags=np.zeros_like(w, dtype=bool))
    step = th[1] - th[0]
    assert abs(ppt.offset_angle(grid) - 0.3) <= step


def test_spectrum_rejects_non_finite_grids():
    theta = np.linspace(-math.pi, math.pi, 7)
    for p_grid, theta_grid in [([0.5, math.nan], theta), ([0.5, math.inf], theta),
                               ([0.5, 1.0], [0.0, math.nan])]:
        with pytest.raises(DomainError):
            ppt.spectrum(COS4, p_grid, theta_grid)


def test_offset_angle_flat_spectrum_rejected():
    """Flat everywhere, and the constant envelope's spectrum: flat in theta
    to rounding, so it has no offset angle, whatever theta rounding favours."""
    th = np.linspace(-math.pi, math.pi, 61)
    p = np.linspace(0.5, 1.5, 10)
    w = np.ones((10, 61))
    grid = ppt.SpectrumGrid(
        p_values=p, theta_values=th, weights=w,
        saddle_times=np.zeros_like(w, dtype=complex),
        saddle_residuals=np.zeros_like(w),
        flags=np.zeros_like(w, dtype=bool))
    constant = ppt.spectrum(CONST, np.linspace(0.2, 6.0, 40), th)
    for flat in (grid, constant):
        with pytest.raises(DomainError):
            ppt.offset_angle(flat)


def test_offset_angle_needs_full_theta_coverage():
    th = np.linspace(-1.0, 1.0, 61)
    p = np.linspace(0.5, 1.5, 10)
    w = np.exp(-th[None, :] ** 2) * np.ones((10, 1))
    grid = ppt.SpectrumGrid(
        p_values=p, theta_values=th, weights=w / w.max(),
        saddle_times=np.zeros_like(w, dtype=complex),
        saddle_residuals=np.zeros_like(w),
        flags=np.zeros_like(w, dtype=bool))
    with pytest.raises(DomainError):
        ppt.offset_angle(grid)


def test_arcosh_argument_always_valid():
    """AM-GM guarantees the arcosh argument is >= 1 for every p > 0."""
    for p in np.geomspace(0.01, 50.0, 25):
        t_s = oracles.saddle_analytic(CONST, float(p), 0.0)
        assert t_s.imag > 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_input_rejected(bad):
    with pytest.raises(DomainError):
        ppt.PulseParams(a0=bad, omega=0.5, ip=0.9, gamma=1.0,
                        envelope="cos4")
    with pytest.raises(DomainError):
        ppt.PulseParams(a0=1.0, omega=bad, ip=0.5, gamma=1.0,
                        envelope="cos4")
    with pytest.raises(DomainError):
        ppt.pulse_from_gamma(0.9, bad, 1.0)
    t_s = oracles.saddle_analytic(CONST, 1.0, 0.3)
    for p, theta in ((bad, 0.3), (1.0, bad)):
        with pytest.raises(DomainError):
            oracles.saddle_analytic(CONST, p, theta)
        with pytest.raises(DomainError):
            ppt.saddle_function(COS4, p, theta, t_s)
        with pytest.raises(DomainError):
            ppt.action_im(COS4, p, theta, t_s)
    # spectrum passes NaN saddle times at its flagged nodes
    assert math.isnan(ppt.action_im(COS4, 1.0, 0.3, complex(math.nan, math.nan)))
