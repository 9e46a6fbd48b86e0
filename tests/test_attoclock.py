"""Attoclock weak-value delay along the outgoing trajectory."""

import numpy as np
import pytest

from tunnelclock import DomainError, HELIUM_IP, params_from_kappa
from tunnelclock import attoclock

import oracles


PARAMS = params_from_kappa(HELIUM_IP, 3.0)


def test_delay_vanishes_at_detector():
    tau_far = attoclock.attoclock_time(PARAMS, 10.0)
    tau_exit = attoclock.attoclock_time(PARAMS, 0.0)
    assert abs(tau_far) <= 0.01 * PARAMS.tau_tilde
    assert abs(tau_exit) >= 0.05 * PARAMS.tau_tilde


def test_exit_value_positive_fraction_of_natural_time():
    tau_exit = attoclock.attoclock_time(PARAMS, 0.0)
    assert tau_exit == pytest.approx(0.36 * PARAMS.tau_tilde, rel=0.02)


def test_parity_split_of_full_line_integrals():
    """Full-line numerator is real and denominator imaginary by parity."""
    num, den = attoclock.asymptotic_parity_split(PARAMS)
    assert abs(num.imag) <= 1e-8 * abs(num)
    assert abs(den.real) <= 1e-8 * abs(den)


def test_frequency_and_time_domain_forms_agree():
    for u in (0.0, 1.0, 3.0):
        a = attoclock.attoclock_time(PARAMS, u)
        b = oracles.attoclock_time_via_delay(PARAMS, u)
        assert a == pytest.approx(b, abs=1e-8 * PARAMS.tau_tilde)


def test_trace_structure():
    trace = attoclock.attoclock_trace(PARAMS, 4.0, n=17)
    assert trace.u_values[0] == 0.0
    assert trace.u_values[-1] == pytest.approx(4.0)
    assert np.allclose(trace.xi_values, 1.0 + trace.u_values ** 2)
    assert np.all(np.isfinite(trace.tau_a))


def test_trace_monotone_decay_of_envelope():
    """|tau_A| decays towards the detector on cycle-averaged scale."""
    trace = attoclock.attoclock_trace(PARAMS, 10.0, n=101)
    early = np.abs(trace.tau_a[trace.u_values <= 1.0]).max()
    late = np.abs(trace.tau_a[trace.u_values >= 8.0]).max()
    assert late < 0.05 * early


def test_short_trace_rejected():
    with pytest.raises(DomainError):
        attoclock.attoclock_trace(PARAMS, 4.0, n=8)
