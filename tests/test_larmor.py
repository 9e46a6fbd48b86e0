"""Weak-value Larmor time traces and the asymptotic normalization."""

import math

import numpy as np
import pytest

from tunnelclock import DomainError, HELIUM_IP, params_from_kappa
from tunnelclock import larmor, sfa

import oracles


PARAMS = params_from_kappa(HELIUM_IP, 3.0)


def test_final_state_is_real_airy():
    xi = np.array([0.0, 0.5, 1.0, 2.0])
    vals = larmor.final_state(PARAMS, xi)
    assert np.all(np.isreal(vals))
    # peak value at the turning point xi = 1: Ai(0)
    assert vals[2] == pytest.approx(0.3550280538878172, rel=1e-12)


def test_scaling_factor_against_oscillation_average():
    """Closed-form sigma vs a direct large-position oscillation average."""
    sigma = larmor.scaling_factor(PARAMS, sfa._saddle_prefactor(PARAMS))
    limit = oracles.scaling_factor_limit(PARAMS)
    assert abs(sigma - limit) / abs(sigma) <= 0.05


def test_plateau_flat_and_positive():
    trace = larmor.larmor_time_trace(PARAMS, 3.0 * PARAMS.x0, n=64)
    tau = np.interp([1.5 * PARAMS.x0, 3.0 * PARAMS.x0],
                    trace.positions, trace.times.real)
    plateau = tau[1]
    assert plateau > 0.0
    assert abs(tau[0] - tau[1]) <= 0.02 * abs(plateau)


def test_plateau_source_independence_of_real_part():
    """Re tau is a weak value ratio; the representation constant cancels."""
    a = larmor.plateau_time(PARAMS)
    b = oracles.plateau_time_saddle(PARAMS)
    assert a.real == pytest.approx(b.real, rel=1e-6)


def test_trace_monotone_positions_and_zero_start():
    trace = larmor.larmor_time_trace(PARAMS, 2.0 * PARAMS.x0, n=32)
    assert trace.positions[0] == 0.0
    assert trace.times[0] == 0.0
    assert np.all(np.diff(trace.positions) > 0.0)


def test_trace_exactly_flat_beyond_barrier():
    """The projector vanishes past x0, so the trace is constant there."""
    trace = larmor.larmor_time_trace(PARAMS, 3.0 * PARAMS.x0, n=128)
    beyond = trace.times[trace.positions >= 1.2 * PARAMS.x0]
    assert np.max(np.abs(beyond - beyond[-1])) <= 1e-12 * abs(beyond[-1])


def test_trace_validation():
    with pytest.raises(DomainError):
        larmor.TimeTrace(positions=np.array([0.5, 1.0]),
                         times=np.array([0j, 1j]))
