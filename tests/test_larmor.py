"""Weak-value Larmor time traces and the asymptotic normalization."""

import math

import numpy as np
import pytest

from tunnelclock import DomainError, HELIUM_IP, params_from_kappa
from tunnelclock import larmor, oscquad, sfa

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
    sigma = larmor.scaling_factor(PARAMS, oracles.saddle_prefactor(PARAMS))
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


def _trace_on_half_width_panels(params, positions):
    """The trace's overlap on panels half as wide as larmor's, gap by gap."""
    transform = sfa._transform_for(params, [0.0])
    xi = positions / params.x0
    stops = np.append(xi[xi < 1.0], 1.0)
    overlap = [0j]
    for a, b in zip(stops[:-1], stops[1:]):
        panels = 2 * math.ceil((b - a) / transform.panel_width)
        nodes, weights = oscquad.gl_panels(np.linspace(a, b, panels + 1))
        overlap.append(overlap[-1] + np.sum(
            weights * larmor.final_state(params, nodes) * transform.psi(nodes)))
    sigma = larmor.scaling_factor(params, transform.asymptotic_c)
    overlap = np.array(overlap)[np.minimum(np.arange(xi.size), stops.size - 1)]
    return sigma * params.x0 * overlap


@pytest.mark.parametrize("kappa", [1.5, 3.0, 10.0, 40.0])
def test_trace_matches_half_width_panels_and_is_flat_from_the_exit(kappa):
    """No grid and no interpolation: at the CLI's n_x = 121 the trace is
    within 1e-10 of max|tau| of the same overlap on half-width panels, and
    every position from x0 on holds the very same value."""
    p = params_from_kappa(HELIUM_IP, kappa)
    trace = larmor.larmor_time_trace(p, 3.0 * p.x0, n=121)
    ref = _trace_on_half_width_panels(p, trace.positions)
    assert np.max(np.abs(trace.times - ref)) <= 1e-10 * np.max(np.abs(ref))
    beyond = trace.times[trace.positions >= p.x0]
    assert beyond.size == 81 and np.all(beyond == trace.times[-1])
