"""Model parameter derivations and classical kinematics."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tunnelclock import (
    HELIUM_IP,
    attoclock,
    larmor,
    oscquad,
    DomainError,
    classical_trajectory,
    classical_velocity,
    derive_params,
    params_from_kappa,
    position_from_u,
)


def test_helium_constant():
    assert HELIUM_IP == 0.9036


def test_derived_scales():
    p = derive_params(ip=0.5, field=0.25)
    kt = math.sqrt(1.0)
    assert p.kappa_tilde == pytest.approx(kt, rel=1e-15)
    assert p.kappa == pytest.approx(0.5 * kt / 0.25, rel=1e-15)
    assert p.x0 == pytest.approx(2.0, rel=1e-15)
    assert p.tau_tilde == pytest.approx(kt / 0.25, rel=1e-15)


def test_params_from_kappa_round_trip():
    p = params_from_kappa(HELIUM_IP, 3.0)
    q = derive_params(p.ip, p.field)
    assert q == p
    assert p.kappa == pytest.approx(3.0, rel=1e-14)


@given(st.floats(0.05, 5.0), st.floats(0.05, 5.0))
def test_round_trip_property(ip, kappa):
    p = params_from_kappa(ip, kappa)
    assert derive_params(ip, p.field).kappa == pytest.approx(kappa, rel=1e-12)


def test_invalid_inputs_rejected():
    with pytest.raises(DomainError):
        derive_params(-1.0, 0.5)
    with pytest.raises(DomainError):
        derive_params(1.0, 0.0)
    with pytest.raises(DomainError):
        params_from_kappa(1.0, -2.0)


def test_classical_trajectory_launch():
    p = params_from_kappa(HELIUM_IP, 3.0)
    x, v = classical_trajectory(p, 0.0)
    assert x == pytest.approx(p.x0)
    assert v == 0.0
    x1, v1 = classical_trajectory(p, 2.0)
    assert x1 == pytest.approx(p.x0 + 0.5 * p.field * 4.0)
    assert v1 == pytest.approx(p.field * 2.0)


def test_classical_velocity_matches_energy_conservation():
    p = params_from_kappa(HELIUM_IP, 3.0)
    x = 2.5 * p.x0
    v = classical_velocity(p, x)
    assert 0.5 * v * v == pytest.approx(p.field * (x - p.x0), rel=1e-14)


def test_position_from_u_identity():
    p = params_from_kappa(HELIUM_IP, 3.0)
    for u in (0.0, 0.5, 2.0):
        assert position_from_u(p, u) == pytest.approx(1.0 + u * u)


NON_FINITE_CALLS = {
    "derive_params ip": lambda x: derive_params(x, 0.05),
    "derive_params field": lambda x: derive_params(HELIUM_IP, x),
    "params_from_kappa ip": lambda x: params_from_kappa(x, 3.0),
    "params_from_kappa kappa": lambda x: params_from_kappa(HELIUM_IP, x),
    "cubic_phase_integral kappa": lambda x: oscquad.cubic_phase_integral(x, 1.0),
    "cubic_phase_integral w": lambda x: oscquad.cubic_phase_integral(3.0, x),
    "cubic_phase_integral lower":
        lambda x: oscquad.cubic_phase_integral(3.0, 1.0, lower=[0.0, x]),
    "attoclock_time u": lambda x: attoclock.attoclock_time(
        params_from_kappa(HELIUM_IP, 3.0), x),
    "classical_velocity x": lambda x: classical_velocity(
        params_from_kappa(HELIUM_IP, 3.0), x),
    "classical_trajectory t": lambda x: classical_trajectory(
        params_from_kappa(HELIUM_IP, 3.0), x),
    "position_from_u u": lambda x: position_from_u(
        params_from_kappa(HELIUM_IP, 3.0), x),
    "scaling_factor c": lambda x: larmor.scaling_factor(
        params_from_kappa(HELIUM_IP, 3.0), x),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", sorted(NON_FINITE_CALLS))
def test_non_finite_input_raises_domain_error(name, bad):
    with pytest.raises(DomainError):
        NON_FINITE_CALLS[name](bad)


TRACE_LIMITS = {
    "u_max": attoclock.attoclock_trace,
    "x_max": larmor.larmor_time_trace,
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", sorted(TRACE_LIMITS))
def test_non_finite_trace_limit_is_named(name, bad):
    """The trace's own check names its limit before numpy warns or an
    unrelated check fires."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=name):
            TRACE_LIMITS[name](params_from_kappa(HELIUM_IP, 3.0), bad)
