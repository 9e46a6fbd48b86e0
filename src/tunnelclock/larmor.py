"""Position-resolved Larmor time as a weak value.

tau_L(x) = sigma * integral_0^x dx' theta_B(x') psi_f*(x') psi_i(x')

with the barrier projector theta_B supported on [0, x0], the final state
psi_f = Ai(kappa^{2/3}(1 - xi)), and sigma the asymptotic normalization
that makes the large-xi Larmor velocity coincide with the classical one.
Real part: in-plane precession time; imaginary part: spin alignment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import sfa, specfun
from .errors import DomainError
from .model import ModelParams

# Odd number of points of the dense Simpson grid over the barrier [0, x0].
_SIMPSON_POINTS = 513


@dataclass(frozen=True)
class TimeTrace:
    """Cumulative complex Larmor time sampled along position."""

    positions: np.ndarray  # x in a.u., strictly increasing, starts at 0
    times: np.ndarray      # complex; Re = precession time, Im = alignment

    def __post_init__(self):
        x = np.asarray(self.positions, dtype=float)
        t = np.asarray(self.times, dtype=complex)
        if x.ndim != 1 or t.shape != x.shape:
            raise DomainError("positions and times must be matching 1D arrays")
        if not np.all(np.diff(x) > 0.0):
            raise DomainError("positions must be strictly increasing")
        if x[0] != 0.0 or t[0] != 0.0:
            raise DomainError("trace must start at x = 0 with time 0")
        object.__setattr__(self, "positions", x)
        object.__setattr__(self, "times", t)


def final_state(params: ModelParams, xi):
    """Post-selected transmitted state Ai(kappa^{2/3}(1 - xi)).

    Decays for xi -> -infinity and oscillates beyond the tunnel exit.
    """
    arg = params.kappa ** (2.0 / 3.0) * (1.0 - np.asarray(xi, dtype=float))
    return specfun.ai_real(arg)


def scaling_factor(params: ModelParams, c: complex) -> complex:
    """sigma = 2^{2/3} pi / (F^{1/3} C) for an initial state with the
    large-xi form psi_i(xi) -> C * [Ai - i Gi](kappa^{2/3}(1 - xi)).

    Equivalently the oscillation-averaged limit of 1/(v(xi) psi_f psi_i)
    as xi -> infinity with v(xi) = sqrt(2 ip xi).
    """
    if not math.isfinite(abs(c)):
        raise DomainError(f"C must be finite, got {c}")
    return 2.0 ** (2.0 / 3.0) * math.pi / (params.field ** (1.0 / 3.0) * c)


def larmor_time_trace(params: ModelParams, x_max: float, n: int = 64) -> TimeTrace:
    """Cumulative weak-value Larmor time on positions linspace(0, x_max, n).

    The projector theta_B truncates the integrand at the tunnel exit, so
    the trace is exactly flat beyond x0.  The cumulative integral over the
    smooth barrier region is taken on a dense Simpson grid and interpolated
    onto the requested positions, which keeps it exactly additive over
    subintervals.  The linear interpolation is O(h^2) in the grid step
    h = 1/(_SIMPSON_POINTS - 1) at positions between grid points: against
    Gauss-Legendre panels broken at every requested xi, 2.3e-6 of max|tau|
    at kappa = 3, n = 121, x_max = 3 x0, falling 4x per halving of h, and
    9.3e-12 at kappa = 4, n = 25, where every position is a grid point.
    """
    if not math.isfinite(x_max):
        raise DomainError(f"x_max must be finite, got {x_max!r}")
    if params.kappa < 1.0:
        raise DomainError(f"scaling factor requires kappa >= 1, got {params.kappa}")
    if x_max <= params.x0:
        raise DomainError("x_max must exceed the tunnel exit x0")
    if n < 16:
        raise DomainError("need at least 16 trace points")

    xi_dense = np.linspace(0.0, 1.0, _SIMPSON_POINTS)
    transform = sfa._transform_for(params, xi_dense)
    # psi_i's asymptotic prefactor carries the exact (finite-kappa) I(inf).
    sigma = scaling_factor(params, transform._pref * transform.i_infinity
                           * math.pi * params.kappa ** (-1.0 / 3.0))
    integrand = final_state(params, xi_dense) * transform.psi(xi_dense)

    # Cumulative Simpson on the uniform dense grid (composite over pairs,
    # trapezoid closing for odd offsets keeps interpolation smooth).
    h = xi_dense[1] - xi_dense[0]
    cum = np.zeros(_SIMPSON_POINTS, dtype=complex)
    pair = (h / 3.0) * (integrand[:-2:2] + 4.0 * integrand[1:-1:2]
                        + integrand[2::2])
    cum[2::2] = np.cumsum(pair)
    cum[1::2] = cum[:-1:2] + 0.5 * h * (integrand[:-1:2] + integrand[1::2])

    positions = np.linspace(0.0, x_max, n)
    xi_pos = np.minimum(positions / params.x0, 1.0)
    times = sigma * params.x0 * (
        np.interp(xi_pos, xi_dense, cum.real)
        + 1j * np.interp(xi_pos, xi_dense, cum.imag))
    times[0] = 0.0
    return TimeTrace(positions=positions, times=times)


def plateau_time(params: ModelParams) -> complex:
    """Converged Larmor time (the trace value anywhere beyond the exit)."""
    trace = larmor_time_trace(params, x_max=2.0 * params.x0, n=16)
    return complex(trace.times[-1])
