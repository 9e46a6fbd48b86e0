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

from . import oscquad, sfa, specfun
from .errors import DomainError
from .model import ModelParams


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
    the trace is exactly flat from x0 on, at its value at xi = 1.  On the
    barrier, psi_f psi_i is summed cumulatively on 16-point Gauss-Legendre
    panels broken at every requested position and no wider than the psi
    build's, and read at those positions: no grid and no interpolation.
    sigma takes psi_i's exact large-xi constant.  The error is psi's own
    (sfa.PositionTransform): against panels half as wide the rule adds at
    most 3e-16 of max|tau| at n = 121, x_max = 3 x0, kappa = 1.5 to 40.
    """
    if not math.isfinite(x_max):
        raise DomainError(f"x_max must be finite, got {x_max!r}")
    if params.kappa < 1.0:
        raise DomainError(f"scaling factor requires kappa >= 1, got {params.kappa}")
    if x_max <= params.x0:
        raise DomainError("x_max must exceed the tunnel exit x0")
    if n < 16:
        raise DomainError("need at least 16 trace points")

    positions = np.linspace(0.0, x_max, n)
    stops = np.append(positions[positions < params.x0] / params.x0, 1.0)
    transform = sfa._transform_for(params, stops)
    counts = np.ceil(np.diff(stops) / transform.panel_width).astype(int)
    edges = np.concatenate([np.linspace(a, b, c, endpoint=False) for a, b, c
                            in zip(stops[:-1], stops[1:], counts)] + [[1.0]])
    nodes, weights = oscquad.gl_panels(edges)
    cum = np.cumsum((weights * final_state(params, nodes)
                     * transform.psi(nodes)).reshape(-1, 16).sum(axis=1))
    at_stops = np.append(0.0, cum)[np.append(0, np.cumsum(counts))]
    sigma = scaling_factor(params, transform.asymptotic_c)
    times = sigma * params.x0 * at_stops[np.minimum(np.arange(n), stops.size - 1)]
    times[0] = 0.0
    return TimeTrace(positions=positions, times=times)


def plateau_time(params: ModelParams) -> complex:
    """Converged Larmor time (the trace value anywhere beyond the exit)."""
    trace = larmor_time_trace(params, x_max=2.0 * params.x0, n=16)
    return complex(trace.times[-1])
