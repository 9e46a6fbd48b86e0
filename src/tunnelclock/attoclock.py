"""Attoclock time as the weak value of temporal delay for the static model.

tau_A(u) = tau_tilde * Re[ N(u) / D(u) ]

with the half-line cubic-phase integrals (lower limit -u, prefactors
u'^2/(u'^2+1)^2 for N and u'/(u'^2+1)^2 for D, the ionization integral)
taken by the fixed rule of oscquad.cubic_phase_integral: a whole trace, both
prefactors, in one call.  The drift p/F has already been subtracted,
so tau_A is a pure tunneling delay; it is non-zero at the tunnel exit and
vanishes at the detector by parity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import oscquad
from .errors import DomainError
from .model import ModelParams

# Lower limits -+_PARITY_CUT of the half-lines asymptotic_parity_split joins.
_PARITY_CUT = 12.0
# Poles of both prefactors, those of the bound-state overlap u'/(u'^2+1)^2.
OVERLAP_POLES = (1j, -1j)


@dataclass(frozen=True)
class AttoTrace:
    """tau_A sampled on a momentum grid with the classical position map."""

    u_values: np.ndarray
    tau_a: np.ndarray
    xi_values: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u_values, dtype=float)
        t = np.asarray(self.tau_a, dtype=float)
        xi = np.asarray(self.xi_values, dtype=float)
        if not (u.shape == t.shape == xi.shape):
            raise DomainError("trace arrays must have matching shapes")
        if not np.array_equal(xi, 1.0 + u * u):
            raise DomainError("xi values must equal 1 + u^2")


def _g_delay(t):
    """Numerator prefactor u'^2/(u'^2+1)^2 (even)."""
    t = np.asarray(t, dtype=complex)
    return t * t / (t * t + 1.0) ** 2


def _overlap_g(t):
    """Denominator prefactor u'/(u'^2+1)^2 (odd), the bound-state overlap."""
    t = np.asarray(t, dtype=complex)
    return t / (t * t + 1.0) ** 2


def _n_and_d(params: ModelParams, lower):
    """N and D stacked, over the same lower limits in one call."""
    return oscquad.cubic_phase_integral(
        params.kappa, 1.0, lower=lower, poles=OVERLAP_POLES,
        g=lambda t: np.stack([_g_delay(t), _overlap_g(t)]))


def _weak_delay(params: ModelParams, u) -> np.ndarray:
    """tau_A at every u: N and D in one call over all lower limits -u."""
    u = np.asarray(u, dtype=float)
    n, d = _n_and_d(params, -u)
    small = np.abs(d) < 1e-300
    if np.any(small):
        raise DomainError(
            f"ionization amplitude underflows at u = {u[small]}")
    return params.tau_tilde * (n / d).real


def attoclock_time(params: ModelParams, u: float) -> float:
    """Weak-value attoclock delay at scaled momentum u (a.u.)."""
    return float(_weak_delay(params, float(u)))


def asymptotic_parity_split(params: ModelParams):
    """Even/odd bookkeeping of the u -> infinity integrals.

    Returns (numerator_full, denominator_full) over the whole line; parity
    forces the numerator to be purely real and the denominator purely
    imaginary, so their Im/Re parts are the forbidden residuals.  The left
    half-line pieces follow from conjugation symmetry of the real
    prefactors (even g -> +conj, odd g -> -conj of the right tail).
    """
    (num_main, num_tail), (den_main, den_tail) = _n_and_d(
        params, (-_PARITY_CUT, _PARITY_CUT))
    return num_main + np.conj(num_tail), den_main - np.conj(den_tail)


def attoclock_trace(params: ModelParams, u_max: float, n: int = 64) -> AttoTrace:
    """Sample tau_A on u in [0, u_max] with the classical position map."""
    if not math.isfinite(u_max):
        raise DomainError(f"u_max must be finite, got {u_max!r}")
    if n < 16:
        raise DomainError("need at least 16 trace points")
    u = np.linspace(0.0, float(u_max), n)
    return AttoTrace(u_values=u, tau_a=_weak_delay(params, u),
                     xi_values=1.0 + u * u)
