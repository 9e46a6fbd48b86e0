"""Attoclock time as the weak value of temporal delay for the static model.

tau_A(u) = tau_tilde * Re[ N(u) / D(u) ]

with the half-line cubic-phase integrals (lower limit -u, prefactors
u'^2/(u'^2+1)^2 and u'/(u'^2+1)^2) taken by the fixed rule of
oscquad.cubic_phase_integral, a whole trace in one call per prefactor;
D is sfa.ionization_integral.  The drift p/F has already been subtracted,
so tau_A is a pure tunneling delay; it is non-zero at the tunnel exit and
vanishes at the detector by parity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import oscquad, sfa
from .errors import DomainError
from .model import ModelParams

# Lower limits -+_PARITY_CUT of the half-lines asymptotic_parity_split joins.
_PARITY_CUT = 12.0


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


def _weak_delay(params: ModelParams, u) -> np.ndarray:
    """tau_A at every u: one N and one D call over all lower limits -u."""
    u = np.asarray(u, dtype=float)
    n = oscquad.cubic_phase_integral(
        params.kappa, 1.0, lower=-u, g=_g_delay, poles=sfa.OVERLAP_POLES)
    d = sfa.ionization_integral(params, u)
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
    num_main, num_tail = oscquad.cubic_phase_integral(
        params.kappa, 1.0, lower=(-_PARITY_CUT, _PARITY_CUT), g=_g_delay,
        poles=sfa.OVERLAP_POLES)
    den_main, den_tail = sfa.ionization_integral(
        params, (_PARITY_CUT, -_PARITY_CUT))
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
