"""Numerical laboratory for tunneling-time observables.

One-dimensional static-field ionization model with weak-value analysis:
Larmor weak-value clock traces, attoclock readings, circular-field
photoelectron spectra, phase-space (Husimi) maps, and a variational
resonance method, built on Airy/Scorer special functions and one fixed
Gauss-Legendre rule for cubic-phase integrals over any set of lower limits.
"""

__version__ = "1.0.0"

from .errors import (
    DomainError,
    NonConvergenceError,
    NumericalWarning,
)
from .model import (
    HELIUM_IP,
    ModelParams,
    classical_trajectory,
    classical_velocity,
    derive_params,
    params_from_kappa,
    position_from_u,
)

__all__ = [
    "__version__",
    "HELIUM_IP",
    "ModelParams",
    "derive_params",
    "params_from_kappa",
    "classical_trajectory",
    "classical_velocity",
    "position_from_u",
    "DomainError",
    "NonConvergenceError",
    "NumericalWarning",
]
