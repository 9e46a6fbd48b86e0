"""1D static-field ionization model: derived scales and classical kinematics.

Atomic units throughout. The model is an electron bound by a delta potential
of strength sqrt(2*ip), ionized by a static field `field`. All other modules
take their unit conventions from :class:`ModelParams`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

# Default ionization potential of helium (a.u.).
HELIUM_IP = 0.9036


@dataclass(frozen=True)
class ModelParams:
    """Derived scales of the static-field model.

    kappa_tilde = sqrt(2*ip)          characteristic bound momentum
    kappa       = ip*kappa_tilde/field  barrier (adiabaticity) parameter
    x0          = ip/field            tunnel exit (classical turning point)
    tau_tilde   = kappa_tilde/field   natural time unit
    """

    ip: float
    field: float
    kappa_tilde: float
    kappa: float
    x0: float
    tau_tilde: float


def derive_params(ip: float, field: float) -> ModelParams:
    """Build ModelParams from ionization potential and static field (a.u.)."""
    if not (0.0 < ip < math.inf and 0.0 < field < math.inf):
        raise DomainError(f"ip and field must be finite and positive, got {ip}, {field}")
    kt = math.sqrt(2.0 * ip)
    return ModelParams(
        ip=ip,
        field=field,
        kappa_tilde=kt,
        kappa=ip * kt / field,
        x0=ip / field,
        tau_tilde=kt / field,
    )


def params_from_kappa(ip: float, kappa: float) -> ModelParams:
    """Build ModelParams by inverting kappa = ip*sqrt(2*ip)/field."""
    if not (0.0 < ip < math.inf and 0.0 < kappa < math.inf):
        raise DomainError(f"ip and kappa must be finite and positive, got {ip}, {kappa}")
    field = ip * math.sqrt(2.0 * ip) / kappa
    return derive_params(ip, field)


def classical_trajectory(params: ModelParams, t: float) -> tuple[float, float]:
    """Position and velocity of the classical electron released at the exit.

    Starts at x0 with zero velocity at t = 0 and accelerates in the field.
    """
    if not 0.0 <= t < math.inf:
        raise DomainError(f"t must be finite and non-negative, got {t}")
    x = params.x0 + 0.5 * params.field * t * t
    v = params.field * t
    return x, v


def classical_velocity(params: ModelParams, x: float) -> float:
    """Velocity sqrt(2*field*(x - x0)) at position x on the released
    trajectory (0 before the exit)."""
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x}")
    return math.sqrt(max(0.0, 2.0 * params.field * (x - params.x0)))


def position_from_u(params: ModelParams, u: float) -> float:
    """Scaled position xi = x/x0 reached with scaled velocity u = v/kappa_tilde.

    Energy conservation on the classical trajectory gives xi = 1 + u^2.
    """
    if not 0.0 <= u < math.inf:
        raise DomainError(f"u must be finite and non-negative, got {u}")
    return 1.0 + u * u
