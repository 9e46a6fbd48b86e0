"""Variational Larmor time from the stationary complex-energy problem.

The delta-core + linear-field potential admits piecewise Airy solutions:
a decaying Airy branch for x < 0, a shifted Airy pair in the barrier
region 0 < x < x0 (where a small potential offset dV probes the time),
and an outgoing combination Ai - i Bi beyond the exit.  Matching value
and the delta-induced derivative jump at x = 0 plus value/derivative
continuity at x = x0 yields an overdetermined 4x3 linear system; its
consistency condition locates the decaying resonance, and the dV
derivative of the transmitted phase gives the Larmor time.

A square-barrier scattering demonstration of the weak-value/variational
equivalence is included.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import DomainError, NonConvergenceError
from .model import ModelParams

# larmor_time_variational fails when halving dv moves tau by more than this.
_DV_STABILITY_TOL = 0.01
# ... or when the matching system at the resonance has a smaller ratio of
# smallest to largest singular value than this.
_RANK_TOL = 1e-13
# Largest q*a of a square barrier: e^{-4qa} is still a normal double.
_MAX_QA = 177.0


@dataclass(frozen=True)
class MatchingSolution:
    """Least-squares solution of the Airy matching system."""

    coefficients: tuple  # (A0, B0, AR)
    residual: float


@dataclass(frozen=True)
class Resonance:
    """Decaying (outgoing-wave) eigenstate."""

    energy: complex
    width: float      # Gamma = -2 Im E
    lifetime: float   # 1 / Gamma


def _airy_scales(params: ModelParams):
    beta = (params.field ** 2 / 2.0) ** (1.0 / 3.0)
    ell = -beta / params.field
    return beta, ell


def _matching_system(params: ModelParams, energy: complex, dv: float):
    """4x3 matrix and right-hand side of the matching conditions."""
    beta, ell = _airy_scales(params)
    s = -energy / beta
    s0 = -(energy - dv) / beta
    z_exit = params.x0 / ell
    a_s = specfun.airy(s)
    a_s0 = specfun.airy(s0)
    a_b0 = specfun.airy(s0 + z_exit)
    a_b = specfun.airy(s + z_exit)
    out = a_b.ai - 1j * a_b.bi
    out_p = a_b.ai_prime - 1j * a_b.bi_prime
    m = np.array([
        [a_s0.ai, a_s0.bi, 0.0],
        [a_s0.ai_prime, a_s0.bi_prime, 0.0],
        [a_b0.ai, a_b0.bi, -out],
        [a_b0.ai_prime, a_b0.bi_prime, -out_p],
    ], dtype=complex)
    rhs = np.array([
        a_s.ai,
        a_s.ai_prime - 2.0 * params.kappa_tilde * ell * a_s.ai,
        0.0,
        0.0,
    ], dtype=complex)
    return m, rhs


def solve_matching(params: ModelParams, energy: complex,
                   dv: float = 0.0) -> MatchingSolution:
    """Least-squares coefficients (A0, B0, AR) and the defect norm."""
    m, rhs = _matching_system(params, energy, dv)
    coeff, *_ = np.linalg.lstsq(m, rhs, rcond=None)
    defect = m @ coeff - rhs
    return MatchingSolution(
        coefficients=tuple(coeff), residual=float(np.linalg.norm(defect)))


def consistency_determinant(params: ModelParams, energy: complex,
                            dv: float = 0.0) -> complex:
    """det[M | rhs]; vanishes exactly when the 4x3 system is consistent."""
    m, rhs = _matching_system(params, energy, dv)
    return complex(np.linalg.det(np.column_stack([m, rhs])))


@functools.lru_cache(maxsize=8)
def find_resonance(params: ModelParams) -> Resonance:
    """Damped Newton iteration on the consistency determinant.

    The determinant is analytic in E, so a complex Newton step from the
    unperturbed bound energy -ip converges to the decaying resonance: at
    most 80 steps, until |step| < 1e-13 |E|.  Cached per params.
    """
    if params.kappa < 1.0:
        raise DomainError("resonance search requires kappa >= 1")
    e = complex(-params.ip)
    scale = params.ip
    f = consistency_determinant(params, e)
    for _ in range(80):
        h = 1e-7 * scale
        fp = (consistency_determinant(params, e + h)
              - consistency_determinant(params, e - h)) / (2.0 * h)
        if fp == 0:
            raise NonConvergenceError("determinant derivative vanished")
        step = -f / fp
        # damping: keep the step inside the search radius and decreasing |f|
        max_step = 0.5 * scale
        if abs(step) > max_step:
            step *= max_step / abs(step)
        for _ in range(25):
            f_new = consistency_determinant(params, e + step)
            if abs(f_new) < abs(f):
                break
            step *= 0.5
        e = e + step
        f = f_new
        if abs(step) < 1e-13 * abs(e):
            break
    else:
        raise NonConvergenceError(
            f"resonance Newton did not converge (last step {abs(step):.3g})")
    if e.imag >= 0.0:
        raise NonConvergenceError(
            f"converged to a non-decaying energy {e}; no physical resonance")
    width = -2.0 * e.imag
    return Resonance(energy=e, width=width, lifetime=1.0 / width)


def _transmitted_phase(params: ModelParams, energy: complex, dv: float) -> float:
    """arg of the transmitted coefficient AR at fixed complex energy."""
    sol = solve_matching(params, energy, dv)
    return cmath.phase(sol.coefficients[2])


def larmor_time_variational(params: ModelParams,
                            dv: float | None = None) -> float:
    """tau = -d(arg AR)/dV at the resonance energy, by central differences.

    The outgoing Airy factor at x = x0 is dV-independent, so the phase of
    the transmitted wave at the exit moves only through AR.  A dv that is
    not finite and positive raises DomainError.  Raises NonConvergenceError
    when halving dv moves tau by more than _DV_STABILITY_TOL relative (from
    kappa = 49 at the default dv), and then when the matching system at the
    resonance has a singular-value ratio below _RANK_TOL (from kappa = 43.5
    at ip = HELIUM_IP: 1.1e-13 at kappa 43, 2.9e-14 at 45, 1.6e-16 at 52.75).
    """
    if dv is None:
        dv = 1e-5 * params.ip
    if not (math.isfinite(dv) and dv > 0.0):
        raise DomainError(f"dv must be finite and positive, got {dv!r}")
    e0 = find_resonance(params).energy

    def tau_of(h: float) -> float:
        dphi = _transmitted_phase(params, e0, h) \
            - _transmitted_phase(params, e0, -h)
        return -dphi / (2.0 * h)

    coarse = tau_of(dv)
    fine = tau_of(0.5 * dv)
    if not abs(fine - coarse) <= _DV_STABILITY_TOL * abs(fine):
        raise NonConvergenceError(
            f"variational time unstable under dv halving "
            f"({coarse:.6g} -> {fine:.6g})")
    sv = np.linalg.svd(_matching_system(params, e0, 0.0)[0], compute_uv=False)
    if not sv[-1] >= _RANK_TOL * sv[0]:
        raise NonConvergenceError(
            f"matching system at the resonance is rank-deficient "
            f"(sv ratio {sv[-1] / sv[0]:.3g} < {_RANK_TOL:g})")
    return fine


# ----------------------------------------------------------------------
# Square-barrier equivalence demonstration
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SquareBarrier:
    """Exact left/right-incident scattering solutions, E = k^2/2 < height."""

    height: float
    halfwidth: float
    k: float
    q: float
    # left-incident: e^{ikx} + R e^{-ikx} | C e^{qx} + D e^{-qx} | T e^{ikx}
    r: complex
    c: complex
    d: complex
    t: complex
    # right-incident: T_t e^{-ikx} | C' e^{qx} + D' e^{-qx} | e^{-ikx} + R_t e^{ikx}
    r_t: complex
    c_p: complex
    d_p: complex
    t_t: complex


def square_barrier(height: float, halfwidth: float, k: float) -> SquareBarrier:
    """Scattering solutions of the barrier `height` on [-halfwidth, halfwidth].

    Valid for 0 < k^2/2 < height and 0 < q a <= 177, q = sqrt(2 height - k^2),
    a = halfwidth; anything else raises DomainError.  Past q a = 177 the
    products c' c ~ 1.3 e^{-4qa} that the weak time needs leave the normal
    double range (at height 1, k 0.8 the weak time is off by 2e-6 relative
    at q a = 183 and wholly wrong by q a = 210), and past q a ~ 355
    sinh(2qa) overflows.
    """
    if not (0.0 < k * k / 2.0 < height):
        raise DomainError("require tunneling regime 0 < k^2/2 < height")
    a = float(halfwidth)
    if not (math.isfinite(a) and a > 0.0):
        raise DomainError(f"half-width must be finite and positive, got {a!r}")
    q = math.sqrt(2.0 * height - k * k)
    ika, qa = 1j * k * a, q * a
    if not qa <= _MAX_QA:
        raise DomainError(f"q*a = {qa:.6g} exceeds {_MAX_QA:g}: the barrier "
                          f"is too opaque for double precision")
    # unknowns [R, C, D, T]
    m_left = np.array([
        [cmath.exp(ika), -cmath.exp(-qa), -cmath.exp(qa), 0.0],
        [-1j * k * cmath.exp(ika), -q * cmath.exp(-qa), q * cmath.exp(qa), 0.0],
        [0.0, cmath.exp(qa), cmath.exp(-qa), -cmath.exp(ika)],
        [0.0, q * cmath.exp(qa), -q * cmath.exp(-qa), -1j * k * cmath.exp(ika)],
    ], dtype=complex)
    b_left = np.array([-cmath.exp(-ika), -1j * k * cmath.exp(-ika), 0.0, 0.0])
    r, c, d, t = np.linalg.solve(m_left, b_left)
    # unknowns [R_t, C', D', T_t]
    m_right = np.array([
        [cmath.exp(ika), -cmath.exp(qa), -cmath.exp(-qa), 0.0],
        [1j * k * cmath.exp(ika), -q * cmath.exp(qa), q * cmath.exp(-qa), 0.0],
        [0.0, cmath.exp(-qa), cmath.exp(qa), -cmath.exp(ika)],
        [0.0, q * cmath.exp(-qa), -q * cmath.exp(qa), 1j * k * cmath.exp(ika)],
    ], dtype=complex)
    b_right = np.array([-cmath.exp(-ika), 1j * k * cmath.exp(-ika), 0.0, 0.0])
    r_t, c_p, d_p, t_t = np.linalg.solve(m_right, b_right)
    return SquareBarrier(height=height, halfwidth=a, k=k, q=q,
                         r=r, c=c, d=d, t=t,
                         r_t=r_t, c_p=c_p, d_p=d_p, t_t=t_t)


def scattering_equivalence(barrier_height: float, barrier_halfwidth: float,
                           k: float) -> tuple[complex, float]:
    """Weak-value and variational traversal times for a square barrier.

    tau_weak = (1/k) * integral_{-a}^{a} psi_t^*(x) psi_i(x) dx / T,
    tau_variational = -d(arg T)/dV, exact: T = e^{-2ika}/D with
    D = cosh 2qa + i eps sinh 2qa, eps = (q^2 - k^2)/(2kq) and dq/dV = 1/q,
    differentiated as D/cosh 2qa so that it holds at every q a of
    square_barrier's envelope.  Measured on 16 barriers up to q a = 177:
    within 3.8e-16 relative of a 40-digit derivative of arg T, and the
    weak value agrees with it to 8.1e-14.
    """
    sb = square_barrier(barrier_height, barrier_halfwidth, k)
    a, q = sb.halfwidth, sb.q
    # integral_{-a}^{a} (c' e^{qx} + d' e^{-qx})(c e^{qx} + d e^{-qx}) dx
    overlap = ((sb.c_p * sb.c + sb.d_p * sb.d) * math.sinh(2.0 * q * a) / q
               + 2.0 * a * (sb.c_p * sb.d + sb.d_p * sb.c))
    tau_weak = overlap / (k * sb.t)
    # arg T = -2ka - arg(1 + i eps t), t = tanh 2qa, so with
    # eps' = d eps/dq = (q^2 + k^2)/(2kq^2) and dt/dq = 2a sech^2 2qa:
    t = math.tanh(2.0 * q * a)
    eps = (q * q - k * k) / (2.0 * k * q)
    eps_q = (q * q + k * k) / (2.0 * k * q * q)
    tau_var = ((eps_q * t + 2.0 * a * eps * math.cosh(2.0 * q * a) ** -2)
               / (q * (1.0 + (eps * t) ** 2)))
    return complex(tau_weak), tau_var
