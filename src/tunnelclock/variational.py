"""Variational Larmor time from the stationary complex-energy problem.

The delta-core + linear-field potential admits piecewise Airy solutions:
a decaying Airy branch for x < 0, an Airy pair in the barrier region
0 < x < x0 (where a potential offset V probes the time), and an outgoing
combination Ai - i Bi beyond the exit.  Matching value and the
delta-induced derivative jump at x = 0 plus value/derivative continuity at
x = x0 yields an overdetermined 4x3 linear system.  At V = 0 its x0 rows
only put the barrier pair on the outgoing wave, so the decaying resonance
is the zero of the 2x2 condition at the delta core (the zero-range
Green's-function form; Geltman, J. Phys. B 11 (1978) 3323).  The 4x3
system gives the Larmor time, the V derivative of the transmitted phase,
and the CLI's independent check of the resonance.  Every entry is an Airy
function at an argument linear in E and V, and Ai'' = z Ai, so the
derivatives are taken in closed form.

A square-barrier scattering demonstration of the weak-value/variational
equivalence is included.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import DomainError, NonConvergenceError
from .model import ModelParams

# larmor_time_variational refuses a matching system at the resonance whose
# ratio of smallest to largest singular value is below this.
_RANK_TOL = 1e-13
# Largest q*a of a square barrier: e^{-4qa} is still a normal double.
_MAX_QA = 177.0


@dataclass(frozen=True)
class Resonance:
    """Decaying (outgoing-wave) eigenstate."""

    energy: complex
    width: float       # Gamma = -2 Im E
    lifetime: float    # 1 / Gamma
    newton_steps: int  # Newton iterations that found it


def _airy_scales(params: ModelParams):
    beta = (params.field ** 2 / 2.0) ** (1.0 / 3.0)
    ell = -beta / params.field
    return beta, ell


def _airy_matrix(z: complex):
    """W = [[Ai, Bi], [Ai', Bi']] at z and dW/dz = [[Ai', Bi'], z [Ai, Bi]]."""
    a = specfun.airy(z)
    w = np.array([[a.ai, a.bi], [a.ai_prime, a.bi_prime]])
    return w, np.array([w[1], z * w[0]])


def _matching_system(params: ModelParams, energy: complex):
    """[M | rhs] of the matching conditions and dM/dV of its A0, B0 columns.

    Columns A0, B0, AR and rhs; rows: value and derivative jump at x = 0,
    value and derivative continuity at x0.  A potential offset V in the
    barrier shifts only the A0 and B0 columns' Airy argument, by +V/beta.
    """
    beta, ell = _airy_scales(params)
    s = -energy / beta
    w_s, dw_s = _airy_matrix(s)
    w_b, dw_b = _airy_matrix(s + params.x0 / ell)
    aug = np.zeros((4, 4), dtype=complex)
    aug[:2, :2], aug[2:, :2] = w_s, w_b
    aug[2:, 2] = 1j * w_b[:, 1] - w_b[:, 0]
    aug[:2, 3] = w_s[:, 0] - (0.0, 2.0 * params.kappa_tilde * ell * w_s[0, 0])
    return aug, np.concatenate([dw_s, dw_b]) / beta


def consistency_determinant(params: ModelParams, energy: complex) -> complex:
    """det[M | rhs]; vanishes exactly when the 4x3 system is consistent."""
    return complex(np.linalg.det(_matching_system(params, energy)[0]))


def _core_condition(params: ModelParams, energy: complex):
    """f(E) = j Ai (Ai - i Bi) - i (Ai Bi' - Ai' Bi) at s = -E/beta, and f'(E).

    At V = 0 the x0 rows force A0 = AR and B0 = -i AR, so [M | rhs] is
    consistent exactly when the delta-core rows AR (Ai - i Bi) = Ai and
    AR (Ai' - i Bi') = Ai' - j Ai, j = 2 kappa~ ell, share one AR; f is their
    2x2 determinant.  Ai'' = s Ai keeps the Wronskian constant, so f' is
    exact.  The Wronskian is the computed one, not 1/pi, so that its rounding
    cancels as in the 4x4 determinant (1/pi put the width 2.4e-12 off at
    kappa 30).
    """
    beta, ell = _airy_scales(params)
    jump = 2.0 * params.kappa_tilde * ell
    a = specfun.airy(-energy / beta)
    out = a.ai - 1j * a.bi
    f = jump * a.ai * out - 1j * (a.ai * a.bi_prime - a.ai_prime * a.bi)
    slope = a.ai_prime * out + a.ai * (a.ai_prime - 1j * a.bi_prime)
    return complex(f), complex(-jump * slope / beta)


def find_resonance(params: ModelParams) -> Resonance:
    """Damped Newton iteration on the delta-core condition _core_condition.

    f is analytic in E, so a complex Newton step from the unperturbed bound
    energy -ip converges to the decaying resonance: at most 80 steps, until
    the Newton step is below 1e-13 |E|.  The slope is exact, so each trial
    point costs one Airy evaluation: 3-5 per resonance at ip = HELIUM_IP,
    kappa 1-60.  Against a 40-digit mpmath root of det[M | rhs], Re E is
    within 2.9e-14 relative and the width within 4.1e-14, 3.1e-14, 1.7e-14,
    1.4e-14, 3.9e-14 and 2.9e-14 at kappa 2, 4, 10, 20, 25 and 30.  From
    kappa = 32.75 at ip = HELIUM_IP the width is 2.0 times the mpmath width:
    Im E is below the rounding of Re E, and scipy's Im Bi at the near-real
    s = -E/beta >= 10.24 is 0.8 % off.
    """
    if params.kappa < 1.0:
        raise DomainError("resonance search requires kappa >= 1")
    e = complex(-params.ip)
    scale = params.ip
    f, fp = _core_condition(params, e)
    for steps in range(1, 81):
        if fp == 0:
            raise NonConvergenceError("condition derivative vanished")
        step = -f / fp
        if abs(step) < 1e-13 * abs(e):
            e = e + step
            break
        # damping: keep the step inside the search radius and decreasing |f|
        max_step = 0.5 * scale
        if abs(step) > max_step:
            step *= max_step / abs(step)
        for _ in range(25):
            f_new, fp_new = _core_condition(params, e + step)
            if abs(f_new) < abs(f):
                break
            step *= 0.5
        e = e + step
        f, fp = f_new, fp_new
    else:
        raise NonConvergenceError(
            f"resonance Newton did not converge (last step {abs(step):.3g})")
    if e.imag >= 0.0:
        raise NonConvergenceError(
            f"converged to a non-decaying energy {e}; no physical resonance")
    width = -2.0 * e.imag
    return Resonance(energy=e, width=width, lifetime=1.0 / width,
                     newton_steps=steps)


def larmor_time_variational(params: ModelParams) -> float:
    """tau = -d(arg AR)/dV at the resonance energy, in closed form.

    AR is the third component of the least-squares solution x = M^+ rhs,
    and only M's A0 and B0 columns depend on V.  At the resonance the
    system is consistent, so the residual r = rhs - M x vanishes and the
    pseudo-inverse derivative (Golub & Pereyra, SIAM J. Numer. Anal. 10
    (1973) 413) reduces to dx/dV = -M^+ (dM/dV) x: one more lstsq with M.
    Its residual term (M^H M)^-1 (dM/dV)^H r is left out on purpose: the
    computed r is rounding noise, which the term scales by 1/sigma_min^2
    (it moved tau by up to 2.3e-4 relative, at kappa 41.75).  Equilibrating
    M's columns is not done either: it made tau 1.0e-9 off at kappa 20.
    Against a 40-digit mpmath derivative of the same least-squares phase,
    residual term included: 1.1e-13 relative at kappa 2, 5.5e-15 at 4,
    3.4e-12 at 10, 1.9e-13 at 20, 6.2e-10 at 25 and 1.7e-10 at 30.
    Raises NonConvergenceError when the matching system at the resonance
    has a singular-value ratio below _RANK_TOL: from kappa = 43.25 at
    ip = HELIUM_IP (1.1e-13 at kappa 43, 9.4e-14 at 43.25, 1.0e-15 at 50).
    """
    e0 = find_resonance(params).energy
    aug, dm_dv = _matching_system(params, e0)
    m = aug[:, :3]
    x, _, _, sv = np.linalg.lstsq(m, aug[:, 3], rcond=None)
    if not sv[-1] >= _RANK_TOL * sv[0]:
        raise NonConvergenceError(
            f"matching system at the resonance is rank-deficient "
            f"(sv ratio {sv[-1] / sv[0]:.3g} < {_RANK_TOL:g})")
    y = np.linalg.lstsq(m, dm_dv @ x[:2], rcond=None)[0]
    return float((y[2] / x[2]).imag)


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
