"""Quadrature engine for cubic-phase oscillatory integrals.

Two layers: a globally adaptive Gauss-Kronrod (G7/K15) rule for finite
intervals with complex integrands, and a rotated-contour evaluator for the
semi-infinite tails

    integral_{lower}^{infty} g(u) exp(-i kappa (u^3/3 + w u)) du.

The tail is taken along the ray u = U + s e^{i phi} with phi = -pi/6, on
which Re[-i kappa u^3/3] ~ -(kappa/3) s^3, so the integrand decays
super-exponentially and a short finite segment suffices.
"""

from __future__ import annotations

import cmath
import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ContourCrossingError, DomainError, NonConvergenceError

# Default tolerances: two orders below the tightest downstream tolerance.
DEFAULT_ABS_TOL = 1e-10
DEFAULT_REL_TOL = 1e-8

# 15-point Kronrod nodes/weights with the embedded 7-point Gauss rule,
# on [-1, 1].  Standard values (QUADPACK dqk15).
_XK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

# Full symmetric node/weight arrays.
_NODES = np.concatenate([-_XK[:-1], _XK[::-1]])          # 15 ascending
_WEIGHTS_K = np.concatenate([_WK[:-1], _WK[::-1]])
_WEIGHTS_G = np.zeros(15)
_WEIGHTS_G[1:-1:2] = np.concatenate([_WG[:-1], _WG[::-1]])


@dataclass(frozen=True)
class QuadResult:
    """Outcome of one quadrature: value, error estimate, work count."""

    value: complex
    abs_error_estimate: float
    evaluations: int


def _eval_vectorized(f: Callable, x: np.ndarray) -> np.ndarray:
    """Evaluate f on an array, falling back to a scalar loop."""
    try:
        y = np.asarray(f(x), dtype=complex)
        if y.shape == x.shape:
            return y
    except (TypeError, ValueError):
        pass
    return np.array([complex(f(v)) for v in x])


def _gk15(f: Callable, a: float, b: float) -> tuple[complex, float]:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    y = _eval_vectorized(f, mid + half * _NODES)
    vk = half * np.sum(_WEIGHTS_K * y)
    vg = half * np.sum(_WEIGHTS_G * y)
    # QUADPACK-style sharpened error estimate.
    resabs = half * float(np.sum(_WEIGHTS_K * np.abs(y)))
    err = abs(vk - vg)
    if resabs > 0.0 and err > 0.0:
        err = resabs * min(1.0, (200.0 * err / resabs) ** 1.5)
    return complex(vk), float(err)


def integrate_finite(f: Callable, a: float, b: float,
                     tol: float = DEFAULT_ABS_TOL,
                     rel_tol: float = DEFAULT_REL_TOL,
                     max_intervals: int = 4096) -> QuadResult:
    """Globally adaptive G7/K15 integration of a complex integrand on [a, b].

    The interval with the largest error estimate is bisected until the summed
    estimate falls below max(tol, rel_tol*|value|).
    """
    if not (a <= b):
        raise DomainError(f"integrate_finite requires a <= b, got ({a}, {b})")
    if tol <= 0.0:
        raise DomainError("tolerance must be positive")
    if a == b:
        return QuadResult(value=0j, abs_error_estimate=0.0, evaluations=0)

    val, err = _gk15(f, a, b)
    # Max-heap on the error estimate; the insertion count breaks ties in
    # favour of the newest segment.  The running totals drift by rounding,
    # so a stop they allow is confirmed by an exact re-sum.
    heap = [(-err, 0, a, b, val)]
    total_val, total_err = val, err
    evals = 15
    while True:
        if total_err <= max(tol, rel_tol * abs(total_val)):
            total_val = sum(s[4] for s in heap)
            total_err = sum(-s[0] for s in heap)
            if total_err <= max(tol, rel_tol * abs(total_val)):
                return QuadResult(value=total_val,
                                  abs_error_estimate=total_err,
                                  evaluations=evals)
        if len(heap) >= max_intervals:
            raise NonConvergenceError(
                f"adaptive quadrature exhausted {max_intervals} intervals; "
                f"error estimate {total_err:.3g}")
        neg_err, _, sa, sb, sv = heapq.heappop(heap)
        sm = 0.5 * (sa + sb)
        v1, e1 = _gk15(f, sa, sm)
        v2, e2 = _gk15(f, sm, sb)
        evals += 30
        heapq.heappush(heap, (-e1, -evals, sa, sm, v1))
        heapq.heappush(heap, (-e2, -evals - 1, sm, sb, v2))
        total_val += v1 + v2 - sv
        total_err += e1 + e2 + neg_err


def _one(u):
    return np.ones_like(np.asarray(u, dtype=complex))


def tail_split_point(kappa: float, w: float, lower: float) -> float:
    """Smallest admissible start of the rotated tail.

    U >= max(lower, 2) with kappa*(U^2 + |w|) >= 50 guarantees fast decay on
    the ray; for w < 0 the real stationary points at +-sqrt(-w) must also lie
    inside the finite segment.
    """
    u_freq = math.sqrt(max(0.0, 50.0 / kappa - abs(w)))
    u_stat = math.sqrt(max(0.0, -w)) + 0.5
    return max(lower, 2.0, u_freq, u_stat)


def cubic_phase_integral(kappa: float, w: float, lower: float = 0.0,
                         g: Callable | None = None,
                         poles: Sequence[complex] = (),
                         exclusion_radius: float = 0.5,
                         rotation: float = -math.pi / 6.0,
                         tol: float = DEFAULT_ABS_TOL,
                         rel_tol: float = DEFAULT_REL_TOL) -> complex:
    """integral_{lower}^{infty} g(u) exp(-i kappa (u^3/3 + w u)) du.

    The finite part [lower, U] is integrated adaptively on the real axis;
    the remainder follows the ray U + s e^{i rotation}, on which the cubic
    phase decays.  g must be evaluable at complex argument on the ray and
    free of singularities there; declared poles are checked against the ray.
    """
    if kappa <= 0.0:
        raise DomainError(f"kappa must be positive, got {kappa}")
    if not (-math.pi / 3.0 < rotation < 0.0):
        raise DomainError("rotation angle must lie in (-pi/3, 0) for decay")
    if g is None:
        g = _one

    u_split = tail_split_point(kappa, w, lower)

    direction = cmath.exp(1j * rotation)
    for p in poles:
        p = complex(p)
        # Distance from p to the ray {u_split + s*direction, s >= 0}.
        rel = (p - u_split) / direction
        dist = abs(rel.imag) if rel.real >= 0.0 else abs(p - u_split)
        if dist < exclusion_radius:
            raise ContourCrossingError(
                f"rotated tail ray passes within {dist:.3g} of pole {p} "
                f"(exclusion radius {exclusion_radius:g})")

    def phase(u):
        return np.exp(-1j * kappa * (u ** 3 / 3.0 + w * u))

    total = 0j
    if lower < u_split:
        res = integrate_finite(
            lambda t: g(np.asarray(t, dtype=complex)) * phase(np.asarray(t, dtype=complex)),
            lower, u_split, tol=tol, rel_tol=rel_tol)
        total += res.value

    # Tail: substitute u = u_split + s*direction.  The exponent's real part
    # falls like -(kappa/3) s^3 sin(3|rotation|); cut where it underflows.
    decay3 = (kappa / 3.0) * math.sin(3.0 * abs(rotation))
    s_max = (760.0 / decay3) ** (1.0 / 3.0) + 2.0 * math.sqrt(max(0.0, -w))

    def tail_integrand(s):
        u = u_split + direction * np.asarray(s, dtype=complex)
        expo = -1j * kappa * (u ** 3 / 3.0 + w * u)
        out = np.zeros_like(u)
        ok = expo.real > -745.0
        out[ok] = g(u[ok]) * np.exp(expo[ok])
        return out

    # When kappa*(U^2 + w) is large the integrand lives in a boundary layer
    # of width ~1/(kappa*(U^2+w)*sin|phi|) at s = 0; seed the adaptive rule
    # with geometrically growing segments so the layer cannot be skipped.
    decay1 = kappa * max(u_split ** 2 + w, 1.0) * math.sin(abs(rotation))
    delta = min(1.0 / decay1, s_max)
    edges = [0.0]
    while edges[-1] < s_max:
        edges.append(min(s_max, max(edges[-1] * 2.0, delta)))
    tail_val = 0j
    piece_tol = tol / len(edges)
    for sa, sb in zip(edges[:-1], edges[1:]):
        res = integrate_finite(tail_integrand, sa, sb,
                               tol=piece_tol, rel_tol=rel_tol)
        tail_val += res.value
    total += direction * tail_val
    return total
