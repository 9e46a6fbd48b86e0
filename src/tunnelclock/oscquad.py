"""Quadrature for cubic-phase oscillatory integrals.

The production rule is cubic_phase_integral, one fixed rule for

    integral_{lower}^{infty} g(u) exp(-i kappa (u^3/3 + w u)) du

at one lower limit or at many at once: Gauss-Legendre panels on the real
axis up to a split point U, summed from the right onto one tail taken along
the ray u = U + s e^{i phi}, phi = -pi/6, on which Re[-i kappa u^3/3] ~
-(kappa/3) s^3 and the integrand decays super-exponentially (numerical
steepest descent; Huybrechs & Vandewalle, SIAM J. Numer. Anal. 44 (2006)
1026).

The globally adaptive Gauss-Kronrod (G7/K15) rule for finite intervals with
complex integrands (QUADPACK qag; Piessens et al. 1983) is kept as the
independent reference the tests check the fixed rule against.
"""

from __future__ import annotations

import cmath
import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, NonConvergenceError

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

# 16-point Gauss-Legendre rule on [-1, 1] for the fixed panels.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
# Real-axis panels are at most this wide and turn at most this many radians
# of the local phase; they are evaluated in blocks of _BLOCK, and a call
# that needs more than MAX_PANELS of them is refused.
_PANEL_WIDTH = 0.5
_PANEL_TURN = 10.0
_BLOCK = 1 << 16
MAX_PANELS = 1 << 24
# Angle of the tail ray; the cubic decays on it for any angle in (-pi/3, 0).
_ROTATION = -math.pi / 6.0
# A declared pole closer than this to the rotated tail ray is refused.
_POLE_CLEARANCE = 0.5


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


def gl_panels(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """16-point Gauss-Legendre nodes and weights on consecutive panels."""
    if not np.isfinite(edges).all():
        raise DomainError("gl_panels needs finite edges")
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    return ((mid[:, None] + half[:, None] * _GL_X[None, :]).ravel(),
            (half[:, None] * _GL_W[None, :]).ravel())


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


def tail_split_point(kappa: float, w: float, lower: float) -> float:
    """Smallest admissible start of the rotated tail.

    U >= max(lower, 2) with kappa*(U^2 + |w|) >= 50 guarantees fast decay on
    the ray; for w < 0 the real stationary points at +-sqrt(-w) must also lie
    inside the finite segment.
    """
    u_freq = math.sqrt(max(0.0, 50.0 / kappa - abs(w)))
    u_stat = math.sqrt(max(0.0, -w)) + 0.5
    return max(lower, 2.0, u_freq, u_stat)


def cubic_phase_integral(kappa: float, w: float, lower=0.0,
                         g: Callable | None = None,
                         poles: Sequence[complex] = ()):
    """integral_{lower}^{infty} g(u) exp(-i kappa (u^3/3 + w u)) du.

    A scalar lower gives a complex, an array one integral per element.  A
    g that stacks several prefactors on a leading axis (shape (m, n) on n
    nodes) integrates them all on the same nodes; the result gains that axis.
    16-point Gauss-Legendre panels cover [min(lower), U], U =
    tail_split_point(kappa, w, max(lower)), broken at every lower limit,
    each at most _PANEL_WIDTH wide and turning at most _PANEL_TURN radians
    of the local phase kappa (u^2 + |w|).  Their sums accumulate from the
    right onto one tail on the ray U + s e^{i _ROTATION}, taken on geometric
    panels until the cubic decay underflows.  g is called on real and on
    complex (ray) node arrays; declared poles are checked against the ray.

    The rule is fixed and its truncation error is below rounding.
    Measured: 7.5e-14 relative to the closed Airy/Scorer form at kappa 1,
    3, 10 and w in [-3, 3] (unchanged at half the panel width and turn, so
    it is the reference's own error); 2.5e-16 against the adaptive G7/K15
    rule at tol 1e-13 between consecutive lower limits; tau_A within
    2.7e-13 tau~ of the adaptive rule at kappa 2-10.  A call that needs more
    than MAX_PANELS panels raises NonConvergenceError before evaluating.
    """
    lows = np.asarray(lower, dtype=float)
    if not (math.isfinite(kappa) and math.isfinite(w) and kappa > 0.0):
        raise DomainError(f"kappa must be finite and positive and w finite, "
                          f"got kappa={kappa}, w={w}")
    if lows.size == 0 or not np.all(np.isfinite(lows)):
        raise DomainError("lower limits must be finite and non-empty")
    u_split = tail_split_point(kappa, w, float(lows.max()))
    direction = cmath.exp(1j * _ROTATION)
    for p in poles:
        p = complex(p)
        # Distance from p to the ray {u_split + s*direction, s >= 0}.
        rel = (p - u_split) / direction
        dist = abs(rel.imag) if rel.real >= 0.0 else abs(p - u_split)
        if dist < _POLE_CLEARANCE:
            raise DomainError(
                f"rotated tail ray passes within {dist:.3g} of pole {p} "
                f"(exclusion radius {_POLE_CLEARANCE:g})")

    # Panel count n(u) = c3 u^3 + c1 u: the edges sit at its integer steps,
    # so no panel is wider than _PANEL_WIDTH or turns more than _PANEL_TURN.
    c3 = kappa / (3.0 * _PANEL_TURN)
    c1 = 1.0 / _PANEL_WIDTH + kappa * abs(w) / _PANEL_TURN
    n_lo, n_hi = ((c3 * u * u + c1) * u for u in (float(lows.min()), u_split))
    if not n_hi - n_lo + lows.size <= MAX_PANELS:  # also when it overflows
        raise NonConvergenceError(
            f"cubic-phase rule needs {n_hi - n_lo + lows.size:.3g} panels "
            f"(cap {MAX_PANELS})")
    n_grid = math.ceil(n_hi - n_lo)
    # Invert the odd monotone cubic: u = r sinh(asinh(4 n / (c3 r^3)) / 3).
    r = 2.0 * math.sqrt(c1 / (3.0 * c3))
    grid = r * np.sinh(np.arcsinh(
        4.0 * np.linspace(n_lo, n_hi, n_grid + 1) / (c3 * r ** 3)) / 3.0)
    grid[0], grid[-1] = lows.min(), u_split
    edges, where = np.unique(np.concatenate([grid, lows.ravel()]),
                             return_inverse=True)

    def integrand(u):
        f = np.exp(-1j * kappa * u * (u * u / 3.0 + w))
        return f if g is None else g(u) * f

    # Tail: u = u_split + s*direction.  The exponent's real part falls like
    # -(kappa/3) s^3 sin(3|_ROTATION|); geometric panels from the boundary
    # layer of width 1/(kappa (U^2 + w) sin|_ROTATION|) to the underflow cut.
    decay1 = kappa * max(u_split ** 2 + w, 1.0) * math.sin(-_ROTATION)
    decay3 = (kappa / 3.0) * math.sin(-3.0 * _ROTATION)
    s_max = (760.0 / decay3) ** (1.0 / 3.0) + 2.0 * math.sqrt(max(0.0, -w))
    first = min(1.0 / decay1, s_max)
    steps = np.arange(math.ceil(math.log2(s_max / first)) + 1)
    s, s_wts = gl_panels(np.append(0.0, np.minimum(first * 2.0 ** steps, s_max)))
    tail = direction * np.sum(s_wts * integrand(u_split + direction * s),
                              axis=-1)

    # Panel sums (a trailing 0: nothing right of U), leading axes as g's.
    sums = np.zeros(tail.shape + (edges.size,), dtype=complex)
    for lo in range(0, edges.size - 1, _BLOCK):
        hi = min(lo + _BLOCK, edges.size - 1)
        t, wts = gl_panels(edges[lo:hi + 1])
        sums[..., lo:hi] = (wts * integrand(t)).reshape(
            tail.shape + (-1, _GL_X.size)).sum(axis=-1)
    from_edge = np.cumsum(sums[..., ::-1], axis=-1)[..., ::-1]

    out = (from_edge[..., where[grid.size:]] + tail[..., None]).reshape(
        tail.shape + lows.shape)
    return complex(out) if out.ndim == 0 else out
