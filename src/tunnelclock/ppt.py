"""Circular-field attoclock photoelectron spectrum via complex saddle points.

Short-range (PPT-style) ionization amplitudes for a circularly polarized
vector potential with a cos^4 envelope: complex saddle points of the
Volkov action, imaginary action along the vertical contour, and the polar
photoelectron spectrum whose offset angle realizes the attoclock reading.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergenceError, NumericalWarning

_NAN = complex(math.nan, math.nan)


@dataclass(frozen=True)
class PulseParams:
    """Circular pulse: A(t) = -A0(t) [cos(wt) e_x + sin(wt) e_y]."""

    a0: float
    omega: float
    ip: float
    gamma: float
    envelope: str  # "constant" | "cos4"

    def __post_init__(self):
        if min(self.a0, self.omega, self.ip) <= 0.0:
            raise DomainError("pulse parameters must be positive")
        if self.envelope not in ("constant", "cos4"):
            raise DomainError(f"unknown envelope {self.envelope!r}")
        expected = math.sqrt(2.0 * self.ip) / self.a0
        if abs(self.gamma - expected) > 1e-12 * expected:
            raise DomainError("gamma inconsistent with sqrt(2 ip)/a0")


def pulse_from_gamma(ip: float, omega: float, gamma: float,
                     envelope: str = "cos4") -> PulseParams:
    """Build pulse parameters with the amplitude fixed by the adiabaticity gamma."""
    if not (ip > 0.0 and gamma > 0.0):
        raise DomainError("pulse parameters must be positive")
    a0 = math.sqrt(2.0 * ip) / gamma
    return PulseParams(a0=a0, omega=omega, ip=ip, gamma=gamma, envelope=envelope)


@dataclass(frozen=True)
class SaddlePoint:
    """Complex ionization time t_s = t_i + i tau."""

    t_s: complex
    residual: float
    branch: int


def _saddle_terms(pulse: PulseParams, p, rot, z, blend: float = 1.0):
    """f and df/dt at z = exp(i w t / 4), rot = exp(-i theta): with
    cos, sin(w t/4) = (z + 1/z)/2, (z - 1/z)/2i and exp(i(w t - theta)) =
    z^4 rot, one complex exp per point replaces four complex cos/sin."""
    zi = 1.0 / z
    e = z * z
    e = e * e * rot
    ei = 1.0 / e
    amp, amp_p = pulse.a0, 0.0
    if pulse.envelope == "cos4":
        c = 0.5 * (z + zi)
        c3 = pulse.a0 * blend * c ** 3
        amp = pulse.a0 * (1.0 - blend) + c3 * c
        amp_p = 0.5j * pulse.omega * c3 * (z - zi)
    # f = p^2 + 2 ip + A0 (A0 - 2p cos), f' = 2 A0' (A0 - p cos) + 2p w A0 sin
    p_cos = 0.5 * p * (e + ei)
    g = amp - p_cos
    f = p * p + 2.0 * pulse.ip + amp * (g - p_cos)
    fp = 2.0 * amp_p * g - 1j * pulse.omega * p * amp * (e - ei)
    return f, fp


def saddle_function(pulse: PulseParams, p, theta, t):
    """f(t) = p^2 + A0(t)^2 - 2 p A0(t) cos(w t - theta) + 2 ip, with
    A0(t) = a0 cos^4(w t / 4) for the cos4 envelope."""
    rot = np.exp(-1j * np.asarray(theta, dtype=float))
    z = np.exp(0.25j * pulse.omega * np.asarray(t, dtype=complex))
    return _saddle_terms(pulse, p, rot, z)[0]


def saddle_analytic(pulse: PulseParams, p: float, theta: float,
                    branch: int = 0) -> SaddlePoint:
    """Closed-form constant-envelope saddle.

    w t_i = theta + 2 pi N,  w tau = arcosh((A0/2p)[(p/A0)^2 + gamma^2 + 1]).
    """
    if pulse.envelope != "constant":
        raise DomainError("analytic saddle requires the constant envelope")
    if p <= 0.0:
        raise DomainError("require p > 0")
    arg = (pulse.a0 / (2.0 * p)) * ((p / pulse.a0) ** 2 + pulse.gamma ** 2 + 1.0)
    if arg < 1.0:
        raise DomainError(f"arcosh argument {arg} < 1")
    t_i = (theta + 2.0 * math.pi * branch) / pulse.omega
    tau = math.acosh(arg) / pulse.omega
    t_s = complex(t_i, tau)
    res = abs(complex(saddle_function(pulse, p, theta, t_s)))
    return SaddlePoint(t_s=t_s, residual=res, branch=branch)


def _newton_roots(pulse: PulseParams, p, theta, seeds):
    """Complex Newton from `seeds`, node by node, the cos4 envelope switched
    on in homotopy steps.  NaN seeds are dropped.  At each blend step a node
    stops at its first step with |step| < 1e-14 (1 + |t|), or after 60
    steps, and leaves the live set: its root does not depend on the grid
    around it (up to vector-loop rounding, <= 2e-15).  Roots with
    |f| >= 1e-10 (p^2 + 2 ip) at the end are NaN.  Returns the roots, the
    passes over the live set and the Newton steps summed over nodes."""
    start = np.isfinite(seeds)
    t = seeds[start]
    p = np.broadcast_to(p, seeds.shape)[start]
    theta = np.broadcast_to(theta, seeds.shape)[start]
    rot = np.exp(-1j * theta)
    sweeps = steps = 0
    # divergent iterates overflow harmlessly; the residual filter drops them
    with np.errstate(all="ignore"):
        for blend in ((1.0,) if pulse.envelope == "constant"
                      else (0.25, 0.5, 0.75, 1.0)):
            live, tl, pl, rl = np.arange(t.size), t.copy(), p, rot
            for _ in range(60):
                if live.size == 0:
                    break
                z = np.exp(0.25j * pulse.omega * tl)
                f, fp = _saddle_terms(pulse, pl, rl, z, blend)
                step = f / fp
                step = np.where(np.isfinite(step), step, 0.1)
                tl = tl - step
                sweeps += 1
                steps += live.size
                going = ~(np.abs(step) < 1e-14 * (1.0 + np.abs(tl)))
                if not going.all():
                    t[live] = tl
                    live, tl = live[going], tl[going]
                    pl, rl = pl[going], rl[going]
            t[live] = tl
        res = np.abs(saddle_function(pulse, p, theta, t))
    roots = np.full(seeds.shape, _NAN)
    roots[start] = np.where(res < 1e-10 * (p * p + 2.0 * pulse.ip), t, _NAN)
    return roots, sweeps, steps


def _select(roots, omega: float):
    """The paper's rule over axis 0: the smallest Im t > 0 inside the pulse
    |Re t| <= 2 pi / w (outside it the pulse is zero, and whether Newton
    jumps to a root of the continued envelope there is set by rounding),
    near-ties (key Im t + 1e-9 w |Re t|) to the smallest |Re t|; NaN if none."""
    inside = np.abs(roots.real) <= 2.0 * math.pi / omega
    roots = np.where((roots.imag > 0.0) & inside, roots, _NAN)
    key = np.where(np.isnan(roots), np.inf,
                   roots.imag + 1e-9 * omega * np.abs(roots.real))
    return np.take_along_axis(roots, np.argmin(key, axis=0)[None], axis=0)[0]


def saddle_numeric(pulse: PulseParams, p: float, theta: float) -> SaddlePoint:
    """The saddle `spectrum` selects at (p, theta): its 1x1 grid."""
    grid = spectrum(pulse, [p], [theta])
    return SaddlePoint(t_s=complex(grid.saddle_times[0, 0]),
                       residual=float(grid.saddle_residuals[0, 0]), branch=0)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(40)


def action_im(pulse: PulseParams, p, theta, t_s):
    """Im S along the vertical contour from t_i + i tau down to t_i.

    Im S = Re{ (1/2) int_tau^0 [f(t_i + i tau') - 2 ip] dtau' } - ip tau
    with f the saddle function (the integrand is its bracketed part).
    Broadcasts over arrays (NaN where t_s is NaN); a float for scalar input.
    """
    t_s = np.asarray(t_s, dtype=complex)
    if np.any(t_s.imag <= 0.0):
        raise DomainError("action contour requires Im t_s > 0")
    tau = t_s.imag
    rot = np.exp(-1j * np.asarray(theta, dtype=float))
    z_i = np.exp(0.25j * pulse.omega * t_s.real)
    # 40-node Gauss-Legendre on tau' in [0, tau], oriented tau -> 0 and summed
    # node by node (grid-sized temporaries); there z = z_i exp(-w tau' / 4).
    total = 0.0
    for x, w in zip(_GL_NODES, _GL_WEIGHTS):
        z = z_i * np.exp(-0.125 * pulse.omega * tau * (x + 1.0))
        total = total + w * (_saddle_terms(pulse, p, rot, z)[0]
                             - 2.0 * pulse.ip)
    im_s = -0.25 * tau * total.real - pulse.ip * tau
    return float(im_s) if im_s.ndim == 0 else im_s


@dataclass(frozen=True)
class SpectrumGrid:
    """Polar photoelectron spectrum with per-node saddle bookkeeping."""

    p_values: np.ndarray
    theta_values: np.ndarray
    weights: np.ndarray        # (n_p, n_theta), max-normalized to 1
    saddle_times: np.ndarray   # complex (n_p, n_theta); NaN where no saddle
    saddle_residuals: np.ndarray
    flags: np.ndarray          # True where no physical saddle was found
    newton_sweeps: int = 0       # passes over the live nodes
    node_iterations: int = 0     # Newton steps summed over nodes


def spectrum(pulse: PulseParams, p_grid, theta_grid) -> SpectrumGrid:
    """Single-saddle spectrum weights = exp(2 Im S), normalized to max 1.

    At each node Newton starts from the constant-envelope saddles
    w t = theta + 2 pi N + i arcosh(...) with N in {-1, 0, 1} and
    |Re t| <= 2 pi / w, switches the cos4 envelope on in homotopy steps
    (`_newton_roots`), and keeps the root `_select` picks.
    """
    p_grid = np.asarray(p_grid, dtype=float)
    theta_grid = np.asarray(theta_grid, dtype=float)
    if (p_grid.size == 0 or theta_grid.size == 0
            or not np.all((p_grid > 0.0) & (p_grid < np.inf))
            or not np.all(np.isfinite(theta_grid))):
        raise DomainError("grids must be non-empty and finite, with p > 0")
    pp, tt = np.meshgrid(p_grid, theta_grid, indexing="ij")

    cycle = 2.0 * math.pi / pulse.omega
    arg = (pulse.a0 / (2.0 * pp)) * ((pp / pulse.a0) ** 2
                                     + pulse.gamma ** 2 + 1.0)
    tau0 = np.arccosh(arg) / pulse.omega  # arg >= sqrt(gamma^2 + 1) (AM-GM)
    branch = np.array([-1.0, 0.0, 1.0])[:, None, None]
    t_i0 = (tt + 2.0 * math.pi * branch) / pulse.omega
    seeds = np.where(np.abs(t_i0) <= cycle, t_i0 + 1j * tau0, _NAN)
    roots, sweeps, steps = _newton_roots(pulse, pp, tt, seeds)
    sel = _select(roots, pulse.omega)
    flags = np.isnan(sel)
    if flags.all():
        raise NonConvergenceError("no physical saddle converged at any node")
    with np.errstate(invalid="ignore"):  # NaN at the flagged nodes
        im_s = action_im(pulse, pp, tt, sel)
        resid = np.where(flags, np.inf,
                         np.abs(saddle_function(pulse, pp, tt, sel)))
    weights = np.where(flags, 0.0, np.exp(2.0 * im_s))
    top = weights.max()
    if top > 0.0:
        weights = weights / top
    return SpectrumGrid(p_values=p_grid, theta_values=theta_grid,
                        weights=weights, saddle_times=sel,
                        saddle_residuals=resid, flags=flags,
                        newton_sweeps=sweeps, node_iterations=steps)


def offset_angle(grid: SpectrumGrid) -> float:
    """theta of the spectrum maximum, refined by a local quadratic fit."""
    th = grid.theta_values
    if th.min() > -math.pi + 1e-9 or th.max() < math.pi - 1e-9:
        raise DomainError("offset extraction needs theta coverage of [-pi, pi]")
    w = grid.weights
    med = np.median(w)
    if med > 0.0 and w.max() / med < 10.0:
        raise DomainError("spectrum too flat for a meaningful offset angle")
    i, j = np.unravel_index(np.argmax(w), w.shape)
    row = w[i]
    if j == 0 or j == th.size - 1:
        return float(th[j])
    # quadratic vertex through the three samples around the maximum
    y0, y1, y2 = row[j - 1], row[j], row[j + 1]
    denom = y0 - 2.0 * y1 + y2
    if denom == 0.0:
        return float(th[j])
    shift = 0.5 * (y0 - y2) / denom
    step = th[j + 1] - th[j]
    if abs(shift) > 1.0:
        warnings.warn("quadratic refinement outside the local cell",
                      NumericalWarning, stacklevel=2)
    return float(th[j] + shift * step)
