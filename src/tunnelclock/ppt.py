"""Circular-field attoclock photoelectron spectrum via complex saddle points.

PPT-style ionization amplitudes for a circular vector potential whose
envelope (constant or cos^4) is one Laurent polynomial in exp(i w t / 2):
complex Newton saddles, the imaginary action in closed form, and the polar
spectrum exp(2 Im S) whose offset angle is the attoclock reading.
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
        if not all(0.0 < v < math.inf
                   for v in (self.a0, self.omega, self.ip, self.gamma)):
            raise DomainError("pulse parameters must be positive and finite")
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


def _envelope(pulse: PulseParams, blend: float = 1.0) -> np.ndarray:
    """(a_-2, ..., a_2) of A0(t) = sum_j a_j y^j, y = exp(i w t / 2), at
    homotopy blend b: a0 (1 - b + b cos^4(w t / 4)), with cos^4(w t / 4) =
    (y^-2 + 4/y + 6 + 4 y + y^2) / 16.  The constant envelope is b = 0."""
    b = blend if pulse.envelope == "cos4" else 0.0
    return pulse.a0 * np.array([b, 4.0 * b, 16.0 - 10.0 * b, 4.0 * b, b]) / 16.0


def _saddle_terms(a, pulse: PulseParams, p, rot, y):
    """f and df/dt at y = exp(i w t / 2), rot = exp(-i theta): with
    s = y + 1/y, A0 = a_0 + a_1 s + a_2 (s^2 - 2), dA0/dt = (i w / 2)
    (y - 1/y)(a_1 + 2 a_2 s) and exp(i(w t - theta)) = y^2 rot."""
    yi = 1.0 / y
    s = y + yi
    amp = a[2] - 2.0 * a[4] + s * (a[3] + a[4] * s)
    amp_p = 0.5j * pulse.omega * (y - yi) * (a[3] + 2.0 * a[4] * s)
    e = y * y * rot
    ei = 1.0 / e
    # f = p^2 + 2 ip + A0 (A0 - 2p cos), f' = 2 A0' (A0 - p cos) + 2p w A0 sin
    p_cos = 0.5 * p * (e + ei)
    g = amp - p_cos
    f = p * p + 2.0 * pulse.ip + amp * (g - p_cos)
    fp = 2.0 * amp_p * g - 1j * pulse.omega * p * amp * (e - ei)
    return f, fp


def _finite(p, theta):
    p, theta = np.asarray(p, dtype=float), np.asarray(theta, dtype=float)
    if not (np.isfinite(p).all() and np.isfinite(theta).all()):
        raise DomainError("p and theta must be finite")
    return p, theta


def saddle_function(pulse: PulseParams, p, theta, t):
    """f(t) = p^2 + A0(t)^2 - 2 p A0(t) cos(w t - theta) + 2 ip."""
    p, theta = _finite(p, theta)
    y = np.exp(0.5j * pulse.omega * np.asarray(t, dtype=complex))
    return _saddle_terms(_envelope(pulse), pulse, p, np.exp(-1j * theta), y)[0]


def _constant_saddle(pulse: PulseParams, p, theta, n):
    """Constant-envelope saddle of cycle n: w t_i = theta + 2 pi n,
    w tau = arcosh((p^2 + A0^2 + 2 ip) / (2 p A0)), whose argument is > 1
    since p^2 + A0^2 >= 2 p A0."""
    arg = (p * p + pulse.a0 ** 2 + 2.0 * pulse.ip) / (2.0 * p * pulse.a0)
    return ((theta + 2.0 * math.pi * n) / pulse.omega
            + 1j * np.arccosh(arg) / pulse.omega)


def _newton_roots(pulse: PulseParams, p, theta, seeds):
    """Complex Newton from the finite `seeds`, the cos4 envelope switched on
    in homotopy steps.  At each step a node stops at its first |step| <
    1e-14 (1 + |t|), or after 60, so its root does not depend on the grid
    (<= 2e-15).  Returns the end points (NaN at NaN seeds; `spectrum` drops
    those that are no root), their residuals |f| (inf at NaN seeds), the
    passes over the live set and the steps summed over nodes."""
    start = np.isfinite(seeds)
    t = seeds[start]
    p = np.broadcast_to(p, seeds.shape)[start]
    theta = np.broadcast_to(theta, seeds.shape)[start]
    rot = np.exp(-1j * theta)
    sweeps = steps = 0
    blends = (0.25, 0.5, 0.75, 1.0) if _envelope(pulse)[0] else (1.0,)
    # divergent iterates overflow harmlessly; the residual filter drops them
    with np.errstate(all="ignore"):
        for blend in blends:
            a = _envelope(pulse, blend)
            live, tl, pl, rl = np.arange(t.size), t.copy(), p, rot
            for _ in range(60):
                if live.size == 0:
                    break
                y = np.exp(0.5j * pulse.omega * tl)
                f, fp = _saddle_terms(a, pulse, pl, rl, y)
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
        resid = np.full(seeds.shape, np.inf)
        resid[start] = np.abs(saddle_function(pulse, p, theta, t))
    ends = np.full(seeds.shape, _NAN)
    ends[start] = t
    return ends, resid, sweeps, steps


def _select(roots, resid, theta, omega: float):
    """The paper's rule over axis 0: the smallest Im t > 0 inside the pulse
    |Re t| <= 2 pi / w (outside it the pulse is zero), near-ties (key
    Im t + 1e-9 w |Re t|) to the smallest |Re t|; NaN if none.  Keys within
    1e-12 (1 + Im t) tie, and go to sign(Re t) = sign(theta): at theta = +-pi
    the roots are exact mirror pairs +-x + iy, which rounding must not pick.
    Returns the root and its residual (inf if none)."""
    inside = np.abs(roots.real) <= 2.0 * math.pi / omega
    roots = np.where((roots.imag > 0.0) & inside, roots, _NAN)
    key = np.where(np.isnan(roots), np.inf,
                   roots.imag + 1e-9 * omega * np.abs(roots.real))
    tied = key <= key.min(axis=0) + 1e-12 * (1.0 + roots.imag)
    score = 2 * tied + (tied & (np.sign(roots.real) == np.sign(theta)))
    pick = np.argmax(score, axis=0)[None]
    sel = np.take_along_axis(roots, pick, axis=0)[0]
    return sel, np.where(np.isnan(sel), np.inf,
                         np.take_along_axis(resid, pick, axis=0)[0])


def action_im(pulse: PulseParams, p, theta, t_s):
    """Im S = (1/2) Im int_{t_s}^{t_i} f dt, t_s = t_i + i tau, in closed form:
    f = sum_k c_k y^k (k = -4..4, c_-k = conj c_k, c = a*a + (p^2 + 2 ip)
    delta_k0 - p (e^{-i theta} a_{k-2} + e^{i theta} a_{k+2})), so
    Im S = -c_0 tau / 2 - sum_{k=1..4} (2 / k w) sinh(k w tau / 2)
    Re(c_k e^{i k w t_i / 2}) (PPT, Sov. Phys. JETP 23 (1966) 924).  Within
    3.6e-15 of a 30-digit line integral at 48 cos4 saddles.  Broadcasts (NaN
    where t_s is NaN); a float for scalar input."""
    t_s = np.asarray(t_s, dtype=complex)
    if np.any(t_s.imag <= 0.0):
        raise DomainError("action contour requires Im t_s > 0")
    p, theta = _finite(p, theta)
    a = _envelope(pulse)
    aa = np.convolve(a, a)[4:]  # (a*a)_k, k = 0..4
    tau, phi = t_s.imag, 0.5 * pulse.omega * t_s.real
    im_s = -0.5 * tau * (aa[0] + p * p + 2.0 * pulse.ip
                         - 2.0 * p * a[4] * np.cos(theta))
    for k in range(1, 5):  # c_k has a_{k+2} = 0 for k >= 1
        re_c = aa[k] * np.cos(k * phi) - p * a[k] * np.cos(k * phi - theta)
        im_s = im_s - (2.0 / (k * pulse.omega)
                       * np.sinh(0.5 * k * pulse.omega * tau) * re_c)
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
    solved_nodes: int = 0        # (p, |theta|) nodes Newton ran on


def spectrum(pulse: PulseParams, p_grid, theta_grid) -> SpectrumGrid:
    """Single-saddle spectrum weights = exp(2 Im S), normalized to max 1.

    At each node Newton starts from the constant-envelope saddles of the
    cycles n in {-1, 0, 1} with |Re t| <= 2 pi / w, switches the cos4
    envelope on in homotopy steps (`_newton_roots`), keeps the end points
    with |f| < 1e-10 (p^2 + 2 ip) as roots, and of those the one `_select`
    picks.  A0(t) is real and even, so f(-conj t; p, -theta) = conj f(t; p,
    theta): the saddle at -theta is -conj of the one at theta, with the same
    Im S.  Newton therefore runs only at the distinct |theta| of the grid,
    and each theta < 0 node takes the mirror of its |theta| partner; a grid
    whose theta < 0 values negate exactly to its theta > 0 ones (the CLI's)
    costs half the solves, any other grid the same as solving every node.
    """
    p_grid, theta_grid = _finite(p_grid, theta_grid)
    if p_grid.size == 0 or theta_grid.size == 0 or not np.all(p_grid > 0.0):
        raise DomainError("grids must be non-empty, with p > 0")
    abs_theta, back = np.unique(np.abs(theta_grid), return_inverse=True)
    pp, tt = np.meshgrid(p_grid, abs_theta, indexing="ij")
    cycles = np.array([-1.0, 0.0, 1.0])[:, None, None]
    seeds = _constant_saddle(pulse, pp, tt, cycles)
    seeds[np.abs(seeds.real) > 2.0 * math.pi / pulse.omega] = _NAN
    ends, resid, sweeps, steps = _newton_roots(pulse, pp, tt, seeds)
    roots = np.where(resid < 1e-10 * (pp * pp + 2.0 * pulse.ip), ends, _NAN)
    sel, resid = _select(roots, resid, tt, pulse.omega)
    flags = np.isnan(sel)
    if flags.all():
        raise NonConvergenceError("no physical saddle converged at any node")
    with np.errstate(invalid="ignore"):  # NaN at the flagged nodes
        im_s = action_im(pulse, pp, tt, sel)
    weights = np.where(flags, 0.0, np.exp(2.0 * im_s))
    top = weights.max()
    if top > 0.0:
        weights = weights / top
    sel = sel[:, back]
    return SpectrumGrid(p_values=p_grid, theta_values=theta_grid,
                        weights=weights[:, back],
                        saddle_times=np.where(theta_grid < 0, -sel.conj(), sel),
                        saddle_residuals=resid[:, back], flags=flags[:, back],
                        newton_sweeps=sweeps, node_iterations=steps,
                        solved_nodes=flags.size)


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
    if row.max() - row.min() < 1e-9 * row.max():
        raise DomainError("spectrum flat in theta: no offset angle")
    if j == 0 or j == th.size - 1:
        return float(th[j])
    # quadratic vertex through the three samples around the maximum
    y0, y1, y2 = row[j - 1], row[j], row[j + 1]
    denom = y0 - 2.0 * y1 + y2
    if denom == 0.0:
        return float(th[j])
    shift = 0.5 * (y0 - y2) / denom
    if abs(shift) > 1.0:
        warnings.warn("quadratic refinement outside the local cell",
                      NumericalWarning, stacklevel=2)
    return float(th[j] + shift * (th[j + 1] - th[j]))
