"""Phase-space (Husimi) maps of the outgoing position-space solution.

|H(x, p)| = |<g_{x,p}|psi>| with g a normalized Gaussian coherent state of
spatial width `width`.  The ridge (argmax over p at fixed x) is compared
against the classical trajectory p(x) = sqrt(2 F (x - x0)) far from the
tunnel exit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import oscquad
from .errors import DomainError
from .sfa import ComplexGrid1D

# Most psi nodes psi_nodes builds, whatever the map's grid: on this many
# nodes the default 121 x 100 map's n_x x N window and N x n_p complex wave
# matrices take 64 MiB.
_MAX_NODES = 26_132


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Rectangular |H(x, p)| map with the coherent-state width recorded."""

    x_values: np.ndarray
    p_values: np.ndarray
    magnitude: np.ndarray  # (n_x, n_p), >= 0
    width: float

    def __post_init__(self):
        if self.magnitude.shape != (len(self.x_values), len(self.p_values)):
            raise DomainError("magnitude shape does not match the axes")
        if self.width <= 0.0:
            raise DomainError("width must be positive")
        if np.any(self.magnitude < 0.0):
            raise DomainError("magnitudes must be non-negative")


def psi_nodes(params, x_max: float, width: float, p_max: float,
              refine: int = 1):
    """Nodes x (a.u.), weights and diagnostics of the Husimi overlap's rule:
    16-point Gauss-Legendre panels over [-6.5 width, x_max x0 + 6.5 width],
    an edge at the source's kink x = 0, h = min(2 x0/kappa, 2 width,
    12/(p_max + k_psi))/refine wide, k_psi = kappa sqrt(xi_hi - 1)/x0 psi's
    largest wavenumber.  Within 2.5e-15 of max|H| of refine = 4 at
    kappa = 1.5-40 (176-1,088 nodes); a trapezoid grid across the kink
    converges like h^4.  More than _MAX_NODES nodes is a DomainError.
    """
    x0 = params.x0
    lo, hi = -6.5 * width, x_max * x0 + 6.5 * width
    k_psi = params.kappa * math.sqrt(max(hi / x0 - 1.0, 0.0)) / x0
    h, scale = min((2.0 * x0 / params.kappa, "source"), (2.0 * width, "width"),
                   (12.0 / (p_max + k_psi), "wavenumber"))
    h /= refine
    if not hi - lo <= (_MAX_NODES / 16 - 2) * h:  # also refuses h = 0
        raise DomainError(
            f"width {width:g} and p_max {p_max:g} need psi panels {h:.3g} "
            f"a.u. wide over {hi - lo:.3g} a.u., more than {_MAX_NODES} nodes")
    edges = np.concatenate([np.linspace(lo, 0.0, math.ceil(-lo / h) + 1),
                            np.linspace(0.0, hi, math.ceil(hi / h) + 1)[1:]])
    nodes, weights = oscquad.gl_panels(edges)
    return nodes, weights, {"psi_nodes": int(nodes.size), "panel_width": h,
                            "panel_width_set_by": scale}


def husimi_point(psi: ComplexGrid1D, x: float, p: float, width: float) -> float:
    """|<g_{x,p}|psi>| at one phase-space point: husimi_grid on a 1 x 1 grid."""
    return float(husimi_grid(psi, [x], [p], width).magnitude[0, 0])


def husimi_grid(psi: ComplexGrid1D, x_grid, p_grid, width: float) -> PhaseSpaceGrid:
    """|H| over a rectangular (x, p) grid as one matrix product.

    H = W @ F with the Gaussian windows W[i, j] = g(x'_j - x_i) and
    F[j, m] = w_j psi(x'_j) e^{-i p_m x'_j}, w the quadrature weights psi
    carries; psi_nodes builds the CLI's.  The real W multiplies the real and
    imaginary parts of F in one real product.
    """
    x_grid = np.asarray(x_grid, dtype=float)
    p_grid = np.asarray(p_grid, dtype=float)
    if not (x_grid.size and p_grid.size and np.isfinite(x_grid).all()
            and np.isfinite(p_grid).all()):
        raise DomainError("grids must be non-empty and finite")
    if not 0.0 < width < np.inf:
        raise DomainError("width must be finite and positive")
    xs = psi.coordinates
    lo, hi = x_grid.min() - 6.0 * width, x_grid.max() + 6.0 * width
    if lo < xs[0] or hi > xs[-1]:
        raise DomainError(f"grid [{xs[0]:.3f}, {xs[-1]:.3f}] does not span "
                          f"[{lo:.3f}, {hi:.3f}]")
    norm = (1.0 / (np.pi * width * width)) ** 0.25
    windows = norm * np.exp(-((xs[None, :] - x_grid[:, None]) ** 2)
                            / (2.0 * width * width))  # (n_x, n_x')
    # Subnormal window tails, ~1e-308 of the peak, are below rounding in
    # every sum but slow the product several-fold on common BLAS builds.
    windows[windows < np.finfo(float).tiny] = 0.0
    waves = (psi.weights * psi.values)[:, None] \
        * np.exp(-1j * np.outer(xs, p_grid))  # (n_x', n_p)
    overlaps = (windows @ waves.view(float)).view(complex)
    return PhaseSpaceGrid(x_values=x_grid, p_values=p_grid,
                          magnitude=np.abs(overlaps), width=width)


def ridge_momenta(grid: PhaseSpaceGrid) -> np.ndarray:
    """argmax over p at each x."""
    return grid.p_values[np.argmax(grid.magnitude, axis=1)]
