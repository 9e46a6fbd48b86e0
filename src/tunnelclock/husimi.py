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

from .errors import DomainError
from .sfa import ComplexGrid1D


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


def _progression_split(s: np.ndarray):
    """Anchors and offsets of the index split j = b B + r of a flat array.

    When s is an arithmetic progression s_j = s_0 + j h, to within
    4 eps max|s| in every element, B = isqrt(n), the anchors are s_0 + b B h
    for b < ceil(n/B) and the offsets r h for r < B, so that
    s_{bB+r} = anchor_b + offset_r.  Any other s gives B = 1: the anchors
    are s itself and the one offset is 0.
    """
    n = s.size
    if n >= 4:
        h = (s[-1] - s[0]) / (n - 1)
        drift = np.abs(s - (s[0] + h * np.arange(n))).max()
        if drift <= 4.0 * np.finfo(float).eps * np.abs(s).max():
            block = math.isqrt(n)
            return (s[0] + h * (block * np.arange(-(-n // block))),
                    h * np.arange(block))
    return s, np.zeros(1)


def _check_coverage(xs: np.ndarray, x: float, width: float) -> None:
    lo, hi = xs[0], xs[-1]
    if x - 6.0 * width < lo or x + 6.0 * width > hi:
        raise DomainError(
            f"grid [{lo:.3f}, {hi:.3f}] does not span "
            f"[{x - 6 * width:.3f}, {x + 6 * width:.3f}]")


def husimi_point(psi: ComplexGrid1D, x: float, p: float, width: float) -> float:
    """|<g_{x,p}|psi>| by trapezoid quadrature on the psi grid."""
    if not (np.isfinite(x) and np.isfinite(p)):
        raise DomainError("x and p must be finite")
    if not 0.0 < width < np.inf:
        raise DomainError("width must be finite and positive")
    xs = psi.coordinates
    _check_coverage(xs, x, width)
    g = ((1.0 / (np.pi * width * width)) ** 0.25
         * np.exp(-((xs - x) ** 2) / (2.0 * width * width) + 1j * p * xs))
    return float(abs(np.trapezoid(np.conj(g) * psi.values, xs)))


def husimi_grid(psi: ComplexGrid1D, x_grid, p_grid, width: float) -> PhaseSpaceGrid:
    """|H| over a rectangular (x, p) grid as one matrix product.

    H = W @ F with the Gaussian windows W[i, j] = g(x'_j - x_i) and
    F[j, m] = w_j psi(x'_j) e^{-i p_m x'_j}, w the trapezoid weights of the
    psi grid: the same sum husimi_point takes cell by cell.  On a uniform
    psi grid the phases e^{-i p x'} are anchor times offset phases
    (_progression_split), one complex multiply per entry; the real W
    multiplies the real and imaginary parts of F in one real product.
    """
    x_grid = np.asarray(x_grid, dtype=float)
    p_grid = np.asarray(p_grid, dtype=float)
    if x_grid.size == 0 or p_grid.size == 0:
        raise DomainError("grids must be non-empty")
    if not (np.all(np.isfinite(x_grid)) and np.all(np.isfinite(p_grid))):
        raise DomainError("grids must be finite")
    if not 0.0 < width < np.inf:
        raise DomainError("width must be finite and positive")
    xs = psi.coordinates
    _check_coverage(xs, float(x_grid.min()), width)
    _check_coverage(xs, float(x_grid.max()), width)
    norm = (1.0 / (np.pi * width * width)) ** 0.25
    windows = norm * np.exp(-((xs[None, :] - x_grid[:, None]) ** 2)
                            / (2.0 * width * width))  # (n_x, n_x')
    # Subnormal window tails, ~1e-308 of the peak, are below rounding in
    # every sum but slow the product several-fold on common BLAS builds.
    windows[windows < np.finfo(float).tiny] = 0.0
    steps = np.diff(xs)
    trapezoid = np.zeros_like(xs)
    trapezoid[:-1] += 0.5 * steps
    trapezoid[1:] += 0.5 * steps
    anchors, offsets = _progression_split(xs)
    phases = (np.exp(-1j * np.outer(anchors, p_grid))[:, None, :]
              * np.exp(-1j * np.outer(offsets, p_grid))).reshape(-1, p_grid.size)
    waves = (trapezoid * psi.values)[:, None] * phases[:xs.size]  # (n_x', n_p)
    overlaps = (windows @ waves.view(float)).view(complex)
    return PhaseSpaceGrid(x_values=x_grid, p_values=p_grid,
                          magnitude=np.abs(overlaps), width=width)


def ridge_momenta(grid: PhaseSpaceGrid) -> np.ndarray:
    """argmax over p at each x."""
    return grid.p_values[np.argmax(grid.magnitude, axis=1)]
