"""Complex-argument Airy functions and the real Scorer function Gi.

Production evaluation delegates to the AMOS implementation behind
scipy.special.airy and airye, uniformly accurate in all Stokes sectors.
scipy.special is imported on the first Airy evaluation (`airy`, `ai_real`,
`ai_bi_scaled` or `scorer_gi` past its checks), not with this module, so a process
that never evaluates Airy never loads scipy.
The Maclaurin series (_airy_series) is kept as an in-house check of the
backend for small |z|.  The tests take 30-digit mpmath.airyai/airybi as the
reference for both: on the circle |z| = SERIES_RADIUS, |arg z| >= pi/3, the
series is within 7.9e-11 of mpmath relative to max(|Ai|, |Bi|).  Near the
positive real axis it loses e^{2 Re zeta} to cancellation.

Gi is needed for real argument only.  It is one fixed rule for the
Scorer integral pi Hi(w) = integral_0^inf exp(-t^3/3 + w t) dt, Re w <= 0
(DLMF §9.12; regimes as in Gil, Segura & Temme, ACM TOMS 28 (2002) 436):
Gi(x) = Re[e^{-i pi/3} Hi(x e^{2 pi i/3})] for x >= 0 and Gi = Bi - Hi(x)
for x < 0.  Measured against mpmath.scorergi on x = 0, +-logspace(-3, 3):
5.3e-16 relative for x >= 0; for x < 0, 1.2e-12 of the Bi envelope
max(|Gi|, |x|^-1/4 / sqrt(pi)), which is the error of the Bi term itself.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import oscquad
from .errors import DomainError

# Radius out to which the validation Maclaurin series is checked; on this
# circle, outside the dominant cancellation sector |arg z| < pi/3, it is
# within 7.9e-11 of mpmath relative to max(|Ai|, |Bi|).
SERIES_RADIUS = 8.0

# Validity envelopes.
AIRY_MAX_ABS = 1.0e4
GI_MAX_ABS = 1.0e3

_AI0 = 0.3550280538878172392600631860041831763980  # Ai(0) = 3^(-2/3)/Gamma(2/3)
_AIP0 = -0.2588194037928067984051835601892039634793  # Ai'(0) = -3^(-1/3)/Gamma(1/3)
_SQRT3 = math.sqrt(3.0)

_OMEGA = cmath.exp(2j * math.pi / 3.0)


def _scipy_airy(z, scaled=False):
    """scipy.special.airy(z), or airye(z) when scaled; scipy.special is
    imported on the first call."""
    import scipy.special

    return (scipy.special.airye if scaled else scipy.special.airy)(z)


@dataclass(frozen=True)
class AiryBundle:
    """Ai, Bi and derivatives at one complex argument."""

    ai: complex
    ai_prime: complex
    bi: complex
    bi_prime: complex

    def wronskian(self) -> complex:
        return self.ai * self.bi_prime - self.ai_prime * self.bi


def _series_fg(z: complex) -> tuple[complex, complex, complex, complex]:
    """Maclaurin sums f, g, f', g' of the standard Airy building blocks."""
    z3 = z * z * z
    # f = sum a_k, g = sum b_k, f' = sum c_k, g' = sum d_k
    a = 1.0 + 0j
    b = z
    c = 0.0 + 0j  # first nonzero f' term is k=1
    d = 1.0 + 0j
    f, g, fp, gp = a, b, c, d
    ck = z * z / 2.0  # c_1
    fp += ck
    for k in range(1, 220):
        a = a * z3 / ((3 * k - 1) * (3 * k))
        b = b * z3 / ((3 * k) * (3 * k + 1))
        d = d * z3 / ((3 * k - 2) * (3 * k))
        f += a
        g += b
        gp += d
        if k >= 1:
            ck_next = ck * z3 * (k + 1) / (k * (3 * k + 2) * (3 * k + 3))
            fp += ck_next
            ck = ck_next
        tol = 1e-18 * (abs(f) + abs(g) + abs(fp) + abs(gp) + 1.0)
        if abs(a) < tol and abs(b) < tol and abs(ck) < tol and abs(d) < tol:
            break
    return f, g, fp, gp


def _airy_series(z: complex) -> AiryBundle:
    f, g, fp, gp = _series_fg(z)
    c1, c2 = _AI0, -_AIP0
    ai = c1 * f - c2 * g
    aip = c1 * fp - c2 * gp
    bi = _SQRT3 * (c1 * f + c2 * g)
    bip = _SQRT3 * (c1 * fp + c2 * gp)
    return AiryBundle(ai=ai, ai_prime=aip, bi=bi, bi_prime=bip)


def airy(z: complex) -> AiryBundle:
    """Ai, Bi, Ai', Bi' at complex z, |z| <= 1e4; DomainError where they
    overflow (Bi past z = 103.2 on the positive axis, Ai on arg z = +-2pi/3)."""
    z = complex(z)
    if not abs(z) <= AIRY_MAX_ABS:
        raise DomainError(f"z = {z} must be finite and inside |z| <= {AIRY_MAX_ABS:g}")
    ai, aip, bi, bip = _scipy_airy(z)
    bundle = AiryBundle(ai=complex(ai), ai_prime=complex(aip),
                        bi=complex(bi), bi_prime=complex(bip))
    vals = (bundle.ai, bundle.ai_prime, bundle.bi, bundle.bi_prime)
    if not all(cmath.isfinite(v) for v in vals):
        raise DomainError(f"Airy overflow at z = {z}")
    return bundle


# pi Hi(w) = integral_0^inf exp(-t^3/3 + w t) dt for Re w <= 0, taken on
# t = s / max(1, |w|) by 16-point Gauss-Legendre on the 80 unit panels of s,
# past which the integrand has decayed by e^-40.
_HI_S, _HI_W = oscquad.gl_panels(np.arange(81.0))


def scorer_gi(x: np.ndarray | float) -> np.ndarray | float:
    """Scorer function Gi(x), the particular solution of y'' - x y = -1/pi.

    Scalar x gives a float, an array one value per element; each point
    costs 1,280 complex exponentials.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.abs(arr) <= GI_MAX_ABS):
        raise DomainError(f"x must be finite and inside |x| <= {GI_MAX_ABS:g}")
    # Gi(x) = Re[e^{-i pi/3} Hi(x e^{2 pi i/3})] for x >= 0; Gi = Bi - Hi for
    # x < 0, where both terms are O(1) (no cancellation blow-up).
    col = arr[..., None]  # one row of nodes per point
    w = np.where(col >= 0.0, col * _OMEGA, col)
    m = np.maximum(1.0, np.abs(col))
    hi = (np.exp(w / m * _HI_S - _HI_S ** 3 / (3.0 * m ** 3)) * _HI_W).sum(
        axis=-1, keepdims=True) / (math.pi * m)
    gi = np.where(col >= 0.0, (hi * cmath.exp(-1j * math.pi / 3.0)).real,
                  _scipy_airy(col)[2] - hi.real)[..., 0]
    return float(gi) if np.isscalar(x) else gi


def ai_real(x: np.ndarray | float) -> np.ndarray | float:
    """Vectorized Ai over real arguments (convenience wrapper)."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.abs(arr) <= AIRY_MAX_ABS):
        raise DomainError(f"x must be finite and inside |x| <= {AIRY_MAX_ABS:g}")
    ai = _scipy_airy(arr)[0]
    return float(ai) if np.isscalar(x) else ai


def ai_bi_scaled(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ai(x) e^zeta, Bi(x) e^-zeta and zeta = (2/3) max(x, 0)^{3/2} over real
    x, |x| <= 1e4, as 1D arrays: finite where Ai underflows and Bi overflows."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.abs(arr) <= AIRY_MAX_ABS):
        raise DomainError(f"x must be finite and inside |x| <= {AIRY_MAX_ABS:g}")
    zeta = (2.0 / 3.0) * np.maximum(arr, 0.0) ** 1.5
    far = arr > 50.0  # airye there: Bi(50) ~ e^236, and Bi overflows past 104
    ai, _, bi, _ = _scipy_airy(np.where(far, 0.0, arr))
    scale = np.exp(np.where(far, 0.0, zeta))
    ai, bi = ai * scale, bi / scale
    if far.any():
        ai[far], _, bi[far], _ = _scipy_airy(arr[far], scaled=True)
    return ai, bi, zeta
