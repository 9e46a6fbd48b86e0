"""Airy functions of real and complex argument and the real Scorer function Gi.

Real argument (`ai_bi_scaled`, `ai_real`, and Bi in `scorer_gi`) takes one
vectorized numpy kernel, for |x| <= 1e4 (DLMF 9.7; regions as in Gil, Segura
& Temme, ACM TOMS 28 (2002) 325):
- |x| < 9.5: a 24-term Taylor series of y'' = x y about the nearest integer
  anchor a in [-9, 9], |x - a| <= 1/2, from Ai, Ai', Bi, Bi' at a (30-digit
  values rounded to double);
- x >= 9.5: the DLMF 9.7.5 and 9.7.7 series in 1/zeta, zeta = (2/3) x^{3/2};
- x <= -9.5: the DLMF 9.7.9 and 9.7.11 forms in cos and sin of zeta - pi/4.
Measured against 30-digit mpmath on x = 0, +-logspace(-3, log10 30), linspace
(-12, 12) and |x| out to 1e4: Ai e^zeta and Bi e^-zeta within 3.6e-15
relative for x >= 0 (4.4e-16 past 9.5, where no e^zeta is rounded); for x < 0
within 2.1e-16 of the envelope max(|Ai|, |Bi|, |x|^-1/4 / sqrt(pi)) out to
-9.5, then within eps zeta of it, the rounding of the phase zeta: 1.9e-14 out
to x = -30, 3.4e-11 at -1e4.  Ai' and Bi', for complex `airy`, come from
the same regions (the Taylor rows differentiated; DLMF 9.7.6, 9.7.8, 9.7.10
and 9.7.12) and measure the same on that grid, with |x|^{1/4} / sqrt(pi) in
the envelope: 3.6e-15, 4.4e-16 past 9.5, and 2.5e-16 for -9.5 < x < 0.

Complex `airy` on the near-real strip |Im z| <= 1, -10 <= Re z <= 16 sums the
Taylor series in i Im z about x = Re z, from Ai, Ai', Bi and Bi' at x from the
kernel and y^(n+2) = x y^(n) + n y^(n-1), on values scaled by e^{+-zeta(x)}
past |x| = 9.5; it stops at the first term below rounding (5-12 terms for
the resonance at kappa 2-8, 2 from kappa 30, 23 at 1.3 + 0.7i, at most 35 at
the corners).  The strip holds every complex argument the scenarios pass:
the resonance's s = -E/beta ~ kappa^{2/3} (15.3 at kappa = 60 at helium Ip)
and s + x0/ell ~ 0, with Im s from 0.19 at kappa 1 to 3e-34 at kappa 60, and
`validate`'s 1.3 + 0.7i.  Against 30-digit mpmath on the tests' grid, Ai
and Bi are within 9.3e-16 of max(|Ai|, |Bi|) (Ai' and Bi' of max(|Ai'|,
|Bi'|)) for |Re z| < 9.5, and past it within 0.73 eps zeta(|Re z|), the
rounding of e^{-+zeta}: 5.1e-15 at Re z = 14.75.  Off the strip `airy` calls
the AMOS implementation behind scipy.special.airy, uniformly accurate in all
Stokes sectors (2.2e-13 of max(|Ai|, |Bi|) at -10 + i); scipy.special is
imported on that first call, not with this module, so no scenario loads
scipy.  The Maclaurin series (_airy_series) is kept as an in-house check of
AMOS for small |z|: on the circle |z| = SERIES_RADIUS, |arg z| >= pi/3, it
is within 7.9e-11 of 30-digit mpmath relative to max(|Ai|, |Bi|).  Near the
positive real axis it loses e^{2 Re zeta} to cancellation.

Gi is needed for real argument only.  It is one fixed rule for the
Scorer integral pi Hi(w) = integral_0^inf exp(-t^3/3 + w t) dt, Re w <= 0
(DLMF §9.12; regimes as in Gil, Segura & Temme, ACM TOMS 28 (2002) 436):
Gi(x) = Re[e^{-i pi/3} Hi(x e^{2 pi i/3})] for x >= 0 and Gi = Bi - Hi(x)
for x < 0.  Measured against mpmath.scorergi on x = 0, +-logspace(-3, 3):
5.3e-16 relative for x >= 0; for x < 0, 1.2e-12 of the Bi envelope
max(|Gi|, |x|^-1/4 / sqrt(pi)), which is the phase rounding of the Bi term.
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

# The near-real strip |Im z| <= STRIP_IM, STRIP_RE[0] <= Re z <= STRIP_RE[1]
# on which complex `airy` sums its Taylor series in i Im z (module docstring);
# the series needs at most 35 of its _STRIP_TERMS terms there.
STRIP_IM = 1.0
STRIP_RE = (-10.0, 16.0)
_STRIP_TERMS = 60
_EPS = 2.0 ** -53  # unit roundoff

_AI0 = 0.3550280538878172392600631860041831763980  # Ai(0) = 3^(-2/3)/Gamma(2/3)
_AIP0 = -0.2588194037928067984051835601892039634793  # Ai'(0) = -3^(-1/3)/Gamma(1/3)
_SQRT3 = math.sqrt(3.0)

_OMEGA = cmath.exp(2j * math.pi / 3.0)
_SQRT_HALF = math.sqrt(0.5)

# Ai, Ai', Bi and Bi' at the Taylor anchors x = -9, -8, ..., 9: 30-digit
# mpmath values rounded to double (the tests rebuild them).
_ANCHORS = np.array([
    [-0.022133721547341403, -0.9756639809263316,
     0.3249473234552449, -0.05740051384366925],  # x = -9
    [-0.0527050503563862, 0.9355609381983065,
     -0.33125158075113786, -0.1594504978129814],  # x = -8
    [0.18428083525050565, -0.7710081684101265,
     0.293762071854414, 0.4982445900581135],  # x = -7
    [-0.3291451736298231, 0.3459354872813429,
     -0.14669837667055705, -0.812898785105067],  # x = -6
    [0.35076100902411433, 0.32719281855444315,
     -0.13836913490160058, 0.7784117730018992],  # x = -5
    [-0.07026553294928951, -0.7906285753685813,
     0.3922347057069993, -0.1166705674383409],  # x = -4
    [-0.37881429367765806, 0.3145837692165988,
     -0.19828962637492653, -0.6756112226852585],  # x = -3
    [0.22740742820168558, 0.618259020741691,
     -0.4123025879563985, 0.2787951669211695],  # x = -2
    [0.5355608832923521, -0.01016056711664521,
     0.1039973894969446, 0.5923756264227924],  # x = -1
    [0.3550280538878172, -0.2588194037928068,
     0.6149266274460007, 0.4482883573538264],  # x = 0
    [0.13529241631288141, -0.1591474412967932,
     1.2074235949528713, 0.9324359333927756],  # x = 1
    [0.03492413042327438, -0.05309038443365363,
     3.2980949999782148, 4.10068204993289],  # x = 2
    [0.006591139357460719, -0.011912976705951319,
     14.037328963730232, 22.92221496638217],  # x = 3
    [0.0009515638512048018, -0.001958640950204179,
     83.84707140846814, 161.9266835046134],  # x = 4
    [0.00010834442813607442, -0.0002474138908684625,
     657.7920441711711, 1435.8190802179824],  # x = 5
    [9.947694360252889e-06, -2.4765200397034955e-05,
     6536.446104809864, 15725.602621930477],  # x = 6
    [7.492128863997167e-07, -2.008150894738792e-06,
     80327.79070943025, 209552.6708739713],  # x = 7
    [4.6922076160992316e-08, -1.3414392979067865e-07,
     1199586.00412446, 3354342.3127445388],  # x = 8
    [2.47116843087249e-09, -7.480641389658946e-09,
     21472868.891435347, 63807489.78090821],  # x = 9
])
_TAYLOR_REACH = 9.5
_TAYLOR_TERMS = 24
# Taylor coefficients of [Ai, Bi, Ai', Bi'] about each anchor a, shape
# (terms, 4, anchors): c_0 = y(a), c_1 = y'(a), (n + 2)(n + 1) c_{n+2} =
# a c_n + c_{n-1}; the derivative rows hold (n + 1) c_{n+1} and a zero last term.
_TAYLOR = np.zeros((_TAYLOR_TERMS, 4, _ANCHORS.shape[0]))
_TAYLOR[0, :2], _TAYLOR[1, :2] = _ANCHORS[:, 0::2].T, _ANCHORS[:, 1::2].T
for _n in range(_TAYLOR_TERMS - 2):
    _TAYLOR[_n + 2, :2] = (np.arange(-9.0, 10.0) * _TAYLOR[_n, :2]
                           + (_TAYLOR[_n - 1, :2] if _n else 0.0)) \
        / ((_n + 2) * (_n + 1))
_TAYLOR[:-1, 2:] = _TAYLOR[1:, :2] * np.arange(1.0, _TAYLOR_TERMS)[:, None, None]

# u_k of DLMF 9.7.2 and v_k = -(6k + 1)/(6k - 1) u_k of 9.7.6, split by
# parity; 28 terms reach 1e-17 at zeta(9.5) = 19.5.
_U = np.cumprod([1.0] + [(6 * k - 5) * (6 * k - 3) * (6 * k - 1)
                         / (216.0 * k * (2 * k - 1)) for k in range(1, 28)])
_V = -(6.0 * np.arange(28) + 1.0) / (6.0 * np.arange(28) - 1.0) * _U
_UV_PAIRS = np.concatenate([_U.reshape(-1, 2), _V.reshape(-1, 2)],
                           axis=1)[..., None]  # [u_2k, u_2k+1, v_2k, v_2k+1]


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
    """Ai, Bi, Ai', Bi' at complex z, |z| <= 1e4: on the strip from the real
    kernel, else from AMOS (module docstring); DomainError where they
    overflow (Bi past z = 103.2 on the positive axis, Ai on arg z = +-2pi/3)."""
    z = complex(z)
    if not abs(z) <= AIRY_MAX_ABS:
        raise DomainError(f"z = {z} must be finite and inside |z| <= {AIRY_MAX_ABS:g}")
    if abs(z.imag) <= STRIP_IM and STRIP_RE[0] <= z.real <= STRIP_RE[1]:
        return _strip(z)
    import scipy.special

    ai, aip, bi, bip = scipy.special.airy(z)
    bundle = AiryBundle(ai=complex(ai), ai_prime=complex(aip),
                        bi=complex(bi), bi_prime=complex(bip))
    vals = (bundle.ai, bundle.ai_prime, bundle.bi, bundle.bi_prime)
    if not all(cmath.isfinite(v) for v in vals):
        raise DomainError(f"Airy overflow at z = {z}")
    return bundle


def _strip(z: complex) -> AiryBundle:
    """Airy on the strip: the Taylor series in i Im z about x = Re z of Ai,
    Bi, Ai' and Bi' from the kernel (scaled by e^{+-zeta(x)} past 9.5), with
    y^(n+2) = x y^(n) + n y^(n-1); it stops at the first term below the
    rounding of the values at x."""
    x = z.real
    (a, b, a1, b1), zeta = _kernel_point(x)  # y^(n) and y^(n+1) of Ai and Bi
    tol = _EPS * (abs(a) + abs(b) + abs(a1) + abs(b1))
    a0 = b0 = 0.0  # y^(n-1)
    term, step = 1.0 + 0j, 1j * z.imag  # (i Im z)^n / n!
    ai = bi = aip = bip = 0j
    for n in range(_STRIP_TERMS):
        ai += term * a
        bi += term * b
        aip += term * a1
        bip += term * b1
        if abs(term) * (abs(a) + abs(b) + abs(a1) + abs(b1)) <= tol:
            break
        a0, a, a1 = a, a1, x * a + n * a0
        b0, b, b1 = b, b1, x * b + n * b0
        term *= step / (n + 1)
    down, up = math.exp(-zeta), math.exp(zeta)
    return AiryBundle(ai=ai * down, ai_prime=aip * down, bi=bi * up, bi_prime=bip * up)


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
                  -hi.real)[..., 0]
    neg = arr < 0.0
    gi[neg] += ai_bi_scaled(arr[neg])[1]
    return float(gi) if np.isscalar(x) else gi


def ai_real(x: np.ndarray | float) -> np.ndarray | float:
    """Ai over real x, |x| <= 1e4: a float for scalar x, else an array of
    x's shape; Ai e^zeta from ai_bi_scaled times e^-zeta."""
    ai, _, zeta = ai_bi_scaled(x)
    ai = (ai * np.exp(-zeta)).reshape(np.shape(x))
    return float(ai) if np.isscalar(x) else ai


def ai_bi_scaled(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ai(x) e^zeta, Bi(x) e^-zeta and zeta = (2/3) max(x, 0)^{3/2} over real
    x, |x| <= 1e4, as arrays of at least one dimension: finite where Ai
    underflows and Bi overflows.  Regions and errors: the module docstring."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.abs(arr) <= AIRY_MAX_ABS):
        raise DomainError(f"x must be finite and inside |x| <= {AIRY_MAX_ABS:g}")
    zeta = (2.0 / 3.0) * np.maximum(arr, 0.0) ** 1.5
    out = np.empty((2, *arr.shape))
    near = np.abs(arr) < _TAYLOR_REACH
    if near.any():
        ai, bi = _taylor(arr[near])
        scale = np.exp(zeta[near])
        out[:, near] = ai * scale, bi / scale
    if not near.all():
        out[:, ~near] = _asymptotic(arr[~near])
    return out[0], out[1], zeta


def _taylor(x: np.ndarray) -> np.ndarray:
    """[Ai, Bi](x) for |x| < 9.5: Horner in h = x - a, a the nearest anchor."""
    anchor = np.rint(x)
    h = x - anchor
    coef = np.take(_TAYLOR[:, :2], anchor.astype(np.intp) + 9, axis=2)
    y = coef[-1].copy()
    for c in coef[-2::-1]:
        y *= h
        y += c
    return y


def _kernel_point(x: float) -> tuple[list[float], float]:
    """[Ai, Bi, Ai', Bi'](x) times [e^s, e^-s, e^s, e^-s], and s, at one real
    x: for |x| < 9.5 the Taylor rows with s = 0, by Horner on floats (the same
    operations as _taylor, at a sixth of its cost on one point); past that
    _asymptotic with s = zeta."""
    if abs(x) >= _TAYLOR_REACH:
        zeta = (2.0 / 3.0) * max(x, 0.0) ** 1.5
        return _asymptotic(np.array([x]), 4)[:, 0].tolist(), zeta
    anchor = round(x)
    h = x - anchor
    a = b = ap = bp = 0.0
    for c0, c1, c2, c3 in _TAYLOR[::-1, :, anchor + 9].tolist():
        a, b, ap, bp = a * h + c0, b * h + c1, ap * h + c2, bp * h + c3
    return [a, b, ap, bp], 0.0


def _asymptotic(x: np.ndarray, rows: int = 2) -> np.ndarray:
    """[Ai e^zeta, Bi e^-zeta, Ai' e^zeta, Bi' e^-zeta][:rows](x) for |x| >=
    9.5 (zeta = 0 for x < 0), in z = (2/3)|x|^{3/2}: DLMF 9.7.5-9.7.8 for
    x > 0; 9.7.9-9.7.12 in cos and sin of z - pi/4 for x < 0."""
    r = np.abs(x)
    z = (2.0 / 3.0) * r ** 1.5
    t = 1.0 / z
    w = np.copysign(t * t, x)  # the sums alternate in zeta^-2 for x < 0
    sums = np.empty((rows, x.size))
    sums[:] = _UV_PAIRS[-1, :rows]
    for pair in _UV_PAIRS[-2::-1, :rows]:
        sums *= w
        sums += pair
    # even, odd: [u sums] and, for rows = 4, [u sums, v sums]
    even, odd = sums[0::2], sums[1::2] * t
    q = r ** -0.25 / math.sqrt(math.pi)
    y = np.stack([0.5 * (even - odd), even + odd]) * q  # (Ai, Bi) x (u, v)
    neg = x < 0.0
    if neg.any():
        cos, sin = np.cos(z[neg]), np.sin(z[neg])
        cos_p, sin_p = (cos + sin) * _SQRT_HALF, (sin - cos) * _SQRT_HALF  # of z - pi/4
        even, odd = even[:, neg] * q[neg], odd[:, neg] * q[neg]
        y[:, :, neg] = cos_p * even + sin_p * odd, cos_p * odd - sin_p * even
    if rows == 2:
        return y[:, 0]
    # Ai' and Bi' from the v sums, times |x|^{1/2}: -Ai and Bi forms for x > 0,
    # -Bi and Ai forms for x < 0
    d = y[:, 1] * np.sqrt(r)
    d[:, neg] = d[::-1, neg]
    return np.concatenate([y[:, 0], d * [[-1.0], [1.0]]])
