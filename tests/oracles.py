"""Reference forms that only the tests use.

Each is a second route to a quantity the library computes another way (a
closed form, a different integration domain, a defining limit); the tests
compare the two.  Nothing under src/ imports this module.
"""

import cmath
import math

import numpy as np

from tunnelclock import DomainError, attoclock, larmor, oscquad, ppt, specfun

# Centre of the oscillation period that scaling_factor_limit averages over.
_LIMIT_XI = 40.0


def ionization_integral(params, u):
    """I(u) = integral_{-u}^{infty} dt exp(-i kappa (t^3/3+t)) t/(t^2+1)^2.

    Scalar u gives a complex, an array of u one value per element; the
    attoclock takes it as the second of its stacked prefactors.
    """
    return oscquad.cubic_phase_integral(
        params.kappa, 1.0, lower=-np.asarray(u, dtype=float),
        g=attoclock._overlap_g, poles=attoclock.OVERLAP_POLES)


def bound_overlap(params, u_prime):
    """Length-gauge coupling of the bound state to the momentum u'.

    Closed form F*x0^2/(i*kappa^2) * 4u'/(u'^2+1)^2; odd in u'.
    """
    pref = params.field * params.x0 ** 2 / (1j * params.kappa ** 2)
    val = pref * 4.0 * attoclock._overlap_g(u_prime)
    return complex(val) if val.ndim == 0 else val


def attoclock_time_via_delay(params, u: float) -> float:
    """attoclock.attoclock_time assembled in the ionization-time domain.

    Integrates over the field-on time t_D with the bound-state coupling
    matrix element, forms the mean delay <t_D>, and subtracts the drift
    p/F explicitly.
    """
    kt = params.kappa_tilde
    p_det = kt * u

    def coupling(up):
        return bound_overlap(params, up)

    def g_num(up):
        # t_D * coupling with t_D = (kappa_tilde*u' + p)/F
        return (kt * up + p_det) / params.field * coupling(up)

    num = oscquad.cubic_phase_integral(
        params.kappa, 1.0, lower=-float(u), g=g_num, poles=attoclock.OVERLAP_POLES)
    den = oscquad.cubic_phase_integral(
        params.kappa, 1.0, lower=-float(u), g=coupling, poles=attoclock.OVERLAP_POLES)
    if abs(den) < 1e-300:
        raise DomainError(
            f"ionization amplitude underflows at u = {u}")
    return float((num / den).real) - p_det / params.field


def saddle_analytic(pulse, p: float, theta: float) -> complex:
    """Closed-form constant-envelope saddle t_s of the cycle n = 0."""
    p, theta = map(float, ppt._finite(p, theta))
    if ppt._envelope(pulse)[0] or p <= 0.0:
        raise DomainError("analytic saddle needs the constant envelope, p > 0")
    return complex(ppt._constant_saddle(pulse, p, theta, 0))


def spectrum_direct(pulse, p_grid, theta_grid):
    """ppt.spectrum solved at every node at its own theta, without the
    mirror: the same seeds, Newton homotopy, root filter and `_select`."""
    p_grid, theta_grid = ppt._finite(p_grid, theta_grid)
    pp, tt = np.meshgrid(p_grid, theta_grid, indexing="ij")
    cycles = np.array([-1.0, 0.0, 1.0])[:, None, None]
    seeds = ppt._constant_saddle(pulse, pp, tt, cycles)
    seeds[np.abs(seeds.real) > 2.0 * math.pi / pulse.omega] = ppt._NAN
    ends, resid, sweeps, steps = ppt._newton_roots(pulse, pp, tt, seeds)
    roots = np.where(resid < 1e-10 * (pp * pp + 2.0 * pulse.ip), ends,
                     ppt._NAN)
    sel, resid = ppt._select(roots, resid, tt, pulse.omega)
    flags = np.isnan(sel)
    with np.errstate(invalid="ignore"):  # NaN at the flagged nodes
        im_s = ppt.action_im(pulse, pp, tt, sel)
    weights = np.where(flags, 0.0, np.exp(2.0 * im_s))
    return ppt.SpectrumGrid(
        p_values=p_grid, theta_values=theta_grid,
        weights=weights / weights.max(), saddle_times=sel,
        saddle_residuals=resid, flags=flags, newton_sweeps=sweeps,
        node_iterations=steps, solved_nodes=flags.size)


def saddle_prefactor(params) -> complex:
    """i sqrt(2) pi x0 kappa^{-5/6} e^{-2k/3}: psi_position_saddle's factor."""
    k = params.kappa
    return 1j * math.sqrt(2.0) * math.pi * params.x0 * k ** (-5.0 / 6.0) \
        * math.exp(-2.0 * k / 3.0)


def psi_position_saddle(params, xi):
    """Fourier transform of the saddle form of the momentum wavefunction:
    the closed Airy/Scorer expression.

    psi_S(xi) = i sqrt(2) pi x0 kappa^{-5/6} e^{-2k/3}
                * [Ai - i Gi](kappa^{2/3} (1 - xi))
    """
    pref = saddle_prefactor(params)
    arg = params.kappa ** (2.0 / 3.0) * (1.0 - np.asarray(xi, dtype=float))
    out = pref * (specfun.ai_real(arg) - 1j * specfun.scorer_gi(arg))
    return complex(out) if np.isscalar(xi) else out


def final_state(params, xi):
    """The post-selected state Ai(kappa^{2/3}(1 - xi)) by specfun.ai_real,
    independent of the psi that larmor reads it off."""
    return specfun.ai_real(params.kappa ** (2.0 / 3.0)
                           * (1.0 - np.asarray(xi, dtype=float)))


def scaling_factor_limit(params) -> complex:
    """The defining limit of larmor.scaling_factor with the saddle form.

    Averages v(xi) psi_f(xi) psi_i(xi), psi_i the saddle form, over one
    local Airy oscillation period centred at xi = _LIMIT_XI (the numeric
    analogue of dropping the oscillatory terms) and inverts the average.
    """
    k = params.kappa
    # Local oscillation period of Ai(kappa^{2/3}(1-xi)): phase
    # (2/3) kappa (xi-1)^{3/2} advances by 2 pi over delta below.
    delta = 2.0 * math.pi / (k * math.sqrt(_LIMIT_XI - 1.0))
    xi = np.linspace(_LIMIT_XI - 0.5 * delta, _LIMIT_XI + 0.5 * delta, 257)
    v = params.kappa_tilde * np.sqrt(xi)
    product = v * final_state(params, xi) \
        * psi_position_saddle(params, xi)
    mean = np.trapezoid(product, xi) / delta
    return 1.0 / complex(mean)


def plateau_time_saddle(params) -> complex:
    """larmor.plateau_time with the saddle form as the initial state.

    sigma x0 times the overlap of psi_f with psi_position_saddle over the
    barrier, on 32 Gauss-Legendre panels instead of the trace's Simpson sum.
    """
    xi, weights = oscquad.gl_panels(np.linspace(0.0, 1.0, 33))
    overlap = np.sum(weights * final_state(params, xi)
                     * psi_position_saddle(params, xi))
    sigma = larmor.scaling_factor(params, saddle_prefactor(params))
    return complex(sigma * params.x0 * overlap)


def psi_momentum(params, u: float) -> complex:
    """Stationary momentum-space wavefunction psi(u) (global phase dropped)."""
    phase = np.exp(-1j * params.kappa * (u ** 3 / 3.0 + u))
    return (4.0 * params.x0 / params.kappa) * complex(phase) \
        * ionization_integral(params, u)


def psi_momentum_saddle(params, u: float) -> complex:
    """Closed saddle form: 2 i x0 sqrt(pi/kappa) e^{-2k/3} e^{-i k phi(u)} theta(u)."""
    if u < 0.0:
        return 0j
    pref = 2j * params.x0 * math.sqrt(math.pi / params.kappa) \
        * math.exp(-2.0 * params.kappa / 3.0)
    return pref * complex(np.exp(-1j * params.kappa * (u ** 3 / 3.0 + u)))


# Rotated tail ray u = U + s*e^{-i pi/6} (as in oscquad) and the decay, in
# e-folds at the widest xi, at which the fixed rule on it stops.
_RAY = cmath.exp(-1j * math.pi / 6.0)
_RAY_DECAY = 40.0
# psi(xi) is evaluated in blocks of about this many kernel entries.
_PSI_BLOCK = 1 << 21
# Largest local phase advance, in radians, across one window panel.
_PHASE_BUDGET = 20.0


def _window_remainder(kappa: float, u):
    """Non-oscillatory limit R(u) of e^{-i kappa phi(u)} I(u) for large |u|.

    Repeated integration by parts of I(u) gives, with h(t) = g(t)/phi'(t),
        e^{-i kappa phi(u)} I(u) -> R(u) + theta(u) I(inf) e^{-i kappa phi(u)},
        R(u) = i h/kappa + (5u^2 - 1)/(kappa^2 (u^2+1)^5)
               + 20 i u (1 - 2u^2)/(kappa^3 (u^2+1)^7),
    the same rational function on both sides of the window (the left and
    right expansions are conjugate, and g is odd).  The first omitted term
    is O(kappa^-4 |u|^-14).
    """
    q = u * u + 1.0
    return (1j * u / (kappa * q ** 3) + (5.0 * u * u - 1.0) / (kappa ** 2 * q ** 5)
            + 20j * u * (1.0 - 2.0 * u * u) / (kappa ** 3 * q ** 7))


def _remainder_transform(kappa: float, xi: np.ndarray) -> np.ndarray:
    """integral over the real line of R(u) e^{i kappa u xi} du, in closed form.

    R is rational with poles at +-i only, so closing the contour in the
    half plane where e^{i a u} decays (a = kappa xi) leaves one residue:
    -pi e^{-|a|} times a polynomial in |a|, odd terms carrying sign(a).
    """
    a = kappa * xi
    b = np.abs(a)
    odd = (b * b + b) / (8.0 * kappa) + (
        b ** 6 / 768.0 + 7.0 * b ** 5 / 768.0 + 25.0 * b ** 4 / 768.0
        + 5.0 * b ** 3 / 64.0 + 35.0 * b * b / 256.0 + 35.0 * b / 256.0) / kappa ** 3
    even = (b ** 4 / 64.0 + 5.0 * b ** 3 / 96.0 + 5.0 * b * b / 64.0
            + 5.0 * b / 64.0 + 5.0 / 64.0) / kappa ** 2
    return -math.pi * np.exp(-b) * (np.sign(a) * odd + even)


def husimi_sum(psi, x: float, p: float, width: float) -> float:
    """|<g_{x,p}|psi>| as the plain weighted sum |sum_j w_j conj(g_j) psi_j|
    over the grid's own weights, one point at a time and with no window
    entry zeroed: the reference husimi.husimi_grid's one product replaces."""
    xs = psi.coordinates
    g = ((1.0 / (np.pi * width * width)) ** 0.25
         * np.exp(-((xs - x) ** 2) / (2.0 * width * width) + 1j * p * xs))
    return float(abs(np.sum(psi.weights * np.conj(g) * psi.values)))


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


class UWindowTransform:
    """Numeric Fourier transform u -> xi of the exact SFA wavefunction: the
    momentum-window transform that sfa.PositionTransform replaced, kept as
    the independent reference for its Green's-function form.

    psi(xi) = (1/sqrt(2 pi)) * integral du psi(u) e^{+i kappa u xi}

    The line splits into three parts, each a fixed rule, so that psi(xi) is
    one sum  exp(i kappa xi nodes) @ base  over a single node set plus a
    closed-form term:

    - the window [-U, U]: frequency-matched Gauss-Legendre panels for the
      factored integrand e^{-i kappa (u^3/3 + (1-xi) u)} I(u); I(u) at all
      nodes is one call of the cumulative rule oscquad.cubic_phase_integral
      with every -node as a lower limit.  The window must hold the
      stationary points +-sqrt(xi - 1) of every xi, U^2 + 1 >= xi_abs_max;
    - |u| > U: there e^{-i kappa phi(u)} I(u) stops oscillating and tends to
      theta(u) I(inf) e^{-i kappa phi(u)} + R(u) (see _window_remainder).
      The I(inf) part of the right tail is a cubic-phase integral taken
      on the rotated ray u = U + s e^{-i pi/6} (complex nodes, geometric
      panels, cut where the integrand has decayed by e^-40 at the widest
      xi).  The remainder R is integrated over the whole line in closed
      form (_remainder_transform), and its part inside the window is taken
      off the window weights.

    The truncation error is that of the first term R omits,
    T3 = -20 (22u^4 - 19u^2 + 1)/(kappa^4 (u^2+1)^9), |T3| <= 440/(kappa^4
    u^14) for |u| >= 1: at every |xi| <= xi_abs_max (|e^{i kappa u xi}| = 1)
    psi is off by at most pref 880/(13 kappa^4 U^13).  achieved_change is
    that bound over max|psi| on the probe linspace(-4, 4, 9), clipped to the
    range.  Against U = 24 on 2,001 points over |xi| <= 6 and 40, kappa =
    0.2 to 40, it is 1.20-1.32 times the error at U = 6 (the exact integral
    of |T3|: 1.00-1.04 times).  The 20-radian panels add an error of their
    own that can pass the bound at kappa <= 1 and wide ranges (1.2e-8 against
    7.2e-9 at kappa = 1, xi_abs_max = 20; 3.5e-8 against 1.9e-8 at 0.5, 40).
    Without R the truncation error would fall only like U^-4.

    Cost of psi at n points over N nodes: when xi is an arithmetic
    progression (any linspace), about 2 sqrt(n) N complex exponentials and
    one n x N complex matrix product (_progression_split); any other xi
    takes n N exponentials.  The split moves each evaluation point by about
    4 eps max|xi - xi_abs_max|, the rounding already in the kernel phase.
    Measured against the plain sum on 4,001-point grids, relative to
    max|psi|: at most 4.7e-15 on the husimi scenario's grids at kappa = 2,
    4.5 and 40, and 8.4e-15 on [-2, 9.9] with xi_abs_max = 10.
    """

    def __init__(self, params, u_max: float = 12.0,
                 xi_abs_max: float = 6.0):
        self.params = params
        self.u_max = float(u_max)
        self.xi_abs_max = float(xi_abs_max)
        if not (0.0 < self.u_max < math.inf
                and 0.0 <= self.xi_abs_max < math.inf):
            raise DomainError(
                f"need a finite window U > 0 and a finite xi_abs_max >= 0, "
                f"got U = {self.u_max}, xi_abs_max = {self.xi_abs_max}")
        if self.u_max ** 2 + 1.0 < self.xi_abs_max:
            raise DomainError(
                f"window U = {self.u_max} must contain the stationary points "
                f"+-sqrt(xi - 1) of every |xi| <= {self.xi_abs_max}")
        k = params.kappa
        w_max = 1.0 + self.xi_abs_max  # largest |1 - xi| in the window

        # Frequency-matched panels: 16-node Gauss-Legendre per panel, panel
        # width limited so the local phase advance stays within _PHASE_BUDGET
        # radians (well inside the resolving power of 16 nodes), and to 1,
        # the distance of the overlap poles +-i from the axis.
        edges = [-self.u_max]
        while edges[-1] < self.u_max:
            freq = k * (edges[-1] ** 2 + w_max)
            edges.append(min(self.u_max, edges[-1] + min(1.0, _PHASE_BUDGET / freq)))
        window, weights = oscquad.gl_panels(np.asarray(edges))

        # I at every node and the right tail from the last one, in one call:
        # I(inf) = I(u_last) + integral_{-inf}^{-u_last}, and that piece is
        # -conj of the right tail because the prefactor is odd and real.
        i_all = ionization_integral(params, np.append(window, -window[-1]))
        i_nodes, right_tail = i_all[:-1], i_all[-1]
        self.i_infinity = i_nodes[-1] - np.conj(right_tail)

        # Rotated ray: geometric panels from the boundary layer at s = 0
        # (narrowest at xi = -xi_abs_max) until the integrand at
        # xi = +xi_abs_max has decayed by _RAY_DECAY e-folds.
        u2 = self.u_max ** 2 + 1.0

        def decay(s):
            return k * (s ** 3 / 3.0 + 0.5 * math.sqrt(3.0) * self.u_max * s * s
                        + 0.5 * (u2 - self.xi_abs_max) * s)

        ray_edges = [0.0, 2.0 / (k * (u2 + self.xi_abs_max))]
        while decay(ray_edges[-1]) < _RAY_DECAY:
            ray_edges.append(2.0 * ray_edges[-1])
        s, s_weights = oscquad.gl_panels(np.asarray(ray_edges))
        ray = self.u_max + _RAY * s

        self._pref = (4.0 * params.x0 / k) / math.sqrt(2.0 * math.pi)
        window_base = self._pref * weights * (
            i_nodes * np.exp(-1j * k * (window ** 3 / 3.0 + window))
            - _window_remainder(k, window))
        ray_base = (self._pref * self.i_infinity * _RAY) * s_weights \
            * np.exp(-1j * k * (ray ** 3 / 3.0 + ray))
        self.nodes = np.concatenate([window, ray])
        # Kernels are taken relative to xi = xi_abs_max, where the ray decays
        # slowest: |exp(i k (xi - xi_abs_max) u)| <= 1 on the ray, and the
        # stored weights are the bounded integrand at xi_abs_max.
        self._base = np.concatenate([window_base, ray_base]) \
            * np.exp(1j * k * self.xi_abs_max * self.nodes)

        reach = min(self.xi_abs_max, 4.0)
        scale = np.abs(self.psi(np.linspace(-reach, reach, 9))).max()
        self.truncation_bound = self._pref * 880.0 / (13.0 * k ** 4 * self.u_max ** 13)
        self.achieved_change = float(self.truncation_bound / scale)

    def psi(self, xi):
        """Evaluate psi(xi) for scalar or array xi inside the window."""
        xi_arr = np.atleast_1d(np.asarray(xi, dtype=float))
        if not np.all(np.abs(xi_arr) <= self.xi_abs_max):
            raise DomainError(
                f"xi must be finite and inside |xi| <= {self.xi_abs_max}")
        k = self.params.kappa
        flat = xi_arr.ravel()
        out = (self._pref * _remainder_transform(k, flat)).astype(complex)
        # exp(i k s_j u) = exp(i k anchor_b u) exp(i k offset_r u), so psi is
        # one product of anchor rows with offset rows (_progression_split).
        # s = xi - xi_abs_max <= 0, and walking it downwards keeps both
        # factors of modulus <= 1 on the ray.
        s = flat - self.xi_abs_max
        order = slice(None, None, -1) if s.size > 1 and s[-1] > s[0] \
            else slice(None)
        anchors, offsets = _progression_split(s[order])
        block = offsets.size
        offset_rows = np.exp(1j * k * np.outer(offsets, self.nodes)) * self._base
        total = np.empty(anchors.size * block, dtype=complex)
        rows = max(1, _PSI_BLOCK // self.nodes.size)
        for lo in range(0, anchors.size, rows):
            anchor_rows = np.exp(1j * k * np.outer(anchors[lo:lo + rows], self.nodes))
            total[lo * block:(lo + rows) * block] = \
                (anchor_rows @ offset_rows.T).ravel()
        out += total[:flat.size][order]
        out = out.reshape(xi_arr.shape)
        return complex(out[0]) if np.isscalar(xi) else out

    def summary(self) -> dict:
        """Window, |xi| range, nodes and truncation bound, for a sidecar."""
        return {"u_max": self.u_max, "xi_abs_max": self.xi_abs_max,
                "nodes": int(self.nodes.size),
                "achieved_change": self.achieved_change}


def barrier_psi_initial(barrier, x):
    """Left-incident solution of a variational.SquareBarrier inside it."""
    x = np.asarray(x, dtype=complex)
    return barrier.c * np.exp(barrier.q * x) + barrier.d * np.exp(-barrier.q * x)


def _matching_rows_by_mpmath(mpmath, params, energy, dv):
    """Rows [A0, B0, AR | rhs] of variational's matching system at working
    precision, with the potential offset dv in the barrier's Airy pair."""
    field = mpmath.mpf(params.field)
    beta = mpmath.cbrt(field ** 2 / 2)
    ell = -beta / field
    s, s0 = -energy / beta, -(energy - dv) / beta
    z_exit = mpmath.mpf(params.x0) / ell
    jump = 2 * mpmath.sqrt(2 * mpmath.mpf(params.ip)) * ell

    def pair(z, d):
        return [mpmath.airyai(z, derivative=d), mpmath.airybi(z, derivative=d)]

    ai, aip = (mpmath.airyai(s, derivative=d) for d in (0, 1))
    out, out_p = (a - 1j * b for a, b in (pair(s + z_exit, 0),
                                          pair(s + z_exit, 1)))
    return [pair(s0, 0) + [0, ai],
            pair(s0, 1) + [0, aip - jump * ai],
            pair(s0 + z_exit, 0) + [-out, 0],
            pair(s0 + z_exit, 1) + [-out_p, 0]]


def resonance_by_mpmath(mpmath, params, start):
    """Root of det[M | rhs] near `start` at the working precision."""
    def det(energy):
        return mpmath.det(mpmath.matrix(
            _matching_rows_by_mpmath(mpmath, params, energy, 0)))

    return mpmath.findroot(det, mpmath.mpc(start))


def lsq_phase_time_by_mpmath(mpmath, params, energy):
    """-d arg(AR)/dV of the least-squares AR = (M^H M)^-1 M^H rhs, the
    whole pseudo-inverse derivative, by mpmath.diff at `energy`.

    arg is taken of AR(V) AR(0)^*, which stays near 0, so the difference
    stencil never straddles the branch cut."""
    def ar(dv):
        rows = _matching_rows_by_mpmath(mpmath, params, energy, dv)
        m = mpmath.matrix([row[:3] for row in rows])
        rhs = mpmath.matrix([row[3] for row in rows])
        return mpmath.lu_solve(m.H * m, m.H * rhs)[2]

    ref = mpmath.conj(ar(0))
    return -mpmath.diff(lambda dv: mpmath.arg(ar(dv) * ref), 0)


def green_by_mpmath(mpmath, params, stops=()):
    """The Green's-function integrals of sfa.PositionTransform by mp.quad.

    Returns A = int Ai s over the line, and L = int Ai s from -inf and
    R = int Bi s to +inf at each of the increasing xi in stops, with
    s = xi e^{-kappa |xi|} and Ai, Bi at z = kappa^{2/3} (1 - xi).  The
    line is cut at -16/kappa and 1 + 40/kappa, where the integrands have
    fallen below e^-36 of A, and split at 0, 1 and every stop.
    """
    k = mpmath.mpf(params.kappa)
    k23 = k ** (mpmath.mpf(2) / 3)

    def quad(airy, piece):
        return mpmath.quad(lambda x: airy(k23 * (1 - x)) * x * mpmath.exp(-k * abs(x)),
                           piece, maxdegree=5)

    cuts = sorted({-16.0 / params.kappa, 0.0, 1.0, 1.0 + 40.0 / params.kappa,
                   *map(float, stops)})
    assert cuts[0] < min(stops, default=0.0) and max(stops, default=0.0) < cuts[-1]
    pieces = list(zip(cuts, cuts[1:]))
    left = [quad(mpmath.airyai, piece) for piece in pieces]
    right = [quad(mpmath.airybi, piece) if piece[1] > min(stops, default=cuts[-1])
             else 0 for piece in pieces]
    return (mpmath.fsum(left), [mpmath.fsum(left[:cuts.index(x)]) for x in stops],
            [mpmath.fsum(right[cuts.index(x):]) for x in stops])


def psi_green_by_mpmath(mpmath, params, stops):
    """psi(xi) = -K [i Ai A + Bi L + Ai R] at each xi in stops (see
    green_by_mpmath), with the Airy functions at mpmath precision."""
    amplitude, l_at, r_at = green_by_mpmath(mpmath, params, stops)
    k = mpmath.mpf(params.kappa)
    c = 4 * mpmath.mpf(params.x0) / (k * mpmath.sqrt(2 * mpmath.pi))
    big_k = mpmath.pi ** 2 / 2 * c * k ** (mpmath.mpf(4) / 3)
    out = []
    for x, l_x, r_x in zip(stops, l_at, r_at):
        z = k ** (mpmath.mpf(2) / 3) * (1 - mpmath.mpf(x))
        ai, bi = mpmath.airyai(z), mpmath.airybi(z)
        out.append(complex(-big_k * (1j * ai * amplitude + bi * l_x + ai * r_x)))
    return amplitude, np.array(out)


def larmor_by_mpmath(mpmath, params, stops):
    """Re tau at each xi in stops and the Im tau plateau, at the working
    precision, from closed Airy forms (stops past the exit read xi = 1).

    psi = -K [i Ai A + Bi L + Ai R] (green_by_mpmath) and C = -i K A, so
    tau(xi) = b x0 int_0^xi [Ai^2 - i Ai (Bi L + Ai R) / A] dxi' with
    b = 2^{2/3} pi / F^{1/3} and Ai, Bi at z = kappa^{2/3} (1 - xi').  The
    antiderivatives G = z Ai^2 - Ai'^2 and H = z Ai Bi - Ai' Bi' in z (DLMF
    9.11(iv)) give Re tau = b x0 kappa^{-2/3} [G(z(0)) - G(z(xi))], and one
    integration by parts against L' = Ai s and R' = -Bi s, with
    H Ai - G Bi = -Ai' (Ai Bi' - Ai' Bi) = -Ai'/pi, gives
    Im tau(1) = b x0 kappa^{-2/3} ([H L + G R]_0^1 + int_0^1 s Ai'/pi) / A.
    """
    k = mpmath.mpf(params.kappa)
    k23 = k ** (mpmath.mpf(2) / 3)
    scale = (2 ** (mpmath.mpf(2) / 3) * mpmath.pi * mpmath.mpf(params.x0)
             / (mpmath.cbrt(mpmath.mpf(params.field)) * k23))

    def g_and_h(xi):
        z = k23 * (1 - mpmath.mpf(min(float(xi), 1.0)))
        ai, aip = (mpmath.airyai(z, derivative=d) for d in (0, 1))
        bi, bip = (mpmath.airybi(z, derivative=d) for d in (0, 1))
        return z * ai * ai - aip * aip, z * ai * bi - aip * bip

    (g_0, h_0), (g_1, h_1) = g_and_h(0.0), g_and_h(1.0)
    re_tau = np.array([float(scale * (g_0 - g_and_h(x)[0])) for x in stops])
    amplitude, l_at, r_at = green_by_mpmath(mpmath, params, (0.0, 1.0))
    tail = mpmath.quad(lambda x: x * mpmath.exp(-k * x)
                       * mpmath.airyai(k23 * (1 - x), derivative=1), [0, 1])
    im_tau = scale * (h_1 * l_at[1] + g_1 * r_at[1] - h_0 * l_at[0]
                      - g_0 * r_at[0] + tail / mpmath.pi) / amplitude
    return re_tau, float(im_tau)
