"""Reference forms that only the tests use.

Each is a second route to a quantity the library computes another way (a
closed form, a different integration domain, a defining limit); the tests
compare the two.  Nothing under src/ imports this module.
"""

import math

import numpy as np

from tunnelclock import DomainError, larmor, oscquad, ppt, sfa

# Centre of the oscillation period that scaling_factor_limit averages over.
_LIMIT_XI = 40.0


def bound_overlap(params, u_prime):
    """Length-gauge coupling of the bound state to the momentum u'.

    Closed form F*x0^2/(i*kappa^2) * 4u'/(u'^2+1)^2; odd in u'.
    """
    pref = params.field * params.x0 ** 2 / (1j * params.kappa ** 2)
    val = pref * 4.0 * sfa._overlap_g(u_prime)
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
        params.kappa, 1.0, lower=-float(u), g=g_num, poles=sfa.OVERLAP_POLES)
    den = oscquad.cubic_phase_integral(
        params.kappa, 1.0, lower=-float(u), g=coupling, poles=sfa.OVERLAP_POLES)
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
    product = v * larmor.final_state(params, xi) \
        * sfa.psi_position_saddle(params, xi)
    mean = np.trapezoid(product, xi) / delta
    return 1.0 / complex(mean)


def plateau_time_saddle(params) -> complex:
    """larmor.plateau_time with the saddle form as the initial state.

    sigma x0 times the overlap of psi_f with psi_position_saddle over the
    barrier, on 32 Gauss-Legendre panels instead of the trace's Simpson sum.
    """
    xi, weights = oscquad.gl_panels(np.linspace(0.0, 1.0, 33))
    overlap = np.sum(weights * larmor.final_state(params, xi)
                     * sfa.psi_position_saddle(params, xi))
    sigma = larmor.scaling_factor(params, sfa._saddle_prefactor(params))
    return complex(sigma * params.x0 * overlap)


def psi_momentum(params, u: float) -> complex:
    """Stationary momentum-space wavefunction psi(u) (global phase dropped)."""
    phase = np.exp(-1j * params.kappa * (u ** 3 / 3.0 + u))
    return (4.0 * params.x0 / params.kappa) * complex(phase) \
        * sfa.ionization_integral(params, u)


def psi_momentum_saddle(params, u: float) -> complex:
    """Closed saddle form: 2 i x0 sqrt(pi/kappa) e^{-2k/3} e^{-i k phi(u)} theta(u)."""
    if u < 0.0:
        return 0j
    pref = 2j * params.x0 * math.sqrt(math.pi / params.kappa) \
        * math.exp(-2.0 * params.kappa / 3.0)
    return pref * complex(np.exp(-1j * params.kappa * (u ** 3 / 3.0 + u)))


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
