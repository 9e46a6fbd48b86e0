"""End-to-end acceptance suite.

Each test covers one headline capability at its stated tolerance and runtime
budget, and prints a single PASS/FAIL line (bypassing capture) so the
verdicts are visible in any run.
"""

import math
import time

import numpy as np
from scipy.integrate import quad

import oracles
from conftest import ACCEPTANCE_LINES

from tunnelclock import (
    HELIUM_IP,
    attoclock,
    husimi,
    larmor,
    oscquad,
    params_from_kappa,
    derive_params,
    ppt,
    sfa,
    specfun,
    variational,
)


def _report(num, name, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    line = (f"criterion {num:02d} {name}: {status} "
            f"({detail}; {elapsed:.1f}s / budget {budget:.0f}s)")
    print(line)
    ACCEPTANCE_LINES.append(line)
    assert ok, f"criterion {num:02d} {name}: {detail}"
    assert elapsed < budget, (
        f"criterion {num:02d} exceeded runtime budget: {elapsed:.1f}s")


def test_criterion_01_constant_envelope_saddle_oracle():
    t0 = time.time()
    worst = 0.0
    for gamma in (0.5, 1.0, 2.0):
        pulse = ppt.pulse_from_gamma(HELIUM_IP, 0.569, gamma,
                                     envelope="constant")
        p_values = pulse.a0 * np.linspace(0.05, 2.5, 20)
        theta_values = np.linspace(-3.0, 3.0, 10)
        for p in p_values:
            for theta in theta_values:
                analytic = oracles.saddle_analytic(pulse, p, theta)
                numeric = ppt.spectrum(pulse, [p], [theta]).saddle_times[0, 0]
                err = abs(numeric - analytic) / abs(analytic)
                worst = max(worst, err)
    _report(1, "constant-envelope saddle oracle", worst <= 1e-10,
            f"max rel err {worst:.2e} over 600 (p, theta) points, "
            f"gamma in {{0.5, 1, 2}}, tol 1e-10", time.time() - t0, 5.0)


def test_criterion_02_airy_quadrature_keystone():
    t0 = time.time()
    worst = 0.0
    for kappa in (1.0, 3.0, 10.0):
        for w in np.linspace(-3.0, 3.0, 25):
            val = oscquad.cubic_phase_integral(kappa, w)
            arg = kappa ** (2.0 / 3.0) * w
            ref = (math.pi * kappa ** (-1.0 / 3.0)
                   * (specfun.airy(arg).ai - 1j * specfun.scorer_gi(arg)))
            worst = max(worst, abs(val - ref) / abs(ref))
    _report(2, "Airy/Scorer quadrature keystone", worst <= 1e-7,
            f"max rel err {worst:.2e}, tol 1e-7", time.time() - t0, 10.0)


def _brute_even_part_integral(kappa, n_lobes=1500):
    """Full-line integral of u/(1+u^2)^2 * sin(kappa (u^3/3 + u)).

    Lobe-by-lobe quadrature between zeros of the sine followed by repeated
    averaging of the alternating partial sums; independent of oscquad.
    """
    def phi_inv(s):
        t = np.cbrt(3.0 * s)
        for _ in range(60):
            t = t - (t ** 3 / 3.0 + t - s) / (t * t + 1.0)
        return t

    f = lambda t: t / (1.0 + t * t) ** 2 * math.sin(kappa * (t ** 3 / 3.0 + t))
    edges = [0.0] + [phi_inv(m * math.pi / kappa) for m in range(1, n_lobes)]
    lobes = np.array([quad(f, a, b, limit=200)[0]
                      for a, b in zip(edges[:-1], edges[1:])])
    tail = np.cumsum(lobes)[-200:]
    for _ in range(12):
        tail = 0.5 * (tail[1:] + tail[:-1])
    return 2.0 * float(tail[-1])


def test_criterion_03_saddle_amplitude_vs_brute_quadrature():
    t0 = time.time()
    discs, ok = [], True
    for kappa in (3.0, 5.0, 10.0):
        params = params_from_kappa(HELIUM_IP, kappa)
        saddle = abs(sfa.amplitude_A(params))
        brute = abs(_brute_even_part_integral(kappa))
        disc = abs(saddle - brute) / brute
        discs.append(disc)
        ok = ok and disc <= 1.5 / math.sqrt(kappa)
    ok = ok and discs[0] > discs[1] > discs[2]
    _report(3, "saddle amplitude vs brute quadrature", ok,
            "rel disc " + ", ".join(f"{d:.3f}" for d in discs)
            + " at kappa 3/5/10 vs bounds 0.866/0.671/0.474, "
              "strictly decreasing", time.time() - t0, 10.0)


def test_criterion_04_larmor_plateau():
    t0 = time.time()
    params = params_from_kappa(HELIUM_IP, 3.0)
    trace = larmor.larmor_time_trace(params, 3.0 * params.x0, n=21)
    tau_a = trace.times[10].real   # x = 1.5 x0
    tau_b = trace.times[20].real   # x = 3.0 x0
    drift = abs(tau_a - tau_b) / abs(tau_b)
    ok = drift <= 0.02 and tau_b > 0.0
    _report(4, "Larmor time plateau", ok,
            f"Re tau(1.5 x0) = {tau_a:.6f}, Re tau(3 x0) = {tau_b:.6f}, "
            f"drift {drift:.2e} (tol 2%), plateau positive",
            time.time() - t0, 60.0)


def test_criterion_05_attoclock_vanishing_and_parity():
    t0 = time.time()
    params = params_from_kappa(HELIUM_IP, 3.0)
    tau_far = abs(attoclock.attoclock_time(params, 10.0))
    tau_exit = abs(attoclock.attoclock_time(params, 0.0))
    num, den = attoclock.asymptotic_parity_split(params)
    parity = max(abs(num.imag) / abs(num), abs(den.real) / abs(den))
    ok = (tau_far <= 0.01 * params.tau_tilde
          and tau_exit >= 0.05 * params.tau_tilde
          and parity <= 1e-8)
    _report(5, "attoclock time vanishes at detector", ok,
            f"|tau(10)| = {tau_far / params.tau_tilde:.4f} tau~ (<= 0.01), "
            f"|tau(0)| = {tau_exit / params.tau_tilde:.4f} tau~ (>= 0.05), "
            f"parity split {parity:.1e} (tol 1e-8)", time.time() - t0, 30.0)


def test_criterion_06_circular_field_zero_offset():
    t0 = time.time()
    pulse = ppt.pulse_from_gamma(HELIUM_IP, 0.569, 1.0, envelope="cos4")
    p_grid = np.linspace(0.2, 4.0, 100)
    theta_grid = np.linspace(-math.pi, math.pi, 181)
    grid = ppt.spectrum(pulse, p_grid, theta_grid)
    offset = ppt.offset_angle(grid)
    step = theta_grid[1] - theta_grid[0]
    mirror = np.max(np.abs(grid.weights - grid.weights[:, ::-1]))
    ok = abs(offset) <= step and mirror <= 1e-8
    _report(6, "photoelectron offset angle is zero", ok,
            f"offset {offset:.2e} rad (one refined step = {step:.3f}), "
            f"mirror asymmetry {mirror:.1e} (tol 1e-8), 100x181 grid",
            time.time() - t0, 120.0)


_BARRIER_TRIPLES = (
    (1.0, 1.0, 0.8), (1.0, 2.0, 0.6), (1.5, 1.0, 1.0), (2.0, 0.5, 1.2),
    (0.5, 1.5, 0.5), (1.2, 0.8, 0.9), (0.9, 1.3, 0.7), (2.5, 0.6, 1.5),
    (1.8, 1.1, 1.1), (0.7, 2.2, 0.4),
)


def test_criterion_07_weak_value_equals_variational():
    t0 = time.time()
    worst_eq, worst_wr = 0.0, 0.0
    for v0, a, k in _BARRIER_TRIPLES:
        tau_weak, tau_var = variational.scattering_equivalence(v0, a, k)
        worst_eq = max(worst_eq,
                       abs(tau_weak.real - tau_var) / abs(tau_var))
        b = variational.square_barrier(v0, a, k)
        worst_wr = max(worst_wr, abs(b.t - b.t_t),
                       abs(b.r * np.conj(b.t) + np.conj(b.r_t) * b.t))
    ok = worst_eq <= 1e-6 and worst_wr <= 1e-12
    _report(7, "weak-value time equals variational time", ok,
            f"max rel diff {worst_eq:.1e} (tol 1e-6) over 10 barriers, "
            f"max Wronskian defect {worst_wr:.1e} (tol 1e-12)",
            time.time() - t0, 10.0)


def test_criterion_08_variational_vs_weak_value_ionization():
    t0 = time.time()
    fields = (0.3, 0.45, 0.6, 0.75)
    stein, vari = [], []
    for field in fields:
        params = derive_params(HELIUM_IP, field)
        stein.append(larmor.plateau_time(params).real)
        vari.append(variational.larmor_time_variational(params))
    stein, vari = np.array(stein), np.array(vari)
    rel = np.abs(vari - stein) / stein
    ok = (np.all(stein > 0.0) and np.all(vari > 0.0)
          and np.all(np.diff(stein) < 0.0) and np.all(np.diff(vari) < 0.0)
          and np.all(vari >= stein) and np.all(rel <= 0.30))
    _report(8, "variational vs weak-value tunneling time", ok,
            "both positive and decreasing in field, variational above "
            f"weak value at all 4 fields, max gap {rel.max():.0%} (tol 30%)",
            time.time() - t0, 300.0)


def test_criterion_09_resonance_width_exponent():
    t0 = time.time()
    kappas = np.array([3.0, 4.0, 5.0, 6.0])
    widths = [variational.find_resonance(params_from_kappa(HELIUM_IP, k)).width
              for k in kappas]
    slope = np.polyfit(kappas, np.log(widths), 1)[0]
    ok = abs(slope + 4.0 / 3.0) <= 0.10 * (4.0 / 3.0)
    _report(9, "resonance width exponent", ok,
            f"d ln(width)/d kappa = {slope:.4f} vs -4/3 +- 10%",
            time.time() - t0, 60.0)


def test_criterion_10_special_function_suite():
    t0 = time.time()
    rng = np.random.default_rng(7)

    # Wronskian Ai Bi' - Ai' Bi = 1/pi, conditioning-aware tolerance.
    worst_wr = True
    for _ in range(150):
        z = rng.uniform(0.1, 30.0) * np.exp(1j * rng.uniform(-np.pi, np.pi))
        b = specfun.airy(z)
        cond = math.pi * (abs(b.ai * b.bi_prime) + abs(b.ai_prime * b.bi))
        worst_wr = worst_wr and (abs(b.wronskian() - 1.0 / math.pi)
                                 <= max(2e-10, 1e-12 * cond))

    # Scorer function solves y'' - x y = -1/pi (5-point stencil).
    h, ode_ok = 1e-3, True
    for x in (-8.0, -2.0, 0.0, 1.5, 4.0):
        ys = [specfun.scorer_gi(x + k * h) for k in (-2, -1, 0, 1, 2)]
        d2 = (-ys[0] + 16 * ys[1] - 30 * ys[2] + 16 * ys[3] - ys[4]) / (12 * h * h)
        ode_ok = ode_ok and abs(d2 - x * ys[2] + 1.0 / math.pi) <= 1e-6

    # Connection formulas (rotation by cube roots of unity).
    w = np.exp(2j * np.pi / 3.0)
    conn_ok = True
    for _ in range(40):
        z = rng.uniform(0.1, 6.0) * np.exp(1j * rng.uniform(-np.pi, np.pi))
        ai = specfun.airy(z).ai
        ai1, ai2 = specfun.airy(w * z).ai, specfun.airy(z / w).ai
        scale = max(abs(ai), abs(ai1), abs(ai2))
        conn_ok = conn_ok and abs(ai + w * ai1 + ai2 / w) <= 1e-11 * scale
        bi = specfun.airy(z).bi
        ref = (np.exp(1j * np.pi / 6.0) * ai1
               + np.exp(-1j * np.pi / 6.0) * ai2)
        conn_ok = conn_ok and abs(bi - ref) <= 1e-11 * max(abs(bi), scale)

    # Continuity of the series with the backend across the crossover radius.
    cross_ok = True
    for arg in np.linspace(np.pi / 3.0, np.pi, 15):
        for eps in (-1e-9, 1e-9):
            z = (specfun.SERIES_RADIUS + eps) * np.exp(1j * arg)
            lo = specfun._airy_series(z) if eps < 0 else specfun.airy(z)
            hi = specfun.airy(z)
            scale = max(abs(hi.ai), abs(hi.bi), 1e-300)
            cross_ok = cross_ok and abs(lo.ai - hi.ai) <= 5e-10 * scale

    ok = worst_wr and ode_ok and conn_ok and cross_ok
    _report(10, "special-function suite", ok,
            f"Wronskian {worst_wr}, Scorer ODE {ode_ok}, "
            f"connection formulas {conn_ok}, crossover continuity {cross_ok}",
            time.time() - t0, 5.0)


def test_criterion_11_husimi_ridge_follows_classical_momentum():
    t0 = time.time()
    params = params_from_kappa(HELIUM_IP, 2.0)
    base_width = 1.0 / math.sqrt(params.kappa_tilde)
    x_points = np.linspace(3.0 * params.x0, 6.0 * params.x0, 7)
    cell = 0.1
    p_grid = np.arange(0.0, 3.6 + cell / 2.0, cell)

    pad = 6.5 * base_width / params.x0
    xi_dense = np.linspace(-pad, 6.0 + pad, 4001)
    values = sfa.psi_position(params, xi_dense)
    psi = sfa.ComplexGrid1D(coordinates=params.x0 * xi_dense, values=values)

    p_classical = np.sqrt(2.0 * params.field * (x_points - params.x0))
    worst, ok = 0.0, True
    for width in (base_width, 0.7 * base_width):
        grid = husimi.husimi_grid(psi, x_points, p_grid, width)
        ridge = husimi.ridge_momenta(grid)
        dev = np.max(np.abs(ridge - p_classical))
        worst = max(worst, dev)
        ok = ok and dev <= cell
    _report(11, "Husimi ridge follows classical momentum", ok,
            f"max |ridge - classical| = {worst:.3f} <= one cell ({cell}) "
            f"for x in [3 x0, 6 x0] at two window widths",
            time.time() - t0, 60.0)
