"""Momentum-space solution, saddle forms, and the position transform."""

import math
import signal

import numpy as np
import pytest
from scipy.integrate import quad

from tunnelclock import DomainError, HELIUM_IP, params_from_kappa
from tunnelclock import attoclock, sfa, specfun

import oracles


PARAMS = params_from_kappa(HELIUM_IP, 3.0)


def brute_even_part_integral(kappa: float, n_lobes: int = 1500) -> float:
    """Full-line integral of u/(1+u^2)^2 * sin(kappa (u^3/3 + u)).

    Lobe-by-lobe quadrature between zeros of the sine followed by repeated
    averaging of the alternating partial sums.  Independent of oscquad.
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
    partial = np.cumsum(lobes)
    tail = partial[-200:]
    for _ in range(12):
        tail = 0.5 * (tail[1:] + tail[:-1])
    return 2.0 * float(tail[-1])


def test_amplitude_closed_form_value():
    assert sfa.amplitude_A(PARAMS) == pytest.approx(
        -0.5 * math.sqrt(3.0 * math.pi) * math.exp(-2.0), rel=1e-14)
    assert sfa.amplitude_A(PARAMS) == pytest.approx(-0.2077, abs=2e-4)


def test_amplitude_requires_large_kappa():
    with pytest.raises(DomainError):
        sfa.amplitude_A(params_from_kappa(HELIUM_IP, 0.5))


def test_amplitude_vs_brute_quadrature_magnitude():
    """Saddle value vs the exact integral: O(1/sqrt(kappa)) magnitude error.

    The asymptotic branch choice behind the closed form produces the
    opposite overall sign to the true integral (the constant is absorbed
    into the downstream normalization), so magnitudes are compared.
    """
    prev = math.inf
    for kappa in (3.0, 5.0, 10.0):
        p = params_from_kappa(HELIUM_IP, kappa)
        brute = brute_even_part_integral(kappa)
        disc = abs(abs(sfa.amplitude_A(p)) - abs(brute)) / abs(brute)
        assert disc <= 1.5 / math.sqrt(kappa)
        assert disc < prev
        prev = disc


def test_ionization_integral_conjugation_parity():
    """g is odd and real, so I over the full line is purely imaginary."""
    left = oracles.ionization_integral(PARAMS, 14.0)
    # full line = I(-(-14)) assembled from right tail by conjugation
    right_tail = oracles.ionization_integral(PARAMS, -14.0)
    full = left - np.conj(right_tail)
    assert abs(full.real) <= 1e-12 * abs(full)


def test_psi_momentum_modulus_is_ift_modulus():
    u = 1.3
    val = oracles.psi_momentum(PARAMS, u)
    assert abs(val) == pytest.approx(
        4.0 * PARAMS.x0 / PARAMS.kappa * abs(oracles.ionization_integral(PARAMS, u)),
        rel=1e-12)


def test_saddle_momentum_form_magnitude():
    u = 2.0
    exact = abs(oracles.psi_momentum(PARAMS, u))
    saddle = abs(oracles.psi_momentum_saddle(PARAMS, u))
    assert saddle == pytest.approx(exact, rel=0.05)
    assert oracles.psi_momentum_saddle(PARAMS, -1.0) == 0j


def test_position_saddle_matches_airy_scorer_combination():
    xi = 1.8
    k = PARAMS.kappa
    arg = k ** (2.0 / 3.0) * (1.0 - xi)
    ref = (1j * math.sqrt(2.0) * math.pi * PARAMS.x0 * k ** (-5.0 / 6.0)
           * math.exp(-2.0 * k / 3.0)
           * (specfun.airy(arg).ai.real - 1j * specfun.scorer_gi(arg)))
    got = oracles.psi_position_saddle(PARAMS, xi)
    assert abs(complex(got) - ref) <= 1e-12 * abs(ref)


def test_position_transform_close_to_saddle_asymptote():
    """Numeric transform tracks the closed Airy/Scorer form in magnitude.

    The two representations differ by the O(1/sqrt(kappa)) saddle error in
    the overall constant, so only modest agreement is expected.
    """
    xi = np.linspace(3.0, 5.0, 201)
    got = np.abs(sfa.psi_position(PARAMS, xi))
    saddle = np.abs(np.atleast_1d(oracles.psi_position_saddle(PARAMS, xi)))
    # pointwise ratios are distorted near the Airy zeros; compare RMS.
    # The expected ratio is the exact-vs-saddle prefactor ratio ~0.97.
    rms_ratio = math.sqrt(float(np.mean(got ** 2) / np.mean(saddle ** 2)))
    assert rms_ratio == pytest.approx(0.972, abs=0.06)


def test_position_transform_uniform_fast_path_consistency():
    xi_uniform = np.linspace(-0.5, 2.5, 97)
    rng = np.random.default_rng(5)
    xi_scattered = np.sort(rng.uniform(-0.5, 2.5, 23))
    dense = sfa.psi_position(PARAMS, xi_uniform)
    sparse = sfa.psi_position(PARAMS, xi_scattered)
    interp_re = np.interp(xi_scattered, xi_uniform, dense.real)
    interp_im = np.interp(xi_scattered, xi_uniform, dense.imag)
    scale = np.abs(dense).max()
    assert np.max(np.abs(sparse - (interp_re + 1j * interp_im))) <= 2e-3 * scale


def test_complex_grid_validation():
    with pytest.raises(DomainError):
        sfa.ComplexGrid1D(coordinates=np.array([1.0, 0.0]),
                          values=np.array([0j, 1j]))
    for weights in (np.ones(3), np.array([1.0, np.nan])):
        with pytest.raises(DomainError):
            sfa.ComplexGrid1D(coordinates=np.array([0.0, 1.0]),
                              values=np.array([0j, 1j]), weights=weights)


def test_complex_grid_weights_default_to_the_trapezoid_rule():
    x = np.sort(np.random.default_rng(7).uniform(-1.0, 2.0, 40))
    values = np.exp(1j * x) * (1.0 + x * x)
    grid = sfa.ComplexGrid1D(coordinates=x, values=values)
    assert np.sum(grid.weights * values) == pytest.approx(
        np.trapezoid(values, x), rel=1e-14)


def test_bound_overlap_odd_and_decaying():
    """The bound-continuum coupling is odd in u' and decays like 1/u'^3."""
    for u in (0.3, 1.0, 2.5):
        plus = complex(oracles.bound_overlap(PARAMS, u))
        minus = complex(oracles.bound_overlap(PARAMS, -u))
        assert abs(plus + minus) <= 1e-15
    mags = [abs(complex(oracles.bound_overlap(PARAMS, u)))
            for u in (1.0, 3.0, 9.0)]
    assert mags[0] > mags[1] > mags[2]
    assert mags[2] <= mags[1] * (3.0 / 9.0) ** 3 * 1.5


@pytest.mark.parametrize("kappa", [2.6, 4.0, 8.0])
def test_i_infinity_imaginary_and_window_independent(kappa):
    """I(inf) = -i * integral g sin(kappa phi) is imaginary and U-free: the
    u-space oracle's value from its U = 6 window gives the window-free
    Green's constant C = -i K A = c I(inf) pi kappa^{-1/3} to 1e-13."""
    p = params_from_kappa(HELIUM_IP, kappa)
    oracle = oracles.UWindowTransform(p, u_max=6.0)
    assert abs(oracle.i_infinity.real) <= 1e-14 * abs(oracle.i_infinity)
    want = oracle._pref * oracle.i_infinity * math.pi * kappa ** (-1.0 / 3.0)
    got = sfa.PositionTransform(p).asymptotic_c
    assert got.real == 0.0
    assert abs(got - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("kappa", [2.0, 3.0, 5.0])
def test_green_amplitude_gives_the_parity_split_denominator(kappa):
    """D(inf) = I(inf) = -i (pi/2) kappa^{5/3} A, against the oscillatory
    quadrature of attoclock.asymptotic_parity_split."""
    p = params_from_kappa(HELIUM_IP, kappa)
    want = attoclock.asymptotic_parity_split(p)[1]
    got = -0.5j * math.pi * kappa ** (5.0 / 3.0) \
        * sfa.PositionTransform(p).amplitude
    assert abs(got - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("kappa", [3.0, 5.0, 10.0])
def test_psi_agrees_with_the_window_12_oracle(kappa):
    """At U = 12 the oracle's truncation bound is 2^13 below U = 6, and what
    is left is its own panel error: within 1e-11 of max|psi| (2.4e-12 at
    kappa = 3), four orders below 1e-7."""
    p = params_from_kappa(HELIUM_IP, kappa)
    probe = np.linspace(-4.0, 4.0, 9)
    want = oracles.UWindowTransform(p, u_max=12.0).psi(probe)
    got = sfa.psi_position(p, probe)
    assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


@pytest.mark.parametrize("kappa", [2.0, 10.0, 40.0])
def test_green_amplitude_matches_30_digit_mpmath(kappa):
    """A = int Ai s over the line, by 30-digit mp.quad; at kappa = 40 also
    psi at three points, one just left of the source kink, to 1e-13 of
    max|psi| (7.8e-14 there, where a partial panel interpolates a factor
    e^4 of variation)."""
    mpmath = pytest.importorskip("mpmath")
    p = params_from_kappa(HELIUM_IP, kappa)
    stops = [-0.5 / kappa, 0.5, 1.5] if kappa == 40.0 else []
    with mpmath.workdps(30):
        amplitude, psi = oracles.psi_green_by_mpmath(mpmath, p, stops)
    transform = sfa._transform_for(p, stops)
    assert abs(transform.amplitude - float(amplitude)) <= 1e-13 * float(amplitude)
    if stops:
        scale = np.abs(sfa.psi_position(p, np.linspace(-1.0, 3.0, 401))).max()
        assert np.max(np.abs(transform.psi(stops) - psi)) <= 1e-13 * scale


@pytest.mark.parametrize("kappa", [2.6, 10.0])
def test_certified_transform_records_its_truncation_bound(kappa):
    """The build records where it truncates the source integrals: the
    support [lo, hi] with hi = 2/3 + 42/kappa and lo where the L tail has
    fallen by e^-40 left of the leftmost point it serves, on 16-node panels
    with an edge at the kink xi = 0."""
    p = params_from_kappa(HELIUM_IP, kappa)
    transform = sfa._converged_transform(p, -1.0)
    lo = -1.0 - 40.0 / (kappa * (1.0 + math.sqrt(2.0)))
    assert transform.lo == pytest.approx(lo, rel=1e-15)
    assert transform.hi == pytest.approx(2.0 / 3.0 + 42.0 / kappa, rel=1e-15)
    assert 0.0 in transform.edges
    assert np.all(np.diff(transform.edges) <= transform.panel_width * (1 + 1e-12))
    assert len(transform.nodes) == 16 * (transform.edges.size - 1) <= 2_000
    assert transform.summary() == {
        "nodes": len(transform.nodes), "panels": transform.edges.size - 1,
        "support": [transform.lo, transform.hi]}


@pytest.mark.parametrize("xi_abs_max", [6.0, 40.0])
@pytest.mark.parametrize("kappa", [1.0, 2.0, 3.0, 5.0, 10.0, 20.0, 40.0])
def test_truncation_bound_covers_the_whole_xi_range(kappa, xi_abs_max):
    """On 401 points over all of |xi| <= xi_abs_max, psi is within the
    u-space oracle's own truncation bound 880 c/(13 kappa^4 U^13) of it,
    at the narrowest window U >= 6 holding the stationary points
    (0.79-0.84 times the bound: that is the oracle's error), and within
    1e-7 of max|psi|."""
    p = params_from_kappa(HELIUM_IP, kappa)
    u_max = max(6.0, math.sqrt(xi_abs_max - 1.0) + 0.5)
    oracle = oracles.UWindowTransform(p, u_max=u_max, xi_abs_max=xi_abs_max)
    xi = np.linspace(-xi_abs_max, xi_abs_max, 401)
    want = np.concatenate([oracle.psi(xi[i:i + 100])
                           for i in range(0, xi.size, 100)])
    diff = np.abs(sfa.psi_position(p, xi) - want).max()
    assert diff <= 1e-7 * np.abs(want).max()
    assert diff <= oracle.truncation_bound


def test_first_window_over_its_bound_is_widened():
    """At kappa = 0.3 the oracle's U = 6 bound (6e-7 of max|psi|) fails the
    1e-7 level, and psi is within the bound of the widened U = 12 window."""
    p = params_from_kappa(HELIUM_IP, 0.3)
    assert oracles.UWindowTransform(p, u_max=6.0).achieved_change > 1e-7
    oracle = oracles.UWindowTransform(p, u_max=12.0)
    assert oracle.achieved_change < 1e-7
    xi = np.linspace(-6.0, 6.0, 401)
    assert np.abs(sfa.psi_position(p, xi) - oracle.psi(xi)).max() \
        <= oracle.truncation_bound


def test_one_transform_build_per_cache_miss(monkeypatch):
    builds = []

    class Counted(sfa.PositionTransform):
        def __init__(self, *args, **kwargs):
            builds.append(args[1])
            super().__init__(*args, **kwargs)

    sfa._converged_transform.cache_clear()
    monkeypatch.setattr(sfa, "PositionTransform", Counted)
    try:
        sfa.psi_position(PARAMS, np.linspace(0.0, 3.0, 7))
        sfa.psi_position(PARAMS, 1.5)
        sfa.psi_position(PARAMS, [-2.5, 40.0])
    finally:
        sfa._converged_transform.cache_clear()
    assert builds == [-8.0 / PARAMS.kappa]


def test_psi_scattered_equals_uniform_grid_values():
    """Scattered and uniform xi, ascending or descending, give the same
    psi at the same points: each point is evaluated on its own."""
    wide = np.linspace(-0.15, 9.9, 4001)
    for params, xi_uniform in [
            (PARAMS, np.linspace(-0.5, 2.5, 97)),
            (params_from_kappa(HELIUM_IP, 40.0), wide),
            (params_from_kappa(HELIUM_IP, 40.0), wide[::-1])]:
        transform = sfa._transform_for(params, xi_uniform)
        pick = np.sort(np.random.default_rng(5).choice(
            xi_uniform.size, 23, replace=False))
        dense = transform.psi(xi_uniform)
        sparse = transform.psi(xi_uniform[pick])
        scale = np.abs(dense).max()
        assert np.max(np.abs(sparse - dense[pick])) <= 1e-13 * scale
        assert abs(transform.psi(xi_uniform[7]) - dense[7]) <= 1e-13 * scale


def test_progression_split_takes_every_linspace_grid_of_the_library():
    """Uniform grids, such as those UWindowTransform.psi walks, split into
    isqrt(n) offsets to within 8 eps of the grid; a scattered grid keeps
    B = 1, the plain sum."""
    eps = np.finfo(float).eps
    grids = []
    for kappa in (2.0, 4.5, 40.0):
        p = params_from_kappa(HELIUM_IP, kappa)
        pad = 6.5 / math.sqrt(p.kappa_tilde) / p.x0
        grids.append(np.linspace(-pad, 3.0 + pad, 4001) * p.x0)
    grids.append(np.linspace(-0.5, 2.5, 97))
    for grid in grids:
        for s in (grid, grid[::-1]):
            anchors, offsets = oracles._progression_split(s)
            assert offsets.size == math.isqrt(s.size) > 1
            split = (anchors[:, None] + offsets).ravel()[:s.size]
            assert np.max(np.abs(split - s)) <= 8.0 * eps * np.abs(s).max()
    scattered = np.sort(np.random.default_rng(5).uniform(-0.5, 2.5, 97))
    anchors, offsets = oracles._progression_split(scattered)
    assert offsets.size == 1 and np.array_equal(anchors, scattered)


@pytest.mark.parametrize("u_max, xi_abs_max", [
    (math.inf, 6.0), (math.nan, 6.0), (-6.0, 6.0), (0.0, 6.0),
    (12.0, math.nan), (12.0, -math.inf), (12.0, -3.0)])
def test_position_transform_rejects_bad_window(u_max, xi_abs_max):
    """The u-space oracle refuses a bad window with DomainError within 1 s:
    U = inf, or xi_abs_max = -3, used to add panels forever, and U = NaN or
    -6 raised IndexError."""
    def timeout(signum, frame):
        raise TimeoutError("UWindowTransform did not return within 1 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        with pytest.raises(DomainError):
            oracles.UWindowTransform(PARAMS, u_max=u_max, xi_abs_max=xi_abs_max)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_xi_is_a_domain_error_naming_xi(bad):
    p = params_from_kappa(HELIUM_IP, 10.0)
    for xi in (bad, np.array([0.0, bad])):
        with pytest.raises(DomainError, match="xi"):
            sfa.psi_position(p, xi)
        with pytest.raises(DomainError, match="xi"):
            sfa.PositionTransform(p).psi(xi)
    with pytest.raises(DomainError, match="xi"):
        sfa.PositionTransform(p, bad)


def test_far_left_psi_is_finite_where_bi_overflows():
    """At kappa = 60, xi = -6 (z = 107), Bi overflows a double: psi comes
    from e^{+-zeta}-scaled Airy values, finite, with no overflow or invalid
    operation, and a point left of a build's support is a DomainError."""
    p = params_from_kappa(HELIUM_IP, 60.0)
    xi = np.linspace(-6.0, 3.0, 91)
    with np.errstate(over="raise", invalid="raise"):
        got = sfa.psi_position(p, xi)
    assert np.all(np.isfinite(got.real) & np.isfinite(got.imag))
    assert np.abs(got[0]) <= 1e-100 * np.abs(got).max()
    with pytest.raises(DomainError, match="xi"):
        sfa.PositionTransform(p).psi(-6.0)


def test_wide_xi_window_holds_stationary_points():
    """The oracle's window must hold the stationary points +-sqrt(xi - 1)
    of |xi| <= 100; psi over that whole range (z up to 470, far past Bi's
    overflow) agrees with the oracle's widened window to 1e-7 of max|psi|,
    with no overflow."""
    p = params_from_kappa(HELIUM_IP, 10.0)
    with pytest.raises(DomainError):
        oracles.UWindowTransform(p, u_max=6.0, xi_abs_max=100.0)
    xi = np.linspace(-100.0, 100.0, 41)
    with np.errstate(over="raise", invalid="raise"):
        got = sfa.psi_position(p, xi)
    ref = oracles.UWindowTransform(p, u_max=2.0 * (math.sqrt(99.0) + 0.5),
                                   xi_abs_max=100.0).psi(xi)
    assert np.max(np.abs(got - ref)) <= 1e-7 * np.max(np.abs(ref))


def test_psi_position_picks_its_own_range():
    """psi_position builds for the leftmost point it is asked for: |xi| up
    to 40 needs no range argument and agrees with the doubled oracle window
    over the whole range, and a request inside the shared reach reuses the
    model's one build."""
    xi = np.linspace(-40.0, 40.0, 161)
    got = sfa.psi_position(PARAMS, xi)
    assert sfa._transform_for(PARAMS, xi).lo < -40.0
    shared = sfa._transform_for(PARAMS, [0.0, 1.0])
    assert sfa._transform_for(PARAMS, [-2.0, 5.5]) is shared
    assert sfa._transform_for(PARAMS, [-2.7, 5.5]) is not shared
    ref = oracles.UWindowTransform(PARAMS, u_max=2.0 * (math.sqrt(39.0) + 0.5),
                                   xi_abs_max=40.0).psi(xi)
    assert np.max(np.abs(got - ref)) <= 1e-7 * np.max(np.abs(ref))
