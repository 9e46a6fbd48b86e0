"""Momentum-space solution, saddle forms, and the position transform."""

import math
import signal

import numpy as np
import pytest
from scipy.integrate import quad

from tunnelclock import DomainError, HELIUM_IP, params_from_kappa
from tunnelclock import sfa, specfun

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
    left = sfa.ionization_integral(PARAMS, 14.0)
    # full line = I(-(-14)) assembled from right tail by conjugation
    right_tail = sfa.ionization_integral(PARAMS, -14.0)
    full = left - np.conj(right_tail)
    assert abs(full.real) <= 1e-12 * abs(full)


def test_psi_momentum_modulus_is_ift_modulus():
    u = 1.3
    val = oracles.psi_momentum(PARAMS, u)
    assert abs(val) == pytest.approx(
        4.0 * PARAMS.x0 / PARAMS.kappa * abs(sfa.ionization_integral(PARAMS, u)),
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
    got = sfa.psi_position_saddle(PARAMS, xi)
    assert abs(complex(got) - ref) <= 1e-12 * abs(ref)


def test_position_transform_close_to_saddle_asymptote():
    """Numeric transform tracks the closed Airy/Scorer form in magnitude.

    The two representations differ by the O(1/sqrt(kappa)) saddle error in
    the overall constant, so only modest agreement is expected.
    """
    xi = np.linspace(3.0, 5.0, 201)
    got = np.abs(sfa.psi_position(PARAMS, xi))
    saddle = np.abs(np.atleast_1d(sfa.psi_position_saddle(PARAMS, xi)))
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
    """I(inf) = -i * integral g sin(kappa phi) is imaginary and U-free."""
    p = params_from_kappa(HELIUM_IP, kappa)
    narrow = sfa.PositionTransform(p, u_max=6.0).i_infinity
    wide = sfa.PositionTransform(p, u_max=48.0).i_infinity
    for value in (narrow, wide):
        assert abs(value.real) <= 1e-14 * abs(value)
    assert abs(narrow - wide) <= 1e-9 * abs(wide)


@pytest.mark.parametrize("kappa", [3.0, 5.0, 10.0])
def test_window_12_agrees_with_window_48(kappa):
    p = params_from_kappa(HELIUM_IP, kappa)
    probe = np.linspace(-4.0, 4.0, 9)
    narrow = sfa.PositionTransform(p, u_max=12.0).psi(probe)
    wide = sfa.PositionTransform(p, u_max=48.0).psi(probe)
    assert np.max(np.abs(narrow - wide)) <= 1e-7 * np.max(np.abs(wide))


def _probe_scale(transform):
    """max|psi| on the 9-point probe the truncation bound is relative to."""
    reach = min(transform.xi_abs_max, 4.0)
    return np.abs(transform.psi(np.linspace(-reach, reach, 9))).max()


@pytest.mark.parametrize("kappa", [2.6, 10.0])
def test_certified_transform_records_its_truncation_bound(kappa):
    """The returned window is small, and it records the closed-form bound
    880 pref / (13 kappa^4 U^13) of its own truncation, relative to the
    probe's max|psi|."""
    p = params_from_kappa(HELIUM_IP, kappa)
    transform = sfa._converged_transform(p, 6.0)
    assert transform.u_max == 6.0
    assert len(transform.nodes) <= 20_000
    bound = transform._pref * 880.0 / (13.0 * kappa ** 4 * 6.0 ** 13)
    assert transform.achieved_change == pytest.approx(
        bound / _probe_scale(transform), rel=1e-12)
    assert transform.achieved_change < sfa._WINDOW_REL_TOL == 1e-7
    assert transform.summary() == {
        "u_max": transform.u_max, "xi_abs_max": 6.0,
        "nodes": len(transform.nodes),
        "achieved_change": transform.achieved_change}


@pytest.mark.parametrize("xi_abs_max", [6.0, 40.0])
@pytest.mark.parametrize("kappa", [1.0, 2.0, 3.0, 5.0, 10.0, 20.0, 40.0])
def test_truncation_bound_covers_the_whole_xi_range(kappa, xi_abs_max):
    """On 401 points over all of |xi| <= xi_abs_max (the probe covers only
    |xi| <= 4), the certified window is within 1e-7 of max|psi| of a U = 24
    build, and within its recorded bound.  U = 24 has a truncation bound
    4^13 ~ 7e7 times below that of U = 6, so its own error is negligible;
    U = 48 would cost 8x the nodes (2.4M at kappa = 40)."""
    p = params_from_kappa(HELIUM_IP, kappa)
    transform = sfa._converged_transform(p, xi_abs_max)
    ref = sfa.PositionTransform(p, u_max=24.0, xi_abs_max=xi_abs_max)
    xi = np.linspace(-xi_abs_max, xi_abs_max, 401)
    got, want = (np.concatenate([t.psi(xi[i:i + 100])
                                 for i in range(0, xi.size, 100)])
                 for t in (transform, ref))
    diff = np.abs(got - want).max()
    assert diff <= 1e-7 * np.abs(want).max()
    assert diff <= transform.achieved_change * _probe_scale(transform)


def test_first_window_over_its_bound_is_widened():
    """At kappa = 0.3 the U = 6 bound (6e-7) fails and U = 12 is returned."""
    p = params_from_kappa(HELIUM_IP, 0.3)
    assert sfa.PositionTransform(p, u_max=6.0).achieved_change > 1e-7
    transform = sfa._converged_transform(p, 6.0)
    assert transform.u_max == 12.0
    assert transform.achieved_change < sfa._WINDOW_REL_TOL


def test_one_transform_build_per_cache_miss(monkeypatch):
    builds = []

    class Counted(sfa.PositionTransform):
        def __init__(self, *args, **kwargs):
            builds.append(kwargs.get("u_max"))
            super().__init__(*args, **kwargs)

    sfa._converged_transform.cache_clear()
    monkeypatch.setattr(sfa, "PositionTransform", Counted)
    try:
        sfa.psi_position(PARAMS, np.linspace(0.0, 3.0, 7))
        sfa.psi_position(PARAMS, 1.5)
    finally:
        sfa._converged_transform.cache_clear()
    assert builds == [6.0]


def test_psi_scattered_equals_uniform_grid_values():
    """Scattered xi (one row per point) and uniform xi (anchor times offset
    rows) give the same psi, on ascending and descending grids."""
    wide = np.linspace(-2.0, 9.9, 4001)
    for params, xi_abs_max, xi_uniform in [
            (PARAMS, 6.0, np.linspace(-0.5, 2.5, 97)),
            (params_from_kappa(HELIUM_IP, 40.0), 10.0, wide),
            (params_from_kappa(HELIUM_IP, 40.0), 10.0, wide[::-1])]:
        transform = sfa._converged_transform(params, xi_abs_max)
        pick = np.sort(np.random.default_rng(5).choice(
            xi_uniform.size, 23, replace=False))
        dense = transform.psi(xi_uniform)
        sparse = transform.psi(xi_uniform[pick])
        scale = np.abs(dense).max()
        assert np.max(np.abs(sparse - dense[pick])) <= 1e-13 * scale
        assert abs(transform.psi(xi_uniform[7]) - dense[7]) <= 1e-13 * scale


def test_progression_split_takes_every_linspace_grid_of_the_library():
    """The uniform grids psi and husimi_grid see split into isqrt(n) offsets;
    a scattered grid keeps B = 1, the plain sum."""
    eps = np.finfo(float).eps
    p = params_from_kappa(HELIUM_IP, 4.5)
    pad = 6.5 / math.sqrt(p.kappa_tilde) / p.x0
    husimi_xi = np.linspace(-pad, 3.0 + pad, 4001)
    grids = [np.linspace(0.0, 3.0, 121) - 6.0,  # wavefunction, as psi sees it
             np.linspace(0.0, 1.0, 513) - 6.0,  # larmor
             husimi_xi - max(6.0, np.abs(husimi_xi).max()),  # husimi psi
             husimi_xi * p.x0,  # husimi_grid positions
             np.linspace(-4.0, 4.0, 9) - 6.0]  # _converged_transform probe
    for grid in grids:
        for s in (grid, grid[::-1]):
            anchors, offsets = sfa._progression_split(s)
            assert offsets.size == math.isqrt(s.size) > 1
            split = (anchors[:, None] + offsets).ravel()[:s.size]
            assert np.max(np.abs(split - s)) <= 8.0 * eps * np.abs(s).max()
    scattered = np.sort(np.random.default_rng(5).uniform(-0.5, 2.5, 97))
    anchors, offsets = sfa._progression_split(scattered)
    assert offsets.size == 1 and np.array_equal(anchors, scattered)


@pytest.mark.parametrize("u_max, xi_abs_max", [
    (math.inf, 6.0), (math.nan, 6.0), (-6.0, 6.0), (0.0, 6.0),
    (12.0, math.nan), (12.0, -math.inf), (12.0, -3.0)])
def test_position_transform_rejects_bad_window(u_max, xi_abs_max):
    """DomainError within 1 s: U = inf, or xi_abs_max = -3, used to add
    panels forever, and U = NaN or -6 raised IndexError."""
    def timeout(signum, frame):
        raise TimeoutError("PositionTransform did not return within 1 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        with pytest.raises(DomainError):
            sfa.PositionTransform(PARAMS, u_max=u_max, xi_abs_max=xi_abs_max)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def test_wide_xi_window_holds_stationary_points():
    """For large |xi| the window grows to hold +-sqrt(xi - 1); no overflow."""
    p = params_from_kappa(HELIUM_IP, 10.0)
    with pytest.raises(DomainError):
        sfa.PositionTransform(p, u_max=6.0, xi_abs_max=100.0)
    transform = sfa._converged_transform(p, 100.0)
    assert transform.u_max ** 2 + 1.0 >= 100.0
    for bad in (math.nan, 100.5):
        with pytest.raises(DomainError):
            transform.psi(bad)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            sfa.psi_position(p, bad)
        with pytest.raises(DomainError):
            sfa.psi_position(p, np.array([0.0, bad]))
    xi = np.linspace(-100.0, 100.0, 41)
    with np.errstate(over="raise", invalid="raise"):
        got = transform.psi(xi)
    ref = sfa.PositionTransform(p, u_max=2.0 * transform.u_max,
                                xi_abs_max=100.0).psi(xi)
    assert np.max(np.abs(got - ref)) <= 1e-7 * np.max(np.abs(ref))


def test_psi_position_picks_its_own_range():
    """psi_position builds for max(6, max|xi|): |xi| up to 40 needs no range
    argument, and agrees with the doubled window over the whole range."""
    xi = np.linspace(-40.0, 40.0, 161)
    got = sfa.psi_position(PARAMS, xi)
    transform = sfa._transform_for(PARAMS, xi)
    assert transform.xi_abs_max == 40.0
    assert sfa._transform_for(PARAMS, [-2.0, 5.5]).xi_abs_max == 6.0
    ref = sfa.PositionTransform(PARAMS, u_max=2.0 * transform.u_max,
                                xi_abs_max=40.0).psi(xi)
    assert np.max(np.abs(got - ref)) <= 1e-7 * np.max(np.abs(ref))
