"""Phase-space maps: coherent-state overlaps and ridge extraction."""

import json
import math

import numpy as np
import pytest

from tunnelclock import DomainError, HELIUM_IP, params_from_kappa
from tunnelclock import cli, husimi, sfa

import oracles


PARAMS = params_from_kappa(HELIUM_IP, 2.0)


def _position_grid(xi, values):
    return sfa.ComplexGrid1D(coordinates=PARAMS.x0 * np.asarray(xi, dtype=float),
                             values=np.asarray(values, dtype=complex))


def _gaussian_packet(xs, x0, p0, width):
    return ((1.0 / (math.pi * width * width)) ** 0.25
            * np.exp(-((xs - x0) ** 2) / (2.0 * width * width) + 1j * p0 * xs))


def test_gaussian_packet_peaks_at_its_own_phase_point():
    width = 0.7
    x0, p0 = 2.0, 1.3
    xi = np.linspace(-4.0, 8.0, 3001) / PARAMS.x0
    xs = xi * PARAMS.x0
    grid = _position_grid(xi, _gaussian_packet(xs, x0, p0, width))
    x_grid = np.linspace(1.0, 3.0, 21)
    p_grid = np.linspace(0.0, 2.6, 27)
    hg = husimi.husimi_grid(grid, x_grid, p_grid, width)
    i, j = np.unravel_index(np.argmax(hg.magnitude), hg.magnitude.shape)
    assert x_grid[i] == pytest.approx(x0, abs=x_grid[1] - x_grid[0])
    assert p_grid[j] == pytest.approx(p0, abs=p_grid[1] - p_grid[0])
    # self-overlap of a normalized coherent state with matching width is 1
    assert husimi.husimi_point(grid, x0, p0, width) == pytest.approx(1.0,
                                                                     abs=1e-6)


def test_translation_covariance():
    width = 0.6
    xi = np.linspace(-6.0, 10.0, 4001) / PARAMS.x0
    xs = xi * PARAMS.x0
    base = _gaussian_packet(xs, 1.0, 0.9, 0.8)
    shifted = _gaussian_packet(xs, 2.5, 0.9, 0.8)
    g0 = _position_grid(xi, base)
    g1 = _position_grid(xi, shifted)
    a = husimi.husimi_point(g0, 1.2, 0.9, width)
    b = husimi.husimi_point(g1, 2.7, 0.9, width)
    assert a == pytest.approx(b, rel=1e-6)


def test_scaling_by_constant():
    width = 0.6
    xi = np.linspace(-4.0, 6.0, 2001) / PARAMS.x0
    xs = xi * PARAMS.x0
    vals = _gaussian_packet(xs, 1.0, 0.5, 0.8)
    g1 = _position_grid(xi, vals)
    g2 = _position_grid(xi, (2.0 - 1.0j) * vals)
    h1 = husimi.husimi_grid(g1, np.linspace(0.5, 1.5, 5),
                            np.linspace(0.0, 1.0, 5), width)
    h2 = husimi.husimi_grid(g2, np.linspace(0.5, 1.5, 5),
                            np.linspace(0.0, 1.0, 5), width)
    assert np.allclose(h2.magnitude, abs(2.0 - 1.0j) * h1.magnitude,
                       rtol=1e-12)


def test_zero_state_gives_zero_map():
    xi = np.linspace(-4.0, 6.0, 501) / PARAMS.x0
    g = _position_grid(xi, np.zeros_like(xi))
    hg = husimi.husimi_grid(g, np.linspace(0.0, 1.0, 4),
                            np.linspace(0.0, 1.0, 4), 0.5)
    assert np.all(hg.magnitude == 0.0)


def test_coverage_error():
    xi = np.linspace(0.0, 2.0, 201) / PARAMS.x0
    g = _position_grid(xi, np.ones_like(xi))
    with pytest.raises(DomainError, match="does not span"):
        husimi.husimi_point(g, 1.9, 0.0, 0.5)


def test_width_must_be_positive():
    xi = np.linspace(-4.0, 4.0, 201) / PARAMS.x0
    g = _position_grid(xi, np.ones_like(xi))
    with pytest.raises(DomainError):
        husimi.husimi_point(g, 0.0, 0.0, -1.0)
    with pytest.raises(DomainError):
        husimi.husimi_grid(g, np.array([0.0, math.nan]), np.array([0.0]), 0.5)
    for bad in (math.nan, math.inf, -math.inf):
        for x, p, width in ((bad, 0.0, 0.5), (0.0, bad, 0.5), (0.0, 0.0, bad)):
            with pytest.raises(DomainError):
                husimi.husimi_point(g, x, p, width)


def test_ridge_monotone_approach_to_classical():
    """Deviation from sqrt(2F(x - x0)) shrinks with increasing x."""
    width = 1.0 / math.sqrt(PARAMS.kappa_tilde)
    x_lo, x_hi = 3.0 * PARAMS.x0, 7.0 * PARAMS.x0
    pad = 6.5 * width / PARAMS.x0
    xi = np.linspace(x_lo / PARAMS.x0 - pad, x_hi / PARAMS.x0 + pad, 3001)
    values = sfa.psi_position(PARAMS, xi)
    grid = _position_grid(xi, values)
    x_grid = np.linspace(x_lo, x_hi, 9)
    p_grid = np.linspace(0.5, 4.2, 741)  # fine p grid isolates the bias
    hg = husimi.husimi_grid(grid, x_grid, p_grid, width)
    ridge = husimi.ridge_momenta(hg)
    classical = np.sqrt(2.0 * PARAMS.field * (x_grid - PARAMS.x0))
    dev = np.abs(ridge - classical)
    assert dev[-1] < dev[0]
    assert dev.max() == dev[0]


def test_grid_matches_point_on_nonuniform_grid():
    """The one-product grid equals the plain weighted sum over a scattered
    grid's default trapezoid weights."""
    width = 1.0 / math.sqrt(PARAMS.kappa_tilde)
    rng = np.random.default_rng(3)
    xi = np.sort(np.concatenate([[-2.6, 5.8], rng.uniform(-2.6, 5.8, 2000)]))
    values = sfa.psi_position(PARAMS, xi)
    grid = _position_grid(xi, values)
    x_grid = np.linspace(1.0, 2.2, 7) * PARAMS.x0
    p_grid = np.linspace(0.0, 2.5, 11)
    hg = husimi.husimi_grid(grid, x_grid, p_grid, width)
    for i, j in zip(rng.integers(0, 7, 12), rng.integers(0, 11, 12)):
        point = oracles.husimi_sum(grid, x_grid[i], p_grid[j], width)
        assert hg.magnitude[i, j] == pytest.approx(point, rel=1e-12)


def test_grid_matches_point_where_windows_hold_subnormals():
    """At kappa 40 the windows' far tails fall below the smallest normal
    double; the one-product grid, which zeroes them, still equals the plain
    weighted sum, which keeps them."""
    params = params_from_kappa(HELIUM_IP, 40.0)
    width = 1.0 / math.sqrt(params.kappa_tilde)
    xi = np.linspace(-0.2, 3.2, 2001)
    grid = sfa.ComplexGrid1D(coordinates=params.x0 * xi,
                             values=sfa.psi_position(params, xi))
    x_grid = np.linspace(0.0, 3.0, 13) * params.x0
    p_grid = np.linspace(0.0, 4.0, 11)
    windows = np.exp(-((xi * params.x0)[None, :] - x_grid[:, None]) ** 2
                     / (2.0 * width * width))
    assert np.any((windows > 0.0) & (windows < np.finfo(float).tiny))
    hg = husimi.husimi_grid(grid, x_grid, p_grid, width)
    rng = np.random.default_rng(5)
    for i, j in zip(rng.integers(0, 13, 12), rng.integers(0, 11, 12)):
        point = oracles.husimi_sum(grid, x_grid[i], p_grid[j], width)
        assert hg.magnitude[i, j] == pytest.approx(point, rel=1e-12)


@pytest.mark.parametrize("kappa, flags, set_by", [
    (1.5, [], "source"), (3.0, [], "source"), (10.0, [], "source"),
    (40.0, [], "source"), (3.0, ["--width", "0.1"], "width"),
    (3.0, ["--width", "0.3", "--p-max", "12"], "width"),
    (3.0, ["--p-max", "20"], "wavenumber")])
def test_cli_map_matches_panels_a_quarter_as_wide(tmp_path, kappa, flags,
                                                  set_by):
    """The CLI integrates psi on husimi.psi_nodes, Gauss-Legendre panels with
    an edge at the kink x = 0; panels a quarter as wide move the map by less
    than 1e-13 of its max.  Panels 2 x0/kappa wide miss by 2.7e-4 at
    --width 0.1 and by 2.9e-9 at --p-max 20."""
    out = tmp_path / "h.csv"
    assert cli.main(["husimi", "--kappa", str(kappa), *flags,
                     "--out", str(out)]) == 0
    side = json.loads((tmp_path / "h.json").read_text())
    cfg, x0 = side["config"], side["model"]["x0"]
    width, p_max = cfg["width"], cfg["p_max"]
    params = params_from_kappa(HELIUM_IP, kappa)
    x, _, diagnostics = husimi.psi_nodes(params, cfg["x_max"], width, p_max)
    assert side["diagnostics"] == diagnostics
    assert diagnostics["panel_width_set_by"] == set_by
    assert diagnostics["psi_nodes"] == x.size
    x, weights, _ = husimi.psi_nodes(params, cfg["x_max"], width, p_max,
                                     refine=4)
    assert np.sum(weights[x < 0.0]) == pytest.approx(6.5 * width, rel=1e-13)
    fine = husimi.husimi_grid(
        sfa.ComplexGrid1D(coordinates=x, weights=weights,
                          values=sfa.psi_position(params, x / x0)),
        np.linspace(0.0, cfg["x_max"] * x0, cfg["n_x"]),
        np.linspace(0.0, p_max, cfg["n_p"]), width).magnitude.ravel()
    magnitude = np.loadtxt(out, delimiter=",", skiprows=1)[:, 2]
    assert np.max(np.abs(magnitude - fine)) <= 1e-13 * fine.max()
