"""Command-line front end: scenario execution with CSV + JSON sidecar output.

Usage:
    tunnelclock <scenario> [--config FILE] [--ip X] [--field X | --kappa X]
                [--out PATH] [--threads N] [...scenario-specific flags]

Config files are JSON objects whose keys match the long flag names; flags
given on the command line override config-file values.  Every run writes a
CSV data file (17 significant digits) plus a `.json` sidecar recording the
fully resolved parameters, library version, tolerances, and convergence
diagnostics.  Exit codes: 0 success, 2 configuration error, 3 numeric
non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import warnings

import numpy as np

from . import __version__
from . import attoclock as attoclock_mod
from . import husimi as husimi_mod
from . import larmor as larmor_mod
from . import ppt as ppt_mod
from . import sfa, variational
from .errors import DomainError, NonConvergenceError
from .model import HELIUM_IP, derive_params, params_from_kappa

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGENCE = 3

_FMT = "%.17g"

SCENARIOS = ("params", "wavefunction", "husimi", "larmor", "attoclock",
             "variational", "ppt_spectrum", "scattering_demo", "validate")


class ConfigError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tunnelclock",
        description="Tunneling-time observables in a 1D static-field "
                    "ionization model.")
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name in SCENARIOS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", type=str, default=None,
                        help="JSON config file; flags override its values")
        sp.add_argument("--ip", type=float, default=None)
        sp.add_argument("--field", type=float, default=None)
        sp.add_argument("--kappa", type=float, default=None)
        sp.add_argument("--out", type=str, default=None)
        sp.add_argument("--threads", type=int, default=None,
                        help="reserved; evaluation is single-threaded")
        sp.add_argument("--seed", type=int, default=0,
                        help="reserved; all computations are deterministic")
        if name in ("wavefunction", "husimi", "larmor"):
            sp.add_argument("--x-max", type=float, default=None,
                            help="maximum position in units of x0")
            sp.add_argument("--n-x", type=int, default=None)
        if name == "husimi":
            sp.add_argument("--width", type=float, default=None,
                            help="coherent-state width (default 1/sqrt(kappa_tilde))")
            sp.add_argument("--p-max", type=float, default=None)
            sp.add_argument("--n-p", type=int, default=None)
        if name == "attoclock":
            sp.add_argument("--u-max", type=float, default=None)
            sp.add_argument("--n-u", type=int, default=None)
        if name == "variational":
            sp.add_argument("--dv", type=float, default=None)
        if name == "ppt_spectrum":
            sp.add_argument("--omega", type=float, default=None)
            sp.add_argument("--gamma", type=float, default=None)
            sp.add_argument("--envelope", type=str, default=None,
                            choices=("constant", "cos4"))
            sp.add_argument("--p-min", type=float, default=None)
            sp.add_argument("--p-max", type=float, default=None)
            sp.add_argument("--n-p", type=int, default=None)
            sp.add_argument("--n-theta", type=int, default=None)
        if name == "scattering_demo":
            sp.add_argument("--height", type=float, default=None)
            sp.add_argument("--half-width", type=float, default=None)
            sp.add_argument("--wavenumber", type=float, default=None)
    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    """Config-file values overridden by explicitly supplied flags."""
    merged: dict = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must contain a JSON object")
        for key, value in file_cfg.items():
            merged[key.replace("-", "_")] = value
    for key, value in vars(args).items():
        if key in ("config",):
            continue
        if value is not None:
            merged[key] = value
        else:
            merged.setdefault(key, None)
    return merged


_DEFAULTS = {
    "ip": HELIUM_IP,
    "kappa": 3.0,
    "x_max": 3.0,
    "n_x": 121,
    "width": None,
    "p_max": None,
    "n_p": 100,
    "u_max": 10.0,
    "n_u": 101,
    "dv": None,
    "omega": 0.569,
    "gamma": 1.0,
    "envelope": "cos4",
    "p_min": 0.2,
    "n_theta": 181,
    "height": 1.0,
    "half_width": 1.0,
    "wavenumber": 0.8,
}


def _resolve_model(cfg: dict):
    ip = cfg.get("ip")
    if ip is None:
        ip = _DEFAULTS["ip"]
        cfg["ip"] = ip
    field, kappa = cfg.get("field"), cfg.get("kappa")
    if field is not None and kappa is not None:
        raise ConfigError("supply exactly one of --field and --kappa")
    if field is not None:
        return derive_params(ip, field)
    if kappa is None:
        kappa = _DEFAULTS["kappa"]
        cfg["kappa"] = kappa
    return params_from_kappa(ip, kappa)


def _default(cfg: dict, key: str):
    value = cfg.get(key)
    if value is None:
        value = _DEFAULTS[key]
        cfg[key] = value
    return value


def _write_outputs(out_path: str, header, rows, sidecar: dict) -> None:
    side_path = os.path.splitext(out_path)[0] + ".json"
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_FMT % v if isinstance(v, float) else v
                                 for v in row])
        with open(side_path, "w", encoding="utf-8") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except BaseException:
        for path in (out_path, side_path):
            if os.path.exists(path):
                os.remove(path)
        raise


def _model_sidecar(params) -> dict:
    return {
        "ip": params.ip, "field": params.field,
        "kappa_tilde": params.kappa_tilde, "kappa": params.kappa,
        "x0": params.x0, "tau_tilde": params.tau_tilde,
    }


def _scenario_params(cfg, out):
    params = _resolve_model(cfg)
    rows = [[k, v] for k, v in sorted(_model_sidecar(params).items())]
    _write_outputs(out, ["quantity", "value"], rows,
                   {"scenario": "params", "model": _model_sidecar(params),
                    "config": cfg, "version": __version__})


def _scenario_wavefunction(cfg, out):
    params = _resolve_model(cfg)
    x_max = _default(cfg, "x_max")
    n_x = _default(cfg, "n_x")
    xi = np.linspace(0.0, x_max, n_x)
    transform = sfa._converged_transform(params, max(6.0, x_max + 0.5))
    values = transform.psi(xi)
    rows = [[params.x0 * x, v.real, v.imag] for x, v in zip(xi, values)]
    _write_outputs(out, ["x", "re_psi", "im_psi"], rows,
                   {"scenario": "wavefunction", "model": _model_sidecar(params),
                    "config": cfg, "version": __version__,
                    "transform": transform.summary()})


def _scenario_husimi(cfg, out):
    params = _resolve_model(cfg)
    x_max = _default(cfg, "x_max")
    n_x = _default(cfg, "n_x")
    width = cfg.get("width")
    if width is None:
        width = 1.0 / math.sqrt(params.kappa_tilde)
        cfg["width"] = width
    p_max = cfg.get("p_max")
    if p_max is None:
        p_max = float(math.sqrt(2.0 * params.field
                                * max(params.x0, (x_max - 1.0) * params.x0))
                      * 1.4 + 0.5)
        cfg["p_max"] = p_max
    n_p = _default(cfg, "n_p")
    pad = 6.5 * width / params.x0
    xi_dense = np.linspace(-pad, x_max + pad, 4001)
    transform = sfa._converged_transform(
        params, float(np.abs(xi_dense).max()) + 0.1)
    psi = sfa.ComplexGrid1D(coordinate_kind="position_xi", coordinates=xi_dense,
                            values=transform.psi(xi_dense), params=params)
    x_grid = np.linspace(0.0, x_max * params.x0, n_x)
    p_grid = np.linspace(0.0, p_max, n_p)
    hg = husimi_mod.husimi_grid(psi, x_grid, p_grid, width)
    rows = [[x, p, hg.magnitude[i, j]]
            for i, x in enumerate(x_grid) for j, p in enumerate(p_grid)]
    _write_outputs(out, ["x", "p", "magnitude"], rows,
                   {"scenario": "husimi", "model": _model_sidecar(params),
                    "config": cfg, "version": __version__,
                    "width": width,
                    "transform": transform.summary()})


def _scenario_larmor(cfg, out):
    params = _resolve_model(cfg)
    x_max = _default(cfg, "x_max")
    n_x = _default(cfg, "n_x")
    trace = larmor_mod.larmor_time_trace(params, x_max * params.x0, n=n_x)
    rows = [[x, t.real, t.imag]
            for x, t in zip(trace.positions, trace.times)]
    _write_outputs(out, ["x", "re_tau", "im_tau"], rows,
                   {"scenario": "larmor", "model": _model_sidecar(params),
                    "config": cfg, "version": __version__,
                    "plateau_re_tau": larmor_mod.plateau_time(params).real,
                    "transform": sfa._converged_transform(params, 6.0).summary()})


def _scenario_attoclock(cfg, out):
    params = _resolve_model(cfg)
    u_max = _default(cfg, "u_max")
    n_u = _default(cfg, "n_u")
    trace = attoclock_mod.attoclock_trace(params, u_max, n=n_u)
    rows = [[uu, xi, t] for uu, xi, t
            in zip(trace.u_values, trace.xi_values, trace.tau_a)]
    _write_outputs(out, ["u", "xi", "tau_a"], rows,
                   {"scenario": "attoclock", "model": _model_sidecar(params),
                    "config": cfg, "version": __version__,
                    "tau_tilde": params.tau_tilde,
                    "tolerances": {"quadrature_tol": 1e-10}})


def _scenario_variational(cfg, out):
    params = _resolve_model(cfg)
    dv = cfg.get("dv")
    res = variational.find_resonance(params)
    if dv is None:
        dv = 1e-5 * params.ip
        cfg["dv"] = dv
    tau = variational.larmor_time_variational(params, dv=dv)
    defect = abs(variational.consistency_determinant(params, res.energy))
    rows = [["re_energy", res.energy.real],
            ["im_energy", res.energy.imag],
            ["width_gamma", res.width],
            ["lifetime", res.lifetime],
            ["tau_variational", tau]]
    _write_outputs(out, ["quantity", "value"], rows,
                   {"scenario": "variational", "model": _model_sidecar(params),
                    "config": cfg, "version": __version__,
                    "diagnostics": {"matching_defect": defect},
                    "tolerances": {"dv": dv}})


def _scenario_ppt(cfg, out):
    ip = _default(cfg, "ip")
    omega = _default(cfg, "omega")
    gamma = _default(cfg, "gamma")
    envelope = _default(cfg, "envelope")
    pulse = ppt_mod.pulse_from_gamma(ip, omega, gamma, envelope)
    p_min = _default(cfg, "p_min")
    p_max = cfg.get("p_max")
    if p_max is None:
        p_max = 3.0 * math.sqrt(2.0 * ip) / gamma
        cfg["p_max"] = p_max
    n_p = _default(cfg, "n_p")
    n_theta = _default(cfg, "n_theta")
    p_grid = np.linspace(p_min, p_max, n_p)
    theta_grid = np.linspace(-math.pi, math.pi, n_theta)
    grid = ppt_mod.spectrum(pulse, p_grid, theta_grid)
    offset = ppt_mod.offset_angle(grid)
    rows = [[p, th, grid.weights[i, j]]
            for i, p in enumerate(p_grid) for j, th in enumerate(theta_grid)]
    _write_outputs(out, ["p", "theta", "weight"], rows,
                   {"scenario": "ppt_spectrum",
                    "pulse": {"a0": pulse.a0, "omega": omega, "ip": ip,
                              "gamma": gamma, "envelope": envelope},
                    "config": cfg, "version": __version__,
                    "offset_angle": offset,
                    "diagnostics": {
                        "unconverged_nodes": int(grid.flags.sum()),
                        "max_saddle_residual": float(
                            grid.saddle_residuals[~grid.flags].max()),
                        "newton_sweeps": grid.newton_sweeps,
                        "node_iterations": grid.node_iterations,
                        "out_of_pulse_nodes": grid.out_of_pulse_nodes}})


def _scenario_scattering(cfg, out):
    height = _default(cfg, "height")
    half_width = _default(cfg, "half_width")
    k = _default(cfg, "wavenumber")
    barrier = variational.square_barrier(height, half_width, k)
    tau_weak, tau_var = variational.scattering_equivalence(height, half_width, k)
    w_trans = abs(barrier.t - barrier.t_t)
    w_refl = abs(barrier.r * np.conj(barrier.t)
                 + np.conj(barrier.r_t) * barrier.t)
    rows = [["re_tau_weak", tau_weak.real],
            ["im_tau_weak", tau_weak.imag],
            ["tau_variational", tau_var],
            ["transmission_probability", abs(barrier.t) ** 2]]
    _write_outputs(out, ["quantity", "value"], rows,
                   {"scenario": "scattering_demo",
                    "barrier": {"height": height, "half_width": half_width,
                                "wavenumber": k},
                    "config": cfg, "version": __version__,
                    "diagnostics": {"wronskian_transmission": w_trans,
                                    "wronskian_reflection": w_refl},
                    "tolerances": {"overlap_tol": 1e-14}})


def _scenario_validate(cfg, out):
    """Fast invariant suite across the library."""
    checks = []

    params = params_from_kappa(cfg.get("ip") or HELIUM_IP,
                               cfg.get("kappa") or 3.0)
    cfg.setdefault("ip", params.ip)
    cfg.setdefault("kappa", params.kappa)

    from . import oscquad, specfun
    val = oscquad.cubic_phase_integral(3.0, 0.5)
    arg = 3.0 ** (2.0 / 3.0) * 0.5
    gi = specfun.scorer_gi(arg)
    ref = math.pi * 3.0 ** (-1.0 / 3.0) * (specfun.airy(arg).ai - 1j * gi)
    checks.append(("cubic_phase_vs_airy_scorer",
                   abs(val - ref) / abs(ref), 1e-7))

    bundle = specfun.airy(1.3 + 0.7j)
    checks.append(("airy_wronskian",
                   abs(bundle.wronskian() - 1.0 / math.pi), 1e-12))

    num_full, den_full = attoclock_mod.asymptotic_parity_split(params)
    parity = max(abs(num_full.imag) / abs(num_full),
                 abs(den_full.real) / abs(den_full))
    checks.append(("attoclock_parity_split", parity, 1e-8))

    tau_weak, tau_var = variational.scattering_equivalence(1.0, 1.0, 0.8)
    checks.append(("weak_vs_variational_time",
                   abs(tau_weak.real - tau_var) / abs(tau_var), 1e-6))
    barrier = variational.square_barrier(1.0, 1.0, 0.8)
    checks.append(("scattering_wronskian",
                   max(abs(barrier.t - barrier.t_t),
                       abs(barrier.r * np.conj(barrier.t)
                           + np.conj(barrier.r_t) * barrier.t)), 1e-12))

    rows = [[name, value, tol, "pass" if value <= tol else "fail"]
            for name, value, tol in checks]
    ok = all(r[3] == "pass" for r in rows)
    _write_outputs(out, ["check", "value", "tolerance", "status"], rows,
                   {"scenario": "validate", "config": cfg,
                    "version": __version__, "all_passed": ok})
    if not ok:
        raise NonConvergenceError("validation checks failed; see output CSV")


_RUNNERS = {
    "params": _scenario_params,
    "wavefunction": _scenario_wavefunction,
    "husimi": _scenario_husimi,
    "larmor": _scenario_larmor,
    "attoclock": _scenario_attoclock,
    "variational": _scenario_variational,
    "ppt_spectrum": _scenario_ppt,
    "scattering_demo": _scenario_scattering,
    "validate": _scenario_validate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        scenario = args.scenario
        out = cfg.get("out") or f"{scenario}.csv"
        cfg["out"] = out
        threads = cfg.get("threads")
        if threads is not None and threads < 1:
            raise ConfigError("--threads must be >= 1")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            _RUNNERS[scenario](cfg, out)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
