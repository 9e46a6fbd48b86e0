"""Command-line front end: scenario execution with CSV + JSON sidecar output.

Usage:
    tunnelclock <scenario> [--config FILE] [--out PATH] [scenario options]

Each scenario takes only the options it reads; `tunnelclock <scenario> -h`
lists them.  Config files are JSON objects whose keys match the scenario's
long flag names; flags override config-file values.  An unknown or ill-typed
key, a number that is not finite and positive, or an --out that its own
sidecar would overwrite is a configuration error.  Every run writes a CSV
(17 significant digits) plus a `.json` sidecar recording the resolved
options, library version and diagnostics; both replace their targets
atomically.  Exit codes: 0 success, 2 configuration error, 3 numeric
non-convergence or a failed `validate` check.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import os
import shutil
import sys
import uuid
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from . import attoclock as attoclock_mod
from . import husimi as husimi_mod
from . import larmor as larmor_mod
from . import oscquad, specfun
from . import ppt as ppt_mod
from . import sfa, variational
from .errors import DomainError, NonConvergenceError
from .model import HELIUM_IP, derive_params, params_from_kappa

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGENCE = 3

_FMT = "%.17g"


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class Option:
    """One scenario option; every numeric option must be finite and positive.

    `default` is a value, or a function of the options resolved before this
    one and of the model parameters (None in scenarios without a model).
    """

    name: str
    type: type
    default: object
    help: str
    choices: tuple | None = None


_IP = Option("ip", float, HELIUM_IP, "ionization potential (a.u.)")
_MODEL = (
    _IP,
    Option("field", float, None, "static field (a.u.); excludes --kappa"),
    Option("kappa", float, lambda cfg, _: 3.0 if cfg["field"] is None else None,
           "barrier parameter ip*sqrt(2 ip)/field (default 3)"),
)
_X_GRID = (Option("x_max", float, 3.0, "maximum position in units of x0"),
           Option("n_x", int, 121, "number of positions"))


def _params(cfg, params):
    rows = [[k, v] for k, v in sorted(asdict(params).items())]
    return ["quantity", "value"], rows, {}


def _wavefunction(cfg, params):
    xi = np.linspace(0.0, cfg["x_max"], cfg["n_x"])
    transform = sfa._transform_for(params, xi)
    values = transform.psi(xi)
    rows = np.column_stack([params.x0 * xi, values.real, values.imag])
    return ["x", "re_psi", "im_psi"], rows, {"transform": transform.summary()}


def _husimi(cfg, params):
    x0, width, p_max = params.x0, cfg["width"], cfg["p_max"]
    x_nodes, weights, diagnostics = husimi_mod.psi_nodes(
        params, cfg["x_max"], width, p_max)
    transform = sfa._transform_for(params, x_nodes / x0)
    psi = sfa.ComplexGrid1D(coordinates=x_nodes, weights=weights,
                            values=transform.psi(x_nodes / x0))
    x_grid = np.linspace(0.0, cfg["x_max"] * x0, cfg["n_x"])
    p_grid = np.linspace(0.0, p_max, cfg["n_p"])
    hg = husimi_mod.husimi_grid(psi, x_grid, p_grid, width)
    x_mesh, p_mesh = np.meshgrid(x_grid, p_grid, indexing="ij")
    rows = np.column_stack([x_mesh.ravel(), p_mesh.ravel(),
                            hg.magnitude.ravel()])
    return ["x", "p", "magnitude"], rows, {
        "width": width, "transform": transform.summary(),
        "diagnostics": diagnostics}


def _larmor(cfg, params):
    trace = larmor_mod.larmor_time_trace(params, cfg["x_max"] * params.x0,
                                         n=cfg["n_x"])
    rows = np.column_stack([trace.positions, trace.times.real,
                            trace.times.imag])
    # The trace ends beyond the tunnel exit, where it is exactly flat; it
    # reads psi on the barrier, xi in [0, 1].
    return ["x", "re_tau", "im_tau"], rows, {
        "plateau_re_tau": float(trace.times[-1].real),
        "transform": sfa._transform_for(params, 0.0).summary()}


def _attoclock(cfg, params):
    trace = attoclock_mod.attoclock_trace(params, cfg["u_max"], n=cfg["n_u"])
    rows = np.column_stack([trace.u_values, trace.xi_values,
                            trace.tau_a])
    return ["u", "xi", "tau_a"], rows, {
        "tau_tilde": params.tau_tilde}


def _variational(cfg, params):
    res = variational.find_resonance(params)
    tau = variational.larmor_time_variational(params)
    defect = abs(variational.consistency_determinant(params, res.energy))
    rows = [["re_energy", res.energy.real],
            ["im_energy", res.energy.imag],
            ["width_gamma", res.width],
            ["lifetime", res.lifetime],
            ["tau_variational", tau]]
    return ["quantity", "value"], rows, {
        "diagnostics": {"matching_defect": defect,
                        "newton_steps": res.newton_steps}}


def _ppt(cfg, _):
    pulse = ppt_mod.pulse_from_gamma(cfg["ip"], cfg["omega"], cfg["gamma"],
                                     cfg["envelope"])
    p_grid = np.linspace(cfg["p_min"], cfg["p_max"], cfg["n_p"])
    # exactly antisymmetric, so spectrum solves each |theta| once
    lin = np.linspace(-math.pi, math.pi, cfg["n_theta"])
    theta_grid = 0.5 * (lin - lin[::-1])
    grid = ppt_mod.spectrum(pulse, p_grid, theta_grid)
    p_mesh, theta_mesh = np.meshgrid(p_grid, theta_grid, indexing="ij")
    rows = np.column_stack([p_mesh.ravel(), theta_mesh.ravel(),
                            grid.weights.ravel()])
    return ["p", "theta", "weight"], rows, {
        "pulse": asdict(pulse),
        "offset_angle": ppt_mod.offset_angle(grid),
        "diagnostics": {
            "unconverged_nodes": int(grid.flags.sum()),
            "max_saddle_residual": float(
                grid.saddle_residuals[~grid.flags].max()),
            "newton_sweeps": grid.newton_sweeps,
            "node_iterations": grid.node_iterations,
            "solved_nodes": grid.solved_nodes}}


def _wronskian_defects(barrier):
    """|T - T_t| and |R T* + R_t* T|, both 0 for exact scattering states."""
    return (abs(barrier.t - barrier.t_t),
            abs(barrier.r * np.conj(barrier.t)
                + np.conj(barrier.r_t) * barrier.t))


def _scattering(cfg, _):
    height, half_width, k = cfg["height"], cfg["half_width"], cfg["wavenumber"]
    barrier = variational.square_barrier(height, half_width, k)
    tau_weak, tau_var = variational.scattering_equivalence(height, half_width, k)
    w_trans, w_refl = _wronskian_defects(barrier)
    rows = [["re_tau_weak", tau_weak.real],
            ["im_tau_weak", tau_weak.imag],
            ["tau_variational", tau_var],
            ["transmission_probability", abs(barrier.t) ** 2]]
    return ["quantity", "value"], rows, {
        "barrier": {"height": height, "half_width": half_width,
                    "wavenumber": k},
        "diagnostics": {"wronskian_transmission": w_trans,
                        "wronskian_reflection": w_refl}}


def _validate(cfg, params):
    """Fast invariant suite across the library; exit 3 if a check fails."""
    checks = []

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
    checks.append(("scattering_wronskian", max(_wronskian_defects(
        variational.square_barrier(1.0, 1.0, 0.8))), 1e-12))

    rows = [[name, value, tol, "pass" if value <= tol else "fail"]
            for name, value, tol in checks]
    return ["check", "value", "tolerance", "status"], rows, {
        "all_passed": all(r[3] == "pass" for r in rows)}


# scenario -> (compute, options).  compute(cfg, params) returns the CSV
# header, its rows and the scenario's own sidecar entries; params is the
# ModelParams of a scenario that takes the _MODEL options, else None.
SCENARIOS = {
    "params": (_params, _MODEL),
    "wavefunction": (_wavefunction, _MODEL + _X_GRID),
    "husimi": (_husimi, _MODEL + _X_GRID + (
        Option("width", float, lambda cfg, p: 1.0 / math.sqrt(p.kappa_tilde),
               "coherent-state width (default 1/sqrt(kappa_tilde))"),
        Option("p_max", float, lambda cfg, p: float(math.sqrt(
            2.0 * p.field * max(p.x0, (cfg["x_max"] - 1.0) * p.x0)) * 1.4 + 0.5),
            "largest momentum (default from the classical one at x_max)"),
        Option("n_p", int, 100, "number of momenta"))),
    "larmor": (_larmor, _MODEL + _X_GRID),
    "attoclock": (_attoclock, _MODEL + (
        Option("u_max", float, 10.0, "largest detector coordinate u"),
        Option("n_u", int, 101, "number of u values"))),
    "variational": (_variational, _MODEL),
    "ppt_spectrum": (_ppt, (
        _IP,
        Option("omega", float, 0.569, "laser frequency (a.u.)"),
        Option("gamma", float, 1.0, "Keldysh parameter"),
        Option("envelope", str, "cos4", "pulse envelope", ("constant", "cos4")),
        Option("p_min", float, 0.2, "smallest momentum"),
        Option("p_max", float,
               lambda cfg, _: 3.0 * math.sqrt(2.0 * cfg["ip"]) / cfg["gamma"],
               "largest momentum (default 3 sqrt(2 ip)/gamma)"),
        Option("n_p", int, 100, "number of momenta"),
        Option("n_theta", int, 181, "number of emission angles"))),
    "scattering_demo": (_scattering, (
        Option("height", float, 1.0, "square-barrier height"),
        Option("half_width", float, 1.0, "square-barrier half-width"),
        Option("wavenumber", float, 0.8, "incident wavenumber"))),
    "validate": (_validate, _MODEL),
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every scenario, built on the first call and reused."""
    parser = argparse.ArgumentParser(
        prog="tunnelclock",
        description="Tunneling-time observables in a 1D static-field "
                    "ionization model.")
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name, (_, options) in SCENARIOS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config",
                        help="JSON config file; flags override its values")
        sp.add_argument("--out", help=f"output CSV (default {name}.csv)")
        for opt in options:
            text = opt.help
            if opt.default is not None and not callable(opt.default):
                text += f" (default {opt.default})"
            sp.add_argument(_flag(opt.name), type=opt.type, choices=opt.choices,
                            help=text)
    return parser


def _sidecar_path(out_path: str) -> str:
    return os.path.splitext(out_path)[0] + ".json"


def _checked(opt: Option, value):
    if opt.type is float and type(value) is int:
        value = float(value)
    if type(value) is not opt.type:
        raise ConfigError(f"{_flag(opt.name)} must be of type "
                          f"{opt.type.__name__}, got {value!r}")
    if opt.choices is not None and value not in opt.choices:
        raise ConfigError(f"{_flag(opt.name)} must be one of {opt.choices}")
    if opt.type is not str and not (math.isfinite(value) and value > 0):
        raise ConfigError(f"{_flag(opt.name)} must be finite and positive, "
                          f"got {value!r}")
    return value


def _resolve(args: argparse.Namespace):
    """The resolved config that the sidecar records, and the model (or None).

    Config-file values are overridden by explicitly supplied flags; unset
    options take their defaults.
    """
    options = SCENARIOS[args.scenario][1]
    names = {"out"} | {opt.name for opt in options}
    given: dict = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must contain a JSON object")
        for key, value in file_cfg.items():
            if key.replace("-", "_") not in names:
                raise ConfigError(f"unknown config key {key!r} for scenario "
                                  f"{args.scenario}")
            given[key.replace("-", "_")] = value
    given.update((name, getattr(args, name)) for name in names
                 if getattr(args, name) is not None)

    out = given.get("out") or f"{args.scenario}.csv"
    if not isinstance(out, str):
        raise ConfigError(f"--out must be a path, got {out!r}")
    if os.path.abspath(_sidecar_path(out)) == os.path.abspath(out):
        raise ConfigError(f"--out {out!r} would be overwritten by its sidecar")
    if not os.path.isdir(os.path.dirname(os.path.abspath(out))):
        raise ConfigError(f"--out {out!r}: no such directory")

    cfg = {"scenario": args.scenario, "out": out}
    params = None
    for opt in options:
        value = given.get(opt.name)
        if value is None and callable(opt.default):
            value = opt.default(cfg, params)
        elif value is None:
            value = opt.default
        cfg[opt.name] = None if value is None else _checked(opt, value)
        if opt is _MODEL[-1]:  # the model options are complete
            if cfg["field"] is not None and cfg["kappa"] is not None:
                raise ConfigError("supply exactly one of --field and --kappa")
            params = (derive_params(cfg["ip"], cfg["field"])
                      if cfg["field"] is not None
                      else params_from_kappa(cfg["ip"], cfg["kappa"]))
    return cfg, params


def _write_table(fh, table: np.ndarray) -> None:
    """csv.writer's bytes for rows of _FMT strings, built by column in
    4096-row blocks (about 1 MB in flight): each distinct bit pattern of a
    block's column (0.0 and -0.0 differ) is formatted once."""
    for start in range(0, len(table), 4096):
        block = table[start:start + 4096]
        cells = np.empty((len(block), 2 * block.shape[1]), dtype=object)
        cells[:, 1::2] = [","] * (block.shape[1] - 1) + ["\r\n"]
        for j, column in enumerate(block.view(np.int64).T):
            bits, index = np.unique(column, return_inverse=True)
            text = [_FMT % v for v in bits.view(np.float64).tolist()]
            cells[:, 2 * j] = np.array(text, dtype=object)[index]
        fh.write("".join(cells.ravel().tolist()))


def _write_outputs(out_path: str, header, rows, sidecar: dict) -> None:
    """Write the CSV and its sidecar atomically.

    Each file goes to a temporary file beside its target and is renamed over
    the target only once both are complete, so a failed write leaves
    existing files untouched and no partial or temporary file behind.
    """
    temps: dict = {}
    try:
        for path in (out_path, _sidecar_path(out_path)):
            temps[path] = tmp = f"{path}.{uuid.uuid4().hex}.tmp"
            # Mode 0o666 less the umask, as open(path, "w") gives a new file.
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            with open(fd, "w", encoding="utf-8", newline="") as fh:
                if path == out_path:
                    writer = csv.writer(fh)
                    writer.writerow(header)
                    if isinstance(rows, np.ndarray):
                        _write_table(fh, rows)
                    else:
                        writer.writerows([_FMT % v if isinstance(v, float)
                                          else v for v in row] for row in rows)
                else:
                    json.dump(sidecar, fh, indent=2, sort_keys=True)
                    fh.write("\n")
            # open() keeps the mode of a file it truncates.
            with contextlib.suppress(FileNotFoundError):
                shutil.copymode(path, tmp)
        for path, tmp in temps.items():
            os.replace(tmp, path)
    except BaseException:
        for tmp in temps.values():
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
        raise


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            cfg, params = _resolve(args)
            header, rows, extras = SCENARIOS[args.scenario][0](cfg, params)
            sidecar = {"scenario": args.scenario, "config": cfg,
                       "version": __version__, **extras}
            if params is not None:
                sidecar["model"] = asdict(params)
            _write_outputs(cfg["out"], header, rows, sidecar)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    if sidecar.get("all_passed") is False:
        print("error: validation checks failed; see output CSV",
              file=sys.stderr)
        return EXIT_NONCONVERGENCE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
