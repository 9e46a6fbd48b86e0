"""Correctness checks on the files a tunnelclock CLI run writes.

Every scenario's CSV and JSON sidecar is checked against the tolerance of
the acceptance criterion that covers it.  A run that exits 0 but fails its
check counts as a failed call.  ``compare_reference`` additionally compares
one fixed-input run per scenario with outputs stored in ``reference.json``.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np


@dataclass
class Output:
    """One CLI result: CSV columns by header name plus the parsed sidecar."""

    columns: dict[str, list[str]]
    sidecar: dict

    def col(self, name: str) -> np.ndarray:
        return np.array([float(v) for v in self.columns[name]])

    def table(self) -> dict[str, float]:
        """quantity -> value for the two-column summary scenarios."""
        return {q: float(v) for q, v in zip(self.columns["quantity"],
                                             self.columns["value"])}


def read_output(csv_path: str) -> Output:
    with open(csv_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    columns = {name: [row[i] for row in body] for i, name in enumerate(header)}
    with open(os.path.splitext(csv_path)[0] + ".json", encoding="utf-8") as fh:
        sidecar = json.load(fh)
    return Output(columns=columns, sidecar=sidecar)


def _wavefunction(out: Output) -> list[str]:
    psi = np.concatenate([out.col("re_psi"), out.col("im_psi")])
    if psi.size == 0 or not np.all(np.isfinite(psi)):
        return ["psi has non-finite values"]
    return []


def _larmor(out: Output) -> list[str]:
    # Criterion 4: the projector makes Re tau exactly flat beyond x0.
    x, re_tau = out.col("x"), out.col("re_tau")
    plateau = out.sidecar["plateau_re_tau"]
    flat = re_tau[x >= out.sidecar["model"]["x0"]]
    errors = []
    if flat.size == 0 or np.any(flat != flat[0]):
        errors.append("Re tau is not exactly flat for x >= x0")
    elif flat[0] != plateau:
        errors.append(f"plateau {flat[0]!r} != sidecar plateau_re_tau {plateau!r}")
    if not plateau > 0.0:
        errors.append(f"plateau_re_tau {plateau!r} is not positive")
    return errors


def _husimi(out: Output) -> list[str]:
    # Criterion 11: ridge at x = 3 x0 within 0.1 a.u. of sqrt(2F(x - x0)).
    cfg, model = out.sidecar["config"], out.sidecar["model"]
    n_x, n_p = cfg["n_x"], cfg["n_p"]
    x = out.col("x").reshape(n_x, n_p)[:, 0]
    p = out.col("p")[:n_p]
    mag = out.col("magnitude").reshape(n_x, n_p)
    x0, field = model["x0"], model["field"]
    row = int(np.argmin(np.abs(x - 3.0 * x0)))
    if abs(x[row] - 3.0 * x0) > 1e-9 * x0:
        return ["husimi grid has no row at x = 3 x0"]
    ridge = p[np.argmax(mag[row])]
    classical = math.sqrt(2.0 * field * (x[row] - x0))
    if abs(ridge - classical) > 0.1:
        return [f"ridge {ridge:.4f} vs classical {classical:.4f} at x = 3 x0"]
    return []


def _attoclock(out: Output) -> list[str]:
    # Criterion 5: tau vanishes at the detector and is finite at the exit.
    tau, tau_tilde = out.col("tau_a"), out.sidecar["tau_tilde"]
    errors = []
    if not abs(tau[-1]) <= 0.01 * tau_tilde:
        errors.append(f"|tau(u_max)| = {abs(tau[-1]):.3g} > 0.01 tau~")
    if not abs(tau[0]) >= 0.05 * tau_tilde:
        errors.append(f"|tau(0)| = {abs(tau[0]):.3g} < 0.05 tau~")
    return errors


def _ppt_spectrum(out: Output) -> list[str]:
    # Criterion 6: mirror-symmetric spectrum with zero offset angle.
    cfg = out.sidecar["config"]
    n_p, n_theta = cfg["n_p"], cfg["n_theta"]
    weights = out.col("weight").reshape(n_p, n_theta)
    theta = out.col("theta")[:n_theta]
    mirror = float(np.max(np.abs(weights - weights[:, ::-1])))
    offset = out.sidecar["offset_angle"]
    unconverged = out.sidecar["diagnostics"]["unconverged_nodes"]
    errors = []
    if not mirror <= 1e-8:
        errors.append(f"mirror asymmetry {mirror:.3g} > 1e-8")
    if not abs(offset) <= theta[1] - theta[0]:
        errors.append(f"offset angle {offset:.3g} exceeds one theta step")
    if unconverged != 0:
        errors.append(f"{unconverged} unconverged saddle nodes")
    return errors


def _scattering_demo(out: Output) -> list[str]:
    # Criterion 7: weak-value time equals the variational time.
    table, diag = out.table(), out.sidecar["diagnostics"]
    rel = abs(table["re_tau_weak"] - table["tau_variational"]) \
        / abs(table["tau_variational"])
    wronskian = max(diag["wronskian_transmission"], diag["wronskian_reflection"])
    errors = []
    if not rel <= 1e-6:
        errors.append(f"weak vs variational time differ by {rel:.3g} > 1e-6")
    if not wronskian <= 1e-12:
        errors.append(f"Wronskian defect {wronskian:.3g} > 1e-12")
    return errors


def _variational(out: Output) -> list[str]:
    table = out.table()
    errors = []
    if not all(math.isfinite(v) for v in table.values()):
        errors.append("non-finite resonance quantity")
    if not table["im_energy"] < 0.0 < table["width_gamma"]:
        errors.append("resonance is not decaying")
    if not table["tau_variational"] > 0.0:
        errors.append("variational time is not positive")
    return errors


def _validate(out: Output) -> list[str]:
    return [] if out.sidecar.get("all_passed") is True else ["validate failed"]


CHECKS = {
    "wavefunction": _wavefunction,
    "larmor": _larmor,
    "husimi": _husimi,
    "attoclock": _attoclock,
    "ppt_spectrum": _ppt_spectrum,
    "scattering_demo": _scattering_demo,
    "variational": _variational,
    "validate": _validate,
}


def check_output(scenario: str, out: Output) -> list[str]:
    """Failure messages for one scenario output; empty when it passes."""
    try:
        return CHECKS[scenario](out)
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        return [f"malformed output: {exc!r}"]


def compare_reference(out: Output, ref: dict) -> list[str]:
    """Compare an output with its stored reference entry.

    ``exact`` columns must match as strings.  Each group in ``groups`` is
    a list of numeric columns treated as one vector per row (re/im pairs
    form a complex value); the largest row-wise difference must stay within
    ``rel_tol`` times the largest reference row norm (``scale`` "max"), or
    within ``rel_tol`` times each reference row's own norm (``scale`` "row").
    """
    errors = []
    for name in ref.get("exact", ()):
        if out.columns.get(name) != ref["columns"][name]:
            errors.append(f"column {name} differs from the reference")
    for group in ref.get("groups", ()):
        try:
            new = np.array([[float(v) for v in out.columns[c]] for c in group])
        except (KeyError, ValueError) as exc:
            errors.append(f"column group {group}: {exc!r}")
            continue
        old = np.array([[float(v) for v in ref["columns"][c]] for c in group])
        if new.shape != old.shape:
            errors.append(f"{group}: shape {new.shape} != reference {old.shape}")
            continue
        diff = np.linalg.norm(new - old, axis=0)
        norm = np.linalg.norm(old, axis=0)
        limit = ref["rel_tol"] * (norm if ref["scale"] == "row" else norm.max())
        if not np.all(diff <= limit):
            worst = float(np.max(diff / np.maximum(limit, 1e-300)))
            errors.append(f"{group}: {worst:.3g} x the reference tolerance "
                          f"{ref['rel_tol']:g} ({ref['scale']} scale)")
    return errors
