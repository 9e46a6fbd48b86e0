"""Regenerate reference.json: one fixed-input output per CLI scenario.

Usage (from the root of a source checkout):

    python3 perfbench/make_reference.py

The benchmark compares each run's fixed-input outputs with this file, at
the tolerance the code certifies, so regenerate it only when a change is
meant to alter results.  The commit it was generated at is recorded.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from checks import read_output

# scenario -> (argv, exact columns, numeric column groups, scale, rel_tol).
# psi is certified to 1e-7 of its scale by the window-doubling test, so two
# certified evaluations agree to 2e-7; larmor, husimi and attoclock outputs
# are built from psi or from 1e-8 quadratures and get 1e-6; ppt weights
# use criterion 6's 1e-8; the summary tables criterion 7's 1e-6.
SPECS = {
    "wavefunction": (["wavefunction", "--kappa", "4", "--n-x", "25"],
                     [], [["re_psi", "im_psi"]], "max", 2e-7),
    "variational": (["variational", "--kappa", "4"],
                    ["quantity"], [["value"]], "row", 1e-6),
    "validate": (["validate", "--kappa", "4"],
                 ["check", "status"], [], "max", 0.0),
    "larmor": (["larmor", "--kappa", "4", "--n-x", "25"],
               [], [["re_tau", "im_tau"]], "max", 1e-6),
    "husimi": (["husimi", "--kappa", "2.3", "--n-x", "7", "--n-p", "15"],
               [], [["magnitude"]], "max", 1e-6),
    "attoclock": (["attoclock", "--kappa", "4", "--n-u", "16"],
                  [], [["tau_a"]], "max", 1e-6),
    "ppt_spectrum": (["ppt_spectrum", "--gamma", "0.75", "--n-p", "20",
                      "--n-theta", "61"], [], [["weight"]], "max", 1e-8),
    "scattering_demo": (["scattering_demo", "--height", "1.3",
                         "--half-width", "0.9", "--wavenumber", "0.7"],
                        ["quantity"], [["value"]], "row", 1e-6),
}


def main() -> int:
    package = run.import_package()
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                            capture_output=True, text=True).stdout.strip()
    outputs = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
        for scenario, (argv, exact, groups, scale, rel_tol) in SPECS.items():
            package.sfa._converged_transform.cache_clear()
            out = str(Path(tmp) / f"{scenario}.csv")
            if package.cli.main([*argv, "--out", out]) != 0:
                sys.exit(f"error: {scenario} failed")
            columns = read_output(out).columns
            keep = exact + [c for group in groups for c in group]
            outputs[scenario] = {
                "argv": argv, "exact": exact, "groups": groups,
                "scale": scale, "rel_tol": rel_tol,
                "columns": {c: columns[c] for c in keep},
            }
    with open(run.BENCH_DIR / "reference.json", "w", encoding="utf-8") as fh:
        json.dump({"generated_at_commit": commit, "outputs": outputs}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
