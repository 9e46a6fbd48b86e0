"""CLI scenarios: exit codes, config merging, sidecars, determinism."""

import csv
import json
import subprocess
import sys

import pytest

from tunnelclock import cli


def run_cli(args):
    return cli.main(args)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_params_scenario(tmp_path):
    out = tmp_path / "p.csv"
    assert run_cli(["params", "--kappa", "3", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0] == ["quantity", "value"]
    data = dict(rows[1:])
    assert float(data["kappa"]) == 3.0
    side = json.loads((tmp_path / "p.json").read_text())
    assert side["version"]
    assert side["model"]["x0"] > 0.0


def test_field_and_kappa_conflict_is_config_error(tmp_path):
    out = tmp_path / "x.csv"
    code = run_cli(["params", "--kappa", "3", "--field", "0.4",
                    "--out", str(out)])
    assert code == 2
    assert not out.exists()


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kappa": 2.0, "n-u": 33, "u-max": 4.0}))
    out = tmp_path / "a.csv"
    assert run_cli(["attoclock", "--config", str(cfg), "--kappa", "3",
                    "--out", str(out)]) == 0
    side = json.loads((tmp_path / "a.json").read_text())
    assert side["config"]["kappa"] == 3          # flag wins
    assert side["config"]["n_u"] == 33           # file value survives
    rows = read_csv(out)
    assert len(rows) == 34


def test_bad_config_file_is_config_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("not json")
    assert run_cli(["params", "--config", str(cfg),
                    "--out", str(tmp_path / "x.csv")]) == 2


def test_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert run_cli(["attoclock", "--kappa", "3", "--u-max", "4",
                        "--n-u", "17", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_csv_round_trip_precision(tmp_path):
    out = tmp_path / "p.csv"
    run_cli(["params", "--kappa", "3", "--out", str(out)])
    data = dict(read_csv(out)[1:])
    from tunnelclock import HELIUM_IP, params_from_kappa
    p = params_from_kappa(HELIUM_IP, 3.0)
    assert float(data["field"]) == p.field        # 17 sig digits round-trips
    assert float(data["tau_tilde"]) == p.tau_tilde


def test_validate_scenario_passes(tmp_path):
    out = tmp_path / "v.csv"
    assert run_cli(["validate", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert all(r[3] == "pass" for r in rows[1:])
    side = json.loads((tmp_path / "v.json").read_text())
    assert side["all_passed"] is True


def test_scattering_demo_sidecar_diagnostics(tmp_path):
    out = tmp_path / "s.csv"
    assert run_cli(["scattering_demo", "--out", str(out)]) == 0
    side = json.loads((tmp_path / "s.json").read_text())
    assert side["diagnostics"]["wronskian_transmission"] < 1e-12
    assert side["tolerances"]


def test_entry_point_installed():
    proc = subprocess.run([sys.executable, "-m", "tunnelclock.cli", "-h"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "scenario" in proc.stdout or "usage" in proc.stdout.lower()


@pytest.mark.parametrize("scenario", ["wavefunction", "husimi", "larmor"])
def test_transform_sidecar_records_certified_window(tmp_path, scenario):
    out = tmp_path / "t.csv"
    assert run_cli([scenario, "--kappa", "3", "--n-x", "17",
                    "--out", str(out)]) == 0
    side = json.loads((tmp_path / "t.json").read_text())
    assert "tolerances" not in side
    transform = side["transform"]
    assert set(transform) == {"u_max", "nodes", "achieved_change", "rel_tol"}
    assert transform["nodes"] > 0 and transform["u_max"] >= 6.0
    assert 0.0 <= transform["achieved_change"] < transform["rel_tol"] == 1e-7


@pytest.mark.parametrize("flag", [["--ip", "0"], ["--ip", "-1"],
                                  ["--gamma", "0"]])
def test_ppt_nonpositive_pulse_parameter_is_config_error(tmp_path, flag):
    out = tmp_path / "s.csv"
    assert run_cli(["ppt_spectrum", "--n-p", "5", "--n-theta", "9", *flag,
                    "--out", str(out)]) == 2
    assert not out.exists()


def test_ppt_sidecar_reports_newton_work(tmp_path):
    out = tmp_path / "s.csv"
    assert run_cli(["ppt_spectrum", "--n-p", "20", "--n-theta", "41",
                    "--out", str(out)]) == 0
    side = json.loads((tmp_path / "s.json").read_text())
    assert "tolerances" not in side
    diag = side["diagnostics"]
    assert diag["unconverged_nodes"] == 0
    assert 4 <= diag["newton_sweeps"] <= diag["node_iterations"]
    assert diag["out_of_pulse_nodes"] == 0
