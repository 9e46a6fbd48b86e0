"""CLI scenarios: exit codes, config merging, sidecars, determinism."""

import csv
import io
import json
import os
import stat
import subprocess
import sys
import time

import numpy as np
import pytest

from tunnelclock import cli, errors, sfa


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


def test_attoclock_far_detector(tmp_path):
    """u_max = 30 needs ~3k fixed panels; the delay has vanished there."""
    out = tmp_path / "a.csv"
    assert run_cli(["attoclock", "--u-max", "30", "--out", str(out)]) == 0
    tau_far = float(read_csv(out)[-1][2])
    tau_tilde = json.loads((tmp_path / "a.json").read_text())["tau_tilde"]
    assert abs(tau_far) <= 0.01 * tau_tilde


def test_attoclock_beyond_panel_cap_exits_3_at_once(tmp_path):
    out = tmp_path / "a.csv"
    t0 = time.perf_counter()
    assert run_cli(["attoclock", "--u-max", "1000", "--out", str(out)]) == 3
    assert time.perf_counter() - t0 < 5.0
    assert not out.exists()


def test_csv_round_trip_precision(tmp_path):
    out = tmp_path / "p.csv"
    run_cli(["params", "--kappa", "3", "--out", str(out)])
    data = dict(read_csv(out)[1:])
    from tunnelclock import HELIUM_IP, params_from_kappa
    p = params_from_kappa(HELIUM_IP, 3.0)
    assert float(data["field"]) == p.field        # 17 sig digits round-trips
    assert float(data["tau_tilde"]) == p.tau_tilde


def test_float_table_written_as_csv_writer_would(tmp_path):
    """A float table is written column by column, yet byte for byte as
    csv.writer writes the rows' _FMT strings: over more than 2**16 rows (many
    write blocks and a partial last one), with 0.0 and -0.0 in one column,
    NaN, +-inf, subnormals, the largest double, neighbours that differ in
    the 17th digit and heavily repeated values."""
    rng = np.random.default_rng(7)
    n = (1 << 16) + 4321
    special = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
               1e-310, 2.225073858507201e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 0.1, np.nextafter(0.1, 1.0),
               np.nextafter(0.1, 0.0)]
    table = np.column_stack([
        rng.choice(special, n),
        np.tile(np.linspace(-3.0, 3.0, 121), n // 121 + 1)[:n],
        rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n),
        np.repeat(rng.random(7), n // 7 + 1)[:n]])
    header = ["a", "b", "c", "d"]
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(header)
    writer.writerows([cli._FMT % v for v in row] for row in table.tolist())
    out = tmp_path / "t.csv"
    cli._write_outputs(str(out), header, table, {})
    assert out.read_bytes() == expected.getvalue().encode("utf-8")


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
    assert "tolerances" not in side


def test_variational_takes_no_dv(tmp_path):
    """The time is an exact derivative: a dv flag or config key exits 2
    and writes nothing."""
    out = tmp_path / "v.csv"
    assert exit_code(["variational", "--dv", "2e-5", "--out", str(out)]) == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dv": 2e-5}))
    assert exit_code(["variational", "--config", str(cfg),
                      "--out", str(out)]) == 2
    assert list(tmp_path.iterdir()) == [cfg]


def test_variational_sidecar_records_newton_steps(tmp_path):
    out = tmp_path / "v.csv"
    assert run_cli(["variational", "--kappa", "4", "--out", str(out)]) == 0
    side = json.loads((tmp_path / "v.json").read_text())
    steps = side["diagnostics"]["newton_steps"]
    assert type(steps) is int and 1 <= steps <= 80
    assert "tolerances" not in side


def test_unstable_variational_time_exits_3_and_writes_nothing(tmp_path):
    out = tmp_path / "v.csv"
    assert run_cli(["variational", "--kappa", "50", "--out", str(out)]) == 3
    assert list(tmp_path.iterdir()) == []


def test_entry_point_installed():
    proc = subprocess.run([sys.executable, "-m", "tunnelclock.cli", "-h"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "scenario" in proc.stdout or "usage" in proc.stdout.lower()


def test_cli_import_does_not_load_scipy_integrate():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, tunnelclock.cli; "
         "print('scipy.integrate' in sys.modules)"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_scenarios_without_complex_airy_do_not_load_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = """
import sys
from tunnelclock import cli, errors, sfa

def scipy_modules():
    return sorted(m for m in sys.modules
                  if m == "scipy" or m.startswith("scipy."))

assert not scipy_modules(), ("import", scipy_modules())
for argv in (["params"], ["attoclock", "--n-u", "16"], ["scattering_demo"],
             ["ppt_spectrum", "--gamma", "0.75", "--n-p", "20",
              "--n-theta", "61"], ["wavefunction", "--n-x", "17"],
             ["husimi", "--n-x", "7", "--n-p", "15"], ["larmor", "--n-x", "25"]):
    assert cli.main(argv) == 0, argv
    assert not scipy_modules(), (argv, scipy_modules())
for argv in (["variational"], ["validate"]):
    assert cli.main(argv) == 0, argv
print("ok")
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


@pytest.mark.parametrize("half_width", ["180", "400"])
def test_opaque_square_barrier_is_config_error(tmp_path, half_width):
    out = tmp_path / "s.csv"
    assert run_cli(["scattering_demo", "--half-width", half_width,
                    "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("scenario", ["wavefunction", "husimi", "larmor"])
def test_transform_sidecar_records_certified_window(tmp_path, scenario):
    """The sidecar records the Green's-function source rule psi came from:
    its nodes, panels and support [lo, hi], the window of the source
    integrals; every scenario at one kappa reads the same build."""
    out = tmp_path / "t.csv"
    assert run_cli([scenario, "--kappa", "3", "--n-x", "17",
                    "--out", str(out)]) == 0
    side = json.loads((tmp_path / "t.json").read_text())
    assert "tolerances" not in side
    transform = side["transform"]
    params = cli.params_from_kappa(cli.HELIUM_IP, 3.0)
    assert transform == sfa._transform_for(params, [0.0]).summary()
    assert transform["nodes"] == 16 * transform["panels"] > 0
    lo, hi = transform["support"]
    assert lo < -8.0 / 3.0 and hi == 2.0 / 3.0 + 14.0


def test_wavefunction_past_the_airy_domain_exits_2(tmp_path):
    """At x = 1e5 x0 the Airy argument passes |z| <= 1e4."""
    out = tmp_path / "w.csv"
    assert run_cli(["wavefunction", "--x-max", "1e5", "--out", str(out)]) == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags", [["--width", "1e-7"], ["--width", "1e-4"],
                                   ["--p-max", "1e300"]])
def test_unresolvable_husimi_window_exits_2_at_once(tmp_path, flags):
    """A window whose psi rule needs more than husimi._MAX_NODES nodes exits
    2 before any array is built, instead of writing a map whose rows are
    exactly 0 between under-resolved samples."""
    out = tmp_path / "h.csv"
    t0 = time.perf_counter()
    assert run_cli(["husimi", "--kappa", "3", *flags, "--out", str(out)]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert list(tmp_path.iterdir()) == []


def test_husimi_node_cap_ignores_the_output_grid(tmp_path):
    """The cap counts psi nodes alone: 8,000 positions at kappa 40 (1,088
    nodes, a 70 MB window matrix) still run, as they did on the former
    4,001-point grid."""
    out = tmp_path / "h.csv"
    assert run_cli(["husimi", "--kappa", "40", "--n-x", "8000", "--n-p", "2",
                    "--out", str(out)]) == 0
    side = json.loads((tmp_path / "h.json").read_text())
    assert side["diagnostics"]["psi_nodes"] == 1088


def test_larmor_and_husimi_share_one_transform(tmp_path):
    """At kappa 3 both scenarios read psi inside |xi| <= 6: one build."""
    sfa._converged_transform.cache_clear()
    for scenario in ("larmor", "husimi"):
        assert run_cli([scenario, "--kappa", "3", "--n-x", "17",
                        "--out", str(tmp_path / f"{scenario}.csv")]) == 0
    assert sfa._converged_transform.cache_info().misses == 1


def test_every_library_error_maps_to_an_exit_code():
    """main turns DomainError into exit 2 and NonConvergenceError into exit
    3; no other exception class may escape it with a traceback."""
    classes = [obj for obj in vars(errors).values()
               if isinstance(obj, type) and issubclass(obj, Exception)
               and obj is not errors.NumericalWarning]
    assert len(classes) == 2
    for cls in classes:
        assert issubclass(cls, (errors.DomainError, errors.NonConvergenceError))


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


def test_ppt_default_spectrum_is_an_exact_mirror(tmp_path):
    """The CLI's theta grid is exactly antisymmetric: Newton runs on the
    100 x 91 (p, |theta|) nodes, the weights equal their theta-reverse bit
    for bit, and the offset angle is 0 (within rounding at even n_theta)."""
    assert run_cli(["ppt_spectrum", "--out", str(tmp_path / "s.csv")]) == 0
    side = json.loads((tmp_path / "s.json").read_text())
    rows = np.array(read_csv(tmp_path / "s.csv")[1:], dtype=float)
    weights = rows[:, 2].reshape(100, 181)
    assert np.array_equal(weights, weights[:, ::-1])
    assert side["offset_angle"] == 0.0
    assert side["diagnostics"]["solved_nodes"] == 100 * 91
    assert run_cli(["ppt_spectrum", "--n-theta", "180",
                    "--out", str(tmp_path / "e.csv")]) == 0
    side = json.loads((tmp_path / "e.json").read_text())
    assert abs(side["offset_angle"]) <= 1e-12


def exit_code(argv):
    """cli.main's exit code, including argparse's own exits."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv, config", [
    (["validate", "--kappa", "0"], None),
    (["wavefunction", "--n-x", "0"], None),
    (["attoclock", "--u-max", "-1"], None),
    (["attoclock", "--u-max", "nan"], None),
    (["params", "--threads", "2"], None),
    (["params", "--seed", "1"], None),
    (["scattering_demo", "--kappa", "3"], None),
    (["ppt_spectrum", "--field", "0.1"], None),
    (["params"], {"kapa": 5}),
    (["params"], {"kappa": "abc"}),
    (["wavefunction"], {"n_x": 3.5}),
    (["params"], {"n-x": 5}),
])
def test_bad_option_is_config_error(tmp_path, argv, config):
    out = tmp_path / "bad.csv"
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = [*argv, "--config", str(cfg)]
    assert exit_code([*argv, "--out", str(out)]) == 2
    assert not out.exists() and not (tmp_path / "bad.json").exists()


def test_out_in_missing_directory_is_config_error(tmp_path):
    assert run_cli(["params", "--out", str(tmp_path / "no" / "p.csv")]) == 2


def test_out_that_is_its_own_sidecar_is_config_error(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli(["params", "--out", str(out)]) == 2
    assert list(tmp_path.iterdir()) == []


def test_validate_uses_field(tmp_path):
    out = tmp_path / "v.csv"
    assert run_cli(["validate", "--field", "0.4", "--out", str(out)]) == 0
    side = json.loads((tmp_path / "v.json").read_text())
    assert side["model"]["field"] == 0.4
    assert side["config"]["field"] == 0.4 and side["config"]["kappa"] is None


def test_larmor_plateau_from_its_own_trace(tmp_path, monkeypatch):
    from tunnelclock import larmor
    calls = []
    trace = larmor.larmor_time_trace

    def counted(*args, **kwargs):
        calls.append(args)
        return trace(*args, **kwargs)

    monkeypatch.setattr(larmor, "larmor_time_trace", counted)
    out = tmp_path / "l.csv"
    assert run_cli(["larmor", "--kappa", "3", "--n-x", "17",
                    "--out", str(out)]) == 0
    assert len(calls) == 1
    side = json.loads((tmp_path / "l.json").read_text())
    assert side["plateau_re_tau"] == float(read_csv(out)[-1][1])


def test_failed_write_leaves_existing_outputs(tmp_path, monkeypatch):
    out, side = tmp_path / "out.csv", tmp_path / "out.json"
    out.write_text("old csv\n")
    side.write_text("old json\n")

    def boom(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(cli.json, "dump", boom)
    with pytest.raises(OSError, match="disk full"):
        run_cli(["params", "--out", str(out)])
    assert out.read_text() == "old csv\n"
    assert side.read_text() == "old json\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out.json"]


def test_outputs_get_the_mode_open_would_give(tmp_path):
    out, side = tmp_path / "m.csv", tmp_path / "m.json"
    side.write_text("old\n")
    side.chmod(0o604)
    umask = os.umask(0o027)
    try:
        assert run_cli(["params", "--out", str(out)]) == 0
    finally:
        os.umask(umask)
    assert stat.S_IMODE(out.stat().st_mode) == 0o640   # new: 0o666 & ~umask
    assert stat.S_IMODE(side.stat().st_mode) == 0o604  # replaced: kept
