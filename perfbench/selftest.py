"""Self-test of the benchmark itself (not part of the package's test suite).

Usage (from the root of a source checkout):

    python3 perfbench/selftest.py

1. Runs one short case per workload, untraced and traced, and asserts that
   every metric BENCHMARK.json names is emitted with its declared unit.
2. Asserts that the transform cache is empty after every case.
3. Feeds deliberately corrupted outputs (one perturbed psi value, a broken
   mirror symmetry, a non-flat Larmor plateau, a failed validate) through
   the same call path as the timed loop and asserts that each is caught and
   counted in ``fail_ratio``.

Takes about two minutes on a 2-CPU machine.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import sys
import tempfile
import types
from pathlib import Path

import run
import checks

failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def check_metric_names() -> None:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    full = dict(run.WORKLOADS)
    try:
        for name, workload in full.items():
            run.WORKLOADS[name] = dataclasses.replace(workload, strata=1)
            for trace in (0, 1):
                args = run.parse_args(["--workload", name, "--seed", "0",
                                       "--seconds", "0.001",
                                       "--trace", str(trace)])
                with contextlib.redirect_stdout(io.StringIO()):
                    result = run.run(args)
                metrics = result["metrics"]
                expect(set(declared[trace]) <= set(metrics),
                       f"{name} trace={trace}: all declared metrics emitted "
                       f"(missing {sorted(set(declared[trace]) - set(metrics))})")
                wrong = [m for m, unit in declared[trace].items()
                         if m in metrics and metrics[m]["unit"] != unit]
                expect(not wrong, f"{name} trace={trace}: units match ({wrong})")
                expect(result["correct"] and result["failed"] == 0,
                       f"{name} trace={trace}: uncorrupted outputs pass")
    finally:
        run.WORKLOADS.update(full)


def _edit_csv(path: str, edit) -> None:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _perturb_psi(rows):
    rows[5][1] = repr(float(rows[5][1]) * (1.0 + 1e-5))


def _break_mirror(rows):
    rows[7][2] = repr(float(rows[7][2]) + 1e-6)


def _bend_plateau(rows):
    value = float(rows[-1][1])
    rows[-1][1] = repr(value + abs(value) * 1e-15)


def _fail_validate(path: str) -> None:
    side = Path(path).with_suffix(".json")
    sidecar = json.loads(side.read_text(encoding="utf-8"))
    sidecar["all_passed"] = False
    side.write_text(json.dumps(sidecar), encoding="utf-8")


def check_corruption_is_counted() -> None:
    package = run.import_package()
    with open(run.BENCH_DIR / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)["outputs"]
    corruptions = {
        "wavefunction": lambda out: _edit_csv(out, _perturb_psi),
        "ppt_spectrum": lambda out: _edit_csv(out, _break_mirror),
        "larmor": lambda out: _edit_csv(out, _bend_plateau),
        "validate": _fail_validate,
    }
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
        for scenario, corrupt in corruptions.items():
            corrupting = []

            def main(argv, corrupt=corrupt):
                code = package.cli.main(argv)
                if corrupting:
                    corrupt(argv[argv.index("--out") + 1])
                return code

            fake = types.SimpleNamespace(
                cli=types.SimpleNamespace(main=main), sfa=package.sfa)
            entry = reference[scenario]
            runner = run.Runner(fake, Path(tmp))
            runner.call(entry["argv"], reference=entry)
            expect(not runner.failures, f"{scenario}: clean output passes")
            corrupting.append(True)
            runner.call(entry["argv"], reference=entry)
            fail_ratio = len(runner.failures) / runner.attempted
            expect(fail_ratio == 0.5,
                   f"{scenario}: corrupted output caught, fail_ratio = "
                   f"{fail_ratio} ({runner.failures[-1:]})")

    # A corruption the criterion checks alone must catch (no reference).
    out = checks.Output(columns={"re_psi": ["1.0", "nan"], "im_psi": ["0", "0"]},
                        sidecar={})
    expect(checks.check_output("wavefunction", out) != [],
           "non-finite psi caught without the reference")


def check_cache_cleared() -> None:
    """Runner.case leaves the transform cache empty, traced or not."""
    package = run.import_package()
    cache = package.sfa._converged_transform

    class Probe(run.Runner):
        def clear_caches(self):
            self.filled = cache.cache_info().currsize
            super().clear_caches()

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
        for traced in (False, True):
            runner = Probe(package, Path(tmp))
            with run.Tracer(package) if traced else contextlib.nullcontext():
                runner.case([["wavefunction", "--kappa", "4.0"]])
            left = cache.cache_info().currsize
            expect(runner.filled > 0 and left == 0,
                   f"traced={traced}: transform cache held {runner.filled} "
                   f"transform(s) after the calls, {left} after the case")


def main() -> int:
    check_cache_cleared()
    check_corruption_is_counted()
    check_metric_names()
    print(f"{len(failures)} self-test failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
