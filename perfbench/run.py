"""tunnelclock benchmark: CLI scenarios end to end, with a traced layer pass.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload transform_sweep --seed 1 \
        --seconds 25 --trace 0

Each workload is a closed loop with one client: a *case* is one generated
input run through the workload's scenario list, every scenario being one
in-process ``tunnelclock.cli.main(argv)`` call that writes into a temporary
directory inside the checkout.  Every output is checked (``checks.py``) and
one fixed-input output per scenario is compared with ``reference.json``.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the first round of cases traced (``tracer.py``) and
reports the per-layer metrics.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give the environment and a readable
summary.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import glob
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# One BLAS thread: on this code a second thread gave the same wall time at
# 1.7x the CPU time (2-CPU VM).  An explicit setting in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
from tracer import Tracer, span_cost  # noqa: E402

SETUP_REPEATS = 7

# Child process for setup_s: import the CLI and run one params call.
_SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import tunnelclock.cli
code = tunnelclock.cli.main(["params", "--out", sys.argv[2]])
print(time.perf_counter() - t0)
sys.exit(code)
"""


def _lattice(strata: int, dims: int, rng) -> np.ndarray:
    """(dims, strata) points in [0, 1): stratum centres moved by a seeded jitter.

    Dimension d visits the strata in a fixed order rotated by d, so the
    pairing of parameters within a case does not depend on the seed.
    """
    centres = (np.arange(strata) + 0.5) / strata
    order = np.array([np.roll(np.arange(strata), d) for d in range(dims)])
    shift = JITTER * (rng.random((dims, strata)) - 0.5)
    return centres[order] + shift


def _transform_sweep_case(u):
    kappa = repr(2.0 + 6.0 * u[0])
    return [["wavefunction", "--kappa", kappa], ["variational", "--kappa", kappa],
            ["validate", "--kappa", kappa]]


def _exit_maps_case(u):
    kappa = repr(2.0 + 2.5 * u[0])
    return [["larmor", "--kappa", kappa], ["husimi", "--kappa", kappa]]


def _spectra_case(u):
    height = 0.5 + 2.0 * u[4]
    # k^2/2 between 10% and 90% of the barrier height: always tunnelling.
    wavenumber = (2.0 * (0.1 + 0.8 * u[6]) * height) ** 0.5
    return [
        ["attoclock", "--kappa", repr(2.0 + 6.0 * u[0])],
        ["ppt_spectrum", "--envelope", "cos4", "--gamma", repr(0.5 + 0.5 * u[1]),
         "--n-p", str(60 + int(91 * u[2])),
         "--n-theta", str(121 + 2 * int(61 * u[3]))],
        ["scattering_demo", "--height", repr(height),
         "--half-width", repr(0.4 + 1.8 * u[5]), "--wavenumber", repr(wavenumber)],
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    scenarios: tuple[str, ...]  # the CLI scenarios of one case, in order
    strata: int                 # cases per round, one per stratum of every input
    dims: int                   # generated inputs per case
    make_case: Callable         # lattice column -> CLI argv per scenario


# Inputs sit near fixed stratum centres: the transform's U window (and with
# it the cost of a case) flips between 48 and 96 every ~0.05 in kappa, so
# unrestricted draws make the case mix, not the code, decide the timing.
JITTER = 1e-4

WORKLOADS = {
    w.name: w for w in (
        Workload("transform_sweep", ("wavefunction", "variational", "validate"),
                 6, 1, _transform_sweep_case),
        Workload("exit_maps", ("larmor", "husimi"), 2, 1, _exit_maps_case),
        Workload("spectra", ("attoclock", "ppt_spectrum", "scattering_demo"),
                 4, 7, _spectra_case),
    )
}

# Scenarios whose mean seconds per call the traced run reports.
TIMED_SCENARIOS = ("wavefunction", "larmor", "husimi", "attoclock",
                   "ppt_spectrum")


def round_cases(workload: Workload, seed: int, index: int) -> list[list[list[str]]]:
    rng = np.random.default_rng([seed, index])
    u = _lattice(workload.strata, workload.dims, rng)
    return [workload.make_case(u[:, j].tolist()) for j in range(workload.strata)]


def import_package():
    """Import tunnelclock from this checkout's src/, never from elsewhere."""
    if not (SRC / "tunnelclock" / "cli.py").is_file():
        sys.exit(f"error: no tunnelclock sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tunnelclock
    import tunnelclock.cli  # noqa: F401
    if Path(tunnelclock.__file__).resolve().parent.parent != SRC:
        sys.exit(f"error: imported tunnelclock from {tunnelclock.__file__}")
    return tunnelclock


class Runner:
    """Runs CLI calls in-process, times them and checks their outputs."""

    def __init__(self, package, out_dir: Path):
        self.package = package
        self.out_dir = out_dir
        self.attempted = 0
        self.failures: list[str] = []
        self.check_s = 0.0
        self.call_s: dict[str, list[float]] = {}

    def clear_caches(self):
        """Empties the transform cache, as a fresh CLI process starts empty."""
        self.package.sfa._converged_transform.cache_clear()

    def call(self, argv: list[str], reference: dict | None = None) -> float:
        """One CLI call; returns its wall time.  Failures are recorded."""
        scenario = argv[0]
        out = self.out_dir / f"{scenario}.csv"
        self.attempted += 1
        errors: list[str] = []
        stderr = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(stderr):
                code = self.package.cli.main([*argv, "--out", str(out)])
        except (Exception, SystemExit) as exc:  # noqa: BLE001 - counted, run continues
            code, errors = None, [f"raised {exc!r}"]
        elapsed = time.perf_counter() - t0
        t1 = time.perf_counter()
        if code is not None and code != 0:
            errors.append(f"exit code {code}: {stderr.getvalue().strip()}")
        if not errors:
            try:
                output = checks.read_output(str(out))
            except (OSError, ValueError, IndexError) as exc:
                errors.append(f"unreadable output: {exc!r}")
            else:
                errors += checks.check_output(scenario, output)
                if reference is not None:
                    errors += checks.compare_reference(output, reference)
        for path in (out, out.with_suffix(".json")):
            path.unlink(missing_ok=True)
        self.check_s += time.perf_counter() - t1
        if errors:
            self.failures.append(f"{' '.join(argv)}: {'; '.join(errors)}")
        self.call_s.setdefault(scenario, []).append(elapsed)
        return elapsed

    def case(self, calls: list[list[str]]) -> float:
        latency = sum(self.call(argv) for argv in calls)
        self.clear_caches()
        gc.collect()
        return latency


def measure_setup(out_dir: Path) -> list[float]:
    """Wall time of import + one params call, each in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC),
             str(out_dir / "params.csv")],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.exit(f"error: setup failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def check_reference(runner: Runner, scenarios) -> None:
    with open(BENCH_DIR / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)
    for scenario in scenarios:
        entry = reference["outputs"][scenario]
        runner.clear_caches()
        runner.call(entry["argv"], reference=entry)
    runner.clear_caches()
    runner.call_s.clear()


def run_round(runner: Runner, cases, tracer: Tracer | None = None
              ) -> tuple[list[float], float]:
    """Runs the cases in order; returns their latencies and the wall time
    without output checks."""
    latencies: list[float] = []
    t0, check0 = time.perf_counter(), runner.check_s
    for case_id, calls in enumerate(cases):
        if tracer is not None:
            tracer.case = case_id
        latencies.append(runner.case(calls))
        print(f"  case {case_id}: {latencies[-1]:.3f} s  "
              + " | ".join(" ".join(argv) for argv in calls), flush=True)
    return latencies, time.perf_counter() - t0 - (runner.check_s - check0)


def timed_loop(runner: Runner, workload: Workload, seed: int,
               seconds: float) -> tuple[list[float], float, int]:
    """Whole rounds of cases until the next round would end past `seconds`.

    Returns case latencies, the loop's wall time without output checks,
    and the number of rounds.
    """
    latencies: list[float] = []
    wall, rounds = 0.0, 0
    while True:
        round_latencies, round_wall = run_round(
            runner, round_cases(workload, seed, rounds))
        latencies += round_latencies
        wall += round_wall
        rounds += 1
        if wall * (rounds + 1) / rounds > seconds:
            return latencies, wall, rounds


def blas_info() -> dict:
    info: dict = {"vendor": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def environment(workload: str, seed: int) -> dict:
    import scipy

    cpu_model = next((line.split(":", 1)[1].strip()
                      for line in _read("/proc/cpuinfo").splitlines()
                      if line.startswith("model name")), platform.processor())
    llc = ""
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        if _read(f"{index}/type").strip() != "Instruction":
            llc = f"L{_read(f'{index}/level').strip()} {_read(f'{index}/size').strip()}"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "llc": llc,
        "git_commit": commit,
        "workload": workload,
        "seed": seed,
    }


def report(values: dict, declared: list[dict], installed=()) -> dict:
    """The declared metrics with their declared units, in declared order.

    A metric of a traced layer that did no work on this workload reads 0;
    one whose layer is not installed (it no longer exists) is absent.
    """
    out = {}
    for metric in declared:
        name = metric["name"]
        if name in values:
            value = values[name]
        elif name.rsplit(".", 1)[0] in installed:
            value = 0
        else:
            continue
        out[name] = {"value": value, "unit": metric["unit"]}
    return out


def end_to_end(latencies, wall, setup_times) -> dict:
    return {
        "setup_s": statistics.median(setup_times),
        "cases_per_s": len(latencies) / wall,
        "case_p50_s": statistics.median(latencies),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(runner: Runner, tracer: Tracer, wall: float, cases: int) -> dict:
    values = tracer.layer_metrics()
    for scenario in TIMED_SCENARIOS:
        samples = runner.call_s.get(scenario, [])
        values[f"{scenario}_s"] = statistics.fmean(samples) if samples else 0.0
    values["trace.loop_s"] = wall
    values["trace.overhead_s"] = len(tracer.spans) * span_cost()
    values["trace.spans"] = len(tracer.spans)
    values["trace.cases"] = cases
    values["fail_ratio"] = len(runner.failures) / runner.attempted
    return values


def run(args) -> dict:
    workload = WORKLOADS[args.workload]
    package = import_package()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    print("environment " + json.dumps(environment(args.workload, args.seed),
                                      sort_keys=True), flush=True)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        runner = Runner(package, Path(tmp))
        if not args.trace:
            setup_times = measure_setup(Path(tmp))
        check_reference(runner, workload.scenarios)
        if args.trace:
            cases = round_cases(workload, args.seed, 0)
            with Tracer(package) as tracer:
                _, wall = run_round(runner, cases, tracer)
            metrics = report(per_layer(runner, tracer, wall, len(cases)),
                             spec["per_layer"], tracer.installed)
            summary = (f"traced round 0: {len(cases)} cases, loop {wall:.3f} s, "
                       f"{len(tracer.spans)} spans")
        else:
            latencies, wall, rounds = timed_loop(runner, workload, args.seed,
                                                 args.seconds)
            metrics = report(end_to_end(latencies, wall, setup_times),
                             spec["end_to_end"])
            summary = (f"{rounds} round(s), {len(latencies)} cases "
                       f"(case_p50_s over {len(latencies)} samples, setup_s "
                       f"over {len(setup_times)}), loop {wall:.3f} s")
    print(f"workload {workload.name} seed {args.seed}: {summary}; "
          f"{runner.attempted} calls, {len(runner.failures)} failed")
    for failure in runner.failures:
        print(f"  FAILED {failure}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    return {"correct": not runner.failures, "attempted": runner.attempted,
            "failed": len(runner.failures), "metrics": metrics}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    result = run(parse_args(argv))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
