"""Layer tracer that instruments tunnelclock from outside the package.

The package calls its layers through module attributes (``oscquad.
integrate_finite``, ``sfa._converged_transform``) and class attributes
(``PositionTransform.psi``), so replacing those attributes with timing
wrappers makes every call inside the package pass through a span.  Spans
are kept in memory as ``[name, start, end, parent, case]`` lists and turned
into per-layer metrics once, at the end of the traced pass.

A target that does not exist (for instance after a refactor renamed it) is
skipped: its metrics are absent from the report instead of crashing the run.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np


def _len_nodes(args, kwargs, result):
    return {"build_nodes": len(args[0].nodes)}


def _psi_points(args, kwargs, result):
    xi = args[1] if len(args) > 1 else kwargs["xi"]
    points = int(np.size(xi))
    return {"points": points, "node_points": points * len(args[0].nodes)}


def _evaluations(args, kwargs, result):
    return {"evaluations": result.evaluations}


def _cells(args, kwargs, result):
    return {"cells": int(result.magnitude.size)}


def _result_size(args, kwargs, result):
    return {"points": int(np.size(result))}


def _spectrum_nodes(args, kwargs, result):
    return {"nodes": int(result.flags.size),
            "unconverged": int(result.flags.sum())}


def _rows(args, kwargs, result):
    rows = args[2] if len(args) > 2 else kwargs["rows"]
    return {"rows": len(rows)}


# (module, owner inside the module or None, attribute, span name, counter).
# Names follow ``<module>.<function>``; the transform build is the class
# constructor and its evaluation is ``sfa.psi``.
TARGETS = (
    ("cli", None, "main", "cli.main", None),
    ("cli", None, "_write_outputs", "cli._write_outputs", _rows),
    ("sfa", None, "_converged_transform", "sfa._converged_transform", None),
    ("sfa", "PositionTransform", "__init__", "sfa.PositionTransform",
     _len_nodes),
    ("sfa", "PositionTransform", "psi", "sfa.psi", _psi_points),
    ("oscquad", None, "cubic_phase_integral", "oscquad.cubic_phase_integral",
     None),
    ("oscquad", None, "integrate_finite", "oscquad.integrate_finite",
     _evaluations),
    ("specfun", None, "airy", "specfun.airy", None),
    ("specfun", None, "scorer_gi", "specfun.scorer_gi", None),
    ("specfun", None, "ai_real", "specfun.ai_real", None),
    ("larmor", None, "larmor_time_trace", "larmor.larmor_time_trace", None),
    ("husimi", None, "husimi_grid", "husimi.husimi_grid", _cells),
    ("attoclock", None, "attoclock_trace", "attoclock.attoclock_trace", None),
    ("attoclock", None, "attoclock_time", "attoclock.attoclock_time", None),
    ("attoclock", None, "asymptotic_parity_split",
     "attoclock.asymptotic_parity_split", None),
    ("ppt", None, "spectrum", "ppt.spectrum", _spectrum_nodes),
    ("ppt", None, "saddle_function", "ppt.saddle_function", _result_size),
    ("ppt", None, "offset_angle", "ppt.offset_angle", None),
    ("variational", None, "find_resonance", "variational.find_resonance",
     None),
    ("variational", None, "consistency_determinant",
     "variational.consistency_determinant", None),
    ("variational", None, "larmor_time_variational",
     "variational.larmor_time_variational", None),
    ("variational", None, "scattering_equivalence",
     "variational.scattering_equivalence", None),
)


class Tracer:
    """Span recorder installed by monkey-patching; use as a context manager."""

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.installed: list[str] = []
        self.case = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def __enter__(self):
        for module_name, owner_name, attr, name, counter in TARGETS:
            module = getattr(self.package, module_name, None)
            owner = module if owner_name is None else getattr(module, owner_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            setattr(owner, attr, self._wrap(original, name, counter))
            self._patches.append((owner, attr, original))
            self.installed.append(name)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    def _wrap(self, original, name, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), None, stack[-1] if stack else -1, self.case]
            spans.append(span)
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[f"{name}.{key}"] += int(value)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", name)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        # A wrapped lru_cache keeps its cache controls.
        for control in ("cache_clear", "cache_info"):
            if hasattr(original, control):
                setattr(wrapper, control, getattr(original, control))
        return wrapper

    def layer_metrics(self) -> dict[str, float]:
        """Calls, self time and counters per traced name.

        Self time is a span's duration minus the time covered by its
        direct children (children never overlap: the run is single-threaded).
        A ``sfa._converged_transform`` span with a transform build below it
        is a cache miss, one without is a hit.
        """
        child_time = [0.0] * len(self.spans)
        builds_below = [False] * len(self.spans)
        for name, start, end, parent, _ in reversed(self.spans):
            if parent >= 0:
                child_time[parent] += end - start
        for index in range(len(self.spans) - 1, -1, -1):
            name, _, _, parent, _ = self.spans[index]
            if parent >= 0 and (builds_below[index]
                                or name == "sfa.PositionTransform"):
                builds_below[parent] = True

        out: dict[str, float] = {f"{n}.calls": 0 for n in self.installed}
        out.update({f"{n}.self_s": 0.0 for n in self.installed})
        for index, (name, start, end, _, _) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - child_time[index]
        out.update(self.counts)

        if "sfa._converged_transform" in self.installed:
            misses = sum(1 for i, span in enumerate(self.spans)
                         if span[0] == "sfa._converged_transform"
                         and builds_below[i])
            out["sfa._converged_transform.cache_misses"] = misses
            out["sfa._converged_transform.cache_hits"] = \
                out["sfa._converged_transform.calls"] - misses
        if out.get("sfa.psi.node_points"):
            out["sfa.psi.ns_per_node_point"] = \
                1e9 * out["sfa.psi.self_s"] / out["sfa.psi.node_points"]
        if out.get("oscquad.integrate_finite.calls"):
            out["oscquad.integrate_finite.evaluations_per_call"] = \
                out["oscquad.integrate_finite.evaluations"] \
                / out["oscquad.integrate_finite.calls"]
        return out


def span_cost() -> float:
    """Seconds one span adds to a call, measured on a wrapped no-op.

    Multiplied by the number of spans this estimates the tracing overhead
    of a traced pass; the direct measure is the traced run's loop time
    minus the untraced run's at the same seed.
    """
    def noop():
        return None

    calls = 20000
    wrapped = Tracer(None)._wrap(noop, "noop", None)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)
