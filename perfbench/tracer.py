"""Span tracer that wraps the public callables of every poromix layer.

The benchmark installs it inside a fresh child process before calling
``poromix.cli.main``.  Nothing in ``src/`` changes: each public function of a
layer module (and each public method, ``__init__`` and ``__call__`` written in
the body of a class of that module) is replaced by a wrapper that records a
span ``[name, start_ns, end_ns, parent]``.  Every module-level reference to
the original (``from .fields import strain_fields``, aliased imports, and
function tables such as ``verify.SUITE_FUNCS``) is pointed at the wrapper, so
calls through imported names are traced as well.

Spans stay in memory and are written once, at the end.  The tracer keeps a
single span stack, so it must run with one thread (the benchmark pins
``POROMIX_THREADS=1``).
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import os
import time
import tracemalloc

LAYERS = ("materials", "pointwise", "fields", "solver", "diagnostics", "io", "verify", "config", "cli")

# Nodes touched by one call, read from the arguments of the hot-path callables
# whose cost the benchmark reports per node.
NODES = {
    "solver.step": lambda args: args[0].u1[0].size,
    "solver.acceleration": lambda args: args[1][0].size,
    "fields.strain_fields": lambda args: args[0][0].size,
    "fields.StressEvaluator.__call__": lambda args: args[1].phi1.size,
    "diagnostics.RunContext.energy_sample": lambda args: args[1].u1[0].size,
}

# Callables whose temporaries are measured with tracemalloc: every call of
# support_geometry, and one steady-state call of acceleration (the third, so
# that one-time allocations of the first steps are not counted).
GEOMETRY = "diagnostics.support_geometry"
ACCEL = "solver.acceleration"
ACCEL_PROBE_CALL = 3

# The suites of the verify-core workload.  ``decay`` is left out: its
# radial_inequality check fails on some seeds (12, 15, 18 and 38 of 0-39).
SUITES = ("constitutive", "influence", "uniqueness")

# Every per-layer metric and its unit.  Counts (unit "count", "count/step",
# "B") must repeat exactly between traced runs of one config.
PER_LAYER = {
    "solver.accel.ns_per_node": "ns/node",
    "solver.step_self.ns_per_node": "ns/node",
    "solver.steps": "count",
    "solver.accel.alloc_bytes_per_node": "B/node",
    "fields.strain.ns_per_node": "ns/node",
    "fields.stress.ns_per_node": "ns/node",
    "fields.stencil_calls_per_step": "count/step",
    "diagnostics.energy_sample.ns_per_node": "ns/node",
    "diagnostics.support_geometry.s": "s",
    "diagnostics.support_geometry.peak_mb": "MB",
    "diagnostics.surface_power.s": "s",
    "diagnostics.identity_residuals.s": "s",
    "diagnostics.snapshot_bytes": "B",
    "io.bytes_written": "B",
    "io.write_s": "s",
    **{f"{layer}.{kind}": unit
       for layer in ("materials", "pointwise", "fields", "solver", "diagnostics", "io", "config")
       for kind, unit in (("s", "s"), ("calls", "count"))},
    **{f"verify.{suite}.s": "s" for suite in SUITES},
    "trace_overhead_s": "s",
}
EXACT_UNITS = ("count", "count/step", "B")

_STATE_FIELDS = ("u1", "u2", "phi1", "phi2", "v1", "v2", "psi1", "psi2")


class Tracer:
    """In-memory span recorder plus the counters read at layer boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = [-1]
        self.nodes: collections.Counter = collections.Counter()
        self.counters: collections.Counter = collections.Counter()
        self.alloc_peak: dict[str, tuple[int, int]] = {}

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        nodes_of = NODES.get(name)
        around = _AROUND.get(name) or (_count_written if name.startswith("io.write_") else None)
        calls = 0
        tracer = self

        def record(args, kwargs, probe):
            rec = [name, 0, 0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            if probe:
                tracemalloc.start()
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                if probe:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    if peak > tracer.alloc_peak.get(name, (0, 0))[0]:
                        tracer.alloc_peak[name] = (peak, nodes_of(args) if nodes_of else 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nonlocal calls
            calls += 1
            if nodes_of is not None:
                tracer.nodes[name] += nodes_of(args)
            probe = name == GEOMETRY or (name == ACCEL and calls == ACCEL_PROBE_CALL)
            if around is None:
                return record(args, kwargs, probe)
            return around(tracer, args, lambda: record(args, kwargs, probe))

        return traced

    def install(self) -> None:
        """Wrap every layer and repoint all module-level references."""
        modules = {name: importlib.import_module(f"poromix.{name}") for name in LAYERS}
        replaced: dict[int, object] = {}
        for mod_name, mod in modules.items():
            path = os.path.abspath(mod.__file__)
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replaced[id(obj)] = self.wrap(f"{mod_name}.{attr}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(mod_name, obj, path)
        package = importlib.import_module("poromix")
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, attr, replaced[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in replaced:
                            obj[key] = replaced[id(value)]

    def _wrap_class(self, mod_name: str, cls, path: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ("__init__", "__call__"):
                continue
            static = isinstance(raw, staticmethod)
            fn = raw.__func__ if static else raw
            # Methods generated by dataclasses are compiled from strings and
            # carry no source file of the module; they are left alone.
            if not inspect.isfunction(fn) or os.path.abspath(fn.__code__.co_filename) != path:
                continue
            wrapped = self.wrap(f"{mod_name}.{cls.__name__}.{attr}", fn)
            setattr(cls, attr, staticmethod(wrapped) if static else wrapped)

    def write_spans(self, path) -> None:
        """One span per line: name, start_ns, end_ns, parent index (-1 = root)."""
        with open(path, "w", newline="\n") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start}\t{end}\t{parent}\n")


def _count_snapshot_bytes(tracer, args, call):
    recorder = args[0]
    kept = len(recorder.states)
    result = call()
    if len(recorder.states) > kept:
        state = recorder.states[-1]
        tracer.counters["diagnostics.snapshot_bytes"] += sum(
            getattr(state, f).nbytes for f in _STATE_FIELDS)
    return result


def _count_written(tracer, args, call):
    result = call()
    tracer.counters["io.bytes_written"] += os.path.getsize(args[0])
    return result


# Counters read around a call, keyed by span name.
_AROUND = {"diagnostics.SnapshotRecorder.record": _count_snapshot_bytes}


def span_totals(spans):
    """Per-name (calls, total ns, self ns); self time excludes child spans."""
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls = collections.Counter()
    total = collections.Counter()
    self_ns = collections.Counter()
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        self_ns[name] += end - start - child_ns[i]
    return calls, total, self_ns


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced process (all of PER_LAYER but the overhead)."""
    calls, total, self_ns = span_totals(tracer.spans)
    nodes = tracer.nodes

    def per_node(name, ns):
        return ns / nodes[name] if nodes[name] else 0.0

    def seconds(*names):
        return sum(total[n] for n in names) / 1e9

    steps = calls["solver.step"]
    stencils = calls["fields.central_gradient"] + calls["fields.gradient_adjoint"]
    accel_peak, accel_nodes = tracer.alloc_peak.get("solver.acceleration", (0, 0))
    out = {
        "solver.accel.ns_per_node": per_node("solver.acceleration", total["solver.acceleration"]),
        "solver.step_self.ns_per_node": per_node("solver.step", self_ns["solver.step"]),
        "solver.steps": steps,
        "solver.accel.alloc_bytes_per_node": accel_peak / accel_nodes if accel_nodes else 0.0,
        "fields.strain.ns_per_node": per_node("fields.strain_fields", total["fields.strain_fields"]),
        "fields.stress.ns_per_node": per_node(
            "fields.StressEvaluator.__call__", total["fields.StressEvaluator.__call__"]),
        "fields.stencil_calls_per_step": stencils / steps if steps else 0.0,
        "diagnostics.energy_sample.ns_per_node": per_node(
            "diagnostics.RunContext.energy_sample", total["diagnostics.RunContext.energy_sample"]),
        "diagnostics.support_geometry.s": seconds("diagnostics.support_geometry"),
        "diagnostics.support_geometry.peak_mb":
            tracer.alloc_peak.get("diagnostics.support_geometry", (0, 0))[0] / 1e6,
        "diagnostics.surface_power.s": seconds("diagnostics.surface_power"),
        "diagnostics.identity_residuals.s": seconds("diagnostics.identity_residuals"),
        "diagnostics.snapshot_bytes": tracer.counters["diagnostics.snapshot_bytes"],
        "io.bytes_written": tracer.counters["io.bytes_written"],
        "io.write_s": seconds(*(n for n in total if n.startswith("io.write_"))),
    }
    for layer in ("materials", "pointwise", "fields", "solver", "diagnostics", "io", "config"):
        # The cli module's spans count towards the config layer.
        names = [n for n in calls if n.split(".", 1)[0].replace("cli", "config") == layer]
        out[f"{layer}.s"] = sum(self_ns[n] for n in names) / 1e9
        out[f"{layer}.calls"] = sum(calls[n] for n in names)
    for suite in SUITES:
        out[f"verify.{suite}.s"] = seconds(f"verify.suite_{suite}")
    return out
