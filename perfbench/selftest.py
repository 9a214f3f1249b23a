#!/usr/bin/env python3
"""Self-test of the benchmark's tracer.

    python3 perfbench/selftest.py

Checks the self-time arithmetic on hand-made spans, that installing the
tracer also reaches names other modules imported directly, and that the
counts of two traced runs of each workload repeat exactly.  Exits 0 when
every check holds.
"""

from __future__ import annotations

import shutil
import sys

import run
from tracer import Tracer, span_totals

# Counts that must repeat exactly between two traced runs of one config.
REPEATED = ("solver.steps", "fields.stencil_calls_per_step", "pointwise.calls",
            "io.bytes_written", "diagnostics.snapshot_bytes")


def check_self_time() -> list[str]:
    spans = [
        ["a", 0, 100, -1],
        ["b", 10, 40, 0],
        ["c", 20, 30, 1],
        ["b", 50, 60, 0],
    ]
    calls, total, self_ns = span_totals(spans)
    expected = ({"a": 1, "b": 2, "c": 1}, {"a": 100, "b": 40, "c": 10}, {"a": 60, "b": 30, "c": 10})
    if (dict(calls), dict(total), dict(self_ns)) != expected:
        return [f"span_totals gave {calls}, {total}, {self_ns}; expected {expected}"]
    return []


def check_install() -> list[str]:
    sys.path.insert(0, str(run.SRC))
    Tracer().install()
    from poromix import diagnostics, fields, solver, verify

    wrapped = {
        "solver.gradient_adjoint": solver.gradient_adjoint,
        "solver.strain_fields": solver.strain_fields,
        "diagnostics.strain_fields": diagnostics.strain_fields,
        "diagnostics.StressEvaluator.__call__": diagnostics.StressEvaluator.__call__,
        "fields.central_gradient": fields.central_gradient,
        "verify.pm_validate": verify.pm_validate,
        **{f"verify.SUITE_FUNCS[{k!r}]": f for k, f in verify.SUITE_FUNCS.items()},
    }
    return [f"{name} is not traced" for name, fn in wrapped.items() if not hasattr(fn, "__wrapped__")]


def check_counts_repeat() -> list[str]:
    problems = []
    for workload in run.WORKLOADS:
        work = run.OUT / "work" / f"selftest-{workload}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        _, args = run.make_config(workload, 0, work)
        counts = []
        for i in range(2):
            child, failed, _ = run.run_program(workload, "trace", args, work, f"traced{i}",
                                               str(work / "spans.tsv"))
            problems += [f"{workload} traced{i}: {p}" for p in failed]
            metrics = child.report.get("metrics", {})
            counts.append({name: metrics.get(name) for name in REPEATED})
        print(f"{workload}: {counts[0]}")
        if counts[0] != counts[1]:
            problems.append(f"{workload}: counts differ between traced runs: {counts}")
        shutil.rmtree(work, ignore_errors=True)
    return problems


def main() -> int:
    problems = check_self_time() + check_install() + check_counts_repeat()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
