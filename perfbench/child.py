"""Instrumented poromix child process, started by ``run.py``.

    python3 child.py setup  REPORT CONFIG        time set-up in this fresh process
    python3 child.py count  REPORT -- ARGS...    run ``poromix ARGS`` counting leapfrog steps
    python3 child.py trace  REPORT SPANS -- ARGS...
                                                 run ``poromix ARGS`` under the span tracer,
                                                 writing every span to SPANS
    python3 child.py reference                   time the machine-speed reference kernel

``REPORT`` is the JSON file the child writes its measurements to.  The
``count`` and ``trace`` modes exit with the code of ``poromix.cli.main``.
The ``reference`` mode prints the environment as one JSON line, then the
kernel's time in seconds for each line read from standard input.
"""

from __future__ import annotations

import json
import sys
import time


def setup(config_path: str) -> dict:
    """Wall time of everything paid before the first leapfrog step."""
    t0 = time.perf_counter()
    import poromix  # noqa: F401  (import cost is part of set-up)
    from poromix.config import build_problem, load_config, resolve_material

    cfg = load_config(config_path)
    consts = resolve_material(cfg)
    build_problem(cfg, consts).speed()
    return {"setup_s": time.perf_counter() - t0}


def count(argv: list[str]) -> tuple[int, dict]:
    """Run the command with one counter on ``solver.step``: steps and node-steps."""
    from poromix import cli, solver

    totals = {"steps": 0, "node_steps": 0}
    step = solver.step

    def counted(state, *args, **kwargs):
        totals["steps"] += 1
        totals["node_steps"] += state.u1[0].size
        return step(state, *args, **kwargs)

    solver.step = counted
    code = cli.main(argv)
    return code, totals


def trace(argv: list[str], spans_path: str) -> tuple[int, dict]:
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    tracer.install()
    from poromix import cli

    t0 = time.perf_counter()
    code = cli.main(argv)
    traced_s = time.perf_counter() - t0
    tracer.write_spans(spans_path)
    metrics = layer_metrics(tracer)
    return code, {"steps": metrics["solver.steps"], "node_steps": tracer.nodes["solver.step"],
                  "traced_s": traced_s, "spans": len(tracer.spans), "metrics": metrics}


def reference() -> None:
    """Serve kernel timings; the kernel mixes the three kinds of work poromix
    does: interpreter loops, numpy calls on small arrays, and memory-bound numpy
    on an array larger than the caches."""
    import platform

    import numpy as np

    small = np.linspace(0.0, 1.0, 3 * 801).reshape(3, 801)
    big = np.ones(4_000_000)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(json.dumps({"python": platform.python_version(), "numpy": np.__version__,
                      "blas": f"{blas.get('name')} {blas.get('version')}"}), flush=True)
    for _ in sys.stdin:
        t0 = time.perf_counter()
        acc = 0
        for i in range(400_000):
            acc += i * i
        x = small
        for _ in range(7000):
            x = 0.5 * (x + small)
        for _ in range(8):
            np.multiply(big, 1.0, out=big)
        print(time.perf_counter() - t0, flush=True)


def main() -> int:
    if sys.argv[1] == "reference":
        reference()
        return 0
    mode, report_path = sys.argv[1], sys.argv[2]
    rest = sys.argv[3:]
    code = 0
    if mode == "setup":
        report = setup(rest[0])
    elif mode == "count":
        code, report = count(rest[rest.index("--") + 1:])
    elif mode == "trace":
        code, report = trace(rest[rest.index("--") + 1:], spans_path=rest[0])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
