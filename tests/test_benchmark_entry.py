"""The benchmark's child entry points, called in-process on a tiny run.

``perfbench/child.py`` times set-up through ``load_config``,
``resolve_material``, ``build_problem`` and ``ProblemSpec.speed``, and counts
steps by replacing the module-level ``solver.step``.  A change that breaks
any of these fails here instead of in every benchmark run.

Its traced mode wraps every public callable of the layers by introspection,
so it runs in a process of its own, on a tiny 2-D run.
"""

from __future__ import annotations

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

from poromix import random_material, solver

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
SRC = Path(__file__).resolve().parents[1] / "src"

TINY = """\
material = random:0
grid.dim = 1
grid.n = 41
T = 0.05
record.energy_every = 1
record.snapshot_every = 5
init = gaussian_pulse field=u1 component=0 center=0.45 width=0.06 amplitude=1.0
init = gaussian_pulse field=phi1 center=0.5 width=0.06 amplitude=0.5
boundary.u.x0 = traction_free
boundary.u.x1 = traction_free
boundary.phi.x0 = traction_free
boundary.phi.x1 = traction_free
"""


def test_setup_and_step_count_match_the_run(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY)
    assert child.setup(str(cfg))["setup_s"] > 0.0
    monkeypatch.setattr(solver, "step", solver.step)  # restored after the test
    out = tmp_path / "out"
    code, totals = child.count(["simulate", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    rows = (out / "energy.csv").read_text().splitlines()[1:]
    # perfbench/run.py::check_simulate: one energy row per step, plus t = 0
    assert totals["steps"] == len(rows) - 1 > 0
    assert totals["node_steps"] == 41 * totals["steps"]


TINY_2D = """\
material = random:0
grid.dim = 2
grid.n = 17 17
T = {T!r}
cfl = 0.5
record.energy_every = 1
record.snapshot_every = 5
init = gaussian_pulse field=u1 component=0 center=0.5,0.5 width=0.1 amplitude=1.0
""" + "".join(f"boundary.{family}.{side} = traction_free\n"
              for family in ("u", "phi") for side in ("x0", "x1", "y0", "y1"))


def test_traced_two_dimensional_run_reports_its_steps(tmp_path):
    # T is 11.5 CFL steps of the material, as perfbench/run.py sets it: 12 steps
    dt = 0.5 * (1.0 / 16) / (random_material(0).speed.c * math.sqrt(2.0))
    cfg = tmp_path / "tiny2d.cfg"
    cfg.write_text(TINY_2D.format(T=11.5 * dt))
    report, spans, out = tmp_path / "report.json", tmp_path / "spans.tsv", tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1",
               **{key: "1" for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                       "MKL_NUM_THREADS", "POROMIX_THREADS")})
    child = subprocess.run([sys.executable, str(CHILD), "trace", str(report), str(spans), "--",
                            "simulate", "--config", str(cfg), "--out", str(out)],
                           env=env, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    metrics = json.loads(report.read_text())["metrics"]
    rows = (out / "energy.csv").read_text().splitlines()[1:]
    assert metrics["solver.steps"] == len(rows) - 1 >= 10
    assert metrics["solver.accel.ns_per_node"] > 0.0
