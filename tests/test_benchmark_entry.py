"""The benchmark's child entry points, called in-process on a tiny run.

``perfbench/child.py`` times set-up through ``load_config``,
``resolve_material``, ``build_problem`` and ``ProblemSpec.speed``, and counts
steps by replacing the module-level ``solver.step``.  A change that breaks
any of these fails here instead of in every benchmark run.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from poromix import solver

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"

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
