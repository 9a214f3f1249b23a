"""Smoke runs of the study scripts on small grids."""

from __future__ import annotations

import re
import runpy
import sys
from pathlib import Path

import pytest

from poromix import solver

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(monkeypatch, name: str, *args: str) -> int:
    monkeypatch.setattr(sys, "argv", [name, *args])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return exc.value.code


def test_run_pulse_demo_writes_artifacts(tmp_path, monkeypatch, capsys):
    steps = []
    step = solver.step
    monkeypatch.setattr(solver, "step", lambda *a, **kw: steps.append(1) or step(*a, **kw))
    out = tmp_path / "pulse_demo"
    assert run_script(monkeypatch, "run_pulse_demo.py", "--n", "101", "--out", str(out)) == 0
    for name in ("energy.csv", "power.csv", "cesaro.csv", "residuals.csv"):
        assert (out / name).stat().st_size > 0
    printed = capsys.readouterr().out
    assert "energy drift" in printed
    # the printed step count is the number of steps the solver took
    assert re.search(r"^steps to T=[0-9.]+: (\d+)$", printed, re.M).group(1) == str(len(steps))


def test_decay_study_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run_script(monkeypatch, "decay_study.py", "--n", "101")
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert len(lines) == 5  # speed line, header, one row per lambda


def test_equipartition_study_imports_resolve(monkeypatch, capsys):
    # --help exits before any run, after the script's imports from verify
    assert run_script(monkeypatch, "equipartition_study.py", "--help") == 0
    assert "Cesàro gap" in capsys.readouterr().out
