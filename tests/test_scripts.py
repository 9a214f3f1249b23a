"""Smoke runs of the study scripts on small grids."""

from __future__ import annotations

import re
import runpy
import sys
from pathlib import Path

import pytest

from poromix import solver, verify

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


def test_seed_sweep_prints_rows_and_summary(monkeypatch, capsys):
    assert run_script(monkeypatch, "seed_sweep.py", "--suite", "uniqueness", "--seeds", "0-1") == 0
    rows, summary = capsys.readouterr().out.split("\n\n")
    assert rows.splitlines() == [
        "seed,name,measured,target,tol,passed",
        "0,null_data_null_solution,0,0,0,1", "0,determinism,1,1,0,1",
        "1,null_data_null_solution,0,0,0,1", "1,determinism,1,1,0,1",
    ]
    assert summary.splitlines() == [
        "null_data_null_solution: min 0 max 0 failed at seeds -",
        "determinism: min 1 max 1 failed at seeds -",
    ]


def test_seed_sweep_skips_runtimes_and_exits_1_on_failure(monkeypatch, capsys):
    def fake_suite(name, seed):
        report = verify.VerifyReport(suite=name)
        report.checks += [
            verify.CheckResult("runtime_fake", "wall time (s)", 0.5, 1.0, 0.0, True),
            verify.CheckResult("fake", "seed is even", 0.1 * seed, 0.0, 0.0, seed % 2 == 0),
        ]
        return report

    monkeypatch.setattr(verify, "run_suite", fake_suite)
    assert run_script(monkeypatch, "seed_sweep.py", "--suite", "decay", "--seeds", "2-5") == 1
    rows, summary = capsys.readouterr().out.split("\n\n")
    assert "runtime_fake" not in rows + summary
    assert rows.splitlines()[2] == "3,fake,0.30000000000000004,0,0,0"
    assert summary.splitlines() == ["fake: min 0.2 max 0.5 failed at seeds 3 5"]
