"""Runs of scripts/seed_sweep.py on small seed ranges."""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

import pytest

from poromix import verify

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(monkeypatch, name: str, *args: str) -> int:
    monkeypatch.setattr(sys, "argv", [name, *args])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return exc.value.code


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
