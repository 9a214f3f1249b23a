"""Runs of scripts/seed_sweep.py on small seed ranges."""

from __future__ import annotations

import math
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
            verify.CheckResult("runtime_fake", "wall time (s)", 0.5, 1.0, compare="<"),
            # fails at the odd seeds, where the bound is 0
            verify.CheckResult("fake", "seed is even", 0.1 * seed, 0.0 if seed % 2 else 1.0),
        ]
        return report

    monkeypatch.setattr(verify, "run_suite", fake_suite)
    assert run_script(monkeypatch, "seed_sweep.py", "--suite", "decay", "--seeds", "2-5") == 1
    rows, summary = capsys.readouterr().out.split("\n\n")
    assert "runtime_fake" not in rows + summary
    assert rows.splitlines()[2] == "3,fake,0.30000000000000004,0,0,0"
    assert summary.splitlines() == ["fake: min 0.2 max 0.5 failed at seeds 3 5"]


def test_seed_sweep_lists_the_values_that_moved_against_an_old_sweep(monkeypatch, capsys,
                                                                   tmp_path):
    new = {"drift": 2.0 * (1 + 3e-12), "steady": 2.0 * (1 + 5e-13), "tiny": 4e-13,
           "was_zero": 0.5, "failing": 1.0, "added": 3.0}

    def fake_suite(name, seed):
        report = verify.VerifyReport(suite=name)
        report.checks += [verify.CheckResult(check, "", value,
                                             0.0 if check == "failing" else math.inf)
                          for check, value in new.items()]
        return report

    old = tmp_path / "old.csv"
    old.write_text("seed,name,measured,target,tol,passed\n"
                   "7,drift,2,0,0,1\n7,steady,2,0,0,1\n7,tiny,-5e-13,0,0,0\n"
                   "7,was_zero,0,0,0,1\n7,failing,1,0,0,1\n7,gone,1,0,0,1\n"
                   "\ndrift: min 2 max 2 failed at seeds -\n")
    monkeypatch.setattr(verify, "run_suite", fake_suite)
    assert run_script(monkeypatch, "seed_sweep.py", "--suite", "decay", "--seeds", "7-7",
                      "--against", str(old)) == 1  # the failing check sets the exit code
    blocks = capsys.readouterr().out.split("\n\n")
    moved = blocks[2].splitlines()
    assert moved[:2] == [f"moved against {old}: 2 of 5, the largest inf relative at seed 7 "
                         "was_zero", "seed,name,old,new,ratio"]
    assert [row.split(",")[:2] for row in moved[2:]] == [["7", "drift"], ["7", "was_zero"]]
    ratio = float(moved[2].split(",")[4])
    assert ratio == pytest.approx(1 + 3e-12, rel=1e-13) and moved[3].endswith(",0.5,nan")
    # a flipped pass flag is listed whether or not its value moved
    assert blocks[3].splitlines() == [f"flipped against {old}: 2 of 5", "seed,name,old,new",
                                      "7,tiny,0,1", "7,failing,1,0"]
    # a check that one sweep lacks is listed with the sweep that has it
    assert blocks[4].splitlines() == [f"in one sweep only against {old}: 2", "seed,name,sweep",
                                      "7,added,new", "7,gone,old"]


def test_seed_sweep_names_the_largest_relative_move(monkeypatch, capsys, tmp_path):
    # "big" moves furthest in absolute terms, "gap" at seed 2 furthest relative to its size
    def fake_suite(name, seed):
        report = verify.VerifyReport(suite=name)
        report.checks += [verify.CheckResult("gap", "", 1e-5 * (1 + (3e-11, 5e-11)[seed - 1]),
                                             math.inf),
                          verify.CheckResult("big", "", 1e3 * (1 + 2e-11), math.inf)]
        return report

    old = tmp_path / "old.csv"
    old.write_text("seed,name,measured,target,tol,passed\n"
                   "1,gap,1e-05,0,0,1\n1,big,1000,0,0,1\n2,gap,1e-05,0,0,1\n2,big,1000,0,0,1\n")
    monkeypatch.setattr(verify, "run_suite", fake_suite)
    assert run_script(monkeypatch, "seed_sweep.py", "--suite", "decay", "--seeds", "1-2",
                      "--against", str(old)) == 0
    moved = capsys.readouterr().out.split("\n\n")[2].splitlines()
    assert moved[0] == f"moved against {old}: 4 of 4, the largest 5e-11 relative at seed 2 gap"


def test_seed_sweep_names_no_largest_move_when_nothing_moved(monkeypatch, capsys, tmp_path):
    def fake_suite(name, seed):
        report = verify.VerifyReport(suite=name)
        report.checks.append(verify.CheckResult("steady", "", 2.0, math.inf))
        return report

    old = tmp_path / "old.csv"
    old.write_text("seed,name,measured,target,tol,passed\n0,steady,2,0,0,1\n")
    monkeypatch.setattr(verify, "run_suite", fake_suite)
    assert run_script(monkeypatch, "seed_sweep.py", "--suite", "decay", "--seeds", "0-0",
                      "--against", str(old)) == 0
    moved = capsys.readouterr().out.split("\n\n")[2].splitlines()
    assert moved[0] == f"moved against {old}: 0 of 1"
