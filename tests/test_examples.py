"""The example configs under examples/, run through the command line on smaller grids."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from poromix import cli, solver

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"
# node counts for the tier-1 runs; the equipartition case steps 50 transits
SMALL_N = {"equipartition_pinned.cfg": 51}


def small_copy(tmp_path: Path, name: str) -> Path:
    """The example with fewer nodes, next to its own output directory under ``tmp_path``."""
    text = (EXAMPLES / name).read_text()
    text, count = re.subn(r"^grid\.n = .*$", f"grid.n = {SMALL_N.get(name, 101)}", text,
                          flags=re.M)
    assert count == 1
    path = tmp_path / name
    path.write_text(text)
    return path


def test_every_example_is_covered():
    assert sorted(p.name for p in EXAMPLES.glob("*.cfg")) == [
        "decay_study.cfg", "equipartition_pinned.cfg", "pulse_demo.cfg"]


@pytest.mark.parametrize("name", sorted(p.name for p in EXAMPLES.glob("*.cfg")))
def test_example_simulates_and_summarizes(tmp_path, monkeypatch, capsys, name):
    steps, step = [], solver.step
    monkeypatch.setattr(solver, "step", lambda *a, **kw: steps.append(1) or step(*a, **kw))
    assert cli.main(["simulate", "--config", str(small_copy(tmp_path, name))]) == 0
    printed = capsys.readouterr()
    out = Path(re.fullmatch(r"wrote \d+ artifacts to (.*)\n", printed.out).group(1))
    # the config's output path is next to the config
    assert out.parent.parent == tmp_path
    listed = {line.split("  ", 1)[1] for line in (out / "manifest.txt").read_text().splitlines()}
    on_disk = {p.relative_to(out).as_posix() for p in out.rglob("*")
               if p.is_file() and p.name != "manifest.txt"}
    assert on_disk <= listed
    assert {"energy.csv", "power.csv", "cesaro.csv", "residuals.csv"} <= on_disk
    err = printed.err.splitlines()
    assert [line.split(":")[0] for line in err] == [
        "steps", "energy drift", "front speed / c", "max |P-E|/E"]
    # the summary's step count is the number of steps the solver took
    assert re.fullmatch(r"steps: (\d+), dt = \S+", err[0]).group(1) == str(len(steps))


def test_decay_example_reports_three_rates(tmp_path, monkeypatch, capsys):
    # the report reads only the snapshots' energies, so it records the split on their cadence
    path = small_copy(tmp_path, "decay_study.cfg")
    cadences, stream = [], cli.stream
    monkeypatch.setattr(cli, "stream", lambda problem, *a: cadences.append(
        (problem.energy_every, problem.snapshot_every)) or stream(problem, *a))
    assert cli.main(["decay-report", "--config", str(path), "--lambda-sweep"]) == 0
    assert capsys.readouterr().out.count("lambda=") == 3
    assert cadences == [(2, 2)]
