#!/usr/bin/env python3
"""poromix benchmark.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a poromix checkout; the program is imported from
``src/``.  Every measured run of the program is a fresh process running
``poromix.cli.main`` with one thread (``POROMIX_THREADS=1`` and one
BLAS/OpenMP thread).  A workload is a closed loop: one client, each child
started after the previous one ended, until ``--seconds`` have passed.
Without ``--workload`` every workload runs in turn.

``--trace 0`` reports the end-to-end metrics: median child wall time, set-up
time (a separate probe process, repeated), peak RSS of each child from its own
rusage, and leapfrog node-steps per second.  Times are scaled to a nominal
machine speed (see ``REF_NOMINAL_S``); the raw times are in the results file.
The children count leapfrog steps with one counter on ``solver.step`` and
nothing else.  ``--trace 1`` alternates those children with traced ones and
reports the per-layer metrics of the traced ones (see ``tracer.py``) plus the
tracing overhead.

Every child's outputs are checked, and must repeat exactly between children
of one config; a child whose check fails counts in ``failed``.  The last line
of standard output is the JSON result; the same result, with the per-child
samples and the environment, is written to ``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path


from tracer import EXACT_UNITS, PER_LAYER, SUITES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

RUN_SECONDS = 30.0
# Machine-speed reference: a fixed kernel (``child.py reference``) timed before
# the first child and after every child.  A child's wall time is scaled by its
# speed, REF_NOMINAL_S over the mean kernel time on either side of it, i.e.
# reported in seconds at the speed where the kernel takes REF_NOMINAL_S.  The
# shared 2-core host this benchmark was built on slows poromix by up to 1.7x
# for minutes at a time; over seeds 1-10 the scaling cut the interquartile
# spread of run medians from 15% to 9% (sim1d-long), 11% to 5% (sim2d-pulse)
# and 20% to 11% (verify-core).  Raw times and speeds stay in the results file.
REF_NOMINAL_S = 0.075
CHILD_TIMEOUT_S = 120.0
MIN_CHILDREN = 3
SETUP_PROBES = 7
# Leapfrog with traction-free walls and no sources conserves the discrete
# energy up to a bounded O(dt^2) oscillation (measured: 2e-5 in 1-D, 2e-3 on
# the coarse 2-D grid); anything beyond this is a broken integrator.
ENERGY_DRIFT_BOUND = 1e-2

SIM1D_STEPS = 800
SIM2D_STEPS = 100

WORKLOADS = {
    "sim1d-long": "poromix simulate, 1-D n=801, coupled u1/phi1 pulse, energy every step: "
                  "the interpreter-bound per-step path",
    "sim2d-pulse": "poromix simulate, 2-D 64x64 centred pulse, snapshot every 10 steps: "
                   "larger arrays, support geometry sets peak memory",
    "verify-core": "poromix verify on " + " ".join(SUITES) + ": "
                   "per-point materials/pointwise algebra",
}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "node_steps_per_s": "1/s",
}


# ---------------------------------------------------------------------------
# Child processes.
# ---------------------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "POROMIX_THREADS"):
        env[key] = "1"
    return env


@dataclass
class Child:
    """One finished child: wall time, its own peak RSS, exit code, log, report.

    ``speed`` is the machine speed relative to nominal around the child, set
    by :func:`closed_loop`; ``scaled_s`` is its wall time at nominal speed.
    """

    wall_s: float
    peak_rss_mb: float
    code: int
    log: Path
    report: dict = field(default_factory=dict)
    speed: float = 1.0

    @property
    def scaled_s(self) -> float:
        return self.wall_s * self.speed


class SpeedProbe:
    """Times the reference kernel in a helper process.

    The kernel needs numpy and a large array; keeping them out of this process
    keeps its memory out of the children, whose rusage peak RSS counts the
    memory of the process they were spawned from.
    """

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), "reference"],
                                     cwd=ROOT, env=child_env(), stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self.env = json.loads(self.proc.stdout.readline())

    def __call__(self) -> float:
        """Machine speed now: REF_NOMINAL_S over the kernel's time."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return REF_NOMINAL_S / float(self.proc.stdout.readline())

    def __enter__(self) -> "SpeedProbe":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def run_child(argv: list[str], log: Path) -> Child:
    """Run one child to completion; its peak RSS comes from its own rusage."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=fh,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall_s = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux.
    return Child(wall_s, usage.ru_maxrss * 1024 / 1e6, proc.returncode, log)


def closed_loop(run_one, seconds: float, minimum: int, speed: SpeedProbe) -> list[Child]:
    """Run ``run_one(i)`` back to back for ``seconds``, and at least ``minimum`` times.

    The reference kernel is timed before the first child and after each one; a
    child's speed is the mean of the two readings on either side of it.
    """
    children: list[Child] = []
    before = speed()
    deadline = time.perf_counter() + seconds
    while len(children) < minimum or time.perf_counter() < deadline:
        child = run_one(len(children))
        after = speed()
        child.speed = (before + after) / 2
        before = after
        children.append(child)
    return children


def instrumented(mode: str, report: Path, *args: str) -> list[str]:
    return [sys.executable, str(HERE / "child.py"), mode, str(report), *args]


# ---------------------------------------------------------------------------
# Workload inputs, made from the seed alone.
# ---------------------------------------------------------------------------


def wave_speed(seed: int, work: Path) -> float:
    """c of the seeded material, from ``poromix material-check``."""
    log = work / "material-check.log"
    child = run_child([sys.executable, "-m", "poromix.cli", "material-check", f"random:{seed}"], log)
    lines = log.read_text().splitlines()
    speeds = [float(line.split("=", 1)[1]) for line in lines if line.startswith("c =")]
    if child.code != 0 or len(speeds) != 1:
        raise RuntimeError(f"material-check random:{seed} failed:\n" + "\n".join(lines))
    return speeds[0]


def _sim_config(seed: int, work: Path, dim: int, n: int, steps: int, snapshot_every: int,
                init: list[str]) -> str:
    # T is a whole number of CFL steps of this material, so every seed runs
    # the same number of leapfrog steps (c, and with it dt, varies by ~20%
    # between random materials).  The half step keeps ceil(T/dt) off the edge.
    cfl = 0.5
    dt = cfl * (1.0 / (n - 1)) / (wave_speed(seed, work) * math.sqrt(dim))
    sides = [f"{axis}{end}" for axis in "xy"[:dim] for end in (0, 1)]
    lines = [
        f"material = random:{seed}",
        f"grid.dim = {dim}",
        "grid.n = " + " ".join([str(n)] * dim),
        f"T = {(steps - 0.5) * dt!r}",
        f"cfl = {cfl}",
        "record.energy_every = 1",
        f"record.snapshot_every = {snapshot_every}",
        *init,
        *(f"boundary.{family}.{side} = traction_free" for family in ("u", "phi") for side in sides),
    ]
    return "\n".join(lines) + "\n"


def make_config(workload: str, seed: int, work: Path) -> tuple[Path, list[str]]:
    """Write the workload's config; return it and the poromix arguments."""
    cfg = work / f"{workload}.cfg"
    if workload == "verify-core":
        cfg.write_text(f"material = random:{seed}\nverify.suites = {' '.join(SUITES)}\noutput = out\n")
        return cfg, ["verify", "--config", str(cfg), "--seed", str(seed)]
    if workload == "sim1d-long":
        text = _sim_config(seed, work, dim=1, n=801, steps=SIM1D_STEPS, snapshot_every=200, init=[
            "init = gaussian_pulse field=u1 component=0 center=0.45 width=0.06 amplitude=1.0",
            "init = gaussian_pulse field=phi1 center=0.5 width=0.06 amplitude=0.5",
        ])
    else:
        text = _sim_config(seed, work, dim=2, n=64, steps=SIM2D_STEPS, snapshot_every=10, init=[
            "init = gaussian_pulse field=u1 component=0 center=0.5,0.5 width=0.06 amplitude=1.0",
        ])
    cfg.write_text(text)
    return cfg, ["simulate", "--config", str(cfg), "--out", str(work / "out")]


# ---------------------------------------------------------------------------
# Correctness of one child's outputs.
# ---------------------------------------------------------------------------


def _read_rows(path: Path) -> list[list[float]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return [[float(v) for v in row] for row in rows[1:]]


def check_simulate(child: Child, out: Path) -> tuple[list[str], bytes]:
    """Exit 0, bounded energy drift, finite residuals, every artifact in the manifest.

    The manifest (sha256 of every artifact) is what must repeat exactly.
    """
    if child.code != 0:
        return [f"exit code {child.code}"], b""
    problems = []
    manifest = (out / "manifest.txt").read_bytes()
    listed = {name: digest for digest, name in
              (line.split("  ", 1) for line in manifest.decode().splitlines())}
    artifacts = sorted(p.relative_to(out).as_posix() for p in out.rglob("*")
                       if p.is_file() and p.name != "manifest.txt")
    for name in ("energy.csv", "power.csv", "cesaro.csv", "residuals.csv", "config.canonical"):
        if name not in artifacts:
            problems.append(f"missing {name}")
    if not any(name.startswith("snapshots/") for name in artifacts):
        problems.append("no snapshots")
    for name in artifacts:
        if listed.get(name) != hashlib.sha256((out / name).read_bytes()).hexdigest():
            problems.append(f"{name} not in manifest.txt with its sha256")
    energy = _read_rows(out / "energy.csv")
    total = [row[4] for row in energy]
    drift = max(abs(v - total[0]) for v in total) / abs(total[0])
    if not drift <= ENERGY_DRIFT_BOUND:
        problems.append(f"energy drift {drift:.3e} > {ENERGY_DRIFT_BOUND:g}")
    for name in ("energy.csv", "residuals.csv", "power.csv"):
        if not all(math.isfinite(v) for row in _read_rows(out / name) for v in row):
            problems.append(f"non-finite value in {name}")
    steps = child.report.get("steps")
    if steps != len(energy) - 1:
        problems.append(f"energy.csv records {len(energy) - 1} steps, the solver took {steps}")
    return problems, manifest


def check_verify(child: Child, out: Path) -> tuple[list[str], bytes]:
    """Exit 0 and every check PASS, the suites' wall-time gates included.

    The check results, without the wall-time rows, and the node-step count
    are what must repeat exactly.
    """
    problems = [] if child.code == 0 else [f"exit code {child.code}"]
    text = child.log.read_text()
    checks = [line for line in text.splitlines() if line.startswith("[")]
    if not checks:
        problems.append("no checks reported")
    problems += [f"check not passed: {line}" for line in checks if not line.startswith("[PASS]")]
    problems += [f"suite {s} did not pass" for s in SUITES if f"suite {s}: PASS" not in text]
    rows = [f"node_steps {child.report.get('node_steps')}"]
    for suite in SUITES:
        path = out / f"verify_{suite}.csv"
        if not path.exists():
            problems.append(f"missing {path.name}")
            continue
        rows += [line for line in path.read_text().splitlines() if not line.startswith("runtime_")]
    return problems, "\n".join(rows).encode()


def run_program(workload: str, mode: str, args: list[str], work: Path, tag: str,
                *extra: str) -> tuple[Child, list[str], bytes]:
    """Run poromix once in a ``child.py`` process on a fresh output directory.

    Returns the child, the problems its outputs show, and the bytes that must
    repeat exactly between runs of one config.
    """
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    report = work / f"{tag}.json"
    child = run_child(instrumented(mode, report, *extra, "--", *args), work / f"{tag}.log")
    if report.exists():
        child.report = json.loads(report.read_text())
    check = check_verify if workload == "verify-core" else check_simulate
    try:
        problems, same = check(child, out)
    except (OSError, ValueError, IndexError, ZeroDivisionError) as exc:
        problems, same = [f"outputs unreadable: {exc!r}"], b""
    return child, problems, same


# ---------------------------------------------------------------------------
# Runs.
# ---------------------------------------------------------------------------


class Tally:
    """Children attempted and failed, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: bytes | None = None

    def add(self, tag: str, problems: list[str], same: bytes) -> None:
        self.attempted += 1
        if self.reference is None:
            self.reference = same
        elif same != self.reference:
            problems = problems + ["outputs differ from the first run of this config"]
        if problems:
            self.failures.append(f"{tag}: " + "; ".join(problems))

    @property
    def failed(self) -> int:
        return len(self.failures)


def setup_times(cfg: Path, work: Path, speed: SpeedProbe) -> list[Child]:
    """SETUP_PROBES fresh set-up probes, after one warm-up probe; ``wall_s`` is set-up time."""
    report, log = work / "setup.json", work / "setup.log"

    def probe(_):
        child = run_child(instrumented("setup", report, str(cfg)), log)
        if child.code != 0:
            raise RuntimeError("set-up probe failed:\n" + log.read_text())
        child.wall_s = json.loads(report.read_text())["setup_s"]
        return child

    return closed_loop(probe, 0.0, SETUP_PROBES + 1, speed)[1:]


def measure(workload: str, seed: int, seconds: float, work: Path, speed: SpeedProbe) -> dict:
    """Closed loop of counted children for ``seconds``; end-to-end metrics."""
    cfg, args = make_config(workload, seed, work)
    setups = setup_times(cfg, work, speed)
    tally = Tally()

    def run_one(i):
        child, problems, same = run_program(workload, "count", args, work, f"run{i}")
        tally.add(f"run{i}", problems, same)
        return child

    runs = closed_loop(run_one, seconds, MIN_CHILDREN, speed)
    walls = [c.scaled_s for c in runs]
    node_steps = [c.report.get("node_steps", 0) for c in runs]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(c.scaled_s for c in setups),
        "peak_rss_mb": statistics.median(c.peak_rss_mb for c in runs),
        "node_steps_per_s": statistics.median(n / w for n, w in zip(node_steps, walls)),
    }
    n = len(runs)
    raw_wall = statistics.median(c.wall_s for c in runs)
    raw_setup = statistics.median(c.wall_s for c in setups)
    speed = statistics.median(c.speed for c in runs)
    return {
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
        "counts": {
            "wall_s": f"median of {n}; raw {raw_wall:.4g} s at speed {speed:.2f}",
            "setup_s": f"median of {len(setups)}; raw {raw_setup:.4g} s",
            "peak_rss_mb": f"median of {n}",
            "node_steps_per_s": f"median of {n}",
        },
        "samples": {
            "raw_wall_s": [c.wall_s for c in runs], "speed": [c.speed for c in runs],
            "raw_setup_s": [c.wall_s for c in setups], "setup_speed": [c.speed for c in setups],
            "peak_rss_mb": [c.peak_rss_mb for c in runs], "node_steps": node_steps,
        },
        "tally": tally,
    }


def measure_traced(workload: str, seed: int, seconds: float, work: Path,
                   speed: SpeedProbe) -> dict:
    """Alternate counted and traced children; per-layer metrics from the traced ones."""
    _, args = make_config(workload, seed, work)
    spans = OUT / "results" / f"{workload}-seed{seed}-spans.tsv"
    tally = Tally()

    def run_one(i):
        tag = f"{'traced' if i % 2 else 'plain'}{i // 2}"
        if i % 2 == 0:
            child, problems, same = run_program(workload, "count", args, work, tag)
        else:
            child, problems, same = run_program(workload, "trace", args, work, tag, str(spans))
            if "metrics" not in child.report:
                problems.append("traced child wrote no metrics")
        tally.add(tag, problems, same)
        return child

    children = closed_loop(run_one, seconds, 4, speed)
    plain, traced = children[0::2], children[1::2]
    layers = [c.report.get("metrics", {}) for c in traced]
    n = len(traced)
    metrics, counts = {}, {}
    for name, unit in PER_LAYER.items():
        if name == "trace_overhead_s":
            continue
        values = [m.get(name, 0.0) for m in layers]
        if unit in EXACT_UNITS:
            if len(set(values)) > 1:
                tally.failures.append(f"count {name} differs between traced runs: {values}")
            metrics[name], counts[name] = values[0], f"same in {n} traced"
        else:
            metrics[name], counts[name] = statistics.median(values), f"median of {n} traced"
    metrics["trace_overhead_s"] = (statistics.median(c.scaled_s for c in traced)
                                   - statistics.median(c.scaled_s for c in plain))
    counts["trace_overhead_s"] = f"median of {n} traced - median of {len(plain)} plain"
    return {
        "metrics": {k: {"value": v, "unit": PER_LAYER[k]} for k, v in metrics.items()},
        "counts": counts,
        "samples": {"plain_wall_s": [c.wall_s for c in plain],
                    "traced_wall_s": [c.wall_s for c in traced], "layers": layers},
        "tally": tally,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int, env: dict,
                 speed: SpeedProbe) -> dict:
    """Measure one workload, print its report, save it; return the result line."""
    work = OUT / "work" / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    result = (measure_traced if trace else measure)(workload, seed, seconds, work, speed)
    tally: Tally = result["tally"]

    print(f"workload {workload} (seed {seed}, trace {trace}): {WORKLOADS[workload]}")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:<14.6g} {m['unit']:8s} ({result['counts'][name]})")
    print(f"  {'failed_runs':40s} {tally.failed} of {tally.attempted}")
    for failure in tally.failures:
        print(f"  FAILED {failure}")

    line = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": result["metrics"],
    }
    record = {**line, "workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
              "env": env, "samples": result["samples"], "failures": tally.failures}
    name = f"{workload}-seed{seed}-trace{trace}.json"
    (OUT / "results" / name).write_text(json.dumps(record, indent=1) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "poromix" / "cli.py").is_file():
        print(f"error: no poromix sources under {SRC}", file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    with SpeedProbe() as speed:
        # src_lines is informational: the size of the program measured.
        env = {"nproc": os.cpu_count(), **speed.env,
               "src_lines": sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))}
        print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
        lines = {w: run_workload(w, args.seed, args.seconds, args.trace, env, speed)
                 for w in workloads}
    if args.workload:
        line = lines[args.workload]
    else:
        line = {
            "correct": all(v["correct"] for v in lines.values()),
            "attempted": sum(v["attempted"] for v in lines.values()),
            "failed": sum(v["failed"] for v in lines.values()),
            "metrics": {f"{w}.{k}": m for w, v in lines.items() for k, m in v["metrics"].items()},
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
