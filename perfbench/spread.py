#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's median and spread.

    python3 perfbench/spread.py [--workload NAME ...] [--seeds 1-10] [--seconds S] [--out FILE]

For every workload and seed this runs ``run.py`` as the benchmark command
would, then prints, per end-to-end metric, the median over seeds and the
interquartile spread as a share of the median (``statistics.quantiles`` with
n=4), next to the metric's bound from BENCHMARK.json.  ``--out`` writes the
same summary as JSON.  Exits 1 if any run failed its checks or a spread other
than that of setup_s exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    summary, bad = {}, []
    for workload in workloads:
        lines = []
        for seed in args.seeds:
            cmd = [sys.executable, *spec["command"][1:], "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            line = json.loads(out.stdout.strip().splitlines()[-1])
            if not line["correct"]:
                bad.append(f"{workload} seed {seed}: {line['failed']} of {line['attempted']} failed")
            lines.append(line)
        print(f"{workload}: {len(lines)} runs, seeds {args.seeds[0]}-{args.seeds[-1]}")
        summary[workload] = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [line["metrics"][name]["value"] for line in lines]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            summary[workload][name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                                       "bound": metric["bound"], "values": values}
            flag = "" if spread <= metric["bound"] / 3 else "  > bound/3"
            if spread > metric["bound"] and name != "setup_s":
                flag = "  > BOUND"
                bad.append(f"{workload} {name}: spread {spread:.3f} > bound {metric['bound']}")
            print(f"  {name:18s} median {median:<12.6g} {metric['unit']:4s} "
                  f"spread {spread:.3f} (bound {metric['bound']}){flag}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    for problem in bad:
        print(f"FAIL {problem}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
