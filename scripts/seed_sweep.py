#!/usr/bin/env python3
"""Seed sweep: run a verification suite over a range of seeds.

Prints one CSV row per seed and check (``seed,name,measured,target,tol,passed``,
floats as ``%.17g``), leaving out the wall-time ``runtime_*`` checks so that
the rows of two checkouts diff clean.  Then prints, per check, its min and
max over the seeds and the seeds where it failed.  Exits 1 if any check
failed.

    PYTHONPATH=src python scripts/seed_sweep.py --suite all --seeds 0-9
"""

from __future__ import annotations

import argparse

from poromix.config import SUITES
from poromix.verify import run_suite


def seed_range(text: str) -> range:
    """Seeds A-B, both included (argparse reports a ValueError as a bad value)."""
    first, last = map(int, text.split("-"))
    if last < first:
        raise ValueError(text)
    return range(first, last + 1)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--suite", choices=SUITES + ("all",), default="all")
    ap.add_argument("--seeds", type=seed_range, default=seed_range("0-9"), metavar="A-B")
    args = ap.parse_args()

    values, failed = {}, {}
    print("seed,name,measured,target,tol,passed")
    for seed in args.seeds:
        for c in run_suite(args.suite, seed=seed).checks:
            if c.name.startswith("runtime_"):
                continue
            print(f"{seed},{c.name},{c.measured:.17g},{c.target:.17g},{c.tol:.17g},{int(c.passed)}")
            values.setdefault(c.name, []).append(c.measured)
            failed.setdefault(c.name, [])
            if not c.passed:
                failed[c.name].append(seed)
    print()
    for name, measured in values.items():
        seeds = " ".join(map(str, failed[name])) or "-"
        print(f"{name}: min {min(measured):.6g} max {max(measured):.6g} failed at seeds {seeds}")
    return 1 if any(failed.values()) else 0


if __name__ == "__main__":
    raise SystemExit(main())
