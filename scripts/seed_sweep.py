#!/usr/bin/env python3
"""Seed sweep: run a verification suite over a range of seeds.

Prints one CSV row per seed and check (``seed,name,measured,target,tol,passed``,
floats as ``%.17g``), leaving out the wall-time ``runtime_*`` checks so that
the rows of two checkouts diff clean.  Then prints, per check, its min and
max over the seeds and the seeds where it failed.  Exits 1 if any check
failed.  With ``--against OLD.csv``, the rows of an earlier sweep, it then
prints every (seed, check) in both whose value moved by more than 1e-12
relative (absolute where both values are below 1e-12 in magnitude), with the
old and new value and their ratio, after a count that names the largest
relative move with its seed and check, then every (seed, check) in both whose
pass flag differs, and then every (seed, check) found in only one of the two
sweeps, with the sweep it is in.

    PYTHONPATH=src python scripts/seed_sweep.py --suite all --seeds 0-9
    PYTHONPATH=src python scripts/seed_sweep.py --against old.csv > new.csv
"""

from __future__ import annotations

import argparse
import csv
import math

from poromix.config import SUITES
from poromix.verify import run_suite


def seed_range(text: str) -> range:
    """Seeds A-B, both included (argparse reports a ValueError as a bad value)."""
    first, last = map(int, text.split("-"))
    if last < first:
        raise ValueError(text)
    return range(first, last + 1)


MOVED = 1e-12  # relative; absolute below this magnitude


def moved(old: float, new: float) -> bool:
    scale = max(abs(old), abs(new))
    return abs(new - old) > (MOVED * abs(old) if scale >= MOVED else MOVED)


def relative_move(old: float, new: float) -> float:
    """|new − old| / |old|; inf from 0."""
    return abs(new - old) / abs(old) if old else math.inf


def old_values(path: str) -> dict[tuple[int, str], tuple[float, bool]]:
    """(seed, name) -> (measured, passed) of the CSV rows of an earlier sweep (up
    to its summary)."""
    values = {}
    with open(path, newline="") as f:
        for row in list(csv.reader(f))[1:]:
            if not row:  # the blank line before the summary
                break
            values[int(row[0]), row[1]] = float(row[2]), row[5] == "1"
    return values


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--suite", choices=SUITES + ("all",), default="all")
    ap.add_argument("--seeds", type=seed_range, default=seed_range("0-9"), metavar="A-B")
    ap.add_argument("--against", metavar="OLD.csv",
                    help="an earlier sweep's output; list the values that moved and "
                         "the pass flags that flipped since")
    args = ap.parse_args()
    old = old_values(args.against) if args.against else None

    values, failed, rows = {}, {}, {}
    print("seed,name,measured,target,tol,passed")
    for seed in args.seeds:
        for c in run_suite(args.suite, seed=seed).checks:
            if c.name.startswith("runtime_"):
                continue
            print(f"{seed},{c.name},{c.measured:.17g},{c.target:.17g},{c.tol:.17g},{int(c.passed)}")
            values.setdefault(c.name, []).append(c.measured)
            rows[seed, c.name] = c.measured, c.passed
            failed.setdefault(c.name, [])
            if not c.passed:
                failed[c.name].append(seed)
    print()
    for name, measured in values.items():
        seeds = " ".join(map(str, failed[name])) or "-"
        print(f"{name}: min {min(measured):.6g} max {max(measured):.6g} failed at seeds {seeds}")
    if old is not None:
        both = [key for key in rows if key in old]
        changed = [(key, old[key][0], rows[key][0]) for key in both
                   if moved(old[key][0], rows[key][0])]
        largest = ""
        if changed:
            (seed, name), was, new = max(changed, key=lambda c: relative_move(*c[1:]))
            largest = f", the largest {relative_move(was, new):.2g} relative at seed {seed} {name}"
        print(f"\nmoved against {args.against}: {len(changed)} of {len(both)}{largest}")
        print("seed,name,old,new,ratio")
        for (seed, name), was, new in changed:
            ratio = new / was if was else math.nan
            print(f"{seed},{name},{was:.17g},{new:.17g},{ratio:.17g}")
        flipped = [key for key in both if old[key][1] != rows[key][1]]
        print(f"\nflipped against {args.against}: {len(flipped)} of {len(both)}")
        print("seed,name,old,new")
        for seed, name in flipped:
            print(f"{seed},{name},{int(old[seed, name][1])},{int(rows[seed, name][1])}")
        only = sorted([(key, "old") for key in old.keys() - rows.keys()]
                      + [(key, "new") for key in rows.keys() - old.keys()])
        print(f"\nin one sweep only against {args.against}: {len(only)}")
        print("seed,name,sweep")
        for (seed, name), sweep in only:
            print(f"{seed},{name},{sweep}")
    return 1 if any(failed.values()) else 0


if __name__ == "__main__":
    raise SystemExit(main())
