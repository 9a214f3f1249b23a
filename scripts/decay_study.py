#!/usr/bin/env python3
"""Spatial-decay study: envelope slopes of P(r, t) across a lambda sweep.

For each lambda in {0.5, 1, 2} * c / L the time-weighted surface power is
taken from one snapshot pass over a recorded trajectory and compared
against the exponential envelope with rate lambda / c.
"""

from __future__ import annotations

import argparse


import poromix as pm
from poromix import diagnostics as diag
from poromix.verify import _pulse_trajectory


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=2)
    ap.add_argument("--n", type=int, default=401)
    ap.add_argument("--tol", type=float, default=0.05)
    args = ap.parse_args()

    consts = pm.random_material(args.seed)
    problem, geom, traj, speed = _pulse_trajectory(consts, args.n)
    r_grid = diag.default_r_grid(geom)
    length = problem.grid.extent()[0]
    print(f"c = {speed.c:.4f}, L = {geom.L:.4f}, T = {traj.times[-1]:.4f}")
    print(f"{'lambda':>10} {'slope':>10} {'-lam/c':>10} {'max ratio':>10} {'ok':>4}")
    flux = diag.surface_power(traj, geom, r_grid)
    all_ok = True
    for mult in (0.5, 1.0, 2.0):
        lam = mult * speed.c / length
        rep = diag.decay_report(flux.weighted(lam), speed, t=float(traj.times[-1]), tol_h=args.tol)
        print(f"{lam:10.4f} {rep.slope:10.4f} {-lam / speed.c:10.4f} "
              f"{rep.max_bound_ratio:10.4f} {'yes' if rep.bound_ok else 'NO':>4}")
        all_ok = all_ok and rep.bound_ok
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
