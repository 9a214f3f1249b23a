#!/usr/bin/env python3
"""Pulse demo: integrate a coupled mixture pulse and dump the diagnostics.

Writes energy.csv / power.csv / cesaro.csv / residuals.csv into --out and
prints a compact summary (energy drift, front speed vs c, P = E agreement).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os

import poromix as pm
from poromix import diagnostics as diag
from poromix import io as pio
from poromix.verify import _power_error


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--n", type=int, default=401)
    ap.add_argument("--width", type=float, default=0.02)
    ap.add_argument("--out", default="out/pulse_demo")
    args = ap.parse_args()

    consts = pm.random_material(args.seed)
    grid = pm.Grid(args.n)
    boundary = pm.BoundaryPartition.uniform("natural", "natural", dim=1)
    initial = pm.InitialData(
        u1=pm.gaussian_pulse([0.5], args.width, 1.0, component=0),
        v1=pm.gaussian_pulse([0.5], args.width, 0.5, component=0),
    )
    probe = pm.ProblemSpec(grid=grid, consts=consts, boundary=boundary,
                           initial=initial, T=0.0)
    geom = diag.support_geometry(probe)
    speed = probe.speed()
    problem = dataclasses.replace(probe, T=0.8 * geom.L / speed.c, energy_every=2,
                                  snapshot_every=2)
    # an even step count, so the last state is recorded on the cadence
    dt = pm.stable_timestep(grid, speed, problem.cfl)
    n_steps = 2 * math.ceil(problem.T / (2 * dt))
    ws = problem.workspace
    shells = diag.surface_shells(ws, geom, diag.default_r_grid(geom))
    sweep = diag.front_sweep(geom)
    reducers = [shells.sample, diag.identity_sampler(ws),
                lambda state: sweep.sample(state.t, state.magnitude())]
    _, energy, snap_energy, (surface, pairings, fronts) = pm.stream(problem, reducers,
                                                                    n_steps=n_steps)

    sps = shells.flux(snap_energy.t, surface).weighted(problem.lam)
    front = sweep.report(fronts)
    cs = diag.cesaro_means(energy)
    ir = diag.IdentityResiduals.from_samples(problem, snap_energy, pairings)

    os.makedirs(args.out, exist_ok=True)
    pio.write_energy_csv(os.path.join(args.out, "energy.csv"), energy)
    pio.write_power_csv(os.path.join(args.out, "power.csv"), sps)
    pio.write_cesaro_csv(os.path.join(args.out, "cesaro.csv"), cs)
    pio.write_residuals_csv(os.path.join(args.out, "residuals.csv"), ir)

    print(f"steps to T={problem.T:.4f}: {n_steps}")
    print(f"energy drift:      {energy.max_relative_drift():.3e}")
    print(f"front speed / c:   {front.speed / speed.c:.4f}")
    print(f"max |P-E|/E:       {_power_error(sps):.4f}")
    print(f"artifacts in {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
