"""Command-line interface.

Subcommands::

    poromix material-check <material spec or file>
    poromix simulate --config <file> [--out <dir>]
    poromix verify --config <file> --suite <name> [--seed N]
    poromix decay-report --config <file> [--lambda-sweep]

Exit codes: 0 pass, 1 check failure, 2 usage/config error, 3 numerical
failure (non-finite field update).  ``verify`` runs its suites, and each
suite its simulations, one after another in the calling thread.
"""

from __future__ import annotations

import argparse
import glob
import os
import sys
from dataclasses import replace

from . import diagnostics as diag
from . import io as pio
from .config import (SUITES, build_problem, load_config, material_from_spec,
                     parse_material_spec, resolve_material, save_config)
from .errors import (
    InsufficientSnapshots,
    InvalidParameter,
    NoFront,
    NonFinite,
    NotPositiveDefinite,
    ParseError,
    PoromixError,
    SchemaError,
    SymmetryViolation,
    UndefinedAtZero,
)
from .solver import cfl_steps, stream

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# A configured material that fails the symmetry or admissibility checks is a
# config error, like a malformed file.
_CONFIG_ERRORS = (OSError, ParseError, SchemaError, InvalidParameter,
                  SymmetryViolation, NotPositiveDefinite)


def _numerical_failure(exc: NonFinite) -> int:
    print(f"numerical failure: {exc} (step {exc.step})", file=sys.stderr)
    return EXIT_NUMERIC


def cmd_material_check(args) -> int:
    spec = args.file  # a config's material spec, or a bare file PATH
    if spec not in ("identity", "decoupled") and spec.partition(":")[0] not in ("random", "file"):
        spec = f"file:{spec}"
    try:
        consts = material_from_spec(spec)
    except (OSError, InvalidParameter, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        form = consts.form
    except SymmetryViolation as exc:
        print(f"symmetry check: FAIL ({exc})")
        return EXIT_CHECK_FAILED
    print("symmetry check: ok")
    try:
        speed = consts.speed
    except NotPositiveDefinite as exc:
        print(f"admissibility: FAIL ({exc})")
        return EXIT_CHECK_FAILED
    print(f"xi_min = {form.xi_min:.12g}")
    print(f"xi_max = {form.xi_max:.12g}")
    print(f"m = {speed.m_inertia:.12g}")
    print(f"c = {speed.c:.12g}")
    print("admissibility: ok")
    return EXIT_PASS


def _output_dir(path: str) -> bool:
    """Make the output directory ``path``; False, after reporting, if it cannot be made."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        print(f"config error: cannot make output directory: {exc}", file=sys.stderr)
        return False
    return True


def _shells(problem):
    """The support geometry and the surface shells of the default r-grid."""
    geom = diag.support_geometry(problem)
    return geom, diag.surface_shells(problem.workspace, geom, diag.default_r_grid(geom))


def _clear_run(out_dir: str, snap_dir: str) -> None:
    """Remove an earlier run's manifest and snapshots (and nothing else there)."""
    manifest = os.path.join(out_dir, "manifest.txt")
    if os.path.exists(manifest):
        os.remove(manifest)
    for stale in glob.glob(os.path.join(glob.escape(snap_dir), "snap_" + "[0-9]" * 6 + ".bin")):
        os.remove(stale)


def cmd_simulate(args) -> int:
    try:
        cfg = load_config(args.config)
        problem = build_problem(cfg, resolve_material(cfg))
        problem.speed()
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # a command-line path is the caller's; a config's is next to the config
    out_dir = args.out or os.path.join(cfg.base_dir, cfg.output)
    snap_dir = os.path.join(out_dir, "snapshots")
    if not _output_dir(snap_dir):
        return EXIT_CONFIG
    # the snapshots reach the disk as they are taken, so a run that fails
    # leaves neither a manifest nor snapshots: it must not look finished
    _clear_run(out_dir, snap_dir)
    paths = []

    def write(state):  # the paths hold only the snapshots until the run ends
        p_snap = os.path.join(snap_dir, f"snap_{len(paths):06d}.bin")
        pio.write_snapshot(p_snap, state)
        paths.append(p_snap)

    geom, shells = _shells(problem)
    sweep = diag.front_sweep(geom)
    reducers = [write, shells.sample, diag.identity_sampler(problem.workspace),
                lambda state: sweep.sample(state.t, state.magnitude())]
    try:
        _, energy, snap_energy, (_, surface, pairings, fronts) = stream(problem, reducers)
    except NonFinite as exc:
        _clear_run(out_dir, snap_dir)
        return _numerical_failure(exc)
    p_energy = os.path.join(out_dir, "energy.csv")
    pio.write_energy_csv(p_energy, energy)
    paths.append(p_energy)

    p_power = os.path.join(out_dir, "power.csv")
    sps = shells.flux(snap_energy.t, surface).weighted(problem.lam)
    pio.write_power_csv(p_power, sps)
    paths.append(p_power)

    try:
        cs = diag.cesaro_means(energy)
    except UndefinedAtZero as exc:
        print(f"cesaro.csv not written: {exc}", file=sys.stderr)
    else:
        p_ces = os.path.join(out_dir, "cesaro.csv")
        pio.write_cesaro_csv(p_ces, cs)
        paths.append(p_ces)
    try:
        ir = diag.IdentityResiduals.from_samples(problem, snap_energy, pairings)
    except (InsufficientSnapshots, InvalidParameter) as exc:
        print(f"residuals.csv not written: {exc}", file=sys.stderr)
    else:
        p_res = os.path.join(out_dir, "residuals.csv")
        pio.write_residuals_csv(p_res, ir)
        paths.append(p_res)

    canon = os.path.join(out_dir, "config.canonical")
    save_config(cfg, canon)
    paths.append(canon)
    entries = {os.path.relpath(p, out_dir): pio.file_sha256(p) for p in paths}
    entries["config"] = pio.file_sha256(args.config)
    kind, mat_path = parse_material_spec(cfg.material)
    if kind == "file":
        entries["material"] = pio.file_sha256(os.path.join(cfg.base_dir, mat_path))
    pio.write_manifest(os.path.join(out_dir, "manifest.txt"), entries)
    print(f"wrote {len(paths)} artifacts to {out_dir}")
    steps = cfl_steps(problem)
    print(f"steps: {steps}, dt = {problem.T / max(steps, 1):.6g}", file=sys.stderr)
    print(f"energy drift: {energy.max_relative_drift():.3e}", file=sys.stderr)
    try:
        front = f"{sweep.report(fronts).speed / problem.speed().c:.4f}"
    except NoFront as exc:
        front = f"not detected ({exc})"
    print(f"front speed / c: {front}", file=sys.stderr)
    # the flux is a trapezoid over the snapshot times, so its error grows with their spacing
    print(f"max |P-E|/E: {diag.power_error(sps):.4f} "
          f"(flux over snapshots {problem.snapshot_every} steps apart)", file=sys.stderr)
    return EXIT_PASS


def cmd_verify(args) -> int:
    try:
        cfg = load_config(args.config)
    except (OSError, ParseError, SchemaError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    seed = args.seed if args.seed is not None else cfg.seed
    suites = [args.suite] if args.suite else list(cfg.suites)
    print(f"seed = {seed}")
    out_dir = os.path.join(cfg.base_dir, cfg.output)
    if not _output_dir(out_dir):
        return EXIT_CONFIG
    try:
        config_consts = resolve_material(cfg)
    except (OSError, InvalidParameter, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    from .verify import run_suite  # not at the top: simulate and decay-report never need it

    all_pass = True
    try:
        for name in suites:
            report = run_suite(name, seed=seed, tol_h=cfg.tol_h, config_consts=config_consts)
            print(report.to_text())
            base = os.path.join(out_dir, f"verify_{name}")
            with open(base + ".txt", "w", newline="\n") as fh:
                fh.write(report.to_text() + "\n")
            with open(base + ".csv", "w", newline="\n") as fh:
                for row in report.to_csv_rows():
                    fh.write(",".join(row) + "\n")
            all_pass = all_pass and report.passed
    except NonFinite as exc:
        return _numerical_failure(exc)
    return EXIT_PASS if all_pass else EXIT_CHECK_FAILED


def cmd_decay_report(args) -> int:
    try:
        cfg = load_config(args.config)
        problem = build_problem(cfg, resolve_material(cfg))
        problem.speed()
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # the report reads only the snapshots' series: record no other energy split
    problem = replace(problem, energy_every=problem.snapshot_every)
    shells = _shells(problem)[1]
    try:
        _, _, snap_energy, (surface,) = stream(problem, [shells.sample])
    except NonFinite as exc:
        return _numerical_failure(exc)
    flux = shells.flux(snap_energy.t, surface)
    speed = problem.speed()
    lams = diag.lambda_sweep(problem).values() if args.lambda_sweep else [problem.lam]
    ok = True
    for lam in lams:
        sps = flux.weighted(lam)
        t_final = float(sps.t_grid[-1])
        try:
            drep = diag.decay_report(sps, speed, t=t_final, tol_h=cfg.tol_h)
            print(
                f"lambda={lam:.6g}: slope={drep.slope:.6g} "
                f"(envelope rate {-lam / speed.c:.6g}), bound_ok={drep.bound_ok}, "
                f"max_ratio={drep.max_bound_ratio:.6g}"
            )
            ok = ok and drep.bound_ok
        except PoromixError as exc:
            print(f"lambda={lam:.6g}: degenerate ({exc})")
            ok = False
    return EXIT_PASS if ok else EXIT_CHECK_FAILED


def _seed(text: str) -> int:
    """A ``--seed`` value: numpy seeds must be integers >= 0."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"seed must be an integer >= 0, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="poromix", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("material-check", help="validate a material file and print its moduli")
    p.add_argument("file", help="material spec identity|decoupled|random:SEED|file:PATH, "
                                "or a bare file PATH")
    p.set_defaults(func=cmd_material_check)

    p = sub.add_parser("simulate", help="run a configuration and write CSV/snapshot artifacts")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--config", required=True)
    p.add_argument("--suite", default=None,
                   choices=[*SUITES, "all"])
    p.add_argument("--seed", type=_seed, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("decay-report", help="decay envelope report, optionally sweeping lambda")
    p.add_argument("--config", required=True)
    p.add_argument("--lambda-sweep", action="store_true")
    p.set_defaults(func=cmd_decay_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
