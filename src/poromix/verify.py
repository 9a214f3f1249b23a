"""Verification suites: run simulations and check the theory's claims.

Each suite returns a :class:`VerifyReport` whose checks carry a measured
value, its target, the tolerance and the comparison that decides it; the
pass flag is derived from them.  Tolerances are fixed here, not calibrated
at runtime.  Suites are deterministic for a fixed seed, and each runs its
simulations one after another in the calling thread.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, field, replace
from itertools import starmap

import numpy as np

from . import diagnostics as diag
from .config import SUITES
from .errors import Degenerate, NotPositiveDefinite, SymmetryViolation
from .materials import (
    MaterialConstants,
    _drawn_constants,
    _material_draws,
    certify_material,
    decoupled_material,
    random_material,
    reduced_constants,
    validate_symmetries,
    worst_stress_energy_ratio,
)
from .pointwise import (
    PointState,
    generalized_stress,
    internal_energy_density,
    power_identity_residuals,
    reduced_generalized_stress,
    strain_vector,
    stress_magnitude,
    traction,
)
from .solver import (
    BoundaryPartition,
    Grid,
    InitialData,
    ProblemSpec,
    RigidMotion,
    gaussian_pulse,
    rigid_fit,
    stable_timestep,
    stream,
)

# The comparisons a check may test its measured value with.  Each is False on a NaN.
_COMPARE = {"<=": operator.le, "<": operator.lt, ">=": operator.ge}


@dataclass(frozen=True)
class CheckResult:
    """One verified claim: ``measured compare bound``, where the bound is
    target + tol, or target − tol for ``">="``.  ``passed`` applies that one
    comparison, so a NaN fails every check."""

    name: str
    claim: str
    measured: float
    target: float
    tol: float = 0.0
    compare: str = "<="
    detail: str = ""

    @property
    def bound(self) -> float:
        return self.target - self.tol if self.compare == ">=" else self.target + self.tol

    @property
    def passed(self) -> bool:
        return bool(_COMPARE[self.compare](self.measured, self.bound))

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        sign = "-" if self.compare == ">=" else "+"
        bound = f"{self.target:.6g}" + (f" {sign} {self.tol:.3g}" if self.tol else "")
        out = (f"[{status}] {self.name}: measured {self.measured:.6g} {self.compare} {bound}"
               f" :: {self.claim}")
        return out + (f" [{self.detail}]" if self.detail else "")


@dataclass
class VerifyReport:
    """All checks of one suite invocation."""

    suite: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_text(self) -> str:
        lines = [c.line() for c in self.checks]
        lines.append(f"suite {self.suite}: {'PASS' if self.passed else 'FAIL'} "
                     f"({sum(c.passed for c in self.checks)}/{len(self.checks)} checks)")
        return "\n".join(lines)

    def to_csv_rows(self):
        yield ["name", "claim", "measured", "target", "tol", "passed"]
        for c in self.checks:
            yield [c.name, c.claim, "%.17g" % c.measured, "%.17g" % c.target,
                   "%.17g" % c.tol, str(int(c.passed))]


# ---------------------------------------------------------------------------
# Shared scenario builders.
# ---------------------------------------------------------------------------


def _scenario(consts: MaterialConstants, n, initial: InitialData,
              walls: tuple[str, str] = ("natural", "natural"), **controls) -> ProblemSpec:
    """The unit box with ``n`` nodes per axis (an int for 1-D, a pair for 2-D),
    uniform (u, φ) ``walls`` and the ``ProblemSpec`` run ``controls``.  A
    recording cadence that the controls do not name records only t = 0."""
    grid = Grid(n)
    never = dict.fromkeys(("energy_every", "snapshot_every"), 10**9)
    return ProblemSpec(grid=grid, consts=consts, initial=initial,
                       boundary=BoundaryPartition.uniform(*walls, dim=grid.dim),
                       **never | controls)


def _odd_pulse(center: float, width: float, amplitude: float):
    """amplitude·s·exp(−s²/2), s = (x − center)/width, on the axial component.

    Odd about the center: zero mean, and, being along the grid axis, zero
    moment of momentum as well.
    """

    def fn(x):
        out = np.zeros((3,) + x.shape[1:])
        s = (x[0] - center) / width
        out[0] = amplitude * s * np.exp(-0.5 * s * s)
        return out

    return fn


# ---------------------------------------------------------------------------
# Suite: constitutive algebra.
# ---------------------------------------------------------------------------


_STATE_SHAPES = ((3, 3), (3, 3), (3,), (3,), (), (), (3,), (3,))
# The ends of the fields of a state, and of its normal, in its N(0, 1) draws.
_STATE_ENDS = np.cumsum([np.prod(shape, dtype=int) for shape in _STATE_SHAPES + ((3,),)])


def _states(draws: np.ndarray, count: int) -> list[np.ndarray]:
    """``count`` states, field by field as in PointState, and their unit normals from
    ``count · 35`` N(0, 1) draws (in that order) with any leading batch axes."""
    # contiguous copies, like per-field stacks, so the kernels' sums run in the same order
    *parts, normals = (np.ascontiguousarray(part).reshape(draws.shape[:-1] + (count,) + shape)
                       for part, shape in zip(np.split(draws, count * _STATE_ENDS[:-1], axis=-1),
                                              _STATE_SHAPES + ((3,),)))
    return parts + [normals / np.linalg.norm(normals, axis=-1, keepdims=True)]


def _draw_states(rng: np.random.Generator, count: int) -> list[np.ndarray]:
    """``count`` random states and their unit normals, in one generator call."""
    return _states(rng.standard_normal(count * _STATE_ENDS[-1]), count)


def _point_sample(consts: MaterialConstants, states: list[np.ndarray]) -> dict[str, np.ndarray]:
    """Pointwise checks of admissible materials on their ``_draw_states`` states.

    The states' batch shape ends in the state axis; a single law takes
    ``(count,)`` states, a ``(k, 1)`` stack ``(k, count)``.  Each state's rate
    is the next state along that axis (cyclically).  Every entry has the
    states' batch shape, except the operator stress-energy ratio, which has
    the law's.  Ratios are 0 where their denominator is 0.

    Raises:
        SymmetryViolation: if a material fails the symmetry relations.
        NotPositiveDefinite: if a material is inadmissible.
    """
    consts.speed  # the symmetry and admissibility gates
    xi_min, xi_max = consts.form.xi_min, consts.form.xi_max
    *parts, normals = states
    ps = PointState(*parts)
    ps_dot = PointState(*(np.roll(part, -1, axis=-1 - len(shape))
                          for part, shape in zip(parts, _STATE_SHAPES)))
    ev = strain_vector(ps)
    n2 = np.einsum("...i,...i->...", ev.vec, ev.vec)
    two_w = 2.0 * internal_energy_density(consts, ev)
    s_lit = generalized_stress(consts, ev)
    s_red = reduced_generalized_stress(consts, reduced_constants(consts), ps)
    smag2 = stress_magnitude(s_lit) ** 2
    tr = traction(s_lit, normals)
    traction2 = (np.einsum("...i,...i->...", tr.s1, tr.s1)
                 + np.einsum("...i,...i->...", tr.s2, tr.s2) + tr.h1**2 + tr.h2**2)
    r_static, r_rate = power_identity_residuals(consts, ps, ps_dot)
    return {
        "n2": n2,
        "envelope": np.maximum(xi_min * n2 - two_w, two_w - xi_max * n2) / (xi_max * n2),
        "static": r_static,
        "rate": r_rate,
        "dual": np.max(np.abs(s_lit.vec - s_red.vec), axis=-1),
        "stress_energy": np.divide(smag2, xi_max * two_w, out=np.zeros_like(smag2),
                                   where=two_w > 0),
        "traction": np.divide(traction2, smag2, out=np.zeros_like(smag2), where=smag2 > 0),
        "operator": worst_stress_energy_ratio(consts),
    }


def _identity_residuals(pt: dict[str, np.ndarray]) -> tuple[np.ndarray, ...]:
    """The static, rate and dual-form residuals over their scales: 1 + |E|² for
    the power residuals, quadratic in E, and 1 + |E| for S, linear in E."""
    scale = 1.0 + pt["n2"]
    return pt["static"] / scale, pt["rate"] / scale, pt["dual"] / (1.0 + np.sqrt(pt["n2"]))


# The constitutive sweep: random materials and states, certified and checked a chunk
# of materials at a time (a stack amortizes overhead; the chunk bounds its memory).
_SWEEP_MATERIALS = 500
_SWEEP_STATES = 20
_SWEEP_CHUNK = 50


def _sweep_chunk(rng: np.random.Generator, count: int):
    """``count`` certified materials as one law of batch shape (count, 1) and their
    states, of batch shape (count, ``_SWEEP_STATES``).  The draws follow
    ``random_material(rng)`` and then ``_draw_states`` for each material."""
    draws = [(*_material_draws(rng), rng.standard_normal(_SWEEP_STATES * _STATE_ENDS[-1]))
             for _ in range(count)]
    normals, uniforms, states = (np.stack(part) for part in zip(*draws))
    law = MaterialConstants(**_drawn_constants(normals[:, None], uniforms[:, None]))
    return certify_material(law), _states(states, _SWEEP_STATES)


def _sweep_chunks(rng: np.random.Generator):
    """The sweep's ``_sweep_chunk``s, in draw order.  Each is built in a call of its
    own, so nothing of one chunk stays alive while the next is drawn."""
    for start in range(0, _SWEEP_MATERIALS, _SWEEP_CHUNK):
        yield _sweep_chunk(rng, min(_SWEEP_CHUNK, _SWEEP_MATERIALS - start))


def _sweep_maxima(law: MaterialConstants, states: list[np.ndarray]) -> np.ndarray:
    """The maxima of one chunk's ``_point_sample``: envelope, the three
    ``_identity_residuals``, stress-energy, traction and operator ratios.  A
    maximum is NaN if any of its values is."""
    pt = _point_sample(law, states)
    return np.array([np.max(pt["envelope"]), *map(np.max, _identity_residuals(pt)),
                     np.max(pt["stress_energy"]), np.max(pt["traction"]),
                     np.max(pt["operator"])])


def suite_constitutive(seed: int = 0,
                       extra_consts: MaterialConstants | None = None) -> VerifyReport:
    """Pointwise algebra on seeded random admissible materials and states.

    Covers the eigen-bound envelope, the static/rate power identities, the
    dual constitutive forms, the stress-energy bound with its ratio report,
    and the traction bound.  ``extra_consts`` (e.g. the configured material)
    additionally gets its symmetry check, the material-independent identity
    checks, plus an informational report of its operator stress-energy ratio;
    the bound itself is gated on the certified sampled family, where it is a
    theorem.  A material that fails the symmetry or admissibility checks
    fails its identity and ratio checks, with the error in their detail.
    """
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    # starmap drops each chunk as its maxima are taken; np.max keeps a NaN
    worst = np.max(list(starmap(_sweep_maxima, _sweep_chunks(rng))), axis=0)
    env, worst_static, worst_rate, worst_dual, worst_ok, worst_okok, worst_operator = (
        float(v) for v in worst)
    worst_env = float(np.maximum(0.0, env))  # not max(): max(0.0, nan) is 0.0
    elapsed = time.perf_counter() - t0
    rep = VerifyReport(suite="constitutive")
    rep.checks += [
        CheckResult("eigen_envelope", "xi_min|E|^2 <= 2W <= xi_max|E|^2",
                    worst_env, 0.0, 1e-9),
        CheckResult("power_identity_static", "2W equals the stress power pairing",
                    worst_static, 0.0, 1e-10),
        CheckResult("power_identity_rate", "dW/dt equals the stress power pairing",
                    worst_rate, 0.0, 1e-10),
        CheckResult("dual_constitutive_forms", "strain-measure and gradient forms agree",
                    worst_dual, 0.0, 1e-12),
        CheckResult("stress_energy_bound", "|S|^2 <= 2 xi_max W (state-sampled max ratio)",
                    worst_ok, 1.0, 1e-9, detail=f"operator bound {worst_operator:.12g}"),
        CheckResult("traction_bound", "sum(s.s + h^2) <= |S|^2", worst_okok, 1.0, 1e-12),
        CheckResult("runtime_constitutive", "constitutive sweep wall time (s)",
                    elapsed, 10.0, compare="<"),
    ]
    if worst_ok > 1.0 + 1e-9:
        rep.checks.append(CheckResult(
            "stress_energy_violation_log",
            "ratio above 1+1e-9 logged verbatim for the bookkeeping question",
            worst_ok, 1.0, 1e-9, detail=f"max |S|^2/(2 xi_max W) = {worst_ok!r}"))
    if extra_consts is not None:
        sym_ok = validate_symmetries(extra_consts).ok
        try:
            pt = _point_sample(extra_consts, _draw_states(rng, _SWEEP_STATES))
        except (SymmetryViolation, NotPositiveDefinite) as exc:
            worst_x = ratio_x = math.nan
            error = f"{type(exc).__name__}: {exc}"
        else:
            # np.max, not max(): a NaN residual stays NaN
            worst_x = float(np.max([np.max(r) for r in _identity_residuals(pt)]))
            ratio_x, error = pt["operator"], ""
        logged = f"logged: ratio above 1+1e-9 = {ratio_x!r}" if ratio_x > 1.0 + 1e-9 else ""
        rep.checks += [
            CheckResult("config_material_symmetries", "configured material relations hold",
                        0.0 if sym_ok else 1.0, 0.0),
            CheckResult("config_material_identities",
                        "power identities and dual forms on the configured material",
                        worst_x, 0.0, 1e-10, detail=error),
            # reported, not bounded: any ratio passes but NaN, the inadmissible material's
            CheckResult("config_material_ok_ratio",
                        "operator stress-energy ratio of the configured material (reported)",
                        ratio_x, math.inf, detail=error or logged),
        ]
    return rep


# ---------------------------------------------------------------------------
# Suite: conservation and integral identities.
# ---------------------------------------------------------------------------


def _drift_run(seed: int, n: int, steps: int) -> float:
    """Energy drift of a 1-D coupled pulse run with traction-free walls (conserved energy)."""
    consts = random_material(seed)
    width = 0.06
    initial = InitialData(
        u1=gaussian_pulse([0.45], width, 1.0, component=0),
        u2=gaussian_pulse([0.55], width, 0.7, component=1),
        v1=gaussian_pulse([0.5], width, 0.4, component=2),
        phi1=gaussian_pulse([0.5], width, 0.5),
        psi2=gaussian_pulse([0.42], width, 0.3),
    )
    problem = _scenario(consts, n, initial, energy_every=10)
    dt = stable_timestep(problem.grid, consts.speed, problem.cfl)
    _, energy, _, _ = stream(replace(problem, T=steps * dt), n_steps=steps)
    return energy.max_relative_drift()


def suite_identities(seed: int = 0) -> VerifyReport:
    """Energy conservation with refinement, plus identity-residual orders."""
    rep = VerifyReport(suite="identities")
    t0 = time.perf_counter()
    drift_base = _drift_run(seed, 400, 2000)
    drift_fine = _drift_run(seed, 799, 4000)
    elapsed = time.perf_counter() - t0
    rep.checks += [
        CheckResult("energy_conservation", "relative energy drift over 2000 steps",
                    drift_base, 1e-4),
        CheckResult("energy_drift_refinement", "drift shrinks >= 3x under (h,dt)/2",
                    drift_base / max(drift_fine, 1e-300), 3.0, compare=">="),
        CheckResult("runtime_conservation", "conservation runs wall time (s)",
                    elapsed, 30.0, compare="<"),
    ]
    rep.checks += _residual_orders(seed)
    return rep


def _residual_orders(seed: int) -> list[CheckResult]:
    """The convergence orders of the three identity residuals under refinement."""
    consts = random_material(seed + 1)
    T = 0.25
    c = consts.speed.c
    n0 = 100
    base_steps = int(np.ceil(T * c / (0.45 * (1.0 / n0)))) + 1

    def residual_run(level: int):
        initial = InitialData(
            u1=gaussian_pulse([0.5], 0.07, 1.0, component=0),
            v2=gaussian_pulse([0.45], 0.07, 0.6, component=1),
            phi2=gaussian_pulse([0.55], 0.07, 0.5),
        )
        problem = _scenario(consts, n0 * 2**level + 1, initial, T=T, snapshot_every=2)
        _, _, snap_energy, (pairings,) = stream(
            problem, [diag.identity_sampler(problem.workspace)], n_steps=base_steps * 2**level)
        ir = diag.IdentityResiduals.from_samples(problem, snap_energy, pairings)
        return (
            float(np.max(ir.res_energy_balance)),
            float(np.max(ir.res_virial)),
            float(np.max(ir.res_two_time)),
            ir.scale,
        )

    levels = [residual_run(lv) for lv in range(3)]
    names = ("res_energy_balance", "res_virial", "res_two_time")
    checks = []
    for i, name in enumerate(names):
        r = [levels[lv][i] for lv in range(3)]
        scale = max(levels[lv][3] for lv in range(3))
        detail = f"residuals {r[0]:.3e} -> {r[1]:.3e} -> {r[2]:.3e}"
        roundoff = CheckResult(
            f"order_{name}", "identity residual converges (roundoff-limited)",
            float(np.max(r)) / scale, 0.0, 1e-13, detail=detail)  # np.max keeps a NaN
        if roundoff.passed:
            # Residual is roundoff-limited at every level; the identity holds
            # exactly in the discrete system, which is stronger than any order.
            checks.append(roundoff)
            continue
        orders = [np.log2(r[j] / max(r[j + 1], 1e-300)) for j in range(2)]
        checks.append(CheckResult(
            f"order_{name}", "identity residual converges at order >= 1.5",
            float(np.mean(orders)), 1.5, compare=">=", detail=detail))
    return checks


# ---------------------------------------------------------------------------
# Suite: surface power structure and spatial decay.
# ---------------------------------------------------------------------------


def _pulse_problem(consts: MaterialConstants, n: int, cadence: int = 2):
    """(problem, support geometry, step count) of the decay suite's centred pulse,
    recorded every ``cadence`` steps until it has crossed 0.85 of the box."""
    width = 0.02
    initial = InitialData(
        u1=gaussian_pulse([0.5], width, 1.0, component=0),
        v1=gaussian_pulse([0.5], width, 0.5, component=0),
        phi1=gaussian_pulse([0.5], width, 0.4),
    )
    problem = _scenario(consts, n, initial, T=0.0)
    speed = problem.speed()
    geom = diag.support_geometry(problem)
    t_total = 0.85 * geom.L / speed.c
    dt = stable_timestep(problem.grid, speed, problem.cfl)
    steps = int(np.ceil(t_total / (cadence * dt))) * cadence
    return replace(problem, T=steps * dt, snapshot_every=cadence), geom, steps


def _worst_bound_ratio(sps, speed, tol_h: float) -> float:
    """The largest ``decay_report`` bound ratio over the times where P(0, t) is not
    negligible; NaN if no time has enough usable radii."""
    p0 = sps.P[0]
    ratios = []
    for j in np.where(p0 > 1e-8 * max(np.max(p0), 1e-300))[0]:
        try:
            drep = diag.decay_report(sps, speed, t=float(sps.t_grid[j]), tol_h=tol_h)
        except Degenerate:
            continue
        ratios.append(drep.max_bound_ratio)
    return float(np.max(ratios)) if ratios else math.nan


def suite_decay(seed: int = 0, tol_h: float = 0.05) -> VerifyReport:
    """Surface-power positivity/monotonicity, P = E agreement, decay bounds.

    The base run's series are reduced to the check values before the refined
    run, so no two runs' series are held at once.
    """
    rep = VerifyReport(suite="decay")
    consts = random_material(seed + 2)

    def run(n, cadence):
        problem, geom, steps = _pulse_problem(consts, n, cadence)
        shells = diag.surface_shells(problem.workspace, geom, diag.default_r_grid(geom, count=28))
        _, _, snap_energy, (surface,) = stream(problem, [shells.sample], n_steps=steps)
        # not the problem: its workspace's buffers would outlive the run
        return problem.speed(), diag.lambda_sweep(problem), shells.flux(snap_energy.t, surface)

    speed, sweep, flux = run(401, 2)
    sps = flux.weighted(1.0)
    p_ref = max(float(sps.P[0, -1]), 1e-300)
    worst_neg = float(np.min(sps.P)) / p_ref
    mono = float(np.max(np.diff(sps.P, axis=0))) / p_ref
    err_base = diag.power_error(sps)
    # Discrete radial differential inequality (lambda/c)|P| + dP/dr <= tol,
    # with forward differences between consecutive distinct interface radii.
    dr = np.diff(sps.r_grid)[:, None]
    lhs = (sps.lam / speed.c) * np.abs(sps.P[:-1]) + np.diff(sps.P, axis=0) / dr
    sel = sps.P[0] > 1e-8 * p_ref
    viol = float(np.max(lhs[:, sel])) / ((sps.lam / speed.c) * p_ref)
    # Decay envelopes for the lambda sweep, from the same snapshot pass.
    ratios = {mult: _worst_bound_ratio(flux.weighted(lam), speed, tol_h)
              for mult, lam in sweep.items()}
    del flux, sps, lhs
    err_fine = diag.power_error(run(801, 4)[2].weighted(1.0))

    rep.checks += [
        CheckResult("power_nonnegative", "P(r,t) >= -1e-9 * P(0,T)",
                    worst_neg, 0.0, 1e-9, compare=">="),
        CheckResult("power_monotone", "P non-increasing in r (discretization tolerance)",
                    mono, 0.0, 1e-6),
        CheckResult("power_equals_energy", "P(r,t) = E(r,t) within 3% relative",
                    err_base, 0.03),
        CheckResult("power_equals_energy_refined", "P = E error improves under refinement",
                    err_fine, err_base, compare="<"),
        CheckResult("radial_inequality", "(lambda/c)|P| + dP/dr <= tol_h at interior radii",
                    viol, tol_h),
    ]
    claim = "P(r,t) <= P(0,t) exp(-lambda r / c) (1 + tol_h) on 0 <= r <= ct"
    rep.checks += [CheckResult(f"decay_bound_lam_{mult:g}", claim, ratio, 1.0)
                   for mult, ratio in ratios.items()]
    return rep


# ---------------------------------------------------------------------------
# Suite: domain of influence (front speed).
# ---------------------------------------------------------------------------


def _fast_mode_initial(consts: MaterialConstants, width: float, center: float):
    """Single right-going fast-mode pulse of the 1-D longitudinal pair."""
    red = reduced_constants(consts)
    kmat = np.array([
        [red.a[0, 0, 0, 0] / consts.rho1, red.b[0, 0, 0, 0] / consts.rho1],
        [red.b[0, 0, 0, 0] / consts.rho2, red.d[0, 0, 0, 0] / consts.rho2],
    ])
    eigvals, eigvecs = np.linalg.eig(kmat)
    fast = int(np.argmax(eigvals.real))
    v_fast = float(np.sqrt(eigvals.real[fast]))
    mode = eigvecs[:, fast].real
    mode /= np.max(np.abs(mode))
    # u = m·g(x − v t) with a Gaussian g, so u̇ = −v m g′, an odd pulse
    return InitialData(u1=gaussian_pulse([center], width, mode[0], component=0),
                       u2=gaussian_pulse([center], width, mode[1], component=0),
                       v1=_odd_pulse(center, width, v_fast * mode[0] / width),
                       v2=_odd_pulse(center, width, v_fast * mode[1] / width)), v_fast


def _peak_position(state, grid: Grid) -> tuple[float, float] | None:
    """(t, x) of the u1 pulse peak of one state, refined by a parabola through
    its three nodes; None when the peak lies on a wall node."""
    prof = np.abs(state.u1[0])
    k = int(np.argmax(prof))
    if not 0 < k < grid.n[0] - 1:
        return None
    denom = prof[k - 1] - 2 * prof[k] + prof[k + 1]
    shift = 0.5 * (prof[k - 1] - prof[k + 1]) / denom if denom != 0 else 0.0
    return state.t, grid.axes()[0][k] + shift * grid.h[0]


def _peak_speed(positions) -> float:
    """Slope of the u1 pulse-peak trajectory through the ``_peak_position``s."""
    ts, peaks = zip(*filter(None, positions))
    return float(np.polyfit(ts, peaks, 1)[0])


def _front_run(consts: MaterialConstants, n: int, fast_mode: bool = True):
    """(front speed, c, analytic and peak speeds, quiet-zone leak) of one pulse run.

    The analytic and peak speeds are None for the coupled pulse.  The leak
    is the last snapshot's magnitude beyond r = c t + 8h over the peak of
    all snapshots.  Each snapshot is reduced as it is taken.
    """
    width = 0.02
    if fast_mode:
        initial, v_analytic = _fast_mode_initial(consts, width, 0.5)
    else:
        initial = InitialData(
            u1=gaussian_pulse([0.5], width, 1.0, component=0),
            v2=gaussian_pulse([0.5], width, 0.5, component=0),
            phi1=gaussian_pulse([0.5], width, 0.4),
        )
        v_analytic = None
    problem = _scenario(consts, n, initial, T=0.0)
    speed = problem.speed()
    geom = diag.support_geometry(problem)
    problem = replace(problem, T=0.8 * geom.L / speed.c, snapshot_every=4)
    sweep, grid = diag.front_sweep(geom), problem.grid

    def reduce(state):
        magnitude = state.magnitude()
        quiet = geom.dist > speed.c * state.t + 8 * grid.h[0]
        quiet_max = float(np.max(magnitude[quiet])) if quiet.any() else 0.0
        return (sweep.sample(state.t, magnitude), quiet_max,
                _peak_position(state, grid) if fast_mode else None)

    _, _, _, (reduced,) = stream(problem, [reduce])
    fronts, quiet_max, positions = zip(*reduced)
    front = sweep.report(list(fronts))
    v_peak = _peak_speed(positions) if fast_mode else None
    return front.speed, speed.c, v_analytic, v_peak, quiet_max[-1] / front.peak


def suite_influence(seed: int = 0) -> VerifyReport:
    """Front speed stays below c for decoupled and fully coupled materials."""
    rep = VerifyReport(suite="influence")
    dec = decoupled_material()
    cpl = random_material(seed + 3)
    results = [
        _front_run(dec, 201),
        _front_run(dec, 401),
        _front_run(cpl, 201, fast_mode=False),
        _front_run(cpl, 401, fast_mode=False),
    ]
    labels = ("decoupled_base", "decoupled_refined", "coupled_base", "coupled_refined")
    factors = (1.05, 1.02, 1.05, 1.02)
    rep.checks += [CheckResult(f"front_speed_{label}", f"measured front speed <= {factor:g} c",
                               measured / c, factor)
                   for (measured, c, *_), label, factor in zip(results, labels, factors)]
    _, _, v_analytic, v_peak, leak = results[1]
    rep.checks.append(CheckResult(
        "pulse_speed_vs_analytic", "decoupled pulse-peak speed within 2% of the mode speed",
        abs(v_peak - v_analytic) / v_analytic, 0.02))
    # Quiet zone beyond r = c t at the final time.
    rep.checks.append(CheckResult(
        "influence_quiet_zone", "state magnitude beyond r = c t is <= 1e-8 of peak",
        leak, 0.0, 1e-8))
    return rep


# ---------------------------------------------------------------------------
# Suite: equipartition and the rigid fit.  Each run is a whole number of
# transits of the unit box, 1/c each.
# ---------------------------------------------------------------------------


def _equipartition_case_i(seed: int):
    consts = random_material(seed + 4)
    initial = InitialData(
        u1=gaussian_pulse([0.5], 0.05, 1.0, component=0),
        u2=gaussian_pulse([0.4], 0.05, 0.6, component=1),
        phi1=gaussian_pulse([0.6], 0.05, 0.5),
    )
    problem = _scenario(consts, 201, initial, ("dirichlet", "dirichlet"),
                        T=50.0 / consts.speed.c, energy_every=4)
    _, series, _, _ = stream(problem)
    return diag.equipartition_report(series, problem)


def _equipartition_case_ii(seed: int, scenario: str):
    """All-traction boundary scenarios.

    'pure': common translation velocity, 1-D (an exact zero-strain drift).
    'rotation2d': common translation + in-plane rotation on a 2-D grid (the
        rotational zero mode the sampled kinematics actually has; rotations
        out of the sampled plane carry strain through the unsampled
        coordinates and are ordinary oscillating modes).
    'mixed': 1-D translation drift plus per-constituent residuals that are
        odd in x on the axial component, so each constituent's rigid fit is
        exactly the common translation.
    """
    consts = random_material(seed + 5)
    n, transits = 201, 5.0
    if scenario == "rotation2d":
        n = (25, 25)
        rigid_v = RigidMotion([0.3, 0.1, 0.05], [0.0, 0.0, 0.4]).field
        extra = InitialData(v1=rigid_v, v2=rigid_v)
    elif scenario == "pure":
        rigid_v = RigidMotion([0.3, 0.1, 0.2], [0.0, 0.0, 0.0]).field
        extra = InitialData(v1=rigid_v, v2=rigid_v)
    else:
        rigid_v = RigidMotion([0.3, 0.1, 0.0], [0.0, 0.0, 0.0]).field
        odd1, odd2 = _odd_pulse(0.5, 0.04, 0.5), _odd_pulse(0.45, 0.04, 0.4)
        extra = InitialData(
            v1=lambda x: rigid_v(x) + odd1(x),
            v2=lambda x: rigid_v(x) + odd2(x),
            phi1=gaussian_pulse([0.55], 0.05, 0.2),
        )
        transits = 50.0
    problem = _scenario(consts, n, extra, T=transits / consts.speed.c, energy_every=4)
    _, series, _, _ = stream(problem)
    return diag.equipartition_report(series, problem)


def suite_equipartition(seed: int = 0) -> VerifyReport:
    """Cesàro equipartition in both boundary cases, plus rigid normalization."""
    rep = VerifyReport(suite="equipartition")
    t0 = time.perf_counter()
    rep_i = _equipartition_case_i(seed)
    rep_pure = _equipartition_case_ii(seed, "pure")
    rep_rot = _equipartition_case_ii(seed, "rotation2d")
    rep_mixed = _equipartition_case_ii(seed, "mixed")
    elapsed = time.perf_counter() - t0
    rep.checks += [
        CheckResult("equipartition_gap_dirichlet", "|Kc - Sc| / E0 at T = 50 transits",
                    rep_i.offset_error, 5e-2),
        CheckResult("equipartition_decay_exponent", "gap envelope decays like t^p, p <= -0.8",
                    rep_i.fit_exponent, -0.8),
        CheckResult("equipartition_rigid_exact", "pure rigid drift: gap equals the offset",
                    rep_pure.offset_error, 0.0, 1e-9),
        CheckResult("equipartition_rigid_exact_2d",
                    "pure rigid drift with in-plane rotation (2-D): gap equals the offset",
                    rep_rot.offset_error, 0.0, 1e-9),
        CheckResult("equipartition_free_offset", "|gap(T) - rigid kinetic offset| <= 5e-2 E0",
                    rep_mixed.offset_error, 5e-2),
        CheckResult("runtime_equipartition", "equipartition suite wall time (s)",
                    elapsed, 300.0, compare="<"),
    ]

    rng = np.random.default_rng(seed + 6)
    worst = 0.0  # raised by np.maximum: max(worst, nan) would drop a NaN
    for k in range(100):
        if k % 2 == 0:
            grid = Grid(n=rng.integers(16, 64), h=rng.uniform(0.01, 0.1))
        else:
            grid = Grid(n=(rng.integers(8, 20), rng.integers(8, 20)),
                        h=(rng.uniform(0.02, 0.1), rng.uniform(0.02, 0.1)))
        for _ in range(4):
            worst = np.maximum(worst, rigid_fit(rng.standard_normal((3,) + grid.shape), grid)[2])
    rep.checks.append(CheckResult(
        "rigid_normalization", "residual momenta/moments below 1e-10 of scale",
        worst, 0.0, 1e-10))
    return rep


# ---------------------------------------------------------------------------
# Suite: uniqueness / determinism.
# ---------------------------------------------------------------------------


def suite_uniqueness(seed: int = 0) -> VerifyReport:
    """Null data stay exactly null; identical runs are bit-identical."""
    rep = VerifyReport(suite="uniqueness")
    consts = random_material(seed + 7)
    problem = _scenario(consts, 201, InitialData(), ("dirichlet", "natural"), T=1.0)
    final, _, _, _ = stream(problem, n_steps=1000)
    rep.checks.append(CheckResult(
        "null_data_null_solution", "max |state| after 1000 steps from null data",
        final.max_abs(), 0.0))

    pulse = replace(problem, T=0.05, energy_every=1,
                    initial=InitialData(u1=gaussian_pulse([0.5], 0.05, 1.0, component=0)))
    del problem, final  # the null run's state and workspace buffers

    def run_bytes():
        final, series, _, _ = stream(pulse)
        blob = series.t.tobytes() + series.total.tobytes() + final.u1.tobytes()
        return blob

    same = run_bytes() == run_bytes()
    rep.checks.append(CheckResult(
        "determinism", "identical configurations produce bit-identical output",
        1.0 if same else 0.0, 1.0, compare=">="))
    return rep


SUITE_FUNCS = {name: globals()[f"suite_{name}"] for name in SUITES}


def run_suite(name: str, seed: int = 0, tol_h: float = 0.05,
              config_consts: MaterialConstants | None = None) -> VerifyReport:
    """Run one named suite (or 'all'), returning the merged report."""
    if name == "all":
        merged = VerifyReport(suite="all")
        for sub in SUITES:
            merged.checks += run_suite(sub, seed=seed, tol_h=tol_h,
                                       config_consts=config_consts).checks
        return merged
    if name not in SUITE_FUNCS:
        raise ValueError(f"unknown suite {name!r}")
    if name == "decay":
        return suite_decay(seed=seed, tol_h=tol_h)
    if name == "constitutive":
        return suite_constitutive(seed=seed, extra_consts=config_consts)
    return SUITE_FUNCS[name](seed=seed)
