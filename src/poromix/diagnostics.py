"""Diagnostics: every functional the mixture theorems constrain.

Total energy ℰ(t), the support geometry of the driving data, the
time-weighted surface power P(r, t) and its volume counterpart E(r, t),
spatial-decay and front-speed reports, Cesàro means and the equipartition
gap, and the residuals of the three integral identities used by the
verification suites.  All volume integrals use the trapezoid node weights of
the grid (the functional the symmetric scheme conserves); time integrals are
trapezoid sums over the recorded cadence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    Degenerate,
    InsufficientSnapshots,
    MissingDecomposition,
    NoFront,
    UndefinedAtZero,
)
from .fields import stored_energy
from .solver import (
    EnergySample,
    ProblemSpec,
    RigidDecomposition,
    StateField,
    Workspace,
    initialize,
)


def _cumtrapz(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Cumulative trapezoid integral along the last axis, starting at 0."""
    y = np.asarray(y, dtype=float)
    dt = np.diff(t)
    inc = 0.5 * (y[..., 1:] + y[..., :-1]) * dt
    out = np.zeros(y.shape)
    out[..., 1:] = np.cumsum(inc, axis=-1)
    return out


@dataclass
class EnergySeries:
    """Time series of the energy split; total = kinetic_u + kinetic_phi + strain."""

    t: np.ndarray
    kinetic_u: np.ndarray
    kinetic_phi: np.ndarray
    strain: np.ndarray

    @property
    def total(self) -> np.ndarray:
        return self.kinetic_u + self.kinetic_phi + self.strain

    def max_relative_drift(self) -> float:
        tot = self.total
        if tot[0] == 0.0:
            return float(np.max(np.abs(tot)))
        return float(np.max(np.abs(tot - tot[0])) / abs(tot[0]))

    @staticmethod
    def from_samples(samples: list[EnergySample]) -> "EnergySeries":
        return EnergySeries(
            t=np.array([s.t for s in samples]),
            kinetic_u=np.array([s.kinetic_u for s in samples]),
            kinetic_phi=np.array([s.kinetic_phi for s in samples]),
            strain=np.array([s.strain for s in samples]),
        )


class EnergyRecorder:
    """Records the energy split every ``every`` steps."""

    def __init__(self, ws: Workspace, every: int = 1):
        self.ws = ws
        self.every = max(1, int(every))
        self.samples: list[EnergySample] = []

    def record(self, step: int, state: StateField) -> None:
        if step % self.every == 0:
            self.samples.append(self.ws.energy_sample(state))

    def series(self) -> EnergySeries:
        return EnergySeries.from_samples(self.samples)


class SnapshotRecorder:
    """Stores full state copies every ``every`` steps (uniform cadence)."""

    def __init__(self, every: int = 1):
        self.every = max(1, int(every))
        self.states: list[StateField] = []

    def record(self, step: int, state: StateField) -> None:
        if step % self.every == 0:
            self.states.append(state.copy())


@dataclass
class Trajectory:
    """Recorded snapshots of one run, with their problem."""

    problem: ProblemSpec
    states: list[StateField]

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.states])

    def __len__(self) -> int:
        return len(self.states)


STATE_BYTES_PER_NODE = 8 * 16  # 8 fields, 16 scalars per node, float64


def snapshot_cadence_for_budget(problem: ProblemSpec, n_steps: int,
                                budget_bytes: float) -> int:
    """Cadence that keeps the full-state snapshot store inside a byte budget."""
    per_snapshot = STATE_BYTES_PER_NODE * float(np.prod(problem.grid.shape))
    max_count = max(2, int(budget_bytes / per_snapshot))
    return max(1, int(np.ceil(n_steps / max_count)))


def record_run(problem: ProblemSpec, energy_every: int | None = None,
               snapshot_every: int | None = None, dt: float | None = None,
               n_steps: int | None = None, snapshot_budget: float | None = None):
    """Run the problem and return (final state, EnergySeries, Trajectory).

    ``snapshot_budget`` (bytes) overrides the cadence with one derived from
    the step count so the retained states stay inside the budget.
    """
    import math

    from .solver import simulate, stable_timestep

    if snapshot_budget is not None:
        steps = n_steps
        if steps is None:
            base = dt if dt is not None else stable_timestep(
                problem.grid, problem.speed(), problem.cfl)
            steps = max(1, math.ceil(problem.T / base - 1e-12))
        snapshot_every = snapshot_cadence_for_budget(problem, steps, snapshot_budget)
    erec = EnergyRecorder(problem.workspace, energy_every or problem.energy_every)
    srec = SnapshotRecorder(snapshot_every or problem.snapshot_every)
    final = simulate(problem, recorders=(erec, srec), dt=dt, n_steps=n_steps)
    return final, erec.series(), Trajectory(problem=problem, states=srec.states)


# ---------------------------------------------------------------------------
# Support geometry and the r-indexed node/face sets.
# ---------------------------------------------------------------------------


@dataclass
class SupportGeometry:
    """Support mask of the driving data, distance field and its maximum L."""

    mask: np.ndarray
    dist: np.ndarray
    L: float


def support_geometry(
    problem: ProblemSpec,
    T: float | None = None,
    threshold: float = 1e-14,
    time_samples: int = 9,
) -> SupportGeometry:
    """Detect the data support and the node distances to it.

    A node belongs to the support when any initial field, any body source at
    any sampled time in [0, T], or any prescribed boundary value exceeds
    ``threshold`` times the peak data magnitude there.  With all-zero data
    the lexicographically first boundary node is designated (deterministic
    fallback so the geometry stays usable).
    """
    grid = problem.grid
    T = problem.T if T is None else T
    state0 = initialize(problem)
    ws = problem.workspace
    x = ws.x
    mags = [np.abs(state0.U), np.abs(state0.V)]
    if problem.f is not None or problem.ell is not None:
        mags += [np.abs(ws.sources(t)) for t in np.linspace(0.0, T, time_samples)]
    data_mag = np.max(np.concatenate(mags), axis=0)
    boundary_mag = np.zeros(grid.shape)
    side_ndim = grid.dim - 1
    for axis, end in grid.sides():
        sl = grid.side_slicer(axis, end)
        for family in ("u", "phi"):
            side = problem.boundary.side(family, axis, end)
            if side.value is None:
                continue
            xb = x[(slice(None),) + sl]
            vals = side.value(xb) if side.kind == "dirichlet" else side.value(xb, 0.0)
            for v in vals:
                v = np.abs(np.asarray(v, dtype=float))
                if v.ndim > side_ndim:  # vector-valued: drop the component axis
                    v = np.max(v, axis=0)
                boundary_mag[sl] = np.maximum(boundary_mag[sl], v)
    total_mag = np.maximum(data_mag, boundary_mag)
    peak = float(np.max(total_mag))
    mask = total_mag > threshold * peak if peak > 0.0 else np.zeros(grid.shape, dtype=bool)
    if not mask.any():
        mask[(0,) * grid.dim] = True
    pos = x.reshape(3, -1)
    sup = pos[:, mask.reshape(-1)]
    diff = pos[:, :, None] - sup[:, None, :]
    dist = np.sqrt(np.einsum("ikn,ikn->kn", diff, diff)).min(axis=1).reshape(grid.shape)
    dist[mask] = 0.0
    return SupportGeometry(mask=mask, dist=dist, L=float(dist.max()))


def default_r_grid(geom: SupportGeometry, count: int = 32) -> np.ndarray:
    """Radii at midpoints between distinct positive node distances, plus r = 0.

    The midpoint below the smallest positive distance is excluded: it selects
    the same node set as r = 0, so P would plateau there and any radial
    finite difference across the duplicate would be meaningless.
    """
    rd = np.unique(geom.dist)
    rd = rd[rd > 0.0]
    mids = 0.5 * (rd[:-1] + rd[1:])
    if len(mids) <= count - 1:
        picks = mids
    else:
        idx = np.unique(np.linspace(0, len(mids) - 1, count - 1).astype(int))
        picks = mids[idx]
    return np.concatenate([[0.0], picks])


@dataclass
class SurfacePowerSeries:
    """P(r, t) over an r-grid, with the matching weighted volume energy."""

    r_grid: np.ndarray
    t_grid: np.ndarray
    P: np.ndarray
    E_vol: np.ndarray
    lam: float


def _face_areas(grid, axis: int) -> np.ndarray:
    """Dual-cell areas of the faces normal to ``axis`` (1-D: unit area)."""
    face_shape = tuple(n - 1 if a == axis else n for a, n in enumerate(grid.shape))
    area = np.ones(face_shape)
    for b in range(grid.dim):
        if b == axis:
            continue
        tw = np.ones(grid.shape[b])
        tw[0] = tw[-1] = 0.5
        shape = [1] * grid.dim
        shape[b] = grid.shape[b]
        area = area * (grid.h[b] * tw).reshape(shape)
    return area


def _axis_faces(arr: np.ndarray, axis_pos: int):
    """(lower, upper) views of an array across each face along one grid axis."""
    nd = arr.ndim
    lo = [slice(None)] * nd
    hi = [slice(None)] * nd
    lo[axis_pos] = slice(0, -1)
    hi[axis_pos] = slice(1, None)
    return arr[tuple(lo)], arr[tuple(hi)]


def surface_power(
    traj: Trajectory,
    geom: SupportGeometry,
    r_grid: np.ndarray,
    lam: float,
) -> SurfacePowerSeries:
    """Time-weighted surface power on the staircase interfaces S_r.

    S_r is realized as the set of grid faces separating {dist ≤ r} from
    {dist > r}; the face flux along axis j averages the two nodal values of
    (QY)ⱼ·V = Σ_α [S^α[:, j]·u̇^α + h^α_j φ̇^α], the normal points away from
    the data side, and P(r,t) = −∫₀ᵗ e^{−λs} Σ_faces flux da ds by trapezoid
    in time.  The weighted volume energy E(r, t) over {dist > r} is
    evaluated in the same pass.
    """
    ws = traj.problem.workspace
    grid = ws.grid
    times = traj.times
    r_grid = np.asarray(r_grid, dtype=float)
    nr, nt = len(r_grid), len(times)
    q = np.zeros((nr, nt))
    e_inst = np.zeros((nr, nt))

    masks = [geom.dist > r for r in r_grid]
    face_sel = []
    for axis in range(grid.dim):
        area = _face_areas(grid, axis)
        per_r = []
        for m in masks:
            lo, hi = _axis_faces(m, axis)
            active = lo != hi
            sign = np.where(hi & ~lo, 1.0, -1.0)
            per_r.append((active, sign * area))
        face_sel.append(per_r)

    for j, state in enumerate(traj.states):
        Y, QY = ws.stress(state.U)
        eps = 0.5 * np.sum(ws.inertia * state.V**2, axis=0) + stored_energy(Y, QY)
        for i in range(nr):
            e_inst[i, j] = float(np.sum(ws.w[masks[i]] * eps[masks[i]]))
        for axis in range(grid.dim):
            s_lo, s_hi = _axis_faces(QY[1 + axis], 1 + axis)
            v_lo, v_hi = _axis_faces(state.V, 1 + axis)
            flux = 0.25 * np.einsum("c...,c...->...", s_lo + s_hi, v_lo + v_hi)
            for i in range(nr):
                active, signed_area = face_sel[axis][i]
                if active.any():
                    q[i, j] += float(np.sum(signed_area[active] * flux[active]))

    decay = np.exp(-lam * times)
    p = -_cumtrapz(q * decay, times)
    e_vol = e_inst * decay + lam * _cumtrapz(e_inst * decay, times)
    return SurfacePowerSeries(r_grid=r_grid, t_grid=times.copy(), P=p, E_vol=e_vol, lam=lam)


@dataclass
class DecayReport:
    t: float
    slope: float
    bound_ok: bool
    max_bound_ratio: float
    radii: np.ndarray


def decay_report(
    sps: SurfacePowerSeries,
    speed,
    t: float,
    tol_h: float = 0.05,
    floor: float = 1e-12,
) -> DecayReport:
    """Exponential-envelope check P(r,t) ≤ P(0,t)·exp(−λr/c)·(1+tol_h).

    Fits the least-squares slope of ln P(r,t) against r over the usable
    radii (0 ≤ r ≤ ct, P above the relative floor).

    Raises:
        Degenerate: fewer than 3 usable radii.
    """
    j = int(np.argmin(np.abs(sps.t_grid - t)))
    t_eff = float(sps.t_grid[j])
    p_t = sps.P[:, j]
    p0 = p_t[0]
    if p0 <= 0.0:
        raise Degenerate(f"P(0, t={t_eff:.4g}) is not positive")
    usable = (sps.r_grid <= speed.c * t_eff) & (p_t > floor * p0)
    radii = sps.r_grid[usable]
    if len(radii) < 3:
        raise Degenerate(f"only {len(radii)} usable radii at t={t_eff:.4g}")
    slope = float(np.polyfit(radii, np.log(p_t[usable]), 1)[0])
    bound = p0 * np.exp(-sps.lam * radii / speed.c) * (1.0 + tol_h)
    ratios = p_t[usable] / np.maximum(bound, 1e-300)
    return DecayReport(
        t=t_eff,
        slope=slope,
        bound_ok=bool(np.all(ratios <= 1.0)),
        max_bound_ratio=float(np.max(ratios)),
        radii=radii,
    )


@dataclass
class FrontReport:
    times: np.ndarray
    r_front: np.ndarray
    speed: float


def front_speed(
    traj: Trajectory,
    geom: SupportGeometry,
    threshold: float = 1e-6,
    t_max: float | None = None,
) -> FrontReport:
    """Measured propagation speed of the disturbance front.

    For each recorded time, r_front(t) = max{dist(x) : |state(x, t)| > thr}
    over nodes outside the data support, thr = ``threshold`` times the peak
    state magnitude of the whole trajectory; the speed is the least-squares
    slope of r_front against t.

    Raises:
        NoFront: threshold never exceeded outside the support.
    """
    mags = []
    for state in traj.states:
        m = np.sqrt(
            np.einsum("i...,i...->...", state.u1, state.u1)
            + np.einsum("i...,i...->...", state.u2, state.u2)
            + state.phi1**2
            + state.phi2**2
        )
        mags.append(m)
    peak = max(float(np.max(m)) for m in mags)
    if peak == 0.0:
        raise NoFront("trajectory is identically zero")
    thr = threshold * peak
    outside = geom.dist > 0.0
    ts, rf = [], []
    for state, m in zip(traj.states, mags):
        if t_max is not None and state.t > t_max:
            break
        hit = outside & (m > thr)
        if hit.any():
            ts.append(state.t)
            rf.append(float(np.max(geom.dist[hit])))
    if len(ts) < 2:
        raise NoFront("front never detected outside the support")
    times = np.array(ts)
    r_front = np.array(rf)
    speed = float(np.polyfit(times, r_front, 1)[0])
    return FrontReport(times=times, r_front=r_front, speed=speed)


# ---------------------------------------------------------------------------
# Cesàro means and equipartition.
# ---------------------------------------------------------------------------


@dataclass
class CesaroSeries:
    """Running time averages (1/t)∫₀ᵗ of the energy components, for t > 0."""

    t: np.ndarray
    Kc_u: np.ndarray
    Kc_phi: np.ndarray
    Sc: np.ndarray

    @property
    def Kc(self) -> np.ndarray:
        return self.Kc_u + self.Kc_phi

    @property
    def gap(self) -> np.ndarray:
        return self.Kc - self.Sc


def cesaro_means(source) -> CesaroSeries:
    """Cesàro means from an EnergySeries or a Trajectory.

    Raises:
        UndefinedAtZero: if fewer than two samples (nothing beyond t = 0).
    """
    if isinstance(source, Trajectory):
        ws = source.problem.workspace
        series = EnergySeries.from_samples([ws.energy_sample(s) for s in source.states])
    else:
        series = source
    if len(series.t) < 2:
        raise UndefinedAtZero("need samples beyond t = 0 for running means")
    t = series.t
    ku = _cumtrapz(series.kinetic_u, t)[1:] / t[1:]
    kp = _cumtrapz(series.kinetic_phi, t)[1:] / t[1:]
    sc = _cumtrapz(series.strain, t)[1:] / t[1:]
    return CesaroSeries(t=t[1:], Kc_u=ku, Kc_phi=kp, Sc=sc)


@dataclass
class EquipartitionReport:
    case: str  # "dirichlet" (pinned walls) or "free" (all-traction boundary)
    E0: float
    gap_t: np.ndarray
    gap: np.ndarray
    gap_final: float
    predicted_offset: float
    fit_exponent: float | None


def equipartition_report(
    traj_or_series,
    problem: ProblemSpec,
    rigid: RigidDecomposition | None = None,
    fit_bins: int = 8,
) -> EquipartitionReport:
    """Kinetic/strain Cesàro gap against its predicted long-time limit.

    Pinned-wall case: the gap tends to 0 like 1/t; reports a log-log
    envelope decay exponent.  All-traction case: the gap tends to
    ½∫ Σ_α ρ^α |ā̇^α|² dv computed from the rigid decomposition of the
    initial velocities (MissingDecomposition if absent).
    """
    cs = cesaro_means(traj_or_series)
    if isinstance(traj_or_series, Trajectory):
        e0 = traj_or_series.problem.workspace.energy_sample(traj_or_series.states[0]).total
    else:
        e0 = float(traj_or_series.total[0])
    free = problem.boundary.meas_sigma1_zero(problem.grid)
    gap = cs.gap
    if not free:
        lo = cs.t[-1] / 20.0
        sel = cs.t >= lo
        tt, gg = cs.t[sel], np.abs(gap[sel])
        edges = np.geomspace(tt[0], tt[-1] * (1 + 1e-12), fit_bins + 1)
        env_t, env_g = [], []
        for b in range(fit_bins):
            in_bin = (tt >= edges[b]) & (tt < edges[b + 1])
            if in_bin.any():
                env_t.append(np.sqrt(edges[b] * edges[b + 1]))
                env_g.append(max(float(np.max(gg[in_bin])), 1e-300))
        if len(env_t) < 3:
            raise Degenerate("too few bins populated for the gap-decay fit")
        expo = float(np.polyfit(np.log(env_t), np.log(env_g), 1)[0])
        return EquipartitionReport(
            case="dirichlet",
            E0=e0,
            gap_t=cs.t,
            gap=gap,
            gap_final=float(gap[-1]),
            predicted_offset=0.0,
            fit_exponent=expo,
        )
    if rigid is None:
        raise MissingDecomposition("all-traction case needs the rigid decomposition")
    k = problem.consts
    ws = problem.workspace
    r1 = rigid.motion_adot1.field(ws.x)
    r2 = rigid.motion_adot2.field(ws.x)
    offset = 0.5 * float(
        np.sum(ws.w * (k.rho1 * np.einsum("i...,i...->...", r1, r1)
                       + k.rho2 * np.einsum("i...,i...->...", r2, r2)))
    )
    return EquipartitionReport(
        case="free",
        E0=e0,
        gap_t=cs.t,
        gap=gap,
        gap_final=float(gap[-1]),
        predicted_offset=offset,
        fit_exponent=None,
    )


# ---------------------------------------------------------------------------
# Integral-identity residuals over the whole body.
# ---------------------------------------------------------------------------


@dataclass
class IdentityResiduals:
    """Residuals of the three integral identities, per valid recorded time.

    res_energy_balance: λ-weighted energy balance;
    res_virial: momentum-pairing (virial-type) identity;
    res_two_time: two-time Lagrange identity (defined while 2t stays on the
    recorded grid).  ``scale`` is a magnitude reference for relative checks.
    """

    t: np.ndarray
    res_energy_balance: np.ndarray
    res_virial: np.ndarray
    res_two_time: np.ndarray
    scale: float


def identity_residuals(traj: Trajectory, lam: float) -> IdentityResiduals:
    """Evaluate the three whole-body identity residuals on a trajectory.

    Requires a uniformly recorded cadence (the two-time identity pairs
    states at t−s and t+s).  Boundary work uses the prescribed data:
    homogeneous conditions contribute exactly zero, prescribed natural
    tractions/fluxes are integrated from their callables.  Nonzero Dirichlet
    values are outside this evaluation (their work term would need the
    one-sided discrete boundary traction).

    Raises:
        InsufficientSnapshots: fewer than 3 recorded states.
    """
    if len(traj) < 3:
        raise InsufficientSnapshots("need at least 3 snapshots")
    problem = traj.problem
    ws = problem.workspace
    states = traj.states
    times = traj.times
    steps = np.diff(times)
    if steps.size and (np.max(steps) - np.min(steps)) > 1e-9 * max(np.max(steps), 1e-300):
        raise InsufficientSnapshots("two-time identity needs a uniform cadence")
    n = len(times)
    samples = [ws.energy_sample(s) for s in states]
    energy = np.array([s.total for s in samples])
    two_k = np.array([2.0 * (s.kinetic_u + s.kinetic_phi) for s in samples])
    two_w = np.array([2.0 * s.strain for s in samples])
    qpair = np.array([ws.pair_product(s, s) for s in states])

    # Applied loads stacked like U: ρ-weighted body sources per node volume,
    # plus the boundary load; their pairings with V and U are the rates of
    # work and of virial work.
    body = None
    if problem.f is not None or problem.ell is not None:
        body = [ws.w * ws.rho * ws.sources(t) for t in times]
    rate_v = np.zeros(n)
    rate_u = np.zeros(n)
    for j, state in enumerate(states):
        for load in (body[j] if body is not None else None, ws.boundary_load(state.t)):
            if load is not None:
                rate_v[j] += float(np.sum(load * state.V))
                rate_u[j] += float(np.sum(load * state.U))

    decay = np.exp(-lam * times)
    lhs16 = decay * energy + lam * _cumtrapz(decay * energy, times)
    rhs16 = energy[0] + _cumtrapz(decay * rate_v, times)
    res16 = np.abs(lhs16 - rhs16)

    rhs19 = qpair[0] + _cumtrapz(two_k - two_w + rate_u, times)
    res19 = np.abs(qpair - rhs19)

    n_half = (n - 1) // 2
    res23 = np.zeros(n_half + 1)
    s0 = states[0]
    for j in range(n_half + 1):
        sm = states[2 * j]
        bracket = ws.pair_product(s0, sm) + ws.pair_product(sm, s0)
        if body is not None and j > 0:
            vals = [float(np.sum(body[j - i] * states[j + i].U - body[j + i] * states[j - i].U))
                    for i in range(j + 1)]
            bracket += float(np.trapezoid(vals, dx=times[1] - times[0]))
        res23[j] = abs(2.0 * qpair[j] - bracket)
    scale = float(max(np.max(energy), np.max(np.abs(qpair)), 1e-300))
    return IdentityResiduals(
        t=times[: n_half + 1],
        res_energy_balance=res16[: n_half + 1],
        res_virial=res19[: n_half + 1],
        res_two_time=res23,
        scale=scale,
    )
