"""Diagnostics: every functional the mixture theorems constrain.

The support geometry of the driving data, the time-weighted surface power
P(r, t) and its volume counterpart E(r, t), spatial-decay and front-speed
reports, Cesàro means and the equipartition gap, and the residuals of the
three integral identities used by the verification suites, all from the
energy series and snapshots that ``solver.simulate`` records.  All volume
integrals use the trapezoid node weights of the grid (the functional the
symmetric scheme conserves); time integrals are trapezoid sums over the
recorded cadence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    Degenerate,
    InsufficientSnapshots,
    InvalidParameter,
    MissingDecomposition,
    NoFront,
    UndefinedAtZero,
)
from .fields import stored_energy
from .solver import (
    EnergySeries,
    ProblemSpec,
    RigidDecomposition,
    Trajectory,
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


# ---------------------------------------------------------------------------
# Support geometry and the r-indexed node/face sets.
# ---------------------------------------------------------------------------


@dataclass
class SupportGeometry:
    """Support mask of the driving data, distance field, its maximum L and the grid spacing h."""

    mask: np.ndarray
    dist: np.ndarray
    L: float
    h: tuple[float, ...]


def support_geometry(problem: ProblemSpec, threshold: float = 1e-14) -> SupportGeometry:
    """Detect the data support and the node distances to it.

    A node belongs to the support when any initial field, any body source at
    any of 9 evenly spaced times in [0, T], or any prescribed boundary value
    exceeds ``threshold`` times the peak data magnitude there.  With all-zero
    data the lexicographically first boundary node is designated
    (deterministic fallback so the geometry stays usable).
    """
    grid = problem.grid
    state0 = initialize(problem)
    ws = problem.workspace
    x = ws.x
    mags = [np.abs(state0.U), np.abs(state0.V)]
    if problem.f is not None or problem.ell is not None:
        mags += [np.abs(ws.sources(t)) for t in np.linspace(0.0, problem.T, 9)]
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
    dist = np.sqrt(_squared_distance_to(mask, grid.axes()))
    return SupportGeometry(mask=mask, dist=dist, L=float(dist.max()), h=grid.h)


# Elements in the largest temporary of one min-plus chunk (16 MB of float64).
_MINPLUS_CHUNK = 1 << 21


def _squared_distance_to(mask: np.ndarray, axes: list[np.ndarray]) -> np.ndarray:
    """Exact squared Euclidean distance from every node to the nearest masked node.

    Separable transform (Felzenszwalb & Huttenlocher, Theory of Computing 8,
    2012): start from 0 on the mask and +inf elsewhere, then along each grid
    axis in turn take d²[p] ← min_q d²[q] + (x_p − x_q)².  Along the first
    axis d² is 0 or +inf, so the minimum sits at the nearest masked node on
    either side of p, found by running max/min of node indices.  Along the
    second axis it is a min-plus product of each grid line with the table of
    squared coordinate differences, in chunks of at most ``_MINPLUS_CHUNK``
    elements.  Memory is O(grid), never O(grid × support).
    """
    x = axes[0]
    n = len(x)
    i = np.arange(n).reshape((n,) + (1,) * (mask.ndim - 1))
    left = np.maximum.accumulate(np.where(mask, i, -1), axis=0)
    right = np.minimum.accumulate(np.where(mask, i, n)[::-1], axis=0)[::-1]
    ext = np.append(x, np.inf)  # indices -1 and n both read the +inf sentinel
    xp = x.reshape(i.shape)
    d2 = np.minimum((xp - ext[left]) ** 2, (ext[right] - xp) ** 2)
    if len(axes) == 2:
        y = axes[1]
        n = len(y)
        out = np.empty_like(d2)
        p_block = max(1, min(n, _MINPLUS_CHUNK // n))
        l_block = max(1, _MINPLUS_CHUNK // (p_block * n))
        for p0 in range(0, n, p_block):
            cost = (y[p0:p0 + p_block, None] - y[None, :]) ** 2
            for l0 in range(0, len(d2), l_block):
                chunk = d2[l0:l0 + l_block, None, :] + cost
                out[l0:l0 + l_block, p0:p0 + p_block] = chunk.min(axis=-1)
        d2 = out
    return d2


# Node distances closer than this fraction of min(h) lie on one shell.
_SHELL_RTOL = 1e-8


def default_r_grid(geom: SupportGeometry, count: int = 32) -> np.ndarray:
    """Radii at midpoints between distinct positive node distances, plus r = 0.

    Nodes at one true distance reached along different grid offsets (say
    (5, 0) and (3, 4) steps) differ by roundoff; distances within
    ``_SHELL_RTOL``·min(h) of each other form one shell, so no radius falls
    between them.  The midpoint below the smallest positive distance is
    excluded: it selects the same node set as r = 0, so P would plateau there
    and any radial finite difference across the duplicate would be
    meaningless.
    """
    rd = np.unique(geom.dist)
    rd = rd[rd > 0.0]
    gap = np.diff(rd) > _SHELL_RTOL * min(geom.h)
    mids = 0.5 * (rd[:-1][gap] + rd[1:][gap])
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


@dataclass
class SurfaceFlux:
    """The λ-free part of the surface power, per radius (rows) and recorded time.

    ``flux`` is Σ_faces (QY)ⱼ·V da over S_r, with the normal pointing away
    from the data side; ``energy`` is ∫ ε dv over {dist > r}.
    """

    r_grid: np.ndarray
    t_grid: np.ndarray
    flux: np.ndarray
    energy: np.ndarray

    def weighted(self, lam: float) -> SurfacePowerSeries:
        """The series at λ, by trapezoid in time: P(r,t) = −∫₀ᵗ e^{−λs} flux ds and
        E(r,t) = e^{−λt} energy + λ∫₀ᵗ e^{−λs} energy ds."""
        t = self.t_grid
        decay = np.exp(-lam * t)
        p = -_cumtrapz(self.flux * decay, t)
        e_vol = self.energy * decay + lam * _cumtrapz(self.energy * decay, t)
        return SurfacePowerSeries(r_grid=self.r_grid, t_grid=t.copy(), P=p, E_vol=e_vol, lam=lam)


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


def surface_power(traj: Trajectory, geom: SupportGeometry, r_grid: np.ndarray) -> SurfaceFlux:
    """Surface power on the staircase interfaces S_r, before the time weight.

    One pass over the snapshots gives the flux through S_r and the energy
    outside it at every radius; ``.weighted(λ)`` of the result is the
    time-weighted P(r, t) with its volume energy E(r, t), so a λ sweep
    evaluates each snapshot once.  S_r is realized as the set of grid faces
    separating {dist ≤ r} from {dist > r}.  Each node gets one shell index
    k, the number of radii below its distance, so it lies outside S_{r_i}
    exactly when i < k.  The energy outside every S_r is then one bincount
    over k plus a reverse cumulative sum; a face between shells k_lo ≠ k_hi
    lies on S_{r_i} for min(k_lo, k_hi) ≤ i < max(k_lo, k_hi), and its flux
    averages the two nodal values of (QY)ⱼ·V = Σ_α [S^α[:, j]·u̇^α + h^α_j φ̇^α].
    Each state costs O(grid), whatever the number of radii.

    Raises:
        InvalidParameter: if ``r_grid`` is not strictly increasing.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    if r_grid.ndim != 1 or np.any(np.diff(r_grid) <= 0.0):
        raise InvalidParameter("r_grid must be strictly increasing")
    ws = traj.problem.workspace
    grid = ws.grid
    nr, nt = len(r_grid), len(traj)
    shell = np.searchsorted(r_grid, geom.dist)
    # One (face, radius) entry per radius each face crosses, its area signed
    # +1 where the upper node is the outer one; faces of all axes in order.
    faces, radii, areas = [], [], []
    offset = 0
    for axis in range(grid.dim):
        k_lo, k_hi = _axis_faces(shell, axis)
        lo = np.minimum(k_lo, k_hi).ravel()
        span = np.abs(k_hi - k_lo).ravel()
        face = np.repeat(np.arange(span.size), span)
        start = np.repeat(np.cumsum(span) - span, span)
        faces.append(offset + face)
        radii.append(lo[face] + np.arange(face.size) - start)
        areas.append((np.where(k_hi > k_lo, 1.0, -1.0) * _face_areas(grid, axis)).ravel()[face])
        offset += span.size
    faces, radii, areas = (np.concatenate(a) for a in (faces, radii, areas))

    flux = np.zeros((nr, nt))
    energy = np.zeros((nr, nt))
    for j, state in enumerate(traj.states):
        Y, QY = ws.stress(state.U)
        eps = 0.5 * np.sum(ws.inertia * state.V**2, axis=0) + stored_energy(Y, QY)
        per_shell = np.bincount(shell.ravel(), weights=(ws.w * eps).ravel(), minlength=nr + 1)
        energy[:, j] = np.cumsum(per_shell[::-1])[::-1][1:]
        face_flux = []
        for axis in range(grid.dim):
            s_lo, s_hi = _axis_faces(QY[1 + axis], 1 + axis)
            v_lo, v_hi = _axis_faces(state.V, 1 + axis)
            face_flux.append(0.25 * np.einsum("c...,c...->...", s_lo + s_hi, v_lo + v_hi).ravel())
        flux[:, j] = np.bincount(radii, weights=areas * np.concatenate(face_flux)[faces],
                                 minlength=nr)
    return SurfaceFlux(r_grid=r_grid, t_grid=traj.times, flux=flux, energy=energy)


@dataclass
class DecayReport:
    t: float
    slope: float
    bound_ok: bool
    max_bound_ratio: float
    radii: np.ndarray


def decay_report(sps: SurfacePowerSeries, speed, t: float, tol_h: float = 0.05) -> DecayReport:
    """Exponential-envelope check P(r,t) ≤ P(0,t)·exp(−λr/c)·(1+tol_h).

    Fits the least-squares slope of ln P(r,t) against r over the usable
    radii (0 ≤ r ≤ ct, P(r,t) > 1e-12·P(0,t)).

    Raises:
        Degenerate: fewer than 3 usable radii.
    """
    j = int(np.argmin(np.abs(sps.t_grid - t)))
    t_eff = float(sps.t_grid[j])
    p_t = sps.P[:, j]
    p0 = p_t[0]
    if p0 <= 0.0:
        raise Degenerate(f"P(0, t={t_eff:.4g}) is not positive")
    usable = (sps.r_grid <= speed.c * t_eff) & (p_t > 1e-12 * p0)
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


# Fraction of the trajectory's peak state magnitude that marks the front.
_FRONT_THRESHOLD = 1e-6


def front_speed(traj: Trajectory, geom: SupportGeometry) -> FrontReport:
    """Measured propagation speed of the disturbance front.

    For each recorded time, r_front(t) = max{dist(x) : |state(x, t)| > thr}
    over nodes outside the data support, thr = ``_FRONT_THRESHOLD`` times
    the peak state magnitude of the whole trajectory; the speed is the
    least-squares slope of r_front against t.

    Raises:
        NoFront: threshold never exceeded outside the support.
    """
    mags = [state.magnitude() for state in traj.states]
    peak = max(float(np.max(m)) for m in mags)
    if peak == 0.0:
        raise NoFront("trajectory is identically zero")
    thr = _FRONT_THRESHOLD * peak
    outside = geom.dist > 0.0
    ts, rf = [], []
    for state, m in zip(traj.states, mags):
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


def cesaro_means(series: EnergySeries) -> CesaroSeries:
    """Cesàro means of a recorded energy series (``Trajectory.energy`` for snapshots).

    Raises:
        UndefinedAtZero: if fewer than two samples (nothing beyond t = 0).
    """
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


# Log-spaced time bins of the gap envelope that equipartition_report fits.
_GAP_FIT_BINS = 8


def equipartition_report(
    series: EnergySeries,
    problem: ProblemSpec,
    rigid: RigidDecomposition | None = None,
) -> EquipartitionReport:
    """Kinetic/strain Cesàro gap against its predicted long-time limit.

    Pinned-wall case: the gap tends to 0 like 1/t; reports a log-log
    envelope decay exponent over ``_GAP_FIT_BINS`` time bins.  All-traction
    case: the gap tends to ½∫ Σ_α ρ^α |ā̇^α|² dv computed from the rigid
    decomposition of the initial velocities (MissingDecomposition if absent).
    """
    cs = cesaro_means(series)
    e0 = float(series.total[0])
    free = problem.boundary.meas_sigma1_zero(problem.grid)
    gap = cs.gap
    if not free:
        lo = cs.t[-1] / 20.0
        sel = cs.t >= lo
        tt, gg = cs.t[sel], np.abs(gap[sel])
        edges = np.geomspace(tt[0], tt[-1] * (1 + 1e-12), _GAP_FIT_BINS + 1)
        env_t, env_g = [], []
        for b in range(_GAP_FIT_BINS):
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


def identity_residuals(traj: Trajectory) -> IdentityResiduals:
    """Evaluate the three whole-body identity residuals on a trajectory.

    λ is the problem's ``lam``.  The energies are the ones recorded with the
    snapshots, so no stress is evaluated here.

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
    energy = traj.energy.total
    two_k = 2.0 * (traj.energy.kinetic_u + traj.energy.kinetic_phi)
    two_w = 2.0 * traj.energy.strain
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

    decay = np.exp(-problem.lam * times)
    lhs16 = decay * energy + problem.lam * _cumtrapz(decay * energy, times)
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
