"""Diagnostics: every functional the mixture theorems constrain.

The support geometry of the driving data, the time-weighted surface power
P(r, t) and its volume counterpart E(r, t), spatial-decay and front-speed
reports, Cesàro means and the equipartition gap, and the residuals of the
three integral identities used by the verification suites, all from the
energy series and snapshots of one ``solver.stream`` run.  All volume
integrals use the trapezoid node weights of the grid (the functional the
symmetric scheme conserves); time integrals are trapezoid sums over the
recorded cadence.

The surface power, the front speed and the identity residuals split into a
reduction of one recorded state (``SurfaceShells.sample``,
``FrontSweep.sample``, ``IdentitySeries``), which ``solver.stream`` applies
to each snapshot as it is taken, and an assembly from the resulting series
(``SurfaceShells.flux``, ``FrontSweep.report``, ``IdentitySeries.residuals``),
so peak memory is O(grid), not grid × snapshot count.  The run advances one
state in place, so only the t = 0 state, which the two-time identity pairs
with every later one, is copied.  The reductions evaluate in the
workspace's evaluation scratch (``Workspace.Y``, ``QY`` and ``scratch``),
valid only until the next workspace call that writes it, so a snapshot's
reduction allocates no (8, *grid) temporary either.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import (
    Degenerate,
    InsufficientSnapshots,
    InvalidParameter,
    NoFront,
    UndefinedAtZero,
)
from .solver import (
    EnergySeries,
    ProblemSpec,
    StateField,
    Workspace,
    initialize,
    rigid_fit,
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


# Fraction of the peak data magnitude that puts a node in the data support.
_SUPPORT_THRESHOLD = 1e-14


def support_geometry(problem: ProblemSpec) -> SupportGeometry:
    """Detect the data support and the node distances to it.

    A node belongs to the support when the magnitude of the data there, the
    largest absolute initial value and the largest absolute component of
    the value groups of every side through the node, exceeds
    ``_SUPPORT_THRESHOLD`` times the peak data magnitude.  With all-zero
    data the lexicographically first boundary node is designated
    (deterministic fallback so the geometry stays usable).  Builds no workspace.
    """
    grid = problem.grid
    state0 = initialize(problem)
    total_mag = np.max(np.concatenate([np.abs(state0.U), np.abs(state0.V)]), axis=0)
    for axis, end in grid.sides():
        sl = grid.side_slicer(axis, end)
        for family in ("u", "phi"):
            values = problem.boundary.side(family, axis, end).values
            if values is not None:
                total_mag[sl] = np.maximum(total_mag[sl], np.max(np.abs(values)))
    peak = float(np.max(total_mag))
    mask = total_mag > _SUPPORT_THRESHOLD * peak if peak > 0.0 else np.zeros(grid.shape, dtype=bool)
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
    rd = np.sort(geom.dist, axis=None)  # repeats differ by 0 and fall out with the gap mask
    rd = rd[rd > 0.0]
    gap = np.diff(rd) > _SHELL_RTOL * min(geom.h)
    mids = 0.5 * (rd[:-1][gap] + rd[1:][gap])
    if len(mids) <= count - 1:
        picks = mids
    else:
        # more midpoints than picks, so the index step exceeds 1 and no index repeats
        picks = mids[np.linspace(0, len(mids) - 1, count - 1).astype(int)]
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
    """Dual-cell areas of the faces normal to ``axis``: the side weights, repeated along it."""
    face_shape = tuple(n - 1 if a == axis else n for a, n in enumerate(grid.shape))
    return np.broadcast_to(np.expand_dims(grid.side_weights(axis), axis), face_shape)


def _axis_faces(arr: np.ndarray, axis_pos: int):
    """(lower, upper) views of an array across each face along one grid axis."""
    nd = arr.ndim
    lo = [slice(None)] * nd
    hi = [slice(None)] * nd
    lo[axis_pos] = slice(0, -1)
    hi[axis_pos] = slice(1, None)
    return arr[tuple(lo)], arr[tuple(hi)]


@dataclass
class SurfaceShells:
    """The staircase interfaces S_r of one support geometry and r-grid, on one workspace.

    Each node gets one shell index k, the number of radii below its
    distance, so it lies outside S_{r_i} exactly when i < k.  A face between
    shells k_lo ≠ k_hi lies on S_{r_i} for min(k_lo, k_hi) ≤ i < max(k_lo,
    k_hi): it has one (face, radius) entry per radius it crosses, with its
    area signed +1 where the upper node is the outer one (faces of all axes
    in order).
    """

    ws: Workspace
    r_grid: np.ndarray
    shell: np.ndarray
    faces: np.ndarray
    radii: np.ndarray
    areas: np.ndarray

    def sample(self, state: StateField) -> tuple[float, np.ndarray]:
        """(t, rows) of one state: the flux through every S_r and the energy
        outside it, as the two rows of one array (a streamed run keeps one per
        snapshot).

        The energy outside every S_r is one bincount over the shell index
        plus a reverse cumulative sum; a face's flux averages the two nodal
        values of (QY)ⱼ·V = Σ_α [S^α[:, j]·u̇^α + h^α_j φ̇^α].  One
        ``Workspace.stress`` call, so O(grid) whatever the number of radii.
        It evaluates in the workspace's evaluation scratch, ``Y``, ``QY``
        and ``scratch``, which it leaves overwritten, in the arithmetic
        order of the formulas: it allocates no (8, *grid) temporary, and its
        rows are bit-identical to theirs.
        """
        ws, nr, grid = self.ws, len(self.r_grid), self.ws.grid
        Y, QY = ws.stress(state.U)
        # ε = ½ Σ ρχ V² + ½ Y·QY node by node, in the workspace's scratch and, once the
        # stored energy is taken, in Y's rows
        eps = np.einsum("bc...,bc...->...", Y, QY, out=ws.scratch[0])
        np.multiply(eps, 0.5, out=eps)
        kinetic = ws.inertia_times(np.square(state.V, out=Y[0]), out=Y[0])
        kinetic = np.sum(kinetic, axis=0, out=Y[1, 0])
        np.add(np.multiply(kinetic, 0.5, out=kinetic), eps, out=eps)
        per_shell = np.bincount(self.shell.ravel(), weights=np.multiply(ws.w, eps, out=eps).ravel(),
                                minlength=nr + 1)
        # each face's (QY)ⱼ and V summed over its two nodes, by one shifted add of the
        # flattened rows into Y's rows; the sums that wrap across rows are never read
        flux_all, start = ws.scratch.reshape(-1), 0
        for axis in range(grid.dim):
            shift = math.prod(grid.shape[axis + 1:])  # the flat stride of the axis
            sums = []
            for total, field in ((Y[0], QY[1 + axis]), (Y[1], state.V)):
                flat = field.reshape(-1)
                np.add(flat[:-shift], flat[shift:], out=total.reshape(-1)[:-shift])
                sums.append(_axis_faces(total, 1 + axis)[0])
            face = flux_all[start:start + sums[0][0].size].reshape(sums[0].shape[1:])
            np.einsum("c...,c...->...", *sums, out=face)
            np.multiply(face, 0.25, out=face)
            start += face.size
        # each (face, radius) entry's area times its face flux, in the scratch after those
        entries = flux_all[start:start + len(self.faces)]
        if entries.size < len(self.faces):  # radii denser than the grid: more than fit
            entries = np.empty(len(self.faces))
        np.take(flux_all[:start], self.faces, out=entries, mode="clip")
        flux = np.bincount(self.radii, weights=np.multiply(self.areas, entries, out=entries),
                           minlength=nr)
        return state.t, np.stack([flux, np.cumsum(per_shell[::-1])[::-1][1:]])

    def flux(self, samples: list[tuple[float, np.ndarray]]) -> SurfaceFlux:
        """The :class:`SurfaceFlux` of the sampled states, from their samples.

        Its ``weighted(λ)`` is the time-weighted P(r, t) with its volume
        energy E(r, t), so a λ sweep samples each state once.
        """
        t_grid, rows = zip(*samples)
        flux, energy = np.stack(rows, axis=-1)
        return SurfaceFlux(r_grid=self.r_grid, t_grid=np.array(t_grid, dtype=float),
                           flux=flux, energy=energy)


def surface_shells(ws: Workspace, geom: SupportGeometry, r_grid: np.ndarray) -> SurfaceShells:
    """The interfaces S_r of ``geom`` at the radii ``r_grid``, realized on grid faces.

    S_r is the set of grid faces separating {dist ≤ r} from {dist > r}.

    Raises:
        InvalidParameter: if ``r_grid`` is not strictly increasing.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    if r_grid.ndim != 1 or np.any(np.diff(r_grid) <= 0.0):
        raise InvalidParameter("r_grid must be strictly increasing")
    grid = ws.grid
    shell = np.searchsorted(r_grid, geom.dist)
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
    return SurfaceShells(ws=ws, r_grid=r_grid, shell=shell, faces=faces, radii=radii, areas=areas)


# Fraction of its peak that E(r, t) must carry to enter the P = E comparison.
_POWER_FLOOR = 1e-2


def power_error(sps: SurfacePowerSeries) -> float:
    """Worst relative |P − E| where E carries at least ``_POWER_FLOOR`` of its peak."""
    ref = float(np.max(np.abs(sps.E_vol)))
    sel = np.abs(sps.E_vol) > _POWER_FLOOR * ref
    if not sel.any():
        return 0.0
    return float(np.max(np.abs(sps.P[sel] - sps.E_vol[sel]) / np.abs(sps.E_vol[sel])))


def lambda_sweep(problem: ProblemSpec) -> dict[float, float]:
    """The decay sweep: λ = m·c/L for each multiple m, L the grid's largest extent."""
    length = max(problem.grid.extent())
    return {m: m * problem.speed().c / length for m in (0.5, 1.0, 2.0)}


@dataclass
class DecayReport:
    t: float
    slope: float
    max_bound_ratio: float

    @property
    def bound_ok(self) -> bool:
        """Every usable radius within the envelope (False on a NaN ratio)."""
        return self.max_bound_ratio <= 1.0


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
    return DecayReport(t=t_eff, slope=slope, max_bound_ratio=float(np.max(ratios)))


@dataclass
class FrontReport:
    times: np.ndarray
    r_front: np.ndarray
    speed: float
    peak: float  # the largest state magnitude of all recorded times


# Fraction of the peak state magnitude of all recorded times that marks the front.
_FRONT_THRESHOLD = 1e-6


@dataclass
class FrontSweep:
    """The nodes outside the data support of one geometry, farthest first, and
    the peak state magnitude of the states sampled so far.

    The front threshold is a fraction of the peak over all recorded times,
    unknown until the last one, so each state is reduced to its records:
    the nodes whose magnitude exceeds that of every node farther out.  For
    any threshold, the farthest node above it is the first record above it.
    The final threshold is at least the one of the peak so far, so only the
    records above that one are kept, and they fix r_front exactly.
    """

    order: np.ndarray  # flat node indices, by decreasing distance
    dist: np.ndarray  # their distances
    peak: float = 0.0

    def sample(self, t: float, magnitude: np.ndarray) -> tuple[float, np.ndarray]:
        """(t, records) of one state's ``StateField.magnitude``, given in time
        order: the records' magnitudes (increasing) and distances, as two rows."""
        self.peak = max(self.peak, float(np.max(magnitude)))
        running = np.maximum.accumulate(magnitude.ravel()[self.order])
        # magnitudes are >= 0, so the farthest node is always a record
        new_max = np.diff(running, prepend=-1.0) > 0.0
        records = np.flatnonzero(new_max & (running > _FRONT_THRESHOLD * self.peak))
        return t, np.stack([running[records], self.dist[records]])

    def report(self, samples: list[tuple[float, np.ndarray]]) -> FrontReport:
        """The front speed of the states this sweep sampled, from their samples.

        For each sampled time, r_front(t) = max{dist(x) : |state(x, t)| > thr}
        over the nodes outside the support, with thr = ``_FRONT_THRESHOLD``
        times the peak state magnitude of all sampled times; the speed is the
        least-squares slope of r_front against t.

        Raises:
            NoFront: no node outside the support ever exceeds the threshold.
        """
        if self.peak == 0.0:
            raise NoFront("trajectory is identically zero")
        thr = _FRONT_THRESHOLD * self.peak
        ts, rf = [], []
        for t, (level, dist) in samples:
            first = np.searchsorted(level, thr, side="right")  # the first record above thr
            if first < len(level):
                ts.append(t)
                rf.append(float(dist[first]))
        if len(ts) < 2:
            raise NoFront("front never detected outside the support")
        times = np.array(ts)
        r_front = np.array(rf)
        speed = float(np.polyfit(times, r_front, 1)[0])
        return FrontReport(times=times, r_front=r_front, speed=speed, peak=self.peak)


def front_sweep(geom: SupportGeometry) -> FrontSweep:
    """A :class:`FrontSweep` of the nodes with ``geom.dist > 0``, with no state sampled."""
    outside = np.flatnonzero(geom.dist > 0.0)
    order = outside[np.argsort(geom.dist.ravel()[outside], kind="stable")[::-1]]
    return FrontSweep(order=order, dist=geom.dist.ravel()[order])


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
    """Cesàro means of a recorded energy series (``solver.stream``'s).

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
    gap_final: float
    predicted_offset: float
    fit_exponent: float | None

    @property
    def offset_error(self) -> float:
        """|gap_final − predicted_offset| / E0: how far the final gap is from its limit."""
        return abs(self.gap_final - self.predicted_offset) / self.E0


# Log-spaced time bins of the gap envelope that equipartition_report fits.
_GAP_FIT_BINS = 8


def equipartition_report(series: EnergySeries, problem: ProblemSpec) -> EquipartitionReport:
    """Kinetic/strain Cesàro gap against its predicted long-time limit.

    Pinned-wall case: the gap tends to 0 like 1/t; reports a log-log
    envelope decay exponent over ``_GAP_FIT_BINS`` time bins.  All-traction
    case: the gap tends to ½∫ Σ_α ρ^α |ā̇^α|² dv, where ā̇^α is the rigid part
    (``rigid_fit``) of constituent α's initial velocity in ``initialize(problem)``.

    Raises:
        SingularInertia: from ``rigid_fit``, on an inconsistent rigid fit.
    """
    cs = cesaro_means(series)
    free = problem.boundary.meas_sigma1_zero(problem.grid)
    offset, expo = 0.0, None
    if free:
        k = problem.consts
        w, x = problem.grid.weights(), problem.grid.positions()
        state0 = initialize(problem)
        r1, r2 = (rigid_fit(v, problem.grid)[0].field(x) for v in (state0.v1, state0.v2))
        offset = 0.5 * float(
            np.sum(w * (k.rho1 * np.einsum("i...,i...->...", r1, r1)
                        + k.rho2 * np.einsum("i...,i...->...", r2, r2)))
        )
    else:
        lo = cs.t[-1] / 20.0
        sel = cs.t >= lo
        tt, gg = cs.t[sel], np.abs(cs.gap[sel])
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
        case="free" if free else "dirichlet",
        E0=float(series.total[0]),
        gap_final=float(cs.gap[-1]),
        predicted_offset=offset,
        fit_exponent=expo,
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


class IdentitySeries:
    """A streamed run's reducer for :class:`IdentityResiduals`: it samples each
    state it is given, in time order, and assembles the residuals after the run.

    Each sample is one row (t, K_u, K_φ, W, Q, load·V, load·U, cross) of one
    growing float array: the ``Workspace.energy_split`` (off the force that
    ``stream`` leaves, so no stress is evaluated), the virial pairing Q =
    ``pair_product(state, state)``, the rates of work and of virial work of
    the static load (0 without one) and cross = ⟨state0, state⟩ + ⟨state,
    state0⟩, the two-time pairing with the first state, which it copies.
    λ is the problem's ``lam``.  A sample evaluates in the workspace's
    ``scratch`` and ``Y``, which it leaves overwritten, and allocates no
    (8, *grid) temporary after the first.
    """

    def __init__(self, problem: ProblemSpec):
        self.ws, self.lam = problem.workspace, problem.lam
        self.state0: StateField | None = None
        self.samples = array("d")

    def __call__(self, state: StateField) -> None:
        ws = self.ws
        if self.state0 is None:
            self.state0 = state.copy()
        rate_v = rate_u = 0.0
        if ws.load is not None:
            rate_v = float(np.sum(np.multiply(ws.load, state.V, out=ws.scratch)))
            rate_u = float(np.sum(np.multiply(ws.load, state.U, out=ws.scratch)))
        self.samples.extend(ws.energy_split(state))
        self.samples.extend((ws.pair_product(state, state), rate_v, rate_u,
                             ws.pair_product(self.state0, state)
                             + ws.pair_product(state, self.state0)))

    def residuals(self) -> IdentityResiduals:
        """The residuals of the sampled states.

        Requires a uniformly recorded cadence (the two-time identity pairs
        states at t−s and t+s).  The applied load is the workspace's static
        ``load`` of the prescribed tractions/fluxes; it enters all three
        identities, through its rate of work load·V, its virial rate load·U
        and the two-time term ∫₀ᵗ load·(U(t+s) − U(t−s)) ds.  Homogeneous
        conditions contribute exactly zero.  Nonzero Dirichlet data are
        refused: the virial and two-time identities lack the terms of the
        reaction −(F + load) at the pinned entries (F is ``ws.F``).

        Raises:
            InsufficientSnapshots: fewer than 3 sampled states, or a
                non-uniform cadence.
            InvalidParameter: nonzero prescribed Dirichlet values.
        """
        rows = np.array(self.samples).reshape(-1, 8)  # one per sampled state
        if len(rows) < 3:
            raise InsufficientSnapshots("need at least 3 snapshots")
        if self.ws.pin_to.any():
            raise InvalidParameter("identity residuals need zero Dirichlet data: the virial and "
                                   "two-time identities lack the reaction terms of nonzero values")
        times, kinetic_u, kinetic_phi, strain, qpair, rate_v, rate_u, cross = rows.T
        steps = np.diff(times)
        if (np.max(steps) - np.min(steps)) > 1e-9 * max(np.max(steps), 1e-300):
            raise InsufficientSnapshots("two-time identity needs a uniform cadence")
        n = len(times)
        total = kinetic_u + kinetic_phi + strain
        two_k = 2.0 * (kinetic_u + kinetic_phi)
        two_w = 2.0 * strain

        decay = np.exp(-self.lam * times)
        lhs16 = decay * total + self.lam * _cumtrapz(decay * total, times)
        rhs16 = total[0] + _cumtrapz(decay * rate_v, times)
        res16 = np.abs(lhs16 - rhs16)

        rhs19 = qpair[0] + _cumtrapz(two_k - two_w + rate_u, times)
        res19 = np.abs(qpair - rhs19)

        n_half = (n - 1) // 2
        res23 = np.zeros(n_half + 1)
        for j in range(n_half + 1):
            # the load term: the trapezoid over i = 0..j of rate_u[j + i] − rate_u[j − i]
            bracket = cross[2 * j] + float(np.trapezoid(rate_u[j:2 * j + 1] - rate_u[j::-1],
                                                        dx=steps[0]))
            res23[j] = abs(2.0 * qpair[j] - bracket)
        scale = float(max(np.max(total), np.max(np.abs(qpair)), 1e-300))
        return IdentityResiduals(
            t=times[: n_half + 1],
            res_energy_balance=res16[: n_half + 1],
            res_virial=res19[: n_half + 1],
            res_two_time=res23,
            scale=scale,
        )
