"""Explicit integration of the mixture equations of motion.

Scheme: collocated uniform grid, second-order differences in space, leapfrog
(kick-drift-kick) in time.  The spatial force is assembled as the exact
gradient of the discrete stored energy  Σ_k w_k W(E_k(U))  with trapezoid
node weights w, so the semi-discrete operator is exactly symmetric and the
discrete energy has bounded O(dt²) oscillation instead of secular drift.
Natural boundary conditions enter variationally (one-sided boundary strain
stencils plus a boundary-work term for prescribed tractions); Dirichlet
conditions pin nodal values.  The state is stacked as U = (u¹, u², φ¹, φ²)
with V = U̇ (see :mod:`poromix.fields` for the jet form Q that gives every
stress).  ``simulate`` is the one run loop; it records the energy split and
the snapshots as it steps.  Balance laws integrated per constituent α::

    ρᵅ üᵅ_i   = Sᵅ_ji,j + (−1)ᵅ p_i + ρᵅ fᵅ_i
    ρᵅ χᵅ φ̈ᵅ = hᵅ_i,i + gᵅ + ρᵅ ℓᵅ
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import InvalidParameter, NonFinite, SingularInertia
from .fields import (
    PHI1_ROW,
    PHI2_ROW,
    STATE_ROWS,
    U1_ROWS,
    U2_ROWS,
    gradient_adjoint,
    jet,
    jet_form,
    stored_energy,
)
from .materials import MaterialConstants, SpeedParams

AXIS_NAMES = ("x", "y")


@dataclass(frozen=True)
class Grid:
    """Uniform Cartesian grid with nodes on the domain boundary.

    ``dim`` spatial axes are sampled (1 or 2); fields are independent of the
    unsampled coordinates but all vectors/tensors stay 3-D.
    """

    dim: int
    n: tuple[int, ...]
    h: tuple[float, ...]
    origin: tuple[float, ...] = ()

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise InvalidParameter(f"dim must be 1 or 2, got {self.dim}")
        n = tuple(int(v) for v in np.atleast_1d(self.n))
        h = tuple(float(v) for v in np.atleast_1d(self.h))
        origin = tuple(float(v) for v in np.atleast_1d(self.origin)) if self.origin else (0.0,) * self.dim
        if len(n) != self.dim or len(h) != self.dim or len(origin) != self.dim:
            raise InvalidParameter("n, h, origin must each have one entry per dimension")
        if any(v < 4 for v in n):
            raise InvalidParameter("need at least 4 nodes per sampled dimension")
        if any(v <= 0.0 for v in h):
            raise InvalidParameter("grid spacing must be positive")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "origin", origin)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.n

    def axes(self) -> list[np.ndarray]:
        return [self.origin[a] + self.h[a] * np.arange(self.n[a]) for a in range(self.dim)]

    def positions(self) -> np.ndarray:
        """Node coordinates as a (3, *shape) array; unsampled coords are 0."""
        x = np.zeros((3,) + self.shape)
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        for a in range(self.dim):
            x[a] = mesh[a]
        return x

    def weights(self) -> np.ndarray:
        """Trapezoid quadrature node weights (volume measure)."""
        w = np.ones(self.shape)
        for a in range(self.dim):
            tw = np.ones(self.n[a])
            tw[0] = tw[-1] = 0.5
            shape = [1] * self.dim
            shape[a] = self.n[a]
            w = w * (self.h[a] * tw).reshape(shape)
        return w

    def extent(self) -> tuple[float, ...]:
        return tuple((self.n[a] - 1) * self.h[a] for a in range(self.dim))

    def sides(self) -> list[tuple[int, int]]:
        return [(a, end) for a in range(self.dim) for end in (0, 1)]

    def side_slicer(self, axis: int, end: int) -> tuple:
        idx = [slice(None)] * self.dim
        idx[axis] = 0 if end == 0 else -1
        return tuple(idx)

    def side_weights(self, axis: int) -> np.ndarray:
        """Boundary (surface) quadrature weights over the transverse axes."""
        if self.dim == 1:
            return np.ones(())
        other = 1 - axis
        tw = np.ones(self.n[other])
        tw[0] = tw[-1] = 0.5
        return self.h[other] * tw


@dataclass(frozen=True)
class SideCondition:
    """Boundary condition on one grid side for one field family.

    kind "dirichlet": values pinned (``value(x)`` static, or homogeneous 0).
    kind "natural": traction/flux prescribed (``value(x, t)``, default 0).
    """

    kind: str
    value: Callable | None = None

    def __post_init__(self):
        if self.kind not in ("dirichlet", "natural"):
            raise InvalidParameter(f"unknown boundary kind {self.kind!r}")


@dataclass(frozen=True)
class BoundaryPartition:
    """Per-side conditions for the displacement and volume-fraction families.

    One partition applies to both constituents of a family.  A node covered
    by any Dirichlet side is pinned (Dirichlet wins at junctions).
    """

    u: dict[str, SideCondition]
    phi: dict[str, SideCondition]

    @staticmethod
    def uniform(u_kind: str = "natural", phi_kind: str = "natural",
                dim: int = 1) -> "BoundaryPartition":
        keys = [f"{AXIS_NAMES[a]}{end}" for a in range(dim) for end in (0, 1)]
        return BoundaryPartition(
            u={k: SideCondition(u_kind) for k in keys},
            phi={k: SideCondition(phi_kind) for k in keys},
        )

    def side(self, family: str, axis: int, end: int) -> SideCondition:
        table = self.u if family == "u" else self.phi
        key = f"{AXIS_NAMES[axis]}{end}"
        if key not in table:
            raise InvalidParameter(f"missing boundary condition {family}.{key}")
        return table[key]

    def dirichlet_mask(self, family: str, grid: Grid) -> np.ndarray:
        mask = np.zeros(grid.shape, dtype=bool)
        for axis, end in grid.sides():
            if self.side(family, axis, end).kind == "dirichlet":
                mask[grid.side_slicer(axis, end)] = True
        return mask

    def meas_sigma1_zero(self, grid: Grid) -> bool:
        """True when no displacement Dirichlet side exists (all-traction boundary)."""
        return all(self.side("u", a, e).kind != "dirichlet" for a, e in grid.sides())


@dataclass(frozen=True)
class InitialData:
    """Initial fields as callables of the (3, *shape) node positions."""

    u1: Callable | None = None
    u2: Callable | None = None
    v1: Callable | None = None
    v2: Callable | None = None
    phi1: Callable | None = None
    phi2: Callable | None = None
    psi1: Callable | None = None
    psi2: Callable | None = None


def gaussian_pulse(center, width: float, amplitude: float, component: int | None = None) -> Callable:
    """Initial-data callable amplitude·exp(−r²/2width²), r over the first len(center) axes.

    Scalar-valued by default; with ``component`` a vector field that carries
    the bump on that component only.
    """
    c = np.asarray(center, dtype=float)

    def fn(x):
        r2 = sum((x[a] - c[a]) ** 2 for a in range(len(c)))
        bump = amplitude * np.exp(-r2 / (2.0 * width**2))
        if component is None:
            return bump
        out = np.zeros((3,) + x.shape[1:])
        out[component] = bump
        return out

    return fn


@dataclass(frozen=True)
class ProblemSpec:
    """Grid, material, initial/boundary data, sources and run controls."""

    grid: Grid
    consts: MaterialConstants
    boundary: BoundaryPartition
    initial: InitialData = field(default_factory=InitialData)
    lam: float = 1.0
    T: float = 1.0
    cfl: float = 0.5
    f: Callable | None = None  # f(x, t) -> (f1, f2), bulk force densities
    ell: Callable | None = None  # ell(x, t) -> (l1, l2)
    energy_every: int = 1  # steps between the energy samples ``simulate`` records
    snapshot_every: int = 10  # steps between its snapshots

    def __post_init__(self):
        if self.T < 0.0:
            raise InvalidParameter("T must be nonnegative")
        if not 0.0 < self.cfl <= 1.0:
            raise InvalidParameter("CFL factor must lie in (0, 1]")
        if self.lam <= 0.0:
            raise InvalidParameter("lambda must be positive")
        for name in ("energy_every", "snapshot_every"):
            every = getattr(self, name)
            if not isinstance(every, (int, np.integer)) or every < 1:
                raise InvalidParameter(f"{name} must be an integer >= 1, got {every!r}")

    @cached_property
    def workspace(self) -> "Workspace":
        """The problem's one :class:`Workspace`, built on first use."""
        return Workspace(self)

    def speed(self) -> SpeedParams:
        """The material's bounding speed, ``consts.speed``."""
        return self.consts.speed


def _row_view(name: str, rows) -> property:
    def get(self):
        view = getattr(self, name)[rows]
        view.flags.writeable = False
        return view

    return property(get)


@dataclass
class StateField:
    """Grid-sampled state at time t: U = (u¹, u², φ¹, φ²) and V = U̇, each (8, *grid).

    ``u1`` … ``psi2`` are read-only views into U and V.
    """

    t: float
    U: np.ndarray
    V: np.ndarray

    u1 = _row_view("U", U1_ROWS)
    u2 = _row_view("U", U2_ROWS)
    phi1 = _row_view("U", PHI1_ROW)
    phi2 = _row_view("U", PHI2_ROW)
    v1 = _row_view("V", U1_ROWS)
    v2 = _row_view("V", U2_ROWS)
    psi1 = _row_view("V", PHI1_ROW)
    psi2 = _row_view("V", PHI2_ROW)

    @staticmethod
    def from_fields(t, u1, u2, phi1, phi2, v1, v2, psi1, psi2) -> "StateField":
        """Stack the eight per-constituent fields into the (U, V) layout."""
        return StateField(
            t=t,
            U=np.concatenate([u1, u2, [phi1], [phi2]]),
            V=np.concatenate([v1, v2, [psi1], [psi2]]),
        )

    def copy(self) -> "StateField":
        return StateField(t=self.t, U=self.U.copy(), V=self.V.copy())

    def magnitude(self) -> np.ndarray:
        """Per-node magnitude |(u¹, u², φ¹, φ²)|."""
        return np.sqrt(
            np.einsum("i...,i...->...", self.u1, self.u1)
            + np.einsum("i...,i...->...", self.u2, self.u2)
            + self.phi1**2
            + self.phi2**2
        )

    def max_abs(self) -> float:
        return max(float(np.max(np.abs(self.U))), float(np.max(np.abs(self.V))))


@dataclass(frozen=True)
class EnergySample:
    t: float
    kinetic_u: float
    kinetic_phi: float
    strain: float

    @property
    def total(self) -> float:
        return self.kinetic_u + self.kinetic_phi + self.strain


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


@dataclass
class Trajectory:
    """Recorded snapshots of one run, with their problem and energy split."""

    problem: ProblemSpec
    states: list[StateField]
    energy: EnergySeries

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.states])

    def __len__(self) -> int:
        return len(self.states)


def stable_timestep(grid: Grid, speed: SpeedParams, cfl: float) -> float:
    """dt = cfl · min(h) / (c √dim); c is the bounding signal speed."""
    if not 0.0 < cfl <= 1.0:
        raise InvalidParameter(f"CFL factor must lie in (0, 1], got {cfl}")
    if speed.c <= 0.0:
        raise InvalidParameter("characteristic speed must be positive")
    return cfl * min(grid.h) / (speed.c * math.sqrt(grid.dim))


def initialize(problem: ProblemSpec) -> StateField:
    """Sample the initial data at the grid nodes (t = 0)."""
    grid = problem.grid
    x = grid.positions()

    def sample(fn, lead: tuple):
        shape = lead + grid.shape
        if fn is None:
            return np.zeros(shape)
        out = np.array(fn(x), dtype=float)
        if out.shape != shape:
            raise InvalidParameter(f"initial field has shape {out.shape}, expected {shape}")
        return out

    ini = problem.initial
    vec, scal = (3,), ()
    return StateField.from_fields(
        0.0,
        sample(ini.u1, vec), sample(ini.u2, vec), sample(ini.phi1, scal), sample(ini.phi2, scal),
        sample(ini.v1, vec), sample(ini.v2, vec), sample(ini.psi1, scal), sample(ini.psi2, scal),
    )


# State rows each boundary family acts on: (constituent 1, constituent 2).
_FAMILY_ROWS = {"u": (U1_ROWS, U2_ROWS), "phi": (PHI1_ROW, PHI2_ROW)}


class Workspace:
    """The per-problem context shared by the solver and the diagnostics.

    Holds the node positions and weights, the jet form Q = Pᵀ𝒜P (𝒜 is the
    material's ``consts.form``), the row inertias of the stacked state
    and the boundary data.  Reach it through ``ProblemSpec.workspace``.
    """

    def __init__(self, problem: ProblemSpec):
        grid = problem.grid
        k = problem.consts
        self.problem = problem
        self.grid = grid
        self.x = grid.positions()
        self.w = grid.weights()
        self.Q = jet_form(k.form, grid.dim)
        row_shape = (STATE_ROWS,) + (1,) * grid.dim
        # Densities ρ and micro-inertia factors χ per state row (χ = 1 on u rows).
        self.rho = np.array([k.rho1] * 3 + [k.rho2] * 3 + [k.rho1, k.rho2]).reshape(row_shape)
        self.chi = np.array([1.0] * 6 + [k.chi1, k.chi2]).reshape(row_shape)
        self.inertia = self.rho * self.chi
        self.mass = self.w * self.inertia
        self.mask_u = problem.boundary.dirichlet_mask("u", grid)
        self.mask_phi = problem.boundary.dirichlet_mask("phi", grid)
        self.pinned = np.stack([self.mask_u] * 6 + [self.mask_phi] * 2)
        self.pin_values = np.zeros(self.pinned.shape)
        self.natural = []
        for axis, end in grid.sides():
            sl = grid.side_slicer(axis, end)
            for family, rows_ab in _FAMILY_ROWS.items():
                side = problem.boundary.side(family, axis, end)
                if side.value is None:
                    continue
                if side.kind == "dirichlet":
                    for row, val in zip(rows_ab, side.value(self.x[(slice(None),) + sl])):
                        self.pin_values[(row,) + sl] = val
                else:
                    self.natural.append((rows_ab, sl, grid.side_weights(axis), side.value))
        self.half_mass = 0.5 * self.w * self.inertia
        # Evaluation buffers Y, QY ((1 + dim, 8, *grid)), F, scratch ((8, *grid)), allocated
        # on first use and dropped by ``simulate``.
        self._buffers: tuple[np.ndarray, ...] | None = None

    def _eval_buffers(self) -> tuple[np.ndarray, ...]:
        if self._buffers is None:
            jet_shape = (1 + self.grid.dim, STATE_ROWS) + self.grid.shape
            self._buffers = tuple(np.empty(s) for s in [jet_shape] * 2 + [jet_shape[1:]] * 2)
        return self._buffers

    def stress(self, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The jet Y of a stacked state and the generalized stresses QY.

        Both are the workspace's buffers, filled in place: they stay valid
        only until the next ``stress`` or ``acceleration``.  Copy them to
        keep them longer.
        """
        Y, QY = self._eval_buffers()[:2]
        jet(U, self.grid.h, out=Y)
        np.matmul(self.Q, Y.reshape(len(self.Q), -1), out=QY.reshape(len(self.Q), -1))
        return Y, QY

    def sources(self, t: float) -> np.ndarray | None:
        """Stacked body sources (f¹, f², ℓ¹, ℓ²) at time t; None without any."""
        p = self.problem
        if p.f is None and p.ell is None:
            return None
        out = np.zeros_like(self.pin_values)
        for fn, rows_ab in ((p.f, _FAMILY_ROWS["u"]), (p.ell, _FAMILY_ROWS["phi"])):
            if fn is not None:
                for row, val in zip(rows_ab, fn(self.x, t)):
                    out[row] = val
        return out

    def boundary_load(self, t: float) -> np.ndarray | None:
        """Prescribed tractions/fluxes times the surface weights; None without any."""
        if not self.natural:
            return None
        out = np.zeros_like(self.pin_values)
        for rows_ab, sl, bw, value in self.natural:
            for row, val in zip(rows_ab, value(self.x[(slice(None),) + sl], t)):
                out[(row,) + sl] += bw * np.asarray(val)
        return out

    def pair_product(self, a: StateField, b: StateField) -> float:
        """∫ Σ_α [ρ uₐ·u̇_b + ρχ φₐφ̇_b] dv; with a = b the virial pairing Q(t)."""
        return float(np.sum(self.w * np.sum(self.inertia * a.U * b.V, axis=0)))


def acceleration(ws: Workspace, U: np.ndarray, t: float) -> np.ndarray:
    """Stacked accelerations Ü of the configuration U.

    The force is the exact gradient of the discrete energy Σ w W:
    F = −w(QY)₀ − Σⱼ Dⱼᵀ(w(QY)ⱼ), plus the prescribed boundary load.
    F is built in the workspace's buffers, and Y and QY of U stay there
    until the next evaluation; ``simulate`` samples the energy from them.
    """
    Y, QY = ws.stress(U)
    _, _, F, scratch = ws._eval_buffers()
    np.negative(np.multiply(ws.w, QY[0], out=F), out=F)
    for j, hj in enumerate(ws.grid.h):
        F -= gradient_adjoint(np.multiply(ws.w, QY[1 + j], out=scratch), 1 + j, hj, out=scratch)
    load = ws.boundary_load(t)
    if load is not None:
        F += load
    a = F / ws.mass
    src = ws.sources(t)
    if src is not None:
        # balance carries ρℓ against ρχφ̈, so the φ rows get ℓ/χ
        a += src / ws.chi
    a[ws.pinned] = 0.0
    return a


def step(
    state: StateField,
    problem: ProblemSpec,
    dt: float,
    accel_cache: np.ndarray | None = None,
    step_index: int | None = None,
) -> tuple[StateField, np.ndarray]:
    """One kick-drift-kick update; returns the new state and its acceleration.

    The last evaluation is the new state's force, so the workspace buffers
    hold its jet and stresses on return.  The new U, V and acceleration are
    the only arrays a step allocates; every temporary lives in the workspace.

    Raises:
        NonFinite: if any updated value is not finite (instability signal).
    """
    ws = problem.workspace
    a = accel_cache if accel_cache is not None else acceleration(ws, state.U, state.t)
    half = 0.5 * dt
    V = np.multiply(a, half)
    V += state.V
    U = np.multiply(V, dt)
    U += state.U
    np.copyto(U, ws.pin_values, where=ws.pinned)
    t_new = state.t + dt
    a_new = acceleration(ws, U, t_new)
    V += np.multiply(a_new, half, out=ws._eval_buffers()[3])
    V[ws.pinned] = 0.0
    if not (np.all(np.isfinite(U)) and np.all(np.isfinite(V))):
        raise NonFinite(f"non-finite value at t = {t_new:.6g}", step=step_index)
    return StateField(t=t_new, U=U, V=V), a_new


def simulate(
    problem: ProblemSpec,
    n_steps: int | None = None,
) -> tuple[StateField, EnergySeries, Trajectory]:
    """Integrate the problem to T; return (final state, EnergySeries, Trajectory).

    Step 0 is the t = 0 state, projected onto the Dirichlet data as ``step``
    projects every later one (U takes the pinned values, V = 0 there).  Every
    ``problem.energy_every`` steps the energy split joins the series, and
    every ``problem.snapshot_every`` steps a copy of the state joins the
    trajectory with the same sample: a step on either cadence is sampled
    once, from the jet and stresses its own force evaluation left in the
    workspace buffers.  Deterministic for fixed inputs.  The step count is
    chosen so the run lands exactly on T; an explicit ``n_steps`` overrides
    the CFL default (the caller then owns stability).
    """
    speed = problem.speed()
    ws = problem.workspace
    state = initialize(problem)
    np.copyto(state.U, ws.pin_values, where=ws.pinned)
    state.V[ws.pinned] = 0.0
    if problem.T == 0.0:
        n_steps = 0
    elif n_steps is None:
        base = stable_timestep(problem.grid, speed, problem.cfl)
        n_steps = max(1, math.ceil(problem.T / base - 1e-12))
    dt_eff = problem.T / max(n_steps, 1)
    energy, snapshots, snapshot_energy = [], [], []
    cache = acceleration(ws, state.U, state.t)
    for k in range(n_steps + 1):
        if k > 0:
            state, cache = step(state, problem, dt_eff, accel_cache=cache, step_index=k)
        on_energy = k % problem.energy_every == 0
        on_snapshot = k % problem.snapshot_every == 0
        if on_energy or on_snapshot:
            Y, QY, _, kin = ws._eval_buffers()  # the jet and stresses of this state
            np.multiply(ws.half_mass, np.square(state.V, out=kin), out=kin)
            sample = EnergySample(t=state.t, kinetic_u=float(np.sum(kin[:PHI1_ROW])),
                                  kinetic_phi=float(np.sum(kin[PHI1_ROW:])),
                                  strain=float(np.sum(ws.w * stored_energy(Y, QY))))
            if on_energy:
                energy.append(sample)
            if on_snapshot:
                snapshots.append(state.copy())
                snapshot_energy.append(sample)
    # The post-run diagnostics allocate the buffers again if they need them.
    ws._buffers = None
    trajectory = Trajectory(problem=problem, states=snapshots,
                            energy=EnergySeries.from_samples(snapshot_energy))
    return state, EnergySeries.from_samples(energy), trajectory


# ---------------------------------------------------------------------------
# Rigid decomposition of initial data (all-traction boundary configurations).
# ---------------------------------------------------------------------------

RIGID_TOL = 1e-9  # largest scaled residual momentum/moment of a consistent fit


@dataclass(frozen=True)
class RigidMotion:
    """u(x) = translation + rotation × x."""

    translation: np.ndarray
    rotation: np.ndarray

    def field(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x)
        t = self.translation
        r = self.rotation
        out[0] = t[0] + r[1] * x[2] - r[2] * x[1]
        out[1] = t[1] + r[2] * x[0] - r[0] * x[2]
        out[2] = t[2] + r[0] * x[1] - r[1] * x[0]
        return out


@dataclass(frozen=True)
class RigidDecomposition:
    """Rigid parts and normalized residuals of per-constituent initial data.

    Residuals carry zero momentum and zero moment of momentum in the uniform
    (midpoint) node quadrature used for the fit.
    """

    motion_a1: RigidMotion
    motion_adot1: RigidMotion
    motion_a2: RigidMotion
    motion_adot2: RigidMotion
    residual_a1: np.ndarray
    residual_adot1: np.ndarray
    residual_a2: np.ndarray
    residual_adot2: np.ndarray
    worst_residual_moment: float


def _cross_matrix(v: np.ndarray) -> np.ndarray:
    return np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])


def _fit_rigid(u: np.ndarray, rho: float, x: np.ndarray, wq: float):
    """Least-squares rigid motion with zero-momentum/zero-moment residual."""
    mass = rho * wq * float(np.prod(u.shape[1:]))
    mom1 = rho * wq * x.reshape(3, -1).sum(axis=1)
    xf = x.reshape(3, -1)
    uf = u.reshape(3, -1)
    lin = rho * wq * uf.sum(axis=1)
    ang = rho * wq * np.cross(xf.T, uf.T).sum(axis=0)
    r2 = np.einsum("ik,ik->k", xf, xf)
    inertia = rho * wq * (np.sum(r2) * np.eye(3) - xf @ xf.T)
    K = np.zeros((6, 6))
    K[:3, :3] = mass * np.eye(3)
    K[:3, 3:] = -_cross_matrix(mom1)
    K[3:, :3] = _cross_matrix(mom1)
    K[3:, 3:] = inertia
    rhs = np.concatenate([lin, ang])
    sol, *_ = np.linalg.lstsq(K, rhs, rcond=None)
    motion = RigidMotion(translation=sol[:3].copy(), rotation=sol[3:].copy())
    residual = u - motion.field(x)
    rf = residual.reshape(3, -1)
    res_lin = rho * wq * rf.sum(axis=1)
    res_ang = rho * wq * np.cross(xf.T, rf.T).sum(axis=0)
    scale = max(1.0, float(np.max(np.abs(uf))) if uf.size else 1.0)
    geom = max(1.0, float(np.max(np.abs(xf))))
    worst = max(
        float(np.max(np.abs(res_lin))) / (mass * scale),
        float(np.max(np.abs(res_ang))) / (mass * scale * geom),
    )
    return motion, residual, worst


def rigid_decompose(
    a1: np.ndarray,
    adot1: np.ndarray,
    a2: np.ndarray,
    adot2: np.ndarray,
    consts: MaterialConstants,
    grid: Grid,
) -> RigidDecomposition:
    """Split each constituent's initial fields into rigid motion + residual.

    Intended for all-traction (measure-zero Dirichlet) configurations.  The
    6×6 momentum/moment system is solved by least squares; on 1-D grids the
    rotation about the grid line is unobservable and the minimum-norm
    solution sets it to zero.

    Raises:
        SingularInertia: if the residual momenta/moments exceed ``RIGID_TOL``,
            i.e. the system was genuinely inconsistent.
    """
    x = grid.positions()
    wq = float(np.prod(grid.h))
    out = {}
    worst = 0.0
    for name, (data, rho) in {
        "a1": (a1, consts.rho1),
        "adot1": (adot1, consts.rho1),
        "a2": (a2, consts.rho2),
        "adot2": (adot2, consts.rho2),
    }.items():
        motion, residual, w = _fit_rigid(np.asarray(data, dtype=float), rho, x, wq)
        out[name] = (motion, residual)
        worst = max(worst, w)
    if worst > RIGID_TOL:
        raise SingularInertia(
            f"rigid fit left residual moments at {worst:.3e} (tol {RIGID_TOL:.1e}); "
            "degenerate node geometry"
        )
    return RigidDecomposition(
        motion_a1=out["a1"][0],
        motion_adot1=out["adot1"][0],
        motion_a2=out["a2"][0],
        motion_adot2=out["adot2"][0],
        residual_a1=out["a1"][1],
        residual_adot1=out["adot1"][1],
        residual_a2=out["a2"][1],
        residual_adot2=out["adot2"][1],
        worst_residual_moment=worst,
    )
