"""Explicit integration of the mixture equations of motion.

Scheme: collocated uniform grid, second-order differences in space, leapfrog
(kick-drift-kick) in time.  The spatial force is assembled as the exact
gradient of the discrete stored energy  Σ_k w_k W(E_k(U))  with trapezoid
node weights w, so the semi-discrete operator is exactly symmetric and the
discrete energy has bounded O(dt²) oscillation instead of secular drift.
Natural boundary conditions enter variationally (one-sided boundary strain
stencils plus the static load of prescribed tractions and fluxes); Dirichlet
conditions pin static nodal values.  Besides the initial data, these static
boundary values are the only applied data, and the :class:`Workspace`
evaluates them once.  The state is stacked as U = (u¹, u², φ¹, φ²) with
V = U̇; the force comes from the raw differences and the jet form Q of
:mod:`poromix.fields`, on a line from the stencil of Q's blocks.
``stream`` is the one run loop: it records the energy split (strain energy
−½ U·F, ``Workspace.energy_split``) on its cadence and reduces each snapshot
as it is taken.
Balance laws integrated per constituent α (no body force or body
supply)::

    ρᵅ üᵅ_i   = Sᵅ_ji,j + (−1)ᵅ p_i
    ρᵅ χᵅ φ̈ᵅ = hᵅ_i,i + gᵅ

and Sᵅ_ji n_j, hᵅ_i n_i constant in time where a traction or flux is prescribed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidParameter, NonFinite, SingularInertia
from .fields import (
    PHI1_ROW,
    PHI2_ROW,
    STATE_FIELDS,
    STATE_ROWS,
    U1_ROWS,
    U2_ROWS,
    difference,
    jet_form,
    line_stencil,
    subtract_adjoint,
)
from .materials import MaterialConstants, SpeedParams

AXIS_NAMES = ("x", "y")


@dataclass(frozen=True)
class Grid:
    """Uniform Cartesian grid with nodes on the domain boundary.

    ``n`` holds the node counts of the sampled axes, so ``dim = len(n)`` (1 or
    2); ``h`` defaults to the unit box, 1/(n − 1) per axis, and ``origin`` to
    0.  Fields are independent of the unsampled coordinates but all
    vectors/tensors stay 3-D.
    """

    n: tuple[int, ...]
    h: tuple[float, ...] = ()
    origin: tuple[float, ...] = ()

    def __post_init__(self):
        n = tuple(int(v) for v in np.atleast_1d(self.n))
        if not np.array_equal(n, np.atleast_1d(self.n)):  # int() truncates
            raise InvalidParameter(f"node counts must be integers, got {self.n!r}")
        if len(n) not in (1, 2):
            raise InvalidParameter(f"dim must be 1 or 2, got {len(n)}")
        if any(v < 4 for v in n):
            raise InvalidParameter("need at least 4 nodes per sampled dimension")
        h = tuple(float(v) for v in np.atleast_1d(self.h)) or tuple(1.0 / (v - 1) for v in n)
        origin = tuple(float(v) for v in np.atleast_1d(self.origin)) or (0.0,) * len(n)
        if len(h) != len(n) or len(origin) != len(n):
            raise InvalidParameter("n, h, origin must each have one entry per dimension")
        if not all(0.0 < v < math.inf for v in h):
            raise InvalidParameter("grid spacing must be positive and finite")
        if not all(map(math.isfinite, origin)):
            raise InvalidParameter("grid origin must be finite")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "origin", origin)

    @property
    def dim(self) -> int:
        return len(self.n)

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

    def _trapezoid(self, axes) -> np.ndarray:
        """The outer product of the trapezoid weights h·(½, 1, …, 1, ½) of ``axes``."""
        w = np.ones(())
        for a in axes:
            tw = np.ones(self.n[a])
            tw[0] = tw[-1] = 0.5
            w = np.multiply.outer(w, self.h[a] * tw)
        return w

    def weights(self) -> np.ndarray:
        """Trapezoid quadrature node weights (volume measure)."""
        return self._trapezoid(range(self.dim))

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
        return self._trapezoid(a for a in range(self.dim) if a != axis)


@dataclass(frozen=True)
class SideCondition:
    """Boundary condition on one grid side for one field family.

    kind "dirichlet": values pinned; kind "natural": traction/flux prescribed.
    ``values`` holds the static data, constant along the side: one group per
    constituent, three components on the u family and one on the φ family;
    None is homogeneous (0).
    """

    kind: str
    values: tuple | None = None

    def __post_init__(self):
        if self.kind not in ("dirichlet", "natural"):
            raise InvalidParameter(f"unknown boundary kind {self.kind!r}")


@dataclass(frozen=True)
class BoundaryPartition:
    """Per-side conditions for the displacement and volume-fraction families.

    One partition applies to both constituents of a family.  A node covered
    by any Dirichlet side is pinned (Dirichlet wins at junctions).  A node on
    two Dirichlet sides takes the values of the later of them, in x0, x1, y0,
    y1 order, that carries values; a Dirichlet side with ``values`` None
    (``dirichlet_zero`` in a config) writes nothing, so a corner it shares
    with a valued side takes that side's values.
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
    """Grid, material, initial/boundary data and run controls."""

    grid: Grid
    consts: MaterialConstants
    boundary: BoundaryPartition
    initial: InitialData = field(default_factory=InitialData)
    lam: float = 1.0
    T: float = 1.0
    cfl: float = 0.5
    energy_every: int = 1  # steps between the energy samples ``stream`` records
    snapshot_every: int = 10  # steps between its snapshots

    def __post_init__(self):
        if not 0.0 <= self.T < math.inf:
            raise InvalidParameter("T must be nonnegative and finite")
        if not 0.0 < self.cfl <= 1.0:
            raise InvalidParameter("CFL factor must lie in (0, 1]")
        if not 0.0 < self.lam < math.inf:
            raise InvalidParameter("lambda must be positive and finite")
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


@dataclass
class StateField:
    """Grid-sampled state at time t: U = (u¹, u², φ¹, φ²) and V = U̇, each (8, *grid).

    ``u1`` … ``psi2`` (``fields.STATE_FIELDS``) are read-only views into U and V.
    """

    t: float
    U: np.ndarray
    V: np.ndarray

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


def _row_view(array: str, rows) -> property:
    def get(self):
        view = getattr(self, array)[rows]
        view.flags.writeable = False
        return view

    return property(get)


for _name, (_array, _rows) in STATE_FIELDS.items():
    setattr(StateField, _name, _row_view(_array, _rows))


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


def stable_timestep(grid: Grid, speed: SpeedParams, cfl: float) -> float:
    """dt = cfl · min(h) / (c √dim); c is the bounding signal speed."""
    if not 0.0 < cfl <= 1.0:
        raise InvalidParameter(f"CFL factor must lie in (0, 1], got {cfl}")
    if speed.c <= 0.0:
        raise InvalidParameter("characteristic speed must be positive")
    return cfl * min(grid.h) / (speed.c * math.sqrt(grid.dim))


def cfl_steps(problem: ProblemSpec) -> int:
    """The fewest steps no longer than the CFL time step that land exactly on T
    (none for T = 0): ``stream``'s default step count; InvalidParameter if they are
    more than numpy can index."""
    if problem.T == 0.0:
        return 0
    base = stable_timestep(problem.grid, problem.speed(), problem.cfl)
    # a relative guard: T = N·base that rounds a few ulps above N still takes N steps
    steps = problem.T / base * (1.0 - 1e-12) if base > 0.0 else math.inf
    if steps > np.iinfo(np.intp).max:
        raise InvalidParameter(f"T / dt = {steps:.3g} steps, more than numpy can index")
    return max(1, math.ceil(steps))


def _aligned(shape: tuple[int, ...], fill=np.empty, phase: int = 0) -> np.ndarray:
    """A float array of ``shape`` from ``fill`` (``np.empty``, or ``np.zeros``, which
    leaves the pages a run never writes untouched) whose data starts ``phase``
    bytes past a 64-byte boundary: on AVX-512 hosts numpy writes into an output
    off that boundary at about half speed, so every grid-sized array a step
    writes comes from here."""
    size = math.prod(shape)
    raw = fill(size + 7)  # numpy's data is 8-aligned at least: 7 doubles of slack suffice
    start = (phase - raw.ctypes.data) % 64 // 8
    return raw[start:start + size].reshape(shape)


def initialize(problem: ProblemSpec) -> StateField:
    """Sample the initial data at the grid nodes (t = 0); absent fields are zero."""
    grid = problem.grid
    x = grid.positions()
    shape = (STATE_ROWS,) + grid.shape
    state = StateField(t=0.0, U=_aligned(shape, np.zeros), V=_aligned(shape, np.zeros))
    for name, (array, rows) in STATE_FIELDS.items():
        fn = getattr(problem.initial, name)
        if fn is None:
            continue
        target = getattr(state, array)[rows]
        out = np.asarray(fn(x), dtype=float)
        if out.shape != target.shape:
            raise InvalidParameter(f"initial field {name} has shape {out.shape}, "
                                   f"expected {target.shape}")
        target[...] = out
    return state


# State rows each boundary family acts on: (constituent 1, constituent 2), as slices.
_FAMILY_ROWS = {"u": (U1_ROWS, U2_ROWS),
                "phi": (slice(PHI1_ROW, PHI1_ROW + 1), slice(PHI2_ROW, PHI2_ROW + 1))}


def boundary_data(problem: ProblemSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """(``pin_at``, ``pin_to``, ``load``) of ``problem``, from one walk over the sides:
    the flat indices in an (8, *grid) array of every entry on a Dirichlet side of its
    family, their values (each valued side's groups in side order; +0.0 for a −0.0,
    the bits a drift by V = 0 leaves), and the natural sides' groups times the surface
    weights, summed (None when no natural side carries values)."""
    grid = problem.grid
    shape = (STATE_ROWS,) + grid.shape
    pinned, pin_values, load = np.zeros(shape, dtype=bool), np.zeros(shape), np.zeros(shape)
    loaded = False
    for axis, end in grid.sides():
        sl = grid.side_slicer(axis, end)
        for family, rows_ab in _FAMILY_ROWS.items():
            side = problem.boundary.side(family, axis, end)
            if side.kind == "dirichlet":
                for row in rows_ab:
                    pinned[(row,) + sl] = True
            if side.values is None:
                continue
            for row, group in zip(rows_ab, side.values):
                at = (row,) + sl
                val = np.reshape(group, (-1,) + (1,) * (grid.dim - 1))  # one column per row
                if side.kind == "dirichlet":
                    pin_values[at] = val
                else:
                    load[at] += grid.side_weights(axis) * val
                    loaded = True
    pin_at = np.flatnonzero(pinned)
    return pin_at, pin_values.reshape(-1)[pin_at] + 0.0, load if loaded else None


class Workspace:
    """The per-problem context shared by the solver and the diagnostics, built whole once.

    Holds the node weights, the jet form Q = Pᵀ𝒜P (𝒜 is the material's
    ``consts.form``) on the raw jet (U, δ₁U, …), the force weights of its
    blocks, the row inertias of the stacked state, the reciprocal node
    masses ``inv_mass`` (1/(w ρχ), 0 at the pinned entries), the kinetic row
    weights ``kinetic_rows`` and the static boundary data
    (``boundary_data``): the pinned entries ``pin_at`` and their values
    ``pin_to``, and the ``load`` of the prescribed tractions/fluxes times
    the surface weights (None when no natural side carries values).  It
    also holds the evaluation buffers, 64-byte aligned (``_aligned``), for
    as long as its problem lives: the jet ``Y`` and the stresses ``QY``
    ((1 + dim, 8, *grid)), which ``stress`` and the 2-D force share, the
    internal force ``F`` that ``acceleration`` assembles in a buffer of its
    own, ``scratch``, the acceleration ``a`` and, on a line of six or more
    nodes, the ``_LineForce`` ``line`` that writes F from the stencil of
    Q's blocks.  Reach it through ``ProblemSpec.workspace``.
    """

    def __init__(self, problem: ProblemSpec):
        grid = problem.grid
        k = problem.consts
        # no reference back to the problem, which caches its workspace: without
        # that cycle a finished run's workspace is freed with its problem
        self.grid = grid
        self.w = grid.weights()
        self.Q = jet_form(k.form, grid.h)
        # Force weights of the jet blocks: −w on (QY)₀ and w/(2hⱼ) on (QY)ⱼ.
        self.jet_w = np.stack([-self.w] + [self.w * (0.5 / hj) for hj in grid.h])[:, None]
        row_shape = (STATE_ROWS,) + (1,) * grid.dim
        # Densities ρ and micro-inertia factors χ per state row (χ = 1 on u rows).
        rho = np.array([k.rho1] * 3 + [k.rho2] * 3 + [k.rho1, k.rho2]).reshape(row_shape)
        chi = np.array([1.0] * 6 + [k.chi1, k.chi2]).reshape(row_shape)
        self.inertia = rho * chi
        # The reciprocal node masses 1/(wρχ), the step's one mass array, inverted in
        # place: a grid-sized temporary freed here moves where glibc places later
        # arrays, and with it the peak RSS of a verify run (by up to 0.2 MB)
        self.inv_mass = self.w * self.inertia
        np.divide(1.0, self.inv_mass, out=self.inv_mass)
        # ½ρχ of the u rows and of the φ rows, for the kinetic split ½ Σ ρχ w V²: with
        # these and w no second grid-sized mass array is kept
        u_rows = np.arange(STATE_ROWS) < PHI1_ROW
        self.kinetic_rows = 0.5 * np.stack([u_rows, ~u_rows]) * self.inertia.reshape(-1)
        self.pin_at, self.pin_to, self.load = boundary_data(problem)
        # zero reciprocal mass at the pinned entries: their acceleration is exactly 0,
        # so a state on the Dirichlet data stays on it
        self.inv_mass.reshape(-1)[self.pin_at] = 0.0
        self.Y, self.QY = (_aligned((1 + grid.dim, STATE_ROWS) + grid.shape) for _ in range(2))
        self.F, self.scratch, self.a = (_aligned((STATE_ROWS,) + grid.shape) for _ in range(3))
        # The same force on a line as blocks of −K on differences of U (None in 2-D and
        # on lines of fewer than 6 nodes, where ``acceleration`` takes the jet path).
        self.line = (_LineForce(line_stencil(self.Q, grid.h[0]), self.F)
                     if grid.dim == 1 and grid.n[0] >= 6 else None)

    def _raw_stress(self, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The raw jet (U, δ₁U, …) and the stresses QY, in the workspace's buffers."""
        Y, QY = self.Y, self.QY
        Y[0] = U
        for j in range(1, len(Y)):
            difference(U, j, out=Y[j])
        np.matmul(self.Q, Y.reshape(len(self.Q), -1), out=QY.reshape(len(self.Q), -1))
        return Y, QY

    def stress(self, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The jet Y of a stacked state and the generalized stresses QY.

        Both are the workspace's buffers, filled in place: they stay valid
        only until the next ``stress`` or ``acceleration``.  Copy them to
        keep them longer.  The force ``F`` is a buffer of its own, which
        ``stress`` leaves intact.
        """
        Y, QY = self._raw_stress(U)
        for j, hj in enumerate(self.grid.h):
            Y[1 + j] /= 2.0 * hj
        return Y, QY

    def energy_split(self, state: StateField) -> tuple[float, float, float, float]:
        """The energy split (t, kinetic_u, kinetic_phi, strain) of ``state``.

        ``F`` must hold the state's internal force, as ``stream`` leaves it
        for each state it records or reduces.  The kinetic energies
        ½ Σ ρχ w V² over the u rows and over the φ rows are the
        ``kinetic_rows`` times the node sums (V∘V)w.  The stored energy is
        quadratic, Σ w W = ½ UᵀKU with F = −KU, so the strain energy is
        exactly −½ U·F and no stress is evaluated.
        """
        squares = np.square(state.V, out=self.scratch).reshape(STATE_ROWS, -1)
        kinetic_u, kinetic_phi = self.kinetic_rows @ (squares @ self.w.reshape(-1))
        return state.t, kinetic_u, kinetic_phi, -0.5 * np.vdot(state.U, self.F)

    def pair_product(self, a: StateField, b: StateField) -> float:
        """∫ Σ_α [ρ uₐ·u̇_b + ρχ φₐφ̇_b] dv; with a = b the virial pairing Q(t)."""
        return float(np.sum(self.w * np.sum(self.inertia * a.U * b.V, axis=0)))


class _LineForce:
    """F = −KU on a line, from the blocks ``fields.line_stencil`` makes of Q, into F.

    Holds (U, δU, δ²U) as one (3, 8, n) array, and makes every view that a
    force reads or writes once: U is copied in first, so none depends on U.
    """

    def __init__(self, stencil: tuple[np.ndarray, np.ndarray], F: np.ndarray):
        self.interior, self.ends = stencil
        n, step = F.shape[1], F.itemsize

        def first_and_last(A, width):  # A's first and last ``width`` columns, as one view
            return np.ndarray((2, STATE_ROWS, width), A.dtype, A,
                              strides=((n - width) * step, n * step, step))

        # zeros: the two flat end entries of δU are never written, but δ²U reads them.
        # Each (8, n) block spans a multiple of 64 bytes, so at phase 56 the δ outputs
        # (a block's second entry on) start on a 64-byte boundary
        self.diffs = _aligned((3,) + F.shape, np.zeros, phase=56)
        self.U, flat = self.diffs[0], self.diffs.reshape(3, -1)
        # one contiguous subtraction per difference, as in ``difference``: a row's first
        # and last columns take values across rows, which the GEMM never reads
        self.deltas = [(flat[k, 2:], flat[k, :-2], flat[k + 1, 1:-1]) for k in (0, 1)]
        self.jets = self.diffs.reshape(3 * STATE_ROWS, n)[:, 3:-3]
        self.F_interior = F[:, 3:-3]
        # both end windows as (U₀, U₁ − U₀, …, U₄ − U₃), and the force of the end nodes
        windows, end_diffs = first_and_last(self.U, 5), np.empty((2, STATE_ROWS, 5))
        self.window_next, self.window_prev = windows[..., 1:], windows[..., :-1]
        self.window_first, self.end_steps = windows[..., 0], end_diffs[..., 1:]
        self.end_first, self.end_columns = end_diffs[..., 0], end_diffs.reshape(2, -1, 1)
        self.end_force = np.empty((2, 3 * STATE_ROWS, 1))
        self.F_ends = first_and_last(F, 3)

    def __call__(self, U: np.ndarray) -> None:
        np.copyto(self.U, U)
        for a, b, out in self.deltas:
            np.subtract(a, b, out=out)
        np.matmul(self.interior, self.jets, out=self.F_interior)
        np.subtract(self.window_next, self.window_prev, out=self.end_steps)
        np.copyto(self.end_first, self.window_first)
        np.matmul(self.ends, self.end_columns, out=self.end_force)
        np.copyto(self.F_ends, self.end_force.reshape(self.F_ends.shape))


def acceleration(ws: Workspace, U: np.ndarray) -> np.ndarray:
    """Stacked accelerations Ü of the configuration U.

    The force is the exact gradient of the discrete energy Σ w W:
    F = −w(QY)₀ − Σⱼ δⱼᵀ(w/(2hⱼ) (QY)ⱼ), plus the static load ``ws.load``.
    On a line it is the same F = −KU from the stencil of ``ws.line``: one
    GEMM of the interior blocks on (U, δU, δ²U), and one batched matmul on
    the differences of the five end nodes at each end.  The internal part is
    assembled in ``ws.F``, where it stays until the next ``acceleration``
    (``stress`` leaves it intact); ``Workspace.energy_split`` reads each
    recorded state's strain energy −½ U·F from it.  The result, the force
    times the reciprocal mass ``ws.inv_mass`` (so ±0 at the pinned entries),
    is ``ws.a``, which the next evaluation overwrites: copy it to keep it.
    """
    F, a = ws.F, ws.a
    if ws.line is None:
        _, QY = ws._raw_stress(U)
        np.multiply(QY[0], ws.jet_w[0], out=F)  # −w(QY)₀
        np.multiply(QY[1:], ws.jet_w[1:], out=QY[1:])
        for j in range(1, len(QY)):
            subtract_adjoint(F, QY[j], j)
    else:
        ws.line(U)
    # the load is added into the returned array, never into F
    np.multiply(F if ws.load is None else np.add(ws.load, F, out=a), ws.inv_mass, out=a)
    return a


def step(state: StateField, problem: ProblemSpec, dt: float,
         step_index: int | None = None) -> StateField:
    """One kick-drift-kick update of ``state`` in place: t, U and V advance by dt.

    The first kick reads ``ws.a``, the workspace's acceleration, as that of
    ``state``: ``stream`` evaluates it before its first step, and each step
    leaves the new state's there (see ``acceleration``).  The last evaluation
    is the new state's force, so ``ws.F`` holds its internal force on return.
    A pinned entry has zero reciprocal mass, so a state on the Dirichlet data,
    as ``stream`` projects it, stays there.  U and V may be strided views.
    Returns ``state``.  No step allocates a grid-sized array.

    Raises:
        NonFinite: if any updated value is not finite (instability signal).
    """
    ws = problem.workspace
    U, V, scratch = state.U, state.V, ws.scratch
    half = 0.5 * dt
    V += np.multiply(ws.a, half, out=scratch)  # kick
    U += np.multiply(V, dt, out=scratch)  # drift
    state.t += dt
    V += np.multiply(acceleration(ws, U), half, out=scratch)
    # |U|² + |V|² overflows only far beyond any stable state; then each value is checked
    if not (math.isfinite(np.vdot(U, U) + np.vdot(V, V))
            or (np.isfinite(U).all() and np.isfinite(V).all())):
        raise NonFinite(f"non-finite value at t = {state.t:.6g}", step=step_index)
    return state


def stream(
    problem: ProblemSpec,
    reducers: Sequence[Callable[[StateField], object]] = (),
    n_steps: int | None = None,
) -> tuple[StateField, EnergySeries, list[list]]:
    """The run loop: integrate the problem to T, reducing each snapshot as it is taken.

    Step 0 is the t = 0 state, projected onto the Dirichlet data (U takes
    the pinned values, V = 0 there), where every ``step`` keeps it.
    Every ``problem.energy_every`` steps the state's
    ``Workspace.energy_split`` joins the energy series; every
    ``problem.snapshot_every`` steps (a snapshot) the state goes through
    each reducer in turn.  Each step's own evaluation leaves the state's
    internal force in ``ws.F``, so a reducer may take the split as well.
    The run's one state, the arrays ``initialize`` returns, advances in
    place, so a reducer copies what it keeps (``StateField.copy`` keeps it
    whole).  Every run of a problem evaluates in the buffers of its one
    workspace.  Deterministic for fixed inputs.
    The default step count, ``cfl_steps(problem)``, lands the run exactly on
    T; an explicit ``n_steps`` overrides it (the caller then owns
    stability), except at T = 0, where no step is taken.

    Returns (final state, energy series, one list of results per reducer).
    """
    problem.speed()  # an inadmissible material fails here, also with an explicit n_steps
    # initialize first: its temporaries are freed before ``problem.workspace`` builds the
    # workspace's buffers, if nothing has built them yet
    state = initialize(problem)
    ws = problem.workspace
    state.U.reshape(-1)[ws.pin_at] = ws.pin_to
    state.V.reshape(-1)[ws.pin_at] = 0.0
    if n_steps is None or problem.T == 0.0:
        n_steps = cfl_steps(problem)
    dt_eff = problem.T / max(n_steps, 1)
    energy_every, snapshot_every = problem.energy_every, problem.snapshot_every
    # rows t, kinetic_u, kinetic_phi, strain; one column per recorded step
    energy = np.empty((4, n_steps // energy_every + 1))
    reduced = [[] for _ in reducers]
    acceleration(ws, state.U)
    for k in range(n_steps + 1):
        if k > 0:
            step(state, problem, dt_eff, step_index=k)
        if k % energy_every == 0:
            energy[:, k // energy_every] = ws.energy_split(state)
        if k % snapshot_every == 0:
            for reduce, out in zip(reducers, reduced):
                out.append(reduce(state))
    return state, EnergySeries(*energy), reduced


# ---------------------------------------------------------------------------
# Rigid part of a field (all-traction boundary configurations).
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


def _cross_matrix(v: np.ndarray) -> np.ndarray:
    return np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])


def rigid_fit(u: np.ndarray, grid: Grid) -> tuple[RigidMotion, np.ndarray, float]:
    """Split one (3, *grid) field into a rigid motion and a residual.

    The residual carries zero momentum and zero moment of momentum in the
    uniform (midpoint) node quadrature.  A constant density scales both
    sides of the 6×6 momentum/moment system and both residual ratios, so it
    drops out, as does the node volume.  The system is solved by least
    squares; on 1-D grids the rotation about the grid line is unobservable
    and the minimum-norm solution sets it to zero.  Intended for
    all-traction (measure-zero Dirichlet) configurations.

    Returns:
        (motion, residual, worst): ``worst`` is the larger of the residual
        momentum and moment, scaled by node count, data and geometry size.

    Raises:
        SingularInertia: if ``worst`` exceeds ``RIGID_TOL``, i.e. the system
            was genuinely inconsistent.
    """
    x = grid.positions()
    xf = x.reshape(3, -1)
    u = np.asarray(u, dtype=float)
    uf = u.reshape(3, -1)
    count = xf.shape[1]
    mom1 = xf.sum(axis=1)
    K = np.zeros((6, 6))
    K[:3, :3] = count * np.eye(3)
    K[:3, 3:] = -_cross_matrix(mom1)
    K[3:, :3] = _cross_matrix(mom1)
    K[3:, 3:] = np.sum(xf * xf) * np.eye(3) - xf @ xf.T
    rhs = np.concatenate([uf.sum(axis=1), np.cross(xf.T, uf.T).sum(axis=0)])
    sol, *_ = np.linalg.lstsq(K, rhs, rcond=None)
    motion = RigidMotion(translation=sol[:3].copy(), rotation=sol[3:].copy())
    residual = u - motion.field(x)
    rf = residual.reshape(3, -1)
    scale = count * max(1.0, float(np.max(np.abs(uf))))
    geom = max(1.0, float(np.max(np.abs(xf))))
    worst = max(float(np.max(np.abs(rf.sum(axis=1)))) / scale,
                float(np.max(np.abs(np.cross(xf.T, rf.T).sum(axis=0)))) / (scale * geom))
    if worst > RIGID_TOL:
        raise SingularInertia(
            f"rigid fit left residual moments at {worst:.3e} (tol {RIGID_TOL:.1e}); "
            "degenerate node geometry"
        )
    return motion, residual, worst
