"""Independent oracles: explicit index loops, brute-force numerics.

Everything here deliberately avoids the production code paths (einsums,
vectorized assembly, numpy eig) so tests compare two independently written
routes to the same quantity.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# Cyclic Jacobi eigenvalue solver (dense symmetric).
# ---------------------------------------------------------------------------


def jacobi_eigenvalues(matrix: np.ndarray, tol: float = 1e-12, max_sweeps: int = 100):
    """All eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps until the off-diagonal Frobenius norm drops below tol times the
    matrix norm.  Returns the sorted eigenvalues.
    """
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    scale = max(np.linalg.norm(a), 1e-300)
    for _ in range(max_sweeps):
        off = np.sqrt(max(0.0, np.sum(a * a) - np.sum(np.diag(a) ** 2)))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) <= 1e-300:
                    continue
                theta = 0.5 * np.arctan2(2.0 * a[p, q], a[q, q] - a[p, p])
                c, s = np.cos(theta), np.sin(theta)
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))


def realizable_basis_loops() -> np.ndarray:
    """Orthonormal 29×26 basis of the realizable strains (e symmetric), slot by slot."""
    q = np.zeros((29, 26))
    cols = [[(3 * i + i, 1.0)] for i in range(3)]
    cols += [[(3 * i + j, np.sqrt(0.5)), (3 * j + i, np.sqrt(0.5))]
             for i in range(3) for j in range(i + 1, 3)]
    cols += [[(slot, 1.0)] for slot in range(9, 29)]
    for col, entries in enumerate(cols):
        for slot, value in entries:
            q[slot, col] = value
    return q


def realizable_form_bounds(matrix: np.ndarray):
    """ξ_m, ξ_M and 𝒜₂'s largest eigenvalue of 29×29 forms, over any batch axes,
    without splitting 𝒜 into its blocks: the extremes of one eigensolve of the whole
    form on its 26 realizable slots, and the largest of a second with the 𝒜₁ slots
    zeroed (𝒜₂'s largest wherever that is positive)."""
    q = realizable_basis_loops()
    restricted = q.T @ matrix @ q
    eigs = np.linalg.eigvalsh(0.5 * (restricted + restricted.mT))
    only_a2 = np.zeros_like(restricted)
    only_a2[..., 17:, 17:] = restricted[..., 17:, 17:]
    return eigs[..., 0], eigs[..., -1], np.linalg.eigvalsh(only_a2)[..., -1]


# ---------------------------------------------------------------------------
# Loop-based kinematics, energy, stress, magnitudes.
# ---------------------------------------------------------------------------


def strain_loops(ps) -> dict:
    """Kinematic map by explicit loops."""
    e = np.zeros((3, 3))
    g = np.zeros((3, 3))
    d = np.zeros(3)
    for i in range(3):
        for j in range(3):
            e[i, j] = 0.5 * (ps.grad_u1[i, j] + ps.grad_u1[j, i])
            g[i, j] = ps.grad_u1[j, i] + ps.grad_u2[i, j]
        d[i] = ps.u1[i] - ps.u2[i]
    return {"e": e, "g": g, "d": d}


def strain_magnitude_loops(E) -> float:
    total = 0.0
    for i in range(3):
        for j in range(3):
            total += E.e[i, j] ** 2 + E.g[i, j] ** 2
    total += E.phi1**2 + E.phi2**2
    for i in range(3):
        total += E.d[i] ** 2 + E.grad_phi1[i] ** 2 + E.grad_phi2[i] ** 2
    return np.sqrt(total)


def energy_density_loops(k, E) -> float:
    """Stored energy density, term by term with explicit sums."""
    e, g = E.e, E.g
    p1, p2 = E.phi1, E.phi2
    d, q1, q2 = E.d, E.grad_phi1, E.grad_phi2
    acc = 0.0
    for i in range(3):
        for j in range(3):
            for r in range(3):
                for s in range(3):
                    acc += 0.5 * k.A[i, j, r, s] * e[i, j] * e[r, s]
                    acc += 0.5 * k.C[i, j, r, s] * g[i, j] * g[r, s]
                    acc += k.B[i, j, r, s] * e[i, j] * g[r, s]
    acc += 0.5 * (k.zeta * p1 * p1 + k.mu * p2 * p2) + k.tau * p1 * p2
    for i in range(3):
        for j in range(3):
            acc += 0.5 * (k.alpha[i, j] * q1[i] * q1[j] + k.gamma[i, j] * q2[i] * q2[j])
            acc += 0.5 * k.a[i, j] * d[i] * d[j]
            acc += k.D[i, j] * e[i, j] * p1 + k.E[i, j] * e[i, j] * p2
            acc += k.M[i, j] * g[i, j] * p1 + k.N[i, j] * g[i, j] * p2
            acc += k.beta[i, j] * q1[i] * q2[j]
            acc += k.b[i, j] * d[i] * q1[j] + k.c[i, j] * d[i] * q2[j]
    return acc


def stress_loops(k, E) -> dict:
    """Constitutive law by explicit loops; S1/S2 stored as [i, j] = S_ji."""
    e, g = E.e, E.g
    p1, p2 = E.phi1, E.phi2
    d, q1, q2 = E.d, E.grad_phi1, E.grad_phi2
    s1 = np.zeros((3, 3))
    s2 = np.zeros((3, 3))
    for j in range(3):
        for i in range(3):
            val1 = (k.D[i, j] + k.M[i, j]) * p1 + (k.E[i, j] + k.N[i, j]) * p2
            val2 = k.M[i, j] * p1 + k.N[i, j] * p2
            for r in range(3):
                for s in range(3):
                    val1 += (k.A[j, i, r, s] + k.B[r, s, j, i]) * e[r, s]
                    val1 += (k.B[i, j, r, s] + k.C[j, i, r, s]) * g[r, s]
                    val2 += k.B[r, s, i, j] * e[r, s] + k.C[i, j, r, s] * g[r, s]
            s1[i, j] = val1
            s2[i, j] = val2
    g1 = -k.zeta * p1 - k.tau * p2
    g2 = -k.tau * p1 - k.mu * p2
    for r in range(3):
        for s in range(3):
            g1 -= k.D[r, s] * e[r, s] + k.M[r, s] * g[r, s]
            g2 -= k.E[r, s] * e[r, s] + k.N[r, s] * g[r, s]
    p = np.zeros(3)
    h1 = np.zeros(3)
    h2 = np.zeros(3)
    for i in range(3):
        for j in range(3):
            p[i] += k.a[i, j] * d[j] + k.b[i, j] * q1[j] + k.c[i, j] * q2[j]
            h1[i] += k.alpha[i, j] * q1[j] + k.beta[i, j] * q2[j] + k.b[j, i] * d[j]
            h2[i] += k.beta[j, i] * q1[j] + k.gamma[i, j] * q2[j] + k.c[j, i] * d[j]
    return {"S1": s1, "S2": s2, "g1": g1, "g2": g2, "p": p, "h1": h1, "h2": h2}


def stress_magnitude_loops(S) -> float:
    total = S.g1**2 + S.g2**2
    for i in range(3):
        total += S.p[i] ** 2 + S.h1[i] ** 2 + S.h2[i] ** 2
        for j in range(3):
            total += S.S1[i, j] ** 2 + S.S2[i, j] ** 2
    return np.sqrt(total)


def reduced_constants_loops(k) -> dict:
    a4 = np.zeros((3, 3, 3, 3))
    b4 = np.zeros((3, 3, 3, 3))
    for i in range(3):
        for j in range(3):
            for r in range(3):
                for s in range(3):
                    a4[i, j, r, s] = (
                        k.A[j, i, r, s] + k.B[r, s, j, i] + k.B[j, i, s, r] + k.C[j, i, s, r]
                    )
                    b4[i, j, r, s] = k.B[j, i, r, s] + k.C[j, i, r, s]
    return {"a": a4, "b": b4, "d": k.C.copy(), "tau": k.D + k.M, "sigma": k.E + k.N}


def symmetry_violations_loops(k, tol: float = 1e-12) -> set:
    """Names of the violated symmetry relations, by explicit index loops."""
    bad = set()
    for i in range(3):
        for j in range(3):
            for r in range(3):
                for s in range(3):
                    if abs(k.A[i, j, r, s] - k.A[j, i, r, s]) > tol:
                        bad.add("A_ijrs=A_jirs")
                    if abs(k.A[i, j, r, s] - k.A[r, s, i, j]) > tol:
                        bad.add("A_ijrs=A_rsij")
                    if abs(k.B[i, j, r, s] - k.B[j, i, r, s]) > tol:
                        bad.add("B_ijrs=B_jirs")
                    if abs(k.C[i, j, r, s] - k.C[r, s, i, j]) > tol:
                        bad.add("C_ijrs=C_rsij")
            for name, t in (("a_ij=a_ji", k.a), ("alpha_ij=alpha_ji", k.alpha),
                            ("gamma_ij=gamma_ji", k.gamma), ("D_ij=D_ji", k.D),
                            ("E_ij=E_ji", k.E)):
                if abs(t[i, j] - t[j, i]) > tol:
                    bad.add(name)
    return bad


# ---------------------------------------------------------------------------
# The stored energy and both power identities of material points, through the
# pointwise law (only tests evaluate these whole).
# ---------------------------------------------------------------------------


def internal_energy_density(consts, E):
    """W = ½ E·𝒜E, with 𝒜 = ``consts.form``, for a (..., 29) ``StrainVector``."""
    from poromix.pointwise import form_image

    return 0.5 * np.einsum("...i,...i->...", form_image(consts, E), E.vec)


def power_identity_residuals(consts, ps, ps_dot):
    """Residuals (r_static, r_rate) of the static and rate power identities.

    r_static = |2W − Σ_α[S:∇u + p·d + h·∇φ − gφ]| on ``ps``;
    r_rate   = |E(ps_dot)·𝒜E(ps) − Σ_α[S:∇u̇ + p·ḋ + h·∇φ̇ − gφ̇]|,
    the rate form identifying dW/dt through the quadratic-form representation.
    """
    from poromix.pointwise import form_image, generalized_stress, power_residual, strain_vector

    E = strain_vector(ps)
    S, AE = generalized_stress(consts, E), form_image(consts, E)
    return (power_residual(S, AE, E, ps.grad_u1, ps.grad_u2),
            power_residual(S, AE, strain_vector(ps_dot), ps_dot.grad_u1, ps_dot.grad_u2))


# ---------------------------------------------------------------------------
# Stored energy of a grid state, node by node through the pointwise law.
# ---------------------------------------------------------------------------


def point_state_at(U: np.ndarray, grads: list[np.ndarray], node: tuple):
    """PointState of a stacked (u¹, u², φ¹, φ²) grid state at one node.

    ``grads[j]`` is ∂ⱼU on the grid; unsampled derivatives are zero.
    """
    from poromix.pointwise import PointState

    u = U[(slice(None),) + node]
    G = np.zeros((8, 3))
    for j, g in enumerate(grads):
        G[:, j] = g[(slice(None),) + node]
    return PointState(grad_u1=G[0:3], grad_u2=G[3:6], u1=u[0:3], u2=u[3:6],
                      phi1=float(u[6]), phi2=float(u[7]),
                      grad_phi1=G[6], grad_phi2=G[7])


def stored_energy_pointwise(consts, U: np.ndarray, h) -> np.ndarray:
    """Nodal W: stencil derivatives per node, then the pointwise strain map and
    W = ½E·𝒜E, one node at a time (no jet form involved)."""
    from poromix.pointwise import strain_vector

    grads = [central_gradient(U, 1 + j, hj) for j, hj in enumerate(h)]
    out = np.zeros(U.shape[1:])
    for node in np.ndindex(out.shape):
        out[node] = internal_energy_density(consts, strain_vector(point_state_at(U, grads, node)))
    return out


# ---------------------------------------------------------------------------
# The jet formula: derivative stencils divided by 2h, their adjoints, and the
# force −w(QY)₀ − Σⱼ Dⱼᵀ(w(QY)ⱼ) with the physical Q = Pᵀ𝒜P.
# ---------------------------------------------------------------------------


def _idx(nd: int, ax: int, s) -> tuple:
    out = [slice(None)] * nd
    out[ax] = s
    return tuple(out)


def central_gradient(f: np.ndarray, ax: int, h: float) -> np.ndarray:
    """d/dx along axis ``ax``: central interior, one-sided 3-point at the ends."""
    nd = f.ndim
    g = np.empty_like(f)
    g[_idx(nd, ax, slice(1, -1))] = (
        f[_idx(nd, ax, slice(2, None))] - f[_idx(nd, ax, slice(0, -2))]
    ) / (2.0 * h)
    g[_idx(nd, ax, 0)] = (
        -3.0 * f[_idx(nd, ax, 0)] + 4.0 * f[_idx(nd, ax, 1)] - f[_idx(nd, ax, 2)]
    ) / (2.0 * h)
    g[_idx(nd, ax, -1)] = (
        3.0 * f[_idx(nd, ax, -1)] - 4.0 * f[_idx(nd, ax, -2)] + f[_idx(nd, ax, -3)]
    ) / (2.0 * h)
    return g


def gradient_adjoint(q: np.ndarray, ax: int, h: float) -> np.ndarray:
    """The transpose of :func:`central_gradient`, term by term."""
    nd = q.ndim
    out = np.zeros_like(q)
    inner = q[_idx(nd, ax, slice(1, -1))] / (2.0 * h)
    out[_idx(nd, ax, slice(2, None))] += inner
    out[_idx(nd, ax, slice(0, -2))] -= inner
    q0 = q[_idx(nd, ax, 0)] / (2.0 * h)
    out[_idx(nd, ax, 0)] += -3.0 * q0
    out[_idx(nd, ax, 1)] += 4.0 * q0
    out[_idx(nd, ax, 2)] += -q0
    qn = q[_idx(nd, ax, -1)] / (2.0 * h)
    out[_idx(nd, ax, -1)] += 3.0 * qn
    out[_idx(nd, ax, -2)] += -4.0 * qn
    out[_idx(nd, ax, -3)] += qn
    return out


def internal_force_jet(ws, consts, U: np.ndarray) -> np.ndarray:
    """The internal force by the jet formula, with Q = Pᵀ𝒜P built afresh from the
    workspace's material ``consts``."""
    from poromix.fields import jet_map

    P = jet_map(ws.grid.dim)
    Q = P.T @ consts.form.matrix @ P
    Y = np.stack([U] + [central_gradient(U, 1 + j, hj) for j, hj in enumerate(ws.grid.h)])
    QY = (Q @ Y.reshape(len(Q), -1)).reshape(Y.shape)
    F = -ws.w * QY[0]
    for j, hj in enumerate(ws.grid.h):
        F -= gradient_adjoint(ws.w * QY[1 + j], 1 + j, hj)
    return F


def acceleration_jet(ws, consts, U: np.ndarray) -> np.ndarray:
    """Stacked accelerations by the jet formula (:func:`internal_force_jet`)."""
    F = internal_force_jet(ws, consts, U)
    if ws.load is not None:
        F += ws.load
    a = F / (ws.w * ws.inertia)
    a.reshape(-1)[ws.pin_at] = 0.0
    return a


def stiffness_jet(ws, consts) -> np.ndarray:
    """K of F = −KU, probed one unit state at a time from the jet formula:
    K[c, i, c', j] couples row c of node i to row c' of node j (1-D grids)."""
    shape = (8,) + ws.grid.shape
    K = np.empty(shape + shape)
    for at in np.ndindex(shape):
        unit = np.zeros(shape)
        unit[at] = 1.0
        K[(Ellipsis,) + at] = -internal_force_jet(ws, consts, unit)
    return K


# ---------------------------------------------------------------------------
# The allocating force, step and energy formulas: every temporary a fresh
# array, in the operation order the workspace buffers must reproduce bitwise.
# ---------------------------------------------------------------------------

_FIRST_ROW = np.array([[-3.0, 4.0, -1.0]])
_LAST_ROW = np.array([[1.0, -4.0, 3.0]])


def difference_allocating(f: np.ndarray, ax: int) -> np.ndarray:
    """δf = f₍ᵢ₊₁₎ − f₍ᵢ₋₁₎ inside; the end rows by the same matmul as the kernel."""
    nd = f.ndim
    g = np.empty_like(f)
    g[_idx(nd, ax, slice(1, -1))] = f[_idx(nd, ax, slice(2, None))] - f[_idx(nd, ax, slice(0, -2))]
    rows = f.reshape(-1, f.shape[ax], int(np.prod(f.shape[ax + 1:])))
    first, last = _idx(nd, ax, slice(0, 1)), _idx(nd, ax, slice(-1, None))
    g[first] = (_FIRST_ROW @ rows[:, :3]).reshape(g[first].shape)
    g[last] = (_LAST_ROW @ rows[:, -3:]).reshape(g[last].shape)
    return g


def subtract_adjoint_allocating(F: np.ndarray, q: np.ndarray, ax: int) -> np.ndarray:
    """F − δᵀq as a fresh array: the end-row terms first, then the interior."""
    nd = F.ndim
    F = F.copy()
    q0, qn = q[_idx(nd, ax, 0)], q[_idx(nd, ax, -1)]
    for k, c in enumerate((3.0, -4.0, 1.0)):
        F[_idx(nd, ax, k)] = F[_idx(nd, ax, k)] + c * q0
    for k, c in enumerate((-1.0, 4.0, -3.0)):
        F[_idx(nd, ax, k - 3)] = F[_idx(nd, ax, k - 3)] + c * qn
    inner = q.copy()
    inner[_idx(nd, ax, 0)] = 0.0
    inner[_idx(nd, ax, -1)] = 0.0
    lo, hi = _idx(nd, ax, slice(0, -1)), _idx(nd, ax, slice(1, None))
    F[hi] = F[hi] - inner[lo]
    F[lo] = F[lo] + inner[hi]
    return F


def internal_force_allocating(ws, U: np.ndarray) -> np.ndarray:
    """F = −w(QY)₀ − Σⱼ δⱼᵀ(w/(2hⱼ) (QY)ⱼ) on the raw jet, as fresh arrays; on a
    line with a stencil, its blocks on (U, δU, δ²U) and on the end windows' differences."""
    if ws.line is not None:
        interior, ends = ws.line.interior, ws.line.ends
        F = np.empty(U.shape)
        d1 = U[:, 2:] - U[:, :-2]  # δU of the nodes 1 … n − 2
        Z = np.concatenate([U[:, 3:-3], d1[:, 2:-2], d1[:, 3:-1] - d1[:, 1:-3]])
        F[:, 3:-3] = interior @ Z
        windows = np.stack([U[:, :5], U[:, -5:]])
        diffs = np.concatenate([windows[..., :1], windows[..., 1:] - windows[..., :-1]], axis=2)
        F[:, :3], F[:, -3:] = (ends @ diffs.reshape(2, 40, 1)).reshape(2, -1, 3)
        return F
    Y = np.stack([U] + [difference_allocating(U, 1 + j) for j in range(ws.grid.dim)])
    QY = (ws.Q @ Y.reshape(len(ws.Q), -1)).reshape(Y.shape) * ws.jet_w
    F = QY[0]
    for j in range(ws.grid.dim):
        F = subtract_adjoint_allocating(F, QY[1 + j], 1 + j)
    return F


def acceleration_allocating(ws, U: np.ndarray) -> np.ndarray:
    """The force (plus the load) times the reciprocal mass, 0 at the pinned entries."""
    F = internal_force_allocating(ws, U)
    if ws.load is not None:
        F = ws.load + F
    a = F * (1.0 / (ws.w * ws.inertia))
    a.reshape(-1)[ws.pin_at] = 0.0
    return a


def step_allocating(ws, U: np.ndarray, V: np.ndarray, dt: float, a: np.ndarray):
    """One kick-drift-kick update; returns (U, V, a) a step dt later."""
    half = 0.5 * dt
    V = V + half * a
    U = U + dt * V
    U.reshape(-1)[ws.pin_at] = ws.pin_to
    a_new = acceleration_allocating(ws, U)
    V += half * a_new
    V.reshape(-1)[ws.pin_at] = 0.0
    return U, V, a_new


def energy_allocating(ws, U: np.ndarray, V: np.ndarray) -> tuple[float, float, float]:
    """(kinetic_u, kinetic_phi, strain) of one state: ½ρχ of the u rows and of
    the φ rows times the node sums (V∘V)w, and −½ U·F."""
    half_inertia = 0.5 * ws.inertia.reshape(-1)
    weights = np.array([np.where(np.arange(8) < 6, half_inertia, 0.0),
                        np.where(np.arange(8) < 6, 0.0, half_inertia)])
    kinetic_u, kinetic_phi = weights @ ((V * V).reshape(8, -1) @ ws.w.reshape(-1))
    return (float(kinetic_u), float(kinetic_phi),
            -0.5 * float(np.vdot(U, internal_force_allocating(ws, U))))


# ---------------------------------------------------------------------------
# Distance to a node set, by brute force over every pair.
# ---------------------------------------------------------------------------


def pairwise_distance(grid, mask: np.ndarray) -> np.ndarray:
    """Euclidean distance from each node to the nearest masked node, node by node."""
    x = grid.positions().reshape(3, -1)
    sup = x[:, mask.reshape(-1)]
    out = np.array([np.min(np.linalg.norm(sup - x[:, k:k + 1], axis=0))
                    for k in range(x.shape[1])])
    return out.reshape(grid.shape)


def r_grid_unique(geom, count: int) -> np.ndarray:
    """``diagnostics.default_r_grid`` through ``np.unique`` of the distances and the picks."""
    from poromix.diagnostics import _SHELL_RTOL

    rd = np.unique(geom.dist)
    rd = rd[rd > 0.0]
    gap = np.diff(rd) > _SHELL_RTOL * min(geom.h)
    mids = 0.5 * (rd[:-1][gap] + rd[1:][gap])
    if len(mids) > count - 1:
        mids = mids[np.unique(np.linspace(0, len(mids) - 1, count - 1).astype(int))]
    return np.concatenate([[0.0], mids])


# ---------------------------------------------------------------------------
# Surface power with one node mask and one face selection per radius.
# ---------------------------------------------------------------------------


def _lower_upper(arr: np.ndarray, axis: int):
    lo = [slice(None)] * arr.ndim
    hi = [slice(None)] * arr.ndim
    lo[axis] = slice(0, -1)
    hi[axis] = slice(1, None)
    return arr[tuple(lo)], arr[tuple(hi)]


def surface_power_masks(ws, states, geom, r_grid, lam: float):
    """(P, E_vol) of the states' ``SurfaceShells`` flux ``.weighted(lam)``, radius by radius.

    For each radius the node mask {dist > r} selects the outside energy, and
    the faces whose two nodes differ in that mask carry the flux, with sign
    +1 where the upper node is outside.  O(grid × radii) per state.
    """
    from poromix.diagnostics import _cumtrapz
    from poromix.fields import stored_energy

    grid = ws.grid
    times = np.array([state.t for state in states])
    q = np.zeros((len(r_grid), len(times)))
    e_inst = np.zeros_like(q)
    masks = [geom.dist > r for r in r_grid]
    areas = []
    for axis in range(grid.dim):
        area = np.ones(tuple(n - 1 if a == axis else n for a, n in enumerate(grid.shape)))
        for b in range(grid.dim):
            if b != axis:
                tw = np.full(grid.shape[b], grid.h[b])
                tw[0] = tw[-1] = 0.5 * grid.h[b]
                area = area * tw.reshape([-1 if a == b else 1 for a in range(grid.dim)])
        areas.append(area)
    for j, state in enumerate(states):
        Y, QY = ws.stress(state.U)
        eps = 0.5 * np.sum(ws.inertia * state.V**2, axis=0) + stored_energy(Y, QY)
        for i, m in enumerate(masks):
            e_inst[i, j] = float(np.sum(ws.w[m] * eps[m]))
        for axis in range(grid.dim):
            s_lo, s_hi = _lower_upper(QY[1 + axis], 1 + axis)
            v_lo, v_hi = _lower_upper(state.V, 1 + axis)
            flux = 0.25 * np.einsum("c...,c...->...", s_lo + s_hi, v_lo + v_hi)
            for i, m in enumerate(masks):
                lo, hi = _lower_upper(m, axis)
                active = lo != hi
                if active.any():
                    sign = np.where(hi & ~lo, 1.0, -1.0)
                    q[i, j] += float(np.sum((sign * areas[axis])[active] * flux[active]))
    decay = np.exp(-lam * times)
    p = -_cumtrapz(q * decay, times)
    e_vol = e_inst * decay + lam * _cumtrapz(e_inst * decay, times)
    return p, e_vol


# ---------------------------------------------------------------------------
# Plane-wave speeds of a material.
# ---------------------------------------------------------------------------


def front_masks(states, geom):
    """(times, r_front, peak) of the states' ``FrontSweep`` report, state by state.

    The threshold is 1e-6 of the largest state magnitude of all snapshots;
    each state's front is the largest distance of the nodes outside the
    support above it, found by masking every node.  O(grid) per state, with
    every state's magnitude kept until the peak is known.
    """
    mags = [state.magnitude() for state in states]
    peak = max(float(np.max(m)) for m in mags)
    thr = 1e-6 * peak
    outside = geom.dist > 0.0
    times, r_front = [], []
    for state, m in zip(states, mags):
        hit = outside & (m > thr)
        if hit.any():
            times.append(state.t)
            r_front.append(float(np.max(geom.dist[hit])))
    return np.array(times), np.array(r_front), peak


def acoustic_speed_limit(consts, n_directions: int = 24) -> float:
    """Largest plane-wave speed over a sweep of propagation directions.

    Uses the gradient-gradient blocks only (value couplings do not affect the
    short-wave limit): the 6×6 displacement acoustic tensor built from the
    gradient-form coefficients plus the 2×2 fraction-gradient system.  The
    bounding speed ``consts.speed.c`` must not be exceeded.
    """
    from poromix.materials import reduced_constants

    red = reduced_constants(consts)
    golden = np.pi * (3.0 - np.sqrt(5.0))
    vmax2 = 0.0
    rho = np.array([consts.rho1] * 3 + [consts.rho2] * 3)
    for k in range(n_directions):
        z = 1.0 - 2.0 * (k + 0.5) / n_directions
        r = np.sqrt(max(0.0, 1.0 - z * z))
        n = np.array([r * np.cos(golden * k), r * np.sin(golden * k), z])
        k11 = np.einsum("ijrs,j,s->ir", red.a, n, n)
        k12 = np.einsum("ijrs,j,s->ir", red.b, n, n)
        k22 = np.einsum("ijrs,j,s->ir", red.d, n, n)
        ku = np.block([[k11, k12], [k12.T, k22]])
        ku = 0.5 * (ku + ku.T) / np.sqrt(np.outer(rho, rho))
        vmax2 = max(vmax2, float(np.linalg.eigvalsh(ku)[-1]))
        ann = float(consts.alpha @ n @ n)
        bnn = float(consts.beta @ n @ n)
        gnn = float(consts.gamma @ n @ n)
        kphi = np.array([[ann, bnn], [bnn, gnn]])
        inv_sqrt = np.diag(1.0 / np.sqrt([consts.rho1 * consts.chi1, consts.rho2 * consts.chi2]))
        vmax2 = max(vmax2, float(np.linalg.eigvalsh(inv_sqrt @ kphi @ inv_sqrt)[-1]))
    return float(np.sqrt(max(vmax2, 0.0)))


# ---------------------------------------------------------------------------
# Quadrature and moments.
# ---------------------------------------------------------------------------


def simpson_1d(values: np.ndarray, h: float) -> float:
    """Composite Simpson rule (odd point count required)."""
    n = len(values)
    assert n % 2 == 1, "Simpson needs an odd number of nodes"
    acc = values[0] + values[-1]
    acc += 4.0 * np.sum(values[1:-1:2])
    acc += 2.0 * np.sum(values[2:-1:2])
    return float(acc * h / 3.0)


def moments_midpoint_loops(field: np.ndarray, rho: float, x: np.ndarray, wq: float):
    """Momentum and moment of momentum with uniform node weights, by loops."""
    lin = np.zeros(3)
    ang = np.zeros(3)
    flat_f = field.reshape(3, -1)
    flat_x = x.reshape(3, -1)
    for kk in range(flat_f.shape[1]):
        lin += rho * wq * flat_f[:, kk]
        ang += rho * wq * np.cross(flat_x[:, kk], flat_f[:, kk])
    return lin, ang


def rigid_part_midpoint(field: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The rigid field whose difference from ``field`` has zero midpoint
    momentum and moment of momentum.

    Spans the six rigid fields (three translations, three rotations e × x),
    takes their moments with :func:`moments_midpoint_loops` and solves for
    the combination with the moments of ``field`` (minimum norm, so a
    rotation that moves no node gets coefficient 0).
    """
    basis = []
    for k in range(3):
        e = np.zeros((3,) + (1,) * (x.ndim - 1))
        e[k] = 1.0
        basis.append(np.broadcast_to(e, x.shape))
        basis.append(np.cross(e, x, axis=0))
    moments = np.stack([np.concatenate(moments_midpoint_loops(b, 1.0, x, 1.0)) for b in basis],
                       axis=1)
    target = np.concatenate(moments_midpoint_loops(field, 1.0, x, 1.0))
    coef = np.linalg.lstsq(moments, target, rcond=None)[0]
    return sum(c * b for c, b in zip(coef, basis))


# ---------------------------------------------------------------------------
# Continuum operator on analytic 1-D profiles (for the Taylor check).
# ---------------------------------------------------------------------------


class Gaussian1D:
    """amp * exp(-(x-c)^2 / (2 w^2)) with analytic derivatives."""

    def __init__(self, center: float, width: float, amp: float):
        self.c, self.w, self.amp = center, width, amp

    def val(self, x):
        return self.amp * np.exp(-((x - self.c) ** 2) / (2 * self.w**2))

    def d1(self, x):
        return -(x - self.c) / self.w**2 * self.val(x)

    def d2(self, x):
        return ((x - self.c) ** 2 / self.w**4 - 1.0 / self.w**2) * self.val(x)


def continuum_accel_1d(consts, red, profiles, x):
    """Continuum accelerations for separable 1-D data u^a_i = A_i g(x), etc.

    ``profiles`` maps names u1, u2, phi1, phi2 to (amplitude, Gaussian1D);
    vector amplitudes are 3-vectors, scalar fields use scalar amplitudes.
    Only x-derivatives exist.  Returns (a_u1, a_u2, a_p1, a_p2) sampled at x.
    """
    amp_u1, gu1 = profiles["u1"]
    amp_u2, gu2 = profiles["u2"]
    amp_p1, gp1 = profiles["phi1"]
    amp_p2, gp2 = profiles["phi2"]
    n = len(x)
    u1 = np.outer(amp_u1, gu1.val(x))
    u2 = np.outer(amp_u2, gu2.val(x))
    du1 = np.outer(amp_u1, gu1.d1(x))
    du2 = np.outer(amp_u2, gu2.d1(x))
    ddu1 = np.outer(amp_u1, gu1.d2(x))
    ddu2 = np.outer(amp_u2, gu2.d2(x))
    p1v, dp1, ddp1 = amp_p1 * gp1.val(x), amp_p1 * gp1.d1(x), amp_p1 * gp1.d2(x)
    p2v, dp2, ddp2 = amp_p2 * gp2.val(x), amp_p2 * gp2.d1(x), amp_p2 * gp2.d2(x)
    d = u1 - u2

    a_u1 = np.zeros((3, n))
    a_u2 = np.zeros((3, n))
    for i in range(3):
        acc1 = consts.rho1 * 0.0 * x
        acc2 = acc1.copy()
        for r in range(3):
            acc1 = acc1 + red.a[i, 0, r, 0] * ddu1[r] + red.b[i, 0, r, 0] * ddu2[r]
            acc2 = acc2 + red.b[r, 0, i, 0] * ddu1[r] + red.d[i, 0, r, 0] * ddu2[r]
        acc1 = acc1 + red.tau[i, 0] * dp1 + red.sigma[i, 0] * dp2
        acc2 = acc2 + consts.M[i, 0] * dp1 + consts.N[i, 0] * dp2
        p_i = sum(consts.a[i, j] * d[j] for j in range(3))
        p_i = p_i + consts.b[i, 0] * dp1 + consts.c[i, 0] * dp2
        a_u1[i] = (acc1 - p_i) / consts.rho1
        a_u2[i] = (acc2 + p_i) / consts.rho2

    div_h1 = consts.alpha[0, 0] * ddp1 + consts.beta[0, 0] * ddp2
    div_h2 = consts.beta[0, 0] * ddp1 + consts.gamma[0, 0] * ddp2
    for j in range(3):
        div_h1 = div_h1 + consts.b[j, 0] * (du1[j] - du2[j])
        div_h2 = div_h2 + consts.c[j, 0] * (du1[j] - du2[j])
    g1 = -consts.zeta * p1v - consts.tau * p2v
    g2 = -consts.tau * p1v - consts.mu * p2v
    for r in range(3):
        g1 = g1 - red.tau[r, 0] * du1[r] - consts.M[r, 0] * du2[r]
        g2 = g2 - red.sigma[r, 0] * du1[r] - consts.N[r, 0] * du2[r]
    a_p1 = (div_h1 + g1) / (consts.rho1 * consts.chi1)
    a_p2 = (div_h2 + g2) / (consts.rho2 * consts.chi2)
    return a_u1, a_u2, a_p1, a_p2


def dalembert_mode(profile, v: float, amp: np.ndarray, x: np.ndarray, t: float):
    """Right-going single-mode solution u_x = amp * p(x - v t)."""
    vals = profile.val(x - v * t)
    return np.outer(amp, vals)


# ---------------------------------------------------------------------------
# Random materials and states, one generator call per tensor and per field.
# ---------------------------------------------------------------------------


def _iso4_per_call(lam: float, mu: float) -> np.ndarray:
    eye = np.eye(3)
    return (lam * np.einsum("ij,rs->ijrs", eye, eye) + mu * np.einsum("ir,js->ijrs", eye, eye)
            + mu * np.einsum("is,jr->ijrs", eye, eye))


def _sym4_per_call(t: np.ndarray) -> np.ndarray:
    t = 0.5 * (t + t.transpose(1, 0, 2, 3))
    t = 0.5 * (t + t.transpose(0, 1, 3, 2))
    return 0.5 * (t + t.transpose(2, 3, 0, 1))


def draw_material_per_call(rng: np.random.Generator) -> dict:
    """The raw random material drawn tensor by tensor (about 25 generator calls),
    in the order and with the arithmetic that ``materials.draw_material`` must keep."""
    cpl = 0.25

    def sym2():
        t = rng.standard_normal((3, 3))
        return 0.5 * (t + t.T)

    eye = np.eye(3)
    return dict(
        A=_iso4_per_call(0.4, 0.4) + 0.35 * _sym4_per_call(rng.standard_normal((3, 3, 3, 3))),
        B=cpl * 0.5 * (lambda t: t + t.transpose(1, 0, 2, 3))(rng.standard_normal((3, 3, 3, 3))),
        C=0.4 * np.einsum("ir,js->ijrs", eye, eye)
        + 0.3 * (lambda t: 0.5 * (t + t.transpose(2, 3, 0, 1)))(rng.standard_normal((3, 3, 3, 3))),
        **{name: cpl * sym2() for name in "DEMN"},
        zeta=1.0 + 0.3 * rng.standard_normal(),
        mu=1.0 + 0.3 * rng.standard_normal(),
        tau=cpl * rng.standard_normal(),
        alpha=eye + 0.3 * sym2(),
        beta=cpl * rng.standard_normal((3, 3)),
        gamma=eye + 0.3 * sym2(),
        a=eye + 0.3 * sym2(),
        b=cpl * rng.standard_normal((3, 3)),
        c=cpl * rng.standard_normal((3, 3)),
        **{name: float(rng.uniform(0.6, 1.8)) for name in ("rho1", "rho2", "chi1", "chi2")},
    )


def draw_states_per_part(rng: np.random.Generator, count: int) -> list[np.ndarray]:
    """``count`` random point states drawn field by field (one generator call each),
    then their normals, as ``verify._draw_states`` must keep them."""
    shapes = ((3, 3), (3, 3), (3,), (3,), (), (), (3,), (3,), (3,))
    *parts, normals = [rng.standard_normal((count,) + shape) for shape in shapes]
    return parts + [normals / np.linalg.norm(normals, axis=-1, keepdims=True)]
