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


def stored_energy_pointwise(form, U: np.ndarray, h) -> np.ndarray:
    """Nodal W: stencil derivatives per node, then the pointwise strain map and
    W = ½E·𝒜E, one node at a time (no jet form involved)."""
    from poromix.fields import central_gradient
    from poromix.pointwise import internal_energy_density, strain_vector

    grads = [central_gradient(U, 1 + j, hj) for j, hj in enumerate(h)]
    out = np.zeros(U.shape[1:])
    for node in np.ndindex(out.shape):
        out[node] = internal_energy_density(form, strain_vector(point_state_at(U, grads, node)))
    return out


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
