"""Vectorized field kinematics on structured grids.

Second-order difference stencils (central interior, one-sided 3-point at the
ends), their exact adjoints, and the jet form that carries the whole
constitutive law over node arrays.  Grid axes are the trailing axes of every
array; component axes lead.

The state is stacked as U = (u¹, u², φ¹, φ²), an (8, *grid) array, and its
jet as Y = (U, ∂₁U, …), a (1 + dim, 8, *grid) array.  A constant matrix P
maps the jet to the 29 strain slots, E = PY, so with Q = Pᵀ𝒜P the stored
energy is W = ½ Y·QY and the blocks of QY are the generalized stresses::

    (QY)₀ = (p, −p, −g¹, −g²),   (QY)ⱼ = (S¹[:, j], S²[:, j], h¹ⱼ, h²ⱼ)

All constitutive algebra stays full 3-D: derivatives along unsampled
directions are zero and simply absent from the jet.
"""

from __future__ import annotations

import numpy as np

from .materials import (
    D_BLOCK,
    G_BLOCK,
    GPHI1_BLOCK,
    GPHI2_BLOCK,
    PHI1_SLOT,
    PHI2_SLOT,
    QuadraticForm,
    pair_slot,
)

# Rows of the stacked state U = (u¹, u², φ¹, φ²).
U1_ROWS = slice(0, 3)
U2_ROWS = slice(3, 6)
PHI1_ROW = 6
PHI2_ROW = 7
STATE_ROWS = 8


def _idx(nd: int, ax: int, s) -> tuple:
    out = [slice(None)] * nd
    out[ax] = s
    return tuple(out)


def central_gradient(f: np.ndarray, ax: int, h: float, out: np.ndarray | None = None) -> np.ndarray:
    """d/dx along axis ``ax``: central interior, one-sided 3-point at the ends.

    Written into ``out`` when given (it must not overlap ``f``).
    """
    nd = f.ndim
    g = np.empty_like(f) if out is None else out
    mid = g[_idx(nd, ax, slice(1, -1))]
    np.subtract(f[_idx(nd, ax, slice(2, None))], f[_idx(nd, ax, slice(0, -2))], out=mid)
    np.divide(mid, 2.0 * h, out=mid)
    g[_idx(nd, ax, 0)] = (
        -3.0 * f[_idx(nd, ax, 0)] + 4.0 * f[_idx(nd, ax, 1)] - f[_idx(nd, ax, 2)]
    ) / (2.0 * h)
    g[_idx(nd, ax, -1)] = (
        3.0 * f[_idx(nd, ax, -1)] - 4.0 * f[_idx(nd, ax, -2)] + f[_idx(nd, ax, -3)]
    ) / (2.0 * h)
    return g


def gradient_adjoint(q: np.ndarray, ax: int, h: float, out: np.ndarray | None = None) -> np.ndarray:
    """Exact adjoint of :func:`central_gradient` in the plain dot product.

    Satisfies  sum(central_gradient(f)·q) == sum(f·gradient_adjoint(q))
    to roundoff for every f, q; the force assembly relies on this being the
    *exact* transpose so the semi-discrete operator is exactly symmetric.
    Written into ``out`` when given; ``out`` may be ``q`` itself.
    """
    nd = q.ndim
    inner = q[_idx(nd, ax, slice(1, -1))] / (2.0 * h)
    q0 = q[_idx(nd, ax, 0)] / (2.0 * h)
    qn = q[_idx(nd, ax, -1)] / (2.0 * h)
    out = np.empty_like(q) if out is None else out
    out.fill(0.0)
    out[_idx(nd, ax, slice(2, None))] += inner
    out[_idx(nd, ax, slice(0, -2))] -= inner
    out[_idx(nd, ax, 0)] += -3.0 * q0
    out[_idx(nd, ax, 1)] += 4.0 * q0
    out[_idx(nd, ax, 2)] += -q0
    out[_idx(nd, ax, -1)] += 3.0 * qn
    out[_idx(nd, ax, -2)] += -4.0 * qn
    out[_idx(nd, ax, -3)] += qn
    return out


def jet(U: np.ndarray, h: tuple[float, ...], out: np.ndarray | None = None) -> np.ndarray:
    """The jet Y = (U, ∂₁U, …) of a stacked state, written into ``out`` if given."""
    Y = np.empty((1 + len(h),) + U.shape) if out is None else out
    Y[0] = U
    for j, hj in enumerate(h):
        central_gradient(U, 1 + j, hj, out=Y[1 + j])
    return Y


def jet_map(dim: int) -> np.ndarray:
    """The constant 29 × 8(1 + dim) matrix P with E = P·Y.

    e = sym ∇u¹, g_rs = u¹_{s,r} + u²_{r,s}, d = u¹ − u², plus φᵅ and ∇φᵅ.
    """
    P = np.zeros((29, 1 + dim, STATE_ROWS))
    for i in range(3):
        P[D_BLOCK.start + i, 0, U1_ROWS.start + i] = 1.0
        P[D_BLOCK.start + i, 0, U2_ROWS.start + i] = -1.0
    P[PHI1_SLOT, 0, PHI1_ROW] = 1.0
    P[PHI2_SLOT, 0, PHI2_ROW] = 1.0
    for j in range(dim):
        for i in range(3):
            # ∂ⱼu¹ᵢ enters e_ij and e_ji with ½ each, and g_ji; ∂ⱼu²ᵢ enters g_ij.
            P[pair_slot(i, j), 1 + j, U1_ROWS.start + i] += 0.5
            P[pair_slot(j, i), 1 + j, U1_ROWS.start + i] += 0.5
            P[G_BLOCK.start + pair_slot(j, i), 1 + j, U1_ROWS.start + i] = 1.0
            P[G_BLOCK.start + pair_slot(i, j), 1 + j, U2_ROWS.start + i] = 1.0
        P[GPHI1_BLOCK.start + j, 1 + j, PHI1_ROW] = 1.0
        P[GPHI2_BLOCK.start + j, 1 + j, PHI2_ROW] = 1.0
    return P.reshape(29, -1)


def jet_form(form: QuadraticForm, dim: int) -> np.ndarray:
    """Q = Pᵀ𝒜P, the stored energy as a quadratic form in the jet."""
    P = jet_map(dim)
    return P.T @ form.matrix @ P


def stored_energy(Y: np.ndarray, QY: np.ndarray) -> np.ndarray:
    """Nodal stored-energy density W = ½ Y·QY."""
    return 0.5 * np.einsum("bc...,bc...->...", Y, QY)
