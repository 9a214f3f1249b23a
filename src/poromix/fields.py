"""Vectorized field kinematics on structured grids.

One pair of raw-difference kernels, shared by every grid dimension, and the
jet form that carries the whole constitutive law over node arrays.  Grid
axes are the trailing axes of every array; component axes lead.  Along grid
axis j the raw difference δⱼU is 2hⱼ ∂ⱼU: U₍ᵢ₊₁₎ − U₍ᵢ₋₁₎ inside, and the
one-sided rows (−3, 4, −1), (1, −4, 3) at the ends.

The state is stacked as U = (u¹, u², φ¹, φ²), an (8, *grid) array, with
V = U̇; ``STATE_FIELDS`` names the rows of each field once, for the state
views, the initial data and the snapshots.  Its jet is Y = (U, ∂₁U, …), a
(1 + dim, 8, *grid) array.  A constant matrix P
maps the jet to the 29 strain slots, E = PY, so with Q = Pᵀ𝒜P the stored
energy is W = ½ Y·QY and the blocks of QY are the generalized stresses::

    (QY)₀ = (p, −p, −g¹, −g²),   (QY)ⱼ = (S¹[:, j], S²[:, j], h¹ⱼ, h²ⱼ)

``jet_form`` folds the 1/(2hⱼ) into Q's ∂ⱼ columns, so Q applied to the raw
jet (U, δ₁U, …) gives these stresses and no array is divided.  All
constitutive algebra stays full 3-D: derivatives along unsampled directions
are zero and simply absent from the jet.
"""

from __future__ import annotations

import math

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

# The named fields of the state (U, V = U̇), in snapshot order: name -> (array, rows).
STATE_FIELDS = {
    "u1": ("U", U1_ROWS), "u2": ("U", U2_ROWS), "phi1": ("U", PHI1_ROW), "phi2": ("U", PHI2_ROW),
    "v1": ("V", U1_ROWS), "v2": ("V", U2_ROWS), "psi1": ("V", PHI1_ROW), "psi2": ("V", PHI2_ROW),
}


# One-sided end rows of δ, and the same rows transposed and negated for F −= δᵀq.
_FIRST_ROW, _LAST_ROW = np.array([[-3.0, 4.0, -1.0]]), np.array([[1.0, -4.0, 3.0]])
_FIRST_COL, _LAST_COL = -_FIRST_ROW.T, -_LAST_ROW.T


def difference(U: np.ndarray, ax: int, out: np.ndarray) -> np.ndarray:
    """δU along axis ``ax``, written into ``out`` (C-contiguous, not overlapping U).

    One contiguous subtraction of the flattened array, shifted by two strides
    of the axis, fills every interior node; the shift wraps across rows only
    at the end nodes, which the one-sided rows then overwrite.
    """
    U = np.ascontiguousarray(U)
    n, s = U.shape[ax], math.prod(U.shape[ax + 1:])  # s: the flat stride of the axis
    u, d, flat_u = U.reshape(-1, n, s), out.reshape(-1, n, s), U.reshape(-1)
    np.subtract(flat_u[2 * s:], flat_u[:-2 * s], out=out.reshape(-1)[s:-s])
    np.matmul(_FIRST_ROW, u[:, :3], out=d[:, :1])
    np.matmul(_LAST_ROW, u[:, -3:], out=d[:, -1:])
    return out


def subtract_adjoint(F: np.ndarray, q: np.ndarray, ax: int) -> np.ndarray:
    """F −= δᵀq along axis ``ax`` in place, the exact transpose of :func:`difference`.

    sum(δf·q) == sum(f·δᵀq) to roundoff for every f, q, so the assembled
    semi-discrete operator is exactly symmetric.  ``q`` (C-contiguous, like
    F) is scratch: the end-row terms go first, then q's end rows are zeroed,
    so the two contiguous shifted updates add only the interior terms.
    """
    n, s = F.shape[ax], math.prod(F.shape[ax + 1:])
    f, r = F.reshape(-1, n, s), q.reshape(-1, n, s)
    f[:, :3] += np.matmul(_FIRST_COL, r[:, :1])
    f[:, -3:] += np.matmul(_LAST_COL, r[:, -1:])
    r[:, ::n - 1] = 0.0  # the first and the last row
    flat_f, flat_q = F.reshape(-1), q.reshape(-1)
    flat_f[s:] -= flat_q[:-s]
    flat_f[:-s] += flat_q[s:]
    return F


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


def jet_form(form: QuadraticForm, h: tuple[float, ...]) -> np.ndarray:
    """Q = Pᵀ𝒜P acting on the raw jet (U, δ₁U, …): its ∂ⱼ columns carry 1/(2hⱼ)."""
    P = jet_map(len(h))
    return (P.T @ form.matrix @ P) * np.repeat([1.0] + [0.5 / hj for hj in h], STATE_ROWS)


def line_stencil(Q: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """The 1-D force F = −KU of the jet form Q, as blocks of −K on differences of U.

    K is the stiffness of the energy Σ w W with trapezoid weights w: it
    couples nodes at most 2 apart, so node i with three nodes on each side
    takes F_i = −Σ_d A_d U₍ᵢ₊d₎, d = −2…2.  With Q's 8 × 8 blocks Q₀₀, Q₀₁,
    Q₁₀, Q₁₁ on the raw jet (U, δU), A₀ = hQ₀₀ + Q₁₁, A₁ = −A₋₁ = hQ₀₁ − ½Q₁₀
    and A₋₂ = A₂ = −½Q₁₁, so F_i = −(hQ₀₀ Uᵢ + A₁ δUᵢ + A₂ δ²Uᵢ) with δ²Uᵢ =
    δU₍ᵢ₊₁₎ − δU₍ᵢ₋₁₎.  The three end nodes on either side couple to the five
    end nodes; their rows are the sum over the nodes j whose jet reaches them
    of Jⱼᵀ diag(wⱼ, wⱼ/(2h)) Q Jⱼ, with Jⱼ the node-j jet row of the one-sided
    or central difference, taken on the window (U₀, U₁ − U₀, …, U₄ − U₃).
    A constant field has exactly zero differences, so a rigid translation,
    which Q₀₀ and Q₁₀ take to zero, meets only hQ₀₀ and the end rows' U₀
    columns.  These keep Q's exact pairing of the u¹ and u² columns, and the
    force on it is zero to roundoff of Q₀₀ and Q₁₀, not of the O(1/h) Q₁₁.

    Returns (interior, ends): the 8 × 24 matrix −[hQ₀₀, A₁, A₂] on the
    stacked (U, δU, δ²U) of a node, and a (2, 24, 40) array of the rows of −K
    for the nodes 0-2 and for the last three nodes, each on its end window of
    differences, indexed (row, node) in the order of ``U[:, :3]`` and
    ``U[:, :5]``.
    """
    R = STATE_ROWS
    Q00, Q01, Q10, Q11 = Q[:R, :R], Q[:R, R:], Q[R:, :R], Q[R:, R:]
    interior = -np.hstack([h * Q00, h * Q01 - 0.5 * Q10, -0.5 * Q11])
    eye = np.eye(R)
    central = np.array([-1.0, 0.0, 1.0])
    # The window's U₀ … U₄ from (U₀, U₁ − U₀, …, U₄ − U₃): Uⱼ = Σ_{k≤j} ΔUₖ.
    from_diffs = np.kron(np.tril(np.ones((5, 5))), eye)

    def end_rows(jets, at):
        # jets: (node, weight, δ coefficients on the window's five nodes) per term.  On
        # the right the jet rows take the differences, exactly: U₀ enters as (1, 0),
        # since every δ row sums to 0, so the U₀ columns are sums of Q's first columns.
        K = np.zeros((5 * R, 5 * R))
        for node, w, coef in jets:
            J = np.vstack([np.kron(np.eye(5)[node], eye), np.kron(coef, eye)])
            K += J.T @ (np.repeat([w, w / (2.0 * h)], R)[:, None] * Q) @ (J @ from_diffs)
        # (node, row) indices -> (row, node), keeping the three force nodes ``at``
        return -K.reshape(5, R, 5, R)[at].transpose(1, 0, 3, 2).reshape(3 * R, 5 * R)

    inner = [(i, h, np.r_[np.zeros(i - 1), central, np.zeros(3 - i)]) for i in (1, 2, 3)]
    first = end_rows([(0, 0.5 * h, np.r_[_FIRST_ROW[0], 0.0, 0.0])] + inner, slice(0, 3))
    last = end_rows([(4, 0.5 * h, np.r_[0.0, 0.0, _LAST_ROW[0]])] + inner, slice(2, 5))
    return interior, np.stack([first, last])


def stored_energy(Y: np.ndarray, QY: np.ndarray) -> np.ndarray:
    """Nodal stored-energy density W = ½ Y·QY."""
    return 0.5 * np.einsum("bc...,bc...->...", Y, QY)
