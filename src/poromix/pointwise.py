"""Pointwise kinematics and constitutive algebra.

Maps material point states (displacement gradients, fields, fraction
gradients) to the 29-component strain vector, the energy gradient 𝒜E, the
generalized stress vector and surface tractions, and gives the residual of
the static and rate power identities the constitutive suite checks.  Every
function works on a single point or on points stacked along leading batch
axes: a :class:`PointState` whose fields carry a batch shape ``(...)`` gives
strains and stresses of shape ``(..., 29)`` and scalars of shape ``(...)``.
The law may carry a batch shape of its own (a stack of materials, see
``materials``); it broadcasts against the state's, so a law of shape
``(k, 1)`` pairs material i with the states ``[i, :]`` of a ``(k, s)`` batch.

Stress tensors are stored "flux first": ``S1[i, j]`` holds the component
conventionally written S¹_ji, i.e. the force component i transported in
direction j, so the traction is ``S1 @ n`` and the balance divergence acts
on the second index.  Displacement gradients are ``G[i, j] = ∂u_i/∂x_j``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadNormal
from .materials import (
    D_BLOCK,
    E_BLOCK,
    G_BLOCK,
    GPHI1_BLOCK,
    GPHI2_BLOCK,
    PHI1_SLOT,
    PHI2_SLOT,
    MaterialConstants,
)

NORMAL_TOL = 1e-12


@dataclass(frozen=True)
class PointState:
    """State of material points: gradients, fields, fraction gradients.

    Shapes are ``(..., 3, 3)`` for the displacement gradients, ``(..., 3)``
    for displacements and fraction gradients and ``(...)`` for φ¹, φ², with
    the same batch shape ``(...)`` (empty for a single point) on every field.
    """

    grad_u1: np.ndarray
    grad_u2: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    phi1: float
    phi2: float
    grad_phi1: np.ndarray
    grad_phi2: np.ndarray


def _slot(index) -> property:
    return property(lambda self: self.vec[..., index])


def _tensor_slot(block: slice) -> property:
    return property(lambda self: self.vec[..., block].reshape(self.vec.shape[:-1] + (3, 3)))


@dataclass(frozen=True)
class _SlotVector:
    """A (..., 29) array in the slot layout fixed by ``materials``."""

    vec: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vec, dtype=float)
        if v.shape[-1:] != (29,):
            raise ValueError(f"slot vector must have 29 slots, got {v.shape}")
        object.__setattr__(self, "vec", v)


class StrainVector(_SlotVector):
    """The 29 strain slots: e (9, symmetric), g (9), φ¹, φ², d, ∇φ¹, ∇φ²."""

    e = _tensor_slot(E_BLOCK)
    g = _tensor_slot(G_BLOCK)
    phi1 = _slot(PHI1_SLOT)
    phi2 = _slot(PHI2_SLOT)
    d = _slot(D_BLOCK)
    grad_phi1 = _slot(GPHI1_BLOCK)
    grad_phi2 = _slot(GPHI2_BLOCK)


class GeneralizedStress(_SlotVector):
    """The stress collection {S¹, S², g¹, g², p, h¹, h²} conjugate to E(U).

    ``vec`` follows the row layout of ``stress_component_matrix``: S¹ (9,
    stored [i, j] = S¹_ji), S² (9), g¹, g², p (3), h¹ (3), h² (3), so each
    part sits in the slots of the strain it pairs with.
    """

    S1 = _tensor_slot(E_BLOCK)
    S2 = _tensor_slot(G_BLOCK)
    g1 = _slot(PHI1_SLOT)
    g2 = _slot(PHI2_SLOT)
    p = _slot(D_BLOCK)
    h1 = _slot(GPHI1_BLOCK)
    h2 = _slot(GPHI2_BLOCK)


@dataclass(frozen=True)
class TractionSample:
    """Surface tractions s^α = S^α·n and fluxes h^α = h^α·n for unit normals n."""

    s1: np.ndarray
    s2: np.ndarray
    h1: float
    h2: float


def _dot(x, y):
    """Contraction over the trailing axis, batched over the leading ones."""
    return np.einsum("...i,...i->...", x, y)


def _ddot(x, y):
    """Contraction over the two trailing axes, batched over the leading ones."""
    return np.einsum("...ij,...ij->...", x, y)


def _matmul(x, m):
    """x @ m point by point, for rows x (..., n) and matrices m (..., n, p).

    A (k, 1) stack of matrices takes its (k, s) rows in one matmul per matrix,
    as one matrix takes its s rows, so a stacked law rounds as a single one.
    """
    if np.ndim(m) == 2:
        return x @ m
    if m.shape[-3] == 1 and np.ndim(x) > 1:
        return x @ m[..., 0, :, :]
    return (x[..., None, :] @ m)[..., 0, :]


def strain_vector(ps: PointState) -> StrainVector:
    """Kinematic map: e = sym ∇u¹, g = (∇u¹)ᵀ + ∇u², d = u¹ − u²."""
    G1 = np.asarray(ps.grad_u1, dtype=float)
    G1t = np.swapaxes(G1, -1, -2)
    batch = G1.shape[:-2]
    vec = np.empty(batch + (29,))
    vec[..., E_BLOCK] = (0.5 * (G1 + G1t)).reshape(batch + (9,))
    vec[..., G_BLOCK] = (G1t + ps.grad_u2).reshape(batch + (9,))
    vec[..., PHI1_SLOT] = ps.phi1
    vec[..., PHI2_SLOT] = ps.phi2
    vec[..., D_BLOCK] = np.subtract(ps.u1, ps.u2)
    vec[..., GPHI1_BLOCK] = ps.grad_phi1
    vec[..., GPHI2_BLOCK] = ps.grad_phi2
    return StrainVector(vec)


def form_image(consts: MaterialConstants, E: StrainVector) -> np.ndarray:
    """𝒜E, with 𝒜 = ``consts.form``: the energy gradient, W = ½ E·𝒜E."""
    return _matmul(E.vec, consts.form.matrix)


def generalized_stress(consts: MaterialConstants, E: StrainVector) -> GeneralizedStress:
    """Evaluate the constitutive law S = Σ E, with Σ = ``consts.stress_matrix``.

    Raises:
        SymmetryViolation: if the constants fail the symmetry checks.
    """
    return GeneralizedStress(_matmul(E.vec, consts.stress_matrix.mT))


def reduced_generalized_stress(consts: MaterialConstants, red, ps: PointState) -> GeneralizedStress:
    """Constitutive law in gradient form, from the collapsed coefficients.

    Must agree slot by slot with :func:`generalized_stress` on the strain
    vector of the same point state; the pair forms the dual-formula
    cross-check used by the constitutive suite.
    """
    G1, G2 = ps.grad_u1, ps.grad_u2
    phi1, phi2 = (np.asarray(phi, dtype=float) for phi in (ps.phi1, ps.phi2))
    d = np.subtract(ps.u1, ps.u2)
    # S¹ and S² flattened: a, b, d act as 9 × 9 matrices on the flattened gradients
    f1, f2, tau, sigma, M, N = (np.reshape(x, np.shape(x)[:-2] + (9,)) for x in (
        G1, G2, red.tau, red.sigma, consts.M, consts.N))
    a4, b4, d4 = (np.reshape(t, t.shape[:-4] + (9, 9)) for t in (red.a, red.b, red.d))
    s1 = _matmul(f1, a4.mT) + _matmul(f2, b4.mT) + tau * phi1[..., None] + sigma * phi2[..., None]
    s2 = _matmul(f1, b4) + _matmul(f2, d4.mT) + M * phi1[..., None] + N * phi2[..., None]
    g1 = -_ddot(red.tau, G1) - _ddot(consts.M, G2) - consts.zeta * phi1 - consts.tau * phi2
    g2 = -_ddot(red.sigma, G1) - _ddot(consts.N, G2) - consts.tau * phi1 - consts.mu * phi2
    gp1, gp2 = ps.grad_phi1, ps.grad_phi2
    p = _matmul(d, consts.a.mT) + _matmul(gp1, consts.b.mT) + _matmul(gp2, consts.c.mT)
    h1 = _matmul(gp1, consts.alpha.mT) + _matmul(gp2, consts.beta.mT) + _matmul(d, consts.b)
    h2 = _matmul(gp1, consts.beta) + _matmul(gp2, consts.gamma.mT) + _matmul(d, consts.c)
    batch = np.shape(g1)
    parts = (s1, s2, g1, g2, p, h1, h2)
    return GeneralizedStress(np.concatenate([np.reshape(x, batch + (-1,)) for x in parts], axis=-1))


def stress_magnitude(S: GeneralizedStress):
    """sqrt of Σ_α (S^α:S^α + h^α·h^α + g^α g^α) + p·p, the norm of ``S.vec``."""
    return np.linalg.norm(S.vec, axis=-1)


def traction(S: GeneralizedStress, n: np.ndarray) -> TractionSample:
    """Surface tractions for unit normals n (..., 3): s^α_i = S^α_ji n_j, h^α = h^α·n.

    Raises:
        BadNormal: if some |n| deviates from 1 by more than the tolerance.
    """
    n = np.asarray(n, dtype=float)
    if n.shape[-1:] != (3,) or np.any(np.abs(np.linalg.norm(n, axis=-1) - 1.0) > NORMAL_TOL):
        raise BadNormal(f"normal must be a unit 3-vector, got {n!r}")
    return TractionSample(
        s1=np.einsum("...ij,...j->...i", S.S1, n),
        s2=np.einsum("...ij,...j->...i", S.S2, n),
        h1=_dot(S.h1, n),
        h2=_dot(S.h2, n),
    )


def _stress_power(S: GeneralizedStress, E_like: StrainVector, G1: np.ndarray, G2: np.ndarray):
    """Σ_α [S^α_ji u^α_{i,j} + p·d + h^α·∇φ^α − g^α φ^α] for the given gradients."""
    return (
        _ddot(S.S1, G1)
        + _ddot(S.S2, G2)
        + _dot(S.p, E_like.d)
        + _dot(S.h1, E_like.grad_phi1)
        + _dot(S.h2, E_like.grad_phi2)
        - S.g1 * E_like.phi1
        - S.g2 * E_like.phi2
    )


def power_residual(S: GeneralizedStress, AE: np.ndarray, E_like: StrainVector, G1, G2):
    """|E'·𝒜E − Σ_α[S:∇u' + p·d' + h·∇φ' − gφ']| of a state's S = ΣE and AE = 𝒜E for a
    strain E' with displacement gradients G1, G2: the static identity's residual for
    E' = E, the rate identity's for E' = Ė."""
    return np.abs(_dot(AE, E_like.vec) - _stress_power(S, E_like, G1, G2))

