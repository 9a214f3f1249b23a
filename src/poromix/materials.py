"""Constitutive constants of a binary porous elastic mixture.

The stored energy density of the linear, homogeneous, centrosymmetric mixture
is a quadratic form in the 29-component generalized strain

    E(U) = { e_ij (9), g_ij (9), φ¹, φ², d_i (3), φ¹,_i (3), φ²,_i (3) }

with e the symmetric strain of constituent 1, g_ij = u¹_{j,i} + u²_{i,j} the
mixed two-constituent gradient measure, d = u¹ − u² the relative displacement
and φᵅ the volume-fraction changes::

    2 W(U) = E(U) · 𝒜 E(U),     𝒜 = blockdiag(𝒜₁ (20×20), 𝒜₂ (9×9))

This module holds the constants.  Each :class:`MaterialConstants` derives
its law once, on first use: ``form`` (𝒜 with its eigen-bounds), ``speed``
(the bounding signal speed c = sqrt(ξ_M / m) used by the spatial-behaviour
diagnostics), ``stress_matrix`` (the literal stress map Σ) and
``coupled_stress_bound`` (the pencil of Σ against 𝒜 on the coupled block).  Slot layout
is frozen in ``SLOT_LABELS``; (i, j) pairs flatten row-major, so the pair
Γ = (i, j) occupies slot 3i + j of its block.

A law may hold a stack of materials: every field, and every derived quantity,
then carries the same leading batch shape ``(...)``, so 𝒜 and Σ are
``(..., 29, 29)`` and ξ_m, ξ_M, c are ``(...)`` arrays (floats for one material).

A subtlety worth spelling out: for constants satisfying the required symmetry
relations, the three antisymmetric directions of the e-block are exact null
vectors of 𝒜 (the slots exist but no realizable strain populates them).  The
elastic moduli ξ_m, ξ_M are therefore the extreme eigenvalues of 𝒜 restricted
to the 26-dimensional realizable subspace; ξ_M coincides with the full-matrix
maximum, the full-matrix minimum is structurally zero.  As 𝒜 is block
diagonal, they are the extremes of two smaller eigensolves: of 𝒜₁ on its 17
realizable slots and of 𝒜₂.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, replace
from functools import cache, cached_property

import numpy as np

from .errors import InvalidParameter, NotPositiveDefinite, SymmetryViolation

# Strict-definiteness margin for admissibility: keeps c and decay rates
# numerically meaningful on near-singular inputs.
ADMISSIBILITY_MARGIN = 1e-10

SYMMETRY_TOL = 1e-12

# Slot layout of the 29-component strain/conjugate vectors.
E_BLOCK = slice(0, 9)
G_BLOCK = slice(9, 18)
PHI1_SLOT = 18
PHI2_SLOT = 19
D_BLOCK = slice(20, 23)
GPHI1_BLOCK = slice(23, 26)
GPHI2_BLOCK = slice(26, 29)

SLOT_LABELS = tuple(
    [f"e_{i + 1}{j + 1}" for i in range(3) for j in range(3)]
    + [f"g_{i + 1}{j + 1}" for i in range(3) for j in range(3)]
    + ["phi1", "phi2"]
    + [f"d_{i + 1}" for i in range(3)]
    + [f"gphi1_{i + 1}" for i in range(3)]
    + [f"gphi2_{i + 1}" for i in range(3)]
)


def pair_slot(i: int, j: int) -> int:
    """Row-major slot of the index pair (i, j) within a 9-slot block."""
    return 3 * i + j


_TENSOR_SHAPES = {
    "A": (3, 3, 3, 3),
    "B": (3, 3, 3, 3),
    "C": (3, 3, 3, 3),
    "D": (3, 3),
    "E": (3, 3),
    "M": (3, 3),
    "N": (3, 3),
    "alpha": (3, 3),
    "beta": (3, 3),
    "gamma": (3, 3),
    "a": (3, 3),
    "b": (3, 3),
    "c": (3, 3),
}
_INERTIAS = ("rho1", "rho2", "chi1", "chi2")
_SCALARS = ("zeta", "mu", "tau") + _INERTIAS

MATERIAL_KEYS = tuple(_TENSOR_SHAPES) + _SCALARS


def _unbatched(x):
    """A plain float for a single material's scalar, the array for a stack."""
    return float(x) if np.ndim(x) == 0 else x


@cache
def _ix_axes(order: str, ndim: int) -> tuple[int, ...]:
    lead = ndim - 4
    return (*range(lead), *(lead + order.index(index) for index in "ijrs"))


def _ix(t: np.ndarray, order: str) -> np.ndarray:
    """The rank-4 t re-indexed, over any batch axes: ``_ix(A, "jirs")_ijrs = A_jirs``.
    A transposed view of t."""
    return t.transpose(_ix_axes(order, t.ndim))


@dataclass(frozen=True)
class MaterialConstants:
    """All constitutive tensors and densities; single source of truth.

    Tensor index conventions follow the stored-energy density: A, B, C are
    rank-4 (strain/gradient couplings), D/E/M/N couple strains to the
    volume fractions, alpha/beta/gamma act on fraction gradients, a/b/c on
    the relative displacement, zeta/mu/tau are the fraction-fraction
    coefficients, rho/chi the bulk densities and equilibrated inertias.
    All values are nondimensional; the package never converts units.
    A stack of materials gives every field the same leading batch shape.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    E: np.ndarray
    M: np.ndarray
    N: np.ndarray
    zeta: float
    mu: float
    tau: float
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    rho1: float
    rho2: float
    chi1: float
    chi2: float

    def __post_init__(self):
        for name in MATERIAL_KEYS:
            value = getattr(self, name)
            try:
                arr = np.array(value, dtype=float)
            except (TypeError, ValueError):
                raise InvalidParameter(f"{name} must be numeric, got {value!r}") from None
            if name == "A":  # the first key; it sets the batch shape of all
                batch = arr.shape[:-4]
            shape = batch + _TENSOR_SHAPES.get(name, ())
            if arr.shape != shape:
                raise InvalidParameter(f"{name} must have shape {shape}, got {arr.shape}")
            if not np.isfinite(arr).all():
                raise InvalidParameter(f"{name} contains non-finite entries")
            if name in _INERTIAS and not (arr > 0.0).all():
                raise InvalidParameter(f"{name} must be strictly positive")
            arr.setflags(write=False)
            object.__setattr__(self, name, _unbatched(arr))

    @cached_property
    def form(self) -> "QuadraticForm":
        """𝒜 with its realizable eigen-bounds, computed once.

        Raises:
            SymmetryViolation: if a required symmetry relation fails.
        """
        return _gated_form(self, quadratic_form_matrix(self))

    @cached_property
    def speed(self) -> "SpeedParams":
        """Bounding signal speed c = sqrt(ξ_M / m), computed once.

        m = min{ρ¹, ρ², ρ¹χ¹, ρ²χ²}; the moduli bound the stored energy,
        ξ_m|E|² ≤ 2W(E) ≤ ξ_M|E|², for every realizable strain E.

        Raises:
            SymmetryViolation: as ``form``.
            NotPositiveDefinite: unless ξ_m > ``ADMISSIBILITY_MARGIN``, or if some
                entry of 𝒜 overflows (before any eigensolve, which would not converge).
        """
        form = self.form
        if not np.isfinite(form.matrix).all():
            raise NotPositiveDefinite("the quadratic form has non-finite entries: "
                                      "the constants overflow float64")
        if np.any(form.xi_min <= ADMISSIBILITY_MARGIN):
            raise NotPositiveDefinite(
                f"stored energy is not positive definite on the realizable subspace "
                f"(xi_min = {np.min(form.xi_min):.3e} <= {ADMISSIBILITY_MARGIN:.1e})"
            )
        m = np.minimum.reduce([self.rho1, self.rho2, self.rho1 * self.chi1, self.rho2 * self.chi2])
        return SpeedParams(m_inertia=_unbatched(m), c=_unbatched(np.sqrt(form.xi_max / m)))

    @cached_property
    def stress_matrix(self) -> np.ndarray:
        """Σ of :func:`stress_component_matrix` (read-only), computed once.

        Raises:
            SymmetryViolation: as ``form``.
        """
        self.form  # the symmetry gate
        sig = stress_component_matrix(self)
        sig.setflags(write=False)
        return sig

    @cached_property
    def coupled_stress_bound(self) -> np.ndarray:
        """``_coupled_stress_bound`` of the constants, computed once; gated as ``form``."""
        return _coupled_stress_bound(self.stress_matrix, self.form.matrix)


def _gated_form(consts: MaterialConstants, matrix: np.ndarray) -> "QuadraticForm":
    """The form of 𝒜 = ``matrix`` of ``consts``, behind their symmetry gate.  The relations need
    only hold to ``SYMMETRY_TOL``, so it is ½(𝒜 + 𝒜ᵀ), 𝒜 itself bit for bit if symmetric."""
    report = validate_symmetries(consts)
    if not report.ok:
        raise SymmetryViolation(str(report))
    with np.errstate(over="ignore"):  # ``speed`` refuses an overflow
        matrix = 0.5 * (matrix + matrix.mT)
    return QuadraticForm(matrix)


@dataclass(frozen=True)
class SymmetryReport:
    """Violated symmetry relations with their maximum absolute deviation."""

    violations: tuple[tuple[str, float], ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "all symmetry relations hold"
        return "; ".join(f"{name} violated by {dev:.3e}" for name, dev in self.violations)


def validate_symmetries(consts: MaterialConstants) -> SymmetryReport:
    """Check the required symmetry relations of the constitutive constants.

    The checked list is exactly: A_ijrs = A_jirs = A_rsij, B_ijrs = B_jirs,
    C_ijrs = C_rsij, a_ij = a_ji, alpha_ij = alpha_ji, gamma_ij = gamma_ji,
    D_ij = D_ji, E_ij = E_ji, each to ``SYMMETRY_TOL``; on a stack, a relation
    fails if it fails for any material, by the largest deviation.
    Report-style: never raises.
    """
    A, B, C = consts.A, consts.B, consts.C
    checks = [
        ("A_ijrs=A_jirs", A - _ix(A, "jirs")),
        ("A_ijrs=A_rsij", A - _ix(A, "rsij")),
        ("B_ijrs=B_jirs", B - _ix(B, "jirs")),
        ("C_ijrs=C_rsij", C - _ix(C, "rsij")),
        ("a_ij=a_ji", consts.a - consts.a.mT),
        ("alpha_ij=alpha_ji", consts.alpha - consts.alpha.mT),
        ("gamma_ij=gamma_ji", consts.gamma - consts.gamma.mT),
        ("D_ij=D_ji", consts.D - consts.D.mT),
        ("E_ij=E_ji", consts.E - consts.E.mT),
    ]
    worst = [(name, float(np.max(np.abs(dev)))) for name, dev in checks]
    return SymmetryReport(tuple((name, dev) for name, dev in worst if dev > SYMMETRY_TOL))


@dataclass(frozen=True)
class QuadraticForm:
    """The symmetric 29×29 matrix 𝒜 = blockdiag(𝒜₁, 𝒜₂) with its realizable eigen-bounds.

    𝒜₁ sits on slots 0..19 (e, g, φ¹, φ²), 𝒜₂ on slots 20..28 (d, ∇φ¹, ∇φ²).
    Shape, exact symmetry and zero coupling blocks are checked on construction.
    The bounds are worked out from the two diagonal blocks on first use, by one
    eigensolve each: ``a1_bounds``, the extreme eigenvalues of 𝒜₁ on its 17
    realizable (symmetric-e) slots, and ``a2_bounds``, those of 𝒜₂.  ``xi_min``
    and ``xi_max`` are the extremes of the two, the extreme eigenvalues of 𝒜 on
    the realizable subspace.  A ``(..., 29, 29)`` stack gives ``(...)`` bounds.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.shape[-2:] != (29, 29):
            raise InvalidParameter(f"quadratic form must be 29×29, got {m.shape}")
        if not np.array_equal(m, m.mT):
            raise SymmetryViolation("assembled quadratic form is not exactly symmetric")
        if np.any(m[..., :20, 20:]):
            raise InvalidParameter("quadratic form couples its two diagonal blocks")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @cached_property
    def a1_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """The least and largest eigenvalue of 𝒜₁ on its 17 realizable slots."""
        eigs = np.linalg.eigvalsh(_restricted_a1(self.matrix))
        return eigs[..., 0], eigs[..., -1]

    @cached_property
    def a2_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """The least and largest eigenvalue of 𝒜₂."""
        eigs = np.linalg.eigvalsh(self.matrix[..., 20:, 20:])
        return eigs[..., 0], eigs[..., -1]

    @cached_property
    def _bounds(self) -> tuple[float, float]:
        (min1, max1), (min2, max2) = self.a1_bounds, self.a2_bounds
        return _unbatched(np.minimum(min1, min2)), _unbatched(np.maximum(max1, max2))

    xi_min = property(lambda self: self._bounds[0])
    xi_max = property(lambda self: self._bounds[1])


def symmetric_subspace_basis() -> np.ndarray:
    """Orthonormal basis (29×26) of the realizable subspace (e symmetric)."""
    q = np.zeros((29, 26))
    col = 0
    for i in range(3):  # diagonal e-slots
        q[pair_slot(i, i), col] = 1.0
        col += 1
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for i in range(3):  # symmetric off-diagonal combinations
        for j in range(i + 1, 3):
            q[pair_slot(i, j), col] = inv_sqrt2
            q[pair_slot(j, i), col] = inv_sqrt2
            col += 1
    q[9:, col:] = np.eye(20)
    return q


# The realizable slots of 𝒜₁: the first 17 columns of the basis span its 20 slots.
_SYM_BASIS_1 = symmetric_subspace_basis()[:20, :17]


def _restricted_a1(matrix: np.ndarray) -> np.ndarray:
    """𝒜₁ of the 29×29 ``matrix`` on its 17 realizable slots, exactly symmetric."""
    restricted = _SYM_BASIS_1.T @ matrix[..., :20, :20] @ _SYM_BASIS_1
    return 0.5 * (restricted + restricted.mT)


def _blocks(consts: MaterialConstants) -> list[np.ndarray]:
    """A, B, C as 9×9, D, E, M, N as 9×1 and ζ, μ, τ as 1×1 matrices, over any batch."""
    batch = np.shape(consts.zeta)
    return ([np.reshape(getattr(consts, key), batch + (9, 9)) for key in "ABC"]
            + [np.reshape(getattr(consts, key), batch + (9, 1)) for key in "DEMN"]
            + [np.reshape(getattr(consts, key), batch + (1, 1)) for key in ("zeta", "mu", "tau")])


def _block(rows: list[list[np.ndarray]]) -> np.ndarray:
    """``np.block`` of rows of matrices with common batch axes, without its checks."""
    return np.concatenate([np.concatenate(row, axis=-1) for row in rows], axis=-2)


def _block_diag(a1: np.ndarray, c: MaterialConstants) -> np.ndarray:
    """blockdiag(a1, 𝒜₂): a1 on the 20 coupled slots, the shared 𝒜₂ block on the other 9."""
    a2 = _block([[c.a, c.b, c.c], [c.b.mT, c.alpha, c.beta], [c.c.mT, c.beta.mT, c.gamma]])
    zeros = np.zeros(a1.shape[:-2] + (20, 9))
    return _block([[a1, zeros], [zeros.mT, a2]])


def quadratic_form_matrix(consts: MaterialConstants) -> np.ndarray:
    """The 29×29 matrix 𝒜 = blockdiag(𝒜₁, 𝒜₂) of the constants, unvalidated."""
    A, B, C, D, E, M, N, zeta, mu, tau = _blocks(consts)
    a1 = _block([[A, B, D, E], [B.mT, C, M, N], [D.mT, M.mT, zeta, tau], [E.mT, N.mT, tau, mu]])
    return _block_diag(a1, consts)


@dataclass(frozen=True)
class SpeedParams:
    """Bounding signal speed c = sqrt(ξ_M / m)."""

    m_inertia: float
    c: float


@dataclass(frozen=True)
class ReducedConstants:
    """Gradient-form coefficients of the constitutive law.

    a_ijrs = A_jirs + B_rsji + B_jisr + C_jisr,  b_ijrs = B_jirs + C_jirs,
    d_ijrs = C_ijrs,  tau_ij = D_ij + M_ij,  sigma_ij = E_ij + N_ij.
    They satisfy a_ijrs = a_rsij and d_ijrs = d_rsij.
    """

    a: np.ndarray
    b: np.ndarray
    d: np.ndarray
    tau: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        for name in ("a", "b", "d", "tau", "sigma"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def reduced_constants(consts: MaterialConstants) -> ReducedConstants:
    """Collapse the strain-measure constitutive law into gradient form (unvalidated)."""
    A, B, C = consts.A, consts.B, consts.C
    a4 = _ix(A, "jirs") + _ix(B, "rsji") + _ix(B, "jisr") + _ix(C, "jisr")
    b4 = _ix(B + C, "jirs")
    return ReducedConstants(a=a4, b=b4, d=C.copy(),
                            tau=consts.D + consts.M, sigma=consts.E + consts.N)


# ---------------------------------------------------------------------------
# Literal stress-component map and its operator-level energy bound.
# ---------------------------------------------------------------------------


def stress_component_matrix(consts: MaterialConstants) -> np.ndarray:
    """The 29×29 linear map Σ from strain slots to stress components, unvalidated.

    ``MaterialConstants.stress_matrix`` keeps it behind the symmetry gate.
    This is the constitutive law: ``pointwise.generalized_stress`` is S = ΣE.
    Row layout mirrors the strain slots: S¹ (9, stored [i,j] = S¹_ji),
    S² (9), g¹, g², p (3), h¹ (3), h² (3).  |S(E)|² = |Σ E|².  Note Σ is not
    𝒜: the g-conjugate enters both S¹ and S², so |ΣE|² can exceed E·𝒜²E.
    """
    A, B, C, D, E, M, N, zeta, mu, tau = _blocks(consts)
    # S1[i,j] = S1_ji = (A_jirs + B_rsji) e_rs + (B_ijrs + C_jirs) g_rs
    #           + (D_ij + M_ij) φ1 + (E_ij + N_ij) φ2
    ce1 = (_ix(consts.A, "jirs") + _ix(consts.B, "rsji")).reshape(A.shape)
    cg1 = (consts.B + _ix(consts.C, "jirs")).reshape(A.shape)
    # S2[i,j] = S2_ji = B_rsij e_rs + C_ijrs g_rs + M_ij φ1 + N_ij φ2
    # g1 = -D:e - M:g - ζφ1 - τφ2 ; g2 = -E:e - N:g - τφ1 - μφ2
    # p, h1, h2: identical to the 𝒜₂ block (each component appears once).
    return _block_diag(_block([[ce1, cg1, D + M, E + N], [B.mT, C, M, N],
                                 [-D.mT, -M.mT, -zeta, -tau], [-E.mT, -N.mT, -tau, -mu]]), consts)


def _coupled_stress_bound(sigma: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """sup |Σ₁E₁|² / (E₁·𝒜₁E₁) over realizable E₁, for the Σ₁ and 𝒜₁ of ``sigma``, ``matrix``:
    the largest eigenvalue of the pencil (ΣᵀΣ, 𝒜) restricted to the 17 realizable slots
    of 𝒜₁ (e symmetric, g, φ¹, φ²); 𝒜₁ must be definite there."""
    sig1 = sigma[..., :20, :20]
    b1 = _SYM_BASIS_1.T @ (sig1.mT @ sig1) @ _SYM_BASIS_1
    inv_ell = np.linalg.inv(np.linalg.cholesky(_restricted_a1(matrix)))
    pencil = inv_ell @ (0.5 * (b1 + b1.mT)) @ inv_ell.mT
    return np.linalg.eigvalsh(0.5 * (pencil + pencil.mT))[..., -1]


def worst_stress_energy_ratio(consts: MaterialConstants) -> float:
    """Exact operator bound sup_E |S(E)|² / (2 ξ_M W(E)) over realizable E.

    Computed as a generalized eigenproblem of ΣᵀΣ against 𝒜 on the realizable
    subspace.  The two diagonal blocks decouple, and Σ₂ = 𝒜₂, so the bound is
    the larger of ``coupled_stress_bound`` and 𝒜₂'s largest eigenvalue, which
    the form holds, over ξ_M: no eigensolve of its own.  A value ≤ 1 certifies
    the stress-energy inequality |S|² ≤ 2 ξ_M W for every state of this material.

    Raises:
        NotPositiveDefinite: if the material is inadmissible.
    """
    consts.speed  # the admissibility gate
    form = consts.form
    return _unbatched(np.maximum(consts.coupled_stress_bound, form.a2_bounds[1]) / form.xi_max)


def _sym4_full(t: np.ndarray) -> np.ndarray:
    """Project onto tensors with A_ijrs = A_jirs = A_rsij (and hence = A_ijsr), over any batch."""
    t = 0.5 * (t + _ix(t, "jirs"))
    t = 0.5 * (t + _ix(t, "ijsr"))
    return 0.5 * (t + _ix(t, "rsij"))


def _iso4(lam: float, mu: float) -> np.ndarray:
    """Isotropic rank-4 tensor λ δδ + μ(δδ + δδ)."""
    eye = np.eye(3)
    return (
        lam * np.einsum("ij,rs->ijrs", eye, eye)
        + mu * np.einsum("ir,js->ijrs", eye, eye)
        + mu * np.einsum("is,jr->ijrs", eye, eye)
    )


def _delta4() -> np.ndarray:
    """δ_ir δ_js (identity on a flattened 9-slot block; pair-exchange symmetric)."""
    eye = np.eye(3)
    return np.einsum("ir,js->ijrs", eye, eye)


# The constant parts of a draw and the per-block unit steps of a certification:
# the fields of ``identity_material``, so a step of s raises both bounds by s.
_DRAW_A, _DRAW_C = _iso4(0.4, 0.4), 0.4 * _delta4()
_CERTIFY_STEPS = dict(A=_iso4(0.0, 0.5), C=_delta4(), zeta=1.0, mu=1.0,
                      alpha=np.eye(3), gamma=np.eye(3), a=np.eye(3))


def _material(**given) -> MaterialConstants:
    """Constants with the given values; every other tensor and scalar is 0, ρ and χ are 1."""
    values = {name: np.zeros(shape) for name, shape in _TENSOR_SHAPES.items()}
    values.update({name: float(name in _INERTIAS) for name in _SCALARS})
    return MaterialConstants(**(values | given))


def identity_material() -> MaterialConstants:
    """Admissible material whose quadratic form is the identity on realizable strains."""
    return _material(**_CERTIFY_STEPS)


@cache
def _step_form() -> np.ndarray:
    """𝒜 of the certify steps, read-only: shifting the constants by s·step adds s times it."""
    return identity_material().form.matrix


def decoupled_material() -> MaterialConstants:
    """Nearly decoupled isotropic mixture for plane-wave oracle runs.

    All value couplings vanish; the constituent cross-gradient stiffness is
    0.01 (it cannot be exactly zero or the g-block of 𝒜 is singular) and
    the relative-displacement spring is 0.05 (small, so the algebraic
    constituent coupling barely perturbs the plane-wave branches).  The
    fraction value blocks carry the ξ_M headroom that certifies the
    stress-energy inequality.
    """
    return _material(A=_iso4(0.5, 0.5), C=0.01 * _delta4(), zeta=2.6, mu=2.6,
                     alpha=0.5 * np.eye(3), gamma=0.5 * np.eye(3), a=0.05 * np.eye(3))


# A material's N(0, 1) draws fill its tensors and scalars in field order.
_DRAW_ORDER = [name for name in MaterialConstants.__dataclass_fields__ if name not in _INERTIAS]
_DRAW_ENDS = np.cumsum([np.prod(_TENSOR_SHAPES.get(name, ()), dtype=int) for name in _DRAW_ORDER])
# Each field's name, shape and first and end draw.
_DRAW_PARTS = [(name, _TENSOR_SHAPES.get(name, ()), int(start), int(end))
               for name, start, end in zip(_DRAW_ORDER, [0, *_DRAW_ENDS[:-1]], _DRAW_ENDS)]


def _material_draws(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One material's raw draws: N(0, 1) tensors and scalars, then U(0.6, 1.8) inertias."""
    return rng.standard_normal(_DRAW_ENDS[-1]), rng.uniform(0.6, 1.8, len(_INERTIAS))


def _drawn_constants(normals: np.ndarray, uniforms: np.ndarray) -> dict:
    """Raw constants keyed by ``MATERIAL_KEYS`` from ``_material_draws`` with any batch
    axes: every tensor projected onto the required symmetries (M and N too, so the
    printed law derives from the energy density), the couplings scaled by 0.25 and
    isotropic diagonal stiffness added."""
    lead = normals.shape[:-1]
    raw = {name: normals[..., start:end].reshape(lead + shape)
           for name, shape, start, end in _DRAW_PARTS}
    sym = {name: 0.5 * (raw[name] + raw[name].mT)
           for name in ("D", "E", "M", "N", "alpha", "gamma", "a")}
    cpl = 0.25
    return dict(
        A=_DRAW_A + 0.35 * _sym4_full(raw["A"]),
        B=cpl * 0.5 * (raw["B"] + _ix(raw["B"], "jirs")),
        C=_DRAW_C + 0.3 * (0.5 * (raw["C"] + _ix(raw["C"], "rsij"))),
        **{name: cpl * sym[name] for name in "DEMN"},
        **{name: 1.0 + 0.3 * raw[name] for name in ("zeta", "mu")},
        **{name: np.eye(3) + 0.3 * sym[name] for name in ("alpha", "gamma", "a")},
        **{name: cpl * raw[name] for name in ("tau", "beta", "b", "c")},
        **dict(zip(_INERTIAS, np.moveaxis(uniforms, -1, 0))),
    )


def draw_material(rng: np.random.Generator) -> dict:
    """Raw constants of one random material, keyed by ``MATERIAL_KEYS``, from two
    generator calls: ``_drawn_constants`` of ``_material_draws``."""
    return _drawn_constants(*_material_draws(rng))


def _shift(t, s, where, step):
    """t + s·step for the materials selected by ``where``, t for the others."""
    s = np.reshape(s, np.shape(s) + (1,) * (np.ndim(t) - np.ndim(s)))
    out = np.asarray(t + s * step)
    np.copyto(out, t, where=~np.reshape(where, np.shape(s)))
    return out


def certify_material(consts: MaterialConstants) -> MaterialConstants:
    """Make drawn constants admissible and certified, each material of a stack alone.

    The block diagonals are shifted until ξ_m clears the definiteness margin with
    room to spare; then the relative-displacement/fraction-gradient block is raised
    until ξ_M dominates the exact operator bound of the literal stress map.  That
    certifies |S(E)|² ≤ 2 ξ_M W(E) for every state, hence the c-bounded signal speed
    the decay and influence suites assume.  The block enters the stress map once per
    component, so raising it never degrades the certified inequality.

    It costs one assembly of 𝒜 (drawn) and of Σ (shifted), the drawn form's two block
    eigensolves, one pencil and a solve of the certified 𝒜₂: the steps raise every
    bound by s and shift 𝒜 by s·``_step_form()``, and ``a`` fills one block of 𝒜₂ = Σ₂.
    So the certified law carries 𝒜, Σ, the pencil and the 𝒜₁ bounds, bit for bit a
    fresh derivation (a draw's 𝒜 is exactly symmetric), behind its own symmetry gate."""
    floor = 0.08
    form = consts.form
    low, s = form.xi_min < floor, floor - np.asarray(form.xi_min)
    a1_bounds = tuple(np.where(low, bound + s, bound) for bound in form.a1_bounds)
    xi_max = np.where(low, form.xi_max + s, form.xi_max)
    consts = replace(consts, **{name: _shift(getattr(consts, name), s, low, step)
                                for name, step in _CERTIFY_STEPS.items()})
    matrix, sigma = _shift(form.matrix, s, low, _step_form()), stress_component_matrix(consts)
    # Raising the relative-displacement block lifts xi_max without touching
    # any acoustic branch (it is a pure value channel).
    kappa = _coupled_stress_bound(sigma, matrix)
    s2 = kappa - np.linalg.eigvalsh(consts.a)[..., -1]
    certified = replace(consts, a=_shift(consts.a, s2, (xi_max < kappa) & (s2 > 0.0), _CERTIFY_STEPS["a"]))
    matrix[..., D_BLOCK, D_BLOCK] = sigma[..., D_BLOCK, D_BLOCK] = certified.a  # 𝒜₂'s a block
    sigma.setflags(write=False)
    form = _gated_form(certified, matrix)
    form.__dict__["a1_bounds"] = a1_bounds
    form.a2_bounds  # a may have been raised: one solve of 𝒜₂
    certified.__dict__.update(form=form, stress_matrix=sigma, coupled_stress_bound=kappa)
    return certified


def random_material(seed: int | np.random.Generator = 0) -> MaterialConstants:
    """Seeded random admissible material: ``draw_material``, then ``certify_material``."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return certify_material(MaterialConstants(**draw_material(rng)))


# ---------------------------------------------------------------------------
# Material file I/O: line-oriented "key = value" text, nested arrays in
# row-major index order, full-precision floats.
# ---------------------------------------------------------------------------


def save_material(consts: MaterialConstants, path) -> None:
    """Write the constants to a structured text file (documented schema)."""
    lines = ["# porous mixture material (nondimensional units)"]
    for key in MATERIAL_KEYS:
        value = getattr(consts, key)
        lines.append(f"{key} = {value if isinstance(value, float) else value.tolist()!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_lines(path) -> list[str]:
    """The lines of the UTF-8 text file at ``path``, as ``open`` reads them.

    Raises:
        OSError: if the file cannot be read.
        InvalidParameter: ``<path>: line N: not UTF-8 text``, N the line of
            the first byte that is not UTF-8.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return io.StringIO(data.decode("utf-8"), newline=None).readlines()
    except UnicodeDecodeError as exc:
        # the bytes before the error are UTF-8: the line breaks among them, as open reads them
        line = io.StringIO(data[:exc.start].decode("utf-8"), newline=None).read().count("\n") + 1
        raise InvalidParameter(f"{path}: line {line}: not UTF-8 text") from None


def load_material(path) -> MaterialConstants:
    """Read a material file written by :func:`save_material` (or by hand).

    Keys are exactly the constitutive symbol names; tensor values are nested
    lists in row-major index order and may span lines until their brackets
    balance.

    Raises:
        OSError: if the file cannot be read.
        InvalidParameter: on text that is not UTF-8 (``read_lines``),
            unknown/missing/duplicate keys or bad shapes.
    """
    import ast

    entries: dict[str, str] = {}
    pending_key = None
    pending_val: list[str] = []
    depth = 0
    for lineno, raw in enumerate(read_lines(path), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip() and pending_key is None:
            continue
        if pending_key is None:
            if "=" not in line:
                raise InvalidParameter(f"{path}:{lineno}: expected 'key = value'")
            key, val = line.split("=", 1)
            key = key.strip()
            if key not in MATERIAL_KEYS:
                raise InvalidParameter(f"{path}:{lineno}: unknown key {key!r}")
            if key in entries:
                raise InvalidParameter(f"{path}:{lineno}: duplicate key {key!r}")
            pending_key, pending_val = key, [val]
            depth = val.count("[") - val.count("]")
        else:
            pending_val.append(line)
            depth += line.count("[") - line.count("]")
        if depth == 0:
            entries[pending_key] = " ".join(pending_val)
            pending_key = None
    if pending_key is not None:
        raise InvalidParameter(f"{path}: unbalanced brackets in value of {pending_key!r}")
    missing = [k for k in MATERIAL_KEYS if k not in entries]
    if missing:
        raise InvalidParameter(f"{path}: missing keys {missing}")
    values = {}
    for key, text in entries.items():
        try:
            values[key] = ast.literal_eval(text)
        except (ValueError, SyntaxError):
            raise InvalidParameter(f"{path}: cannot parse value of {key!r}")
    return MaterialConstants(**values)
