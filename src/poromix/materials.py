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
diagnostics) and ``stress_matrix`` (the literal stress map Σ).  Slot layout
is frozen in ``SLOT_LABELS``; (i, j) pairs flatten row-major, so the pair
Γ = (i, j) occupies slot 3i + j of its block.

A subtlety worth spelling out: for constants satisfying the required symmetry
relations, the three antisymmetric directions of the e-block are exact null
vectors of 𝒜 (the slots exist but no realizable strain populates them).  The
elastic moduli ξ_m, ξ_M are therefore the extreme eigenvalues of 𝒜 restricted
to the 26-dimensional realizable subspace; ξ_M coincides with the full-matrix
maximum, the full-matrix minimum is structurally zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

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


def _numeric(name: str, value, convert):
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise InvalidParameter(f"{name} must be numeric, got {value!r}") from None


@dataclass(frozen=True)
class MaterialConstants:
    """All constitutive tensors and densities; single source of truth.

    Tensor index conventions follow the stored-energy density: A, B, C are
    rank-4 (strain/gradient couplings), D/E/M/N couple strains to the
    volume fractions, alpha/beta/gamma act on fraction gradients, a/b/c on
    the relative displacement, zeta/mu/tau are the fraction-fraction
    coefficients, rho/chi the bulk densities and equilibrated inertias.
    All values are nondimensional; the package never converts units.
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
        for name, shape in _TENSOR_SHAPES.items():
            arr = _numeric(name, getattr(self, name), lambda v: np.array(v, dtype=float))
            if arr.shape != shape:
                raise InvalidParameter(f"{name} must have shape {shape}, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise InvalidParameter(f"{name} contains non-finite entries")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        for name in _SCALARS:
            val = _numeric(name, getattr(self, name), float)
            if not np.isfinite(val):
                raise InvalidParameter(f"{name} is not finite")
            object.__setattr__(self, name, val)
        for name in _INERTIAS:
            if getattr(self, name) <= 0.0:
                raise InvalidParameter(f"{name} must be strictly positive")

    @cached_property
    def form(self) -> "QuadraticForm":
        """𝒜 with its realizable eigen-bounds, computed once.

        The relations need only hold to ``SYMMETRY_TOL``, so the form is built
        from ½(𝒜 + 𝒜ᵀ), which is 𝒜 itself, bit for bit, when 𝒜 is symmetric.

        Raises:
            SymmetryViolation: if a required symmetry relation fails.
        """
        report = validate_symmetries(self)
        if not report.ok:
            raise SymmetryViolation(str(report))
        matrix = quadratic_form_matrix(self)
        return QuadraticForm(0.5 * (matrix + matrix.T))

    @cached_property
    def speed(self) -> "SpeedParams":
        """Bounding signal speed c = sqrt(ξ_M / m), computed once.

        m = min{ρ¹, ρ², ρ¹χ¹, ρ²χ²}; the moduli bound the stored energy,
        ξ_m|E|² ≤ 2W(E) ≤ ξ_M|E|², for every realizable strain E.

        Raises:
            SymmetryViolation: as ``form``.
            NotPositiveDefinite: unless ξ_m > ``ADMISSIBILITY_MARGIN``.
        """
        form = self.form
        if form.xi_min <= ADMISSIBILITY_MARGIN:
            raise NotPositiveDefinite(
                f"stored energy is not positive definite on the realizable subspace "
                f"(xi_min = {form.xi_min:.3e} <= {ADMISSIBILITY_MARGIN:.1e})"
            )
        m = min(self.rho1, self.rho2, self.rho1 * self.chi1, self.rho2 * self.chi2)
        return SpeedParams(m_inertia=m, c=float(np.sqrt(form.xi_max / m)))

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
    D_ij = D_ji, E_ij = E_ji, each to ``SYMMETRY_TOL``.  Report-style: never
    raises.
    """
    A, B, C = consts.A, consts.B, consts.C
    checks = [
        ("A_ijrs=A_jirs", A - A.transpose(1, 0, 2, 3)),
        ("A_ijrs=A_rsij", A - A.transpose(2, 3, 0, 1)),
        ("B_ijrs=B_jirs", B - B.transpose(1, 0, 2, 3)),
        ("C_ijrs=C_rsij", C - C.transpose(2, 3, 0, 1)),
        ("a_ij=a_ji", consts.a - consts.a.T),
        ("alpha_ij=alpha_ji", consts.alpha - consts.alpha.T),
        ("gamma_ij=gamma_ji", consts.gamma - consts.gamma.T),
        ("D_ij=D_ji", consts.D - consts.D.T),
        ("E_ij=E_ji", consts.E - consts.E.T),
    ]
    violations = []
    for name, dev in checks:
        worst = float(np.max(np.abs(dev)))
        if worst > SYMMETRY_TOL:
            violations.append((name, worst))
    return SymmetryReport(tuple(violations))


@dataclass(frozen=True)
class QuadraticForm:
    """The symmetric 29×29 matrix 𝒜 with its realizable eigen-bounds.

    ``matrix`` is block diagonal for an assembled material: 𝒜₁ on slots
    0..19 (e, g, φ¹, φ²), 𝒜₂ on slots 20..28 (d, ∇φ¹, ∇φ²).  ``xi_min`` and
    ``xi_max`` are worked out from it: the extreme eigenvalues of 𝒜 on the
    realizable (symmetric-e) subspace.
    """

    matrix: np.ndarray
    xi_min: float = field(init=False)
    xi_max: float = field(init=False)

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.shape != (29, 29):
            raise InvalidParameter(f"quadratic form must be 29×29, got {m.shape}")
        if not np.array_equal(m, m.T):
            raise SymmetryViolation("assembled quadratic form is not exactly symmetric")
        m.setflags(write=False)
        restricted = _SYM_BASIS.T @ m @ _SYM_BASIS
        eigs = np.linalg.eigvalsh(0.5 * (restricted + restricted.T))
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "xi_min", float(eigs[0]))
        object.__setattr__(self, "xi_max", float(eigs[-1]))

    @property
    def a1(self) -> np.ndarray:
        return self.matrix[:20, :20]

    @property
    def a2(self) -> np.ndarray:
        return self.matrix[20:, 20:]


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


_SYM_BASIS = symmetric_subspace_basis()


def _assemble_a2(consts: MaterialConstants) -> np.ndarray:
    a2 = np.zeros((9, 9))
    a2[0:3, 0:3] = consts.a
    a2[0:3, 3:6] = consts.b
    a2[3:6, 0:3] = consts.b.T
    a2[0:3, 6:9] = consts.c
    a2[6:9, 0:3] = consts.c.T
    a2[3:6, 3:6] = consts.alpha
    a2[3:6, 6:9] = consts.beta
    a2[6:9, 3:6] = consts.beta.T
    a2[6:9, 6:9] = consts.gamma
    return a2


def quadratic_form_matrix(consts: MaterialConstants) -> np.ndarray:
    """The 29×29 matrix 𝒜 = blockdiag(𝒜₁, 𝒜₂) of the constants, unvalidated."""
    matrix = np.zeros((29, 29))
    a1 = matrix[:20, :20]
    a1[:9, :9] = consts.A.reshape(9, 9)
    a1[:9, 9:18] = consts.B.reshape(9, 9)
    a1[9:18, :9] = consts.B.reshape(9, 9).T
    a1[9:18, 9:18] = consts.C.reshape(9, 9)
    a1[:9, 18] = consts.D.reshape(9)
    a1[18, :9] = consts.D.reshape(9)
    a1[:9, 19] = consts.E.reshape(9)
    a1[19, :9] = consts.E.reshape(9)
    a1[9:18, 18] = consts.M.reshape(9)
    a1[18, 9:18] = consts.M.reshape(9)
    a1[9:18, 19] = consts.N.reshape(9)
    a1[19, 9:18] = consts.N.reshape(9)
    a1[18, 18] = consts.zeta
    a1[19, 19] = consts.mu
    a1[18, 19] = a1[19, 18] = consts.tau
    matrix[20:, 20:] = _assemble_a2(consts)
    return matrix


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
    a4 = (
        A.transpose(1, 0, 2, 3)
        + B.transpose(3, 2, 0, 1)
        + B.transpose(1, 0, 3, 2)
        + C.transpose(1, 0, 3, 2)
    )
    b4 = (B + C).transpose(1, 0, 2, 3)
    return ReducedConstants(
        a=a4,
        b=b4,
        d=C.copy(),
        tau=consts.D + consts.M,
        sigma=consts.E + consts.N,
    )


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
    A, B, C = consts.A, consts.B, consts.C
    sig = np.zeros((29, 29))
    # S1[i,j] = S1_ji = (A_jirs + B_rsji) e_rs + (B_ijrs + C_jirs) g_rs
    #           + (D_ij + M_ij) φ1 + (E_ij + N_ij) φ2
    ce1 = A.transpose(1, 0, 2, 3) + B.transpose(3, 2, 0, 1)
    cg1 = B + C.transpose(1, 0, 2, 3)
    sig[E_BLOCK, E_BLOCK] = ce1.reshape(9, 9)
    sig[E_BLOCK, G_BLOCK] = cg1.reshape(9, 9)
    sig[E_BLOCK, PHI1_SLOT] = (consts.D + consts.M).reshape(9)
    sig[E_BLOCK, PHI2_SLOT] = (consts.E + consts.N).reshape(9)
    # S2[i,j] = S2_ji = B_rsij e_rs + C_ijrs g_rs + M_ij φ1 + N_ij φ2
    sig[G_BLOCK, E_BLOCK] = B.transpose(2, 3, 0, 1).reshape(9, 9)
    sig[G_BLOCK, G_BLOCK] = C.reshape(9, 9)
    sig[G_BLOCK, PHI1_SLOT] = consts.M.reshape(9)
    sig[G_BLOCK, PHI2_SLOT] = consts.N.reshape(9)
    # g1 = -D:e - M:g - ζφ1 - τφ2 ; g2 = -E:e - N:g - τφ1 - μφ2
    sig[PHI1_SLOT, E_BLOCK] = -consts.D.reshape(9)
    sig[PHI1_SLOT, G_BLOCK] = -consts.M.reshape(9)
    sig[PHI1_SLOT, PHI1_SLOT] = -consts.zeta
    sig[PHI1_SLOT, PHI2_SLOT] = -consts.tau
    sig[PHI2_SLOT, E_BLOCK] = -consts.E.reshape(9)
    sig[PHI2_SLOT, G_BLOCK] = -consts.N.reshape(9)
    sig[PHI2_SLOT, PHI1_SLOT] = -consts.tau
    sig[PHI2_SLOT, PHI2_SLOT] = -consts.mu
    # p, h1, h2: identical to the 𝒜₂ block (each component appears once).
    sig[20:, 20:] = _assemble_a2(consts)
    return sig


def _coupled_stress_bound(consts: MaterialConstants) -> float:
    """sup |Σ₁E₁|² / (E₁·𝒜₁E₁) over realizable strains of the coupled block.

    The largest eigenvalue of the pencil (ΣᵀΣ, 𝒜) restricted to the 17
    realizable slots of 𝒜₁ (e symmetric, g, φ¹, φ²); 𝒜₁ must be definite there.
    """
    sig1 = consts.stress_matrix[:20, :20]
    q1 = _SYM_BASIS[:20, :17]
    b1 = q1.T @ (sig1.T @ sig1) @ q1
    b2 = q1.T @ consts.form.a1 @ q1
    inv_ell = np.linalg.inv(np.linalg.cholesky(0.5 * (b2 + b2.T)))
    pencil = inv_ell @ (0.5 * (b1 + b1.T)) @ inv_ell.T
    return float(np.linalg.eigvalsh(0.5 * (pencil + pencil.T))[-1])


def worst_stress_energy_ratio(consts: MaterialConstants) -> float:
    """Exact operator bound sup_E |S(E)|² / (2 ξ_M W(E)) over realizable E.

    Computed as a generalized eigenproblem of ΣᵀΣ against 𝒜 on the realizable
    subspace (the two diagonal blocks decouple).  A value ≤ 1 certifies the
    stress-energy inequality |S|² ≤ 2 ξ_M W for every state of this material.

    Raises:
        NotPositiveDefinite: if the material is inadmissible.
    """
    consts.speed  # the admissibility gate
    form = consts.form
    kappa_a2 = float(np.linalg.eigvalsh(form.a2)[-1])
    return max(_coupled_stress_bound(consts), kappa_a2) / form.xi_max


def _sym4_full(t: np.ndarray) -> np.ndarray:
    """Project onto tensors with A_ijrs = A_jirs = A_rsij (and hence = A_ijsr)."""
    t = 0.5 * (t + t.transpose(1, 0, 2, 3))
    t = 0.5 * (t + t.transpose(0, 1, 3, 2))
    return 0.5 * (t + t.transpose(2, 3, 0, 1))


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


def _material(**given) -> MaterialConstants:
    """Constants with the given values; every other tensor and scalar is 0, ρ and χ are 1."""
    values = {name: np.zeros(shape) for name, shape in _TENSOR_SHAPES.items()}
    values.update({name: float(name in _INERTIAS) for name in _SCALARS})
    return MaterialConstants(**(values | given))


def identity_material() -> MaterialConstants:
    """Admissible material whose quadratic form is the identity on realizable strains."""
    return _material(A=_iso4(0.0, 0.5), C=_delta4(), zeta=1.0, mu=1.0,
                     alpha=np.eye(3), gamma=np.eye(3), a=np.eye(3))


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


def random_material(seed: int | np.random.Generator = 0) -> MaterialConstants:
    """Seeded random admissible material.

    Construction: draw every tensor from N(0, 1), project onto the required
    symmetries (M and N are also symmetrized so the printed constitutive law
    derives from the energy density), scale the couplings by 0.25, add
    isotropic diagonal stiffness, then shift the block diagonals until ξ_m
    clears the definiteness margin with room to spare.

    Then the relative-displacement/fraction-gradient block is raised until
    ξ_M dominates the exact operator bound of the literal stress map, which
    certifies |S(E)|² ≤ 2 ξ_M W(E) for every state and hence the c-bounded
    signal speed that the spatial-decay and domain-of-influence suites
    assume.  That block enters the stress map once per component, so raising
    it never degrades the certified inequality.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    cpl = 0.25

    def sym2():
        t = rng.standard_normal((3, 3))
        return 0.5 * (t + t.T)

    A = _iso4(0.4, 0.4) + 0.35 * _sym4_full(rng.standard_normal((3, 3, 3, 3)))
    B = cpl * 0.5 * (lambda t: t + t.transpose(1, 0, 2, 3))(rng.standard_normal((3, 3, 3, 3)))
    C = 0.4 * _delta4() + 0.3 * (
        lambda t: 0.5 * (t + t.transpose(2, 3, 0, 1))
    )(rng.standard_normal((3, 3, 3, 3)))
    consts = MaterialConstants(
        A=A,
        B=B,
        C=C,
        D=cpl * sym2(),
        E=cpl * sym2(),
        M=cpl * sym2(),
        N=cpl * sym2(),
        zeta=1.0 + 0.3 * rng.standard_normal(),
        mu=1.0 + 0.3 * rng.standard_normal(),
        tau=cpl * rng.standard_normal(),
        alpha=np.eye(3) + 0.3 * sym2(),
        beta=cpl * rng.standard_normal((3, 3)),
        gamma=np.eye(3) + 0.3 * sym2(),
        a=np.eye(3) + 0.3 * sym2(),
        b=cpl * rng.standard_normal((3, 3)),
        c=cpl * rng.standard_normal((3, 3)),
        rho1=float(rng.uniform(0.6, 1.8)),
        rho2=float(rng.uniform(0.6, 1.8)),
        chi1=float(rng.uniform(0.6, 1.8)),
        chi2=float(rng.uniform(0.6, 1.8)),
    )
    floor = 0.08
    if consts.form.xi_min < floor:
        s = floor - consts.form.xi_min
        consts = replace(
            consts,
            A=consts.A + s * _iso4(0.0, 0.5),
            C=consts.C + s * _delta4(),
            zeta=consts.zeta + s,
            mu=consts.mu + s,
            alpha=consts.alpha + s * np.eye(3),
            gamma=consts.gamma + s * np.eye(3),
            a=consts.a + s * np.eye(3),
        )
    kappa = _coupled_stress_bound(consts)
    if consts.form.xi_max < kappa:
        # Raising the relative-displacement block lifts xi_max without
        # touching any acoustic branch (it is a pure value channel).
        s2 = kappa - float(np.linalg.eigvalsh(consts.a)[-1])
        if s2 > 0.0:
            consts = replace(consts, a=consts.a + s2 * np.eye(3))
    return consts


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
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_material(path) -> MaterialConstants:
    """Read a material file written by :func:`save_material` (or by hand).

    Keys are exactly the constitutive symbol names; tensor values are nested
    lists in row-major index order and may span lines until their brackets
    balance.

    Raises:
        InvalidParameter: on unknown/missing/duplicate keys or bad shapes.
    """
    import ast

    entries: dict[str, str] = {}
    pending_key = None
    pending_val: list[str] = []
    depth = 0
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
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
