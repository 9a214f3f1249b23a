"""Simulator and verification harness for binary porous elastic mixtures.

Layout:
    materials    constitutive constants and the law each derives once: 𝒜, speed, Σ
    pointwise    kinematics, stresses, tractions, power identities of material
                 points, stacked over leading batch axes
    fields       difference stencils and the jet form Q = Pᵀ𝒜P that gives every
                 field stress, force and energy density
    solver       explicit leapfrog integration with mixed boundary conditions;
                 ``simulate`` records the energy series and the snapshots
    diagnostics  surface power, decay/front reports, Cesàro means
    verify       theorem-verification suites
    config, cli  run configuration and the command-line entry points
"""

from .materials import (
    MaterialConstants,
    QuadraticForm,
    ReducedConstants,
    SpeedParams,
    decoupled_material,
    identity_material,
    load_material,
    random_material,
    reduced_constants,
    save_material,
    validate_symmetries,
)
from .pointwise import (
    GeneralizedStress,
    PointState,
    StrainVector,
    TractionSample,
    generalized_stress,
    internal_energy_density,
    power_identity_residuals,
    strain_vector,
    stress_magnitude,
    traction,
)
from .solver import (
    BoundaryPartition,
    Grid,
    InitialData,
    ProblemSpec,
    RigidDecomposition,
    SideCondition,
    StateField,
    gaussian_pulse,
    initialize,
    rigid_decompose,
    simulate,
    stable_timestep,
    step,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
