"""Simulator and verification harness for binary porous elastic mixtures.

Layout:
    materials    constitutive constants and the law each derives once: 𝒜, speed, Σ
    pointwise    kinematics, stresses, tractions, power identities of material
                 points, stacked over leading batch axes
    fields       the named rows of the stacked state (``STATE_FIELDS``),
                 raw-difference kernels δⱼ, δⱼᵀ and the jet form Q = Pᵀ𝒜P that
                 gives every field stress, force and energy density
    solver       explicit leapfrog integration with mixed boundary conditions;
                 ``stream``, the one run loop, records the energy series and
                 reduces each snapshot as it is taken;
                 ``rigid_fit`` splits a field into rigid motion and residual
    diagnostics  surface power, decay/front reports, Cesàro means, identity
                 residuals; per-state reductions for streamed runs
    verify       theorem-verification suites
    config, cli  run configuration and the command-line entry points

The package re-exports the materials and solver names below.  The point-state
names (``PointState``, ``strain_vector``, ``generalized_stress``, …) live in
``poromix.pointwise``, which only ``verify`` imports.
"""

from .materials import (MaterialConstants, QuadraticForm, ReducedConstants, SpeedParams,
                        decoupled_material, identity_material, load_material, random_material,
                        reduced_constants, save_material, validate_symmetries)
from .solver import (BoundaryPartition, Grid, InitialData, ProblemSpec, SideCondition, StateField,
                     gaussian_pulse, initialize, rigid_fit, stable_timestep, step, stream)

__version__ = "0.1.0"
