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

The names below are resolved on first use (PEP 562), so importing the
package, or a run that never touches a module, does not import it.
"""

import importlib

# Each re-exported name, by the submodule it comes from.
_EXPORTS = {
    **dict.fromkeys((
        "MaterialConstants", "QuadraticForm", "ReducedConstants", "SpeedParams",
        "decoupled_material", "identity_material", "load_material", "random_material",
        "reduced_constants", "save_material", "validate_symmetries",
    ), "materials"),
    **dict.fromkeys((
        "GeneralizedStress", "PointState", "StrainVector", "TractionSample",
        "generalized_stress", "internal_energy_density", "power_identity_residuals",
        "strain_vector", "stress_magnitude", "traction",
    ), "pointwise"),
    **dict.fromkeys((
        "BoundaryPartition", "Grid", "InitialData", "ProblemSpec", "SideCondition",
        "StateField", "gaussian_pulse", "initialize", "rigid_fit", "stable_timestep",
        "step", "stream",
    ), "solver"),
}
_SUBMODULES = ("errors", "fields", "materials", "pointwise", "solver")

__all__ = sorted([*_EXPORTS, *_SUBMODULES])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
