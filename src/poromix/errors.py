"""Exception types shared across the package."""

from __future__ import annotations


class PoromixError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameter(PoromixError, ValueError):
    """A scalar or structural argument is outside its admissible range."""


class SymmetryViolation(PoromixError, ValueError):
    """Constitutive constants break a required symmetry relation."""


class NotPositiveDefinite(PoromixError, ValueError):
    """The stored-energy quadratic form is not positive definite."""


class BadNormal(PoromixError, ValueError):
    """A surface normal is not a unit vector."""


class NonFinite(PoromixError, ArithmeticError):
    """A field update produced NaN/Inf (explicit scheme went unstable).

    Attributes:
        step: index of the failing time step.
    """

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class SingularInertia(PoromixError, ValueError):
    """The momentum/moment system for a rigid fit is inconsistent."""


class NoFront(PoromixError, ValueError):
    """No node outside the data support ever exceeded the front level."""


class Degenerate(PoromixError, ValueError):
    """Too few usable samples for a requested fit."""


class InsufficientSnapshots(PoromixError, ValueError):
    """The recorded trajectory is too sparse for the requested evaluation."""


class UndefinedAtZero(PoromixError, ValueError):
    """A running time average was requested at t = 0."""


class SchemaError(PoromixError, ValueError):
    """A configuration file parsed but failed schema validation.

    Attributes:
        errors: list of "line N: ..." messages.
    """

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = list(errors)
