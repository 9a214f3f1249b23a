from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import poromix as pm
from poromix.pointwise import PointState

settings.register_profile(
    "ci", deadline=None, suppress_health_check=[HealthCheck.too_slow], max_examples=25
)
settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(2026)


@pytest.fixture(scope="session")
def identity_consts():
    return pm.identity_material()


@pytest.fixture(scope="session")
def random_consts():
    return pm.random_material(11)


def random_point_state(rng) -> PointState:
    return PointState(
        grad_u1=rng.standard_normal((3, 3)),
        grad_u2=rng.standard_normal((3, 3)),
        u1=rng.standard_normal(3),
        u2=rng.standard_normal(3),
        phi1=float(rng.standard_normal()),
        phi2=float(rng.standard_normal()),
        grad_phi1=rng.standard_normal(3),
        grad_phi2=rng.standard_normal(3),
    )


def zero_point_state() -> PointState:
    z2, z1 = np.zeros((3, 3)), np.zeros(3)
    return PointState(z2, z2, z1, z1, 0.0, 0.0, z1, z1)


def stack_law(materials) -> pm.MaterialConstants:
    """The materials as one law of batch shape (k, 1), for states of batch shape (k, s)."""
    return pm.MaterialConstants(**{key: np.stack([getattr(m, key) for m in materials])[:, None]
                                   for key in pm.materials.MATERIAL_KEYS})


def assert_golden(values: dict[str, float], golden: dict[str, float], rel: float,
                  floor: float = 0.0) -> None:
    """Fail once, listing every (name, pinned, got) that moved: a pinned value of
    magnitude ``floor`` or more must hold to ``rel`` relative, a smaller one only
    stay below ``floor`` in magnitude."""
    assert values.keys() == golden.keys()
    moved = [(name, pinned, values[name]) for name, pinned in golden.items()
             if not (abs(values[name] - pinned) <= rel * abs(pinned) if abs(pinned) >= floor
                     else abs(values[name]) <= floor)]
    assert not moved, "moved (name, pinned, got):\n" + "\n".join(map(repr, moved))
