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


@pytest.fixture(scope="session")
def random_form(random_consts):
    return pm.assemble_quadratic_form(random_consts)


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

