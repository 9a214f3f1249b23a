"""Pointwise kinematics, constitutive law, tractions and power identities."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import poromix as pm
from poromix.errors import BadNormal
from poromix.materials import _delta4, stress_component_matrix
from poromix.pointwise import (
    GeneralizedStress,
    PointState,
    StrainVector,
    generalized_stress,
    reduced_generalized_stress,
    strain_vector,
    stress_magnitude,
    traction,
)

from . import oracles
from .conftest import random_point_state, stack_law, zero_point_state
from .oracles import internal_energy_density, power_identity_residuals
from .test_materials import zero_material


class TestStrainVector:
    def test_zero_state(self):
        ev = strain_vector(zero_point_state())
        assert np.all(ev.vec == 0.0)

    def test_spin_kills_symmetric_part(self):
        spin = np.array([[0.0, 1.0, -0.5], [-1.0, 0.0, 2.0], [0.5, -2.0, 0.0]])
        ps = PointState(
            grad_u1=spin, grad_u2=np.zeros((3, 3)), u1=np.zeros(3), u2=np.zeros(3),
            phi1=0.0, phi2=0.0, grad_phi1=np.zeros(3), grad_phi2=np.zeros(3),
        )
        ev = strain_vector(ps)
        assert np.all(ev.e == 0.0)
        assert np.any(ev.g != 0.0)

    def test_random_against_loop_oracle(self, rng):
        for _ in range(20):
            ps = random_point_state(rng)
            ev = strain_vector(ps)
            ora = oracles.strain_loops(ps)
            np.testing.assert_allclose(ev.e, ora["e"], atol=1e-15)
            np.testing.assert_allclose(ev.g, ora["g"], atol=1e-15)
            np.testing.assert_allclose(ev.d, ora["d"], atol=1e-15)
            assert ev.phi1 == ps.phi1 and ev.phi2 == ps.phi2

    def test_e_block_is_symmetric(self, rng):
        ev = strain_vector(random_point_state(rng))
        np.testing.assert_array_equal(ev.e, ev.e.T)


class TestMagnitudes:
    def test_zero(self):
        assert np.linalg.norm(StrainVector(np.zeros(29)).vec, axis=-1) == 0.0

    @pytest.mark.parametrize("slot", [0, 7, 13, 18, 21, 28])
    def test_single_slot(self, slot):
        vec = np.zeros(29)
        vec[slot] = 1.0
        assert np.linalg.norm(StrainVector(vec).vec, axis=-1) == 1.0

    def test_random_against_loop_oracle(self, rng):
        ev = strain_vector(random_point_state(rng))
        assert np.linalg.norm(ev.vec, axis=-1) == pytest.approx(
            oracles.strain_magnitude_loops(ev), rel=1e-13)

    def test_stress_magnitude_oracle(self, rng, random_consts):
        ev = strain_vector(random_point_state(rng))
        s = generalized_stress(random_consts, ev)
        assert stress_magnitude(s) == pytest.approx(
            oracles.stress_magnitude_loops(s), rel=1e-13)

    def test_stress_magnitude_unit_component(self):
        vec = np.zeros(29)
        vec[19] = 1.0
        s = GeneralizedStress(vec)
        assert s.g2 == 1.0
        assert stress_magnitude(s) == 1.0


class TestEnergyDensity:
    def test_zero(self, random_consts):
        assert internal_energy_density(random_consts, StrainVector(np.zeros(29))) == 0.0

    def test_identity_matrix_norm_two(self, identity_consts):
        # 𝒜 is the identity on realizable strains: W = |E|²/2 for |E|² = 2.
        vec = np.zeros(29)
        vec[1] = vec[3] = np.sqrt(0.5)
        vec[22] = 1.0
        assert internal_energy_density(identity_consts, StrainVector(vec)) == pytest.approx(1.0)

    def test_random_matches_term_sum(self, rng, random_consts):
        for _ in range(50):
            ev = strain_vector(random_point_state(rng))
            w = internal_energy_density(random_consts, ev)
            assert w == pytest.approx(
                oracles.energy_density_loops(random_consts, ev), rel=1e-12, abs=1e-12)


class TestGeneralizedStress:
    def test_zero_strain_zero_stress(self, random_consts):
        s = generalized_stress(random_consts, StrainVector(np.zeros(29)))
        assert stress_magnitude(s) == 0.0

    def test_single_constituent_reduction(self, rng):
        # All couplings zero and slot-identity A: S1_ji reduces to e_ij.  That
        # A breaks A_ijrs = A_jirs, so this probes the raw builder of Σ.
        consts = zero_material(A=_delta4())
        ps = random_point_state(rng)
        ev = strain_vector(ps)
        s = GeneralizedStress(ev.vec @ stress_component_matrix(consts).T)
        np.testing.assert_allclose(s.S1, ev.e, atol=1e-14)
        assert np.all(s.S2 == 0.0) and s.g1 == 0.0 and s.g2 == 0.0

    def test_matches_loop_oracle(self, rng, random_consts):
        for _ in range(10):
            ev = strain_vector(random_point_state(rng))
            s = generalized_stress(random_consts, ev)
            ora = oracles.stress_loops(random_consts, ev)
            np.testing.assert_allclose(s.S1, ora["S1"], atol=1e-12)
            np.testing.assert_allclose(s.S2, ora["S2"], atol=1e-12)
            assert s.g1 == pytest.approx(ora["g1"], abs=1e-12)
            assert s.g2 == pytest.approx(ora["g2"], abs=1e-12)
            np.testing.assert_allclose(s.p, ora["p"], atol=1e-12)
            np.testing.assert_allclose(s.h1, ora["h1"], atol=1e-12)
            np.testing.assert_allclose(s.h2, ora["h2"], atol=1e-12)

    def test_dual_forms_agree(self, rng, random_consts):
        red = pm.reduced_constants(random_consts)
        for _ in range(100):
            ps = random_point_state(rng)
            ev = strain_vector(ps)
            lit = generalized_stress(random_consts, ev)
            alt = reduced_generalized_stress(random_consts, red, ps)
            np.testing.assert_allclose(lit.vec, alt.vec, atol=1e-12)

    @given(st.floats(-3, 3), st.floats(-3, 3))
    def test_linearity(self, a, b):
        rng = np.random.default_rng(7)
        consts = pm.random_material(3)
        e1 = strain_vector(random_point_state(rng))
        e2 = strain_vector(random_point_state(rng))
        combo = StrainVector(a * e1.vec + b * e2.vec)
        s_combo = generalized_stress(consts, combo)
        s1 = generalized_stress(consts, e1)
        s2 = generalized_stress(consts, e2)
        np.testing.assert_allclose(s_combo.S1, a * s1.S1 + b * s2.S1, atol=1e-10)
        np.testing.assert_allclose(s_combo.p, a * s1.p + b * s2.p, atol=1e-10)


class TestTraction:
    def test_zero_stress(self, random_consts):
        s = generalized_stress(random_consts, StrainVector(np.zeros(29)))
        tr = traction(s, np.array([1.0, 0.0, 0.0]))
        assert np.all(tr.s1 == 0.0) and tr.h1 == 0.0

    def test_axis_normal_picks_row(self, rng, random_consts):
        ev = strain_vector(random_point_state(rng))
        s = generalized_stress(random_consts, ev)
        tr = traction(s, np.array([1.0, 0.0, 0.0]))
        np.testing.assert_array_equal(tr.s1, s.S1[:, 0])
        assert tr.h2 == s.h2[0]

    def test_bad_normal(self, random_consts):
        s = generalized_stress(random_consts, StrainVector(np.zeros(29)))
        with pytest.raises(BadNormal):
            traction(s, np.array([1.0, 1.0, 0.0]))

    def test_traction_bound_random_normals(self, rng, random_consts):
        for _ in range(200):
            ev = strain_vector(random_point_state(rng))
            s = generalized_stress(random_consts, ev)
            n = rng.standard_normal(3)
            n /= np.linalg.norm(n)
            tr = traction(s, n)
            lhs = tr.s1 @ tr.s1 + tr.s2 @ tr.s2 + tr.h1**2 + tr.h2**2
            assert lhs <= stress_magnitude(s) ** 2 * (1.0 + 1e-12)


class TestStressEnergyBound:
    def test_sampled_ratio_below_one(self, rng, random_consts):
        xi_max = random_consts.form.xi_max
        worst = 0.0
        for _ in range(10_000):
            ev = strain_vector(random_point_state(rng))
            two_w = float(ev.vec @ random_consts.form.matrix @ ev.vec)
            if two_w <= 0.0:
                continue
            s = generalized_stress(random_consts, ev)
            worst = max(worst, stress_magnitude(s) ** 2 / (xi_max * two_w))
        assert worst <= 1.0 + 1e-9, f"max |S|^2/(2 xi_M W) ratio {worst!r}"


class TestPowerIdentities:
    def test_zero_state(self, random_consts):
        z = zero_point_state()
        assert power_identity_residuals(random_consts, z, z) == (0.0, 0.0)

    def test_same_state_rate_reduces_to_static(self, rng, random_consts):
        ps = random_point_state(rng)
        r_static, r_rate = power_identity_residuals(random_consts, ps, ps)
        assert r_static <= 1e-12 * 100
        assert r_rate == pytest.approx(r_static, abs=1e-10)

    def test_random_pairs(self, rng, random_consts):
        for _ in range(100):
            ps, qs = random_point_state(rng), random_point_state(rng)
            scale = 1.0 + np.linalg.norm(strain_vector(ps).vec, axis=-1) ** 2
            r_static, r_rate = power_identity_residuals(random_consts, ps, qs)
            assert r_static <= 1e-10 * scale
            assert r_rate <= 1e-10 * scale


def _stack(states) -> PointState:
    return PointState(*(np.stack([getattr(ps, f.name) for ps in states])
                        for f in dataclasses.fields(PointState)))


def _traction_parts(tr) -> np.ndarray:
    return np.concatenate([tr.s1, tr.s2, np.stack([tr.h1, tr.h2], axis=-1)], axis=-1)


# Each entry maps (consts, red, state, rate, normal) to an array.
BATCHED = {
    "strain_vector": lambda k, r, ps, qs, n: strain_vector(ps).vec,
    "internal_energy_density": lambda k, r, ps, qs, n: internal_energy_density(
        k, strain_vector(ps)),
    "generalized_stress": lambda k, r, ps, qs, n: generalized_stress(
        k, strain_vector(ps)).vec,
    "reduced_generalized_stress": lambda k, r, ps, qs, n: reduced_generalized_stress(
        k, r, ps).vec,
    "traction": lambda k, r, ps, qs, n: _traction_parts(traction(
        generalized_stress(k, strain_vector(ps)), n)),
    "power_identity_residuals": lambda k, r, ps, qs, n: np.stack(
        power_identity_residuals(k, ps, qs), axis=-1),
}


@pytest.mark.parametrize("name", sorted(BATCHED))
def test_stacked_state_matches_row_by_row(name, rng, random_consts):
    count = 7
    rows = [random_point_state(rng) for _ in range(count)]
    rates = rows[1:] + rows[:1]
    normals = rng.standard_normal((count, 3))
    normals /= np.linalg.norm(normals, axis=-1, keepdims=True)
    fn = BATCHED[name]
    red = pm.reduced_constants(random_consts)
    stacked = fn(random_consts, red, _stack(rows), _stack(rates), normals)
    by_row = np.array([fn(random_consts, red, ps, qs, n)
                       for ps, qs, n in zip(rows, rates, normals)])
    assert stacked.shape == by_row.shape
    np.testing.assert_allclose(stacked, by_row, rtol=1e-13, atol=1e-13)


@pytest.fixture(scope="module")
def stacked_materials():
    """Three certified random materials and the same three as one (3, 1) law."""
    materials = [pm.random_material(seed) for seed in (3, 4, 5)]
    return materials, stack_law(materials)


@pytest.mark.parametrize("name", sorted(BATCHED))
def test_stacked_law_matches_material_by_material(name, rng, stacked_materials):
    materials, law = stacked_materials
    count = 6
    rows = [[random_point_state(rng) for _ in range(count)] for _ in materials]
    rates = [r[1:] + r[:1] for r in rows]
    normals = rng.standard_normal((len(materials), count, 3))
    normals /= np.linalg.norm(normals, axis=-1, keepdims=True)
    fn = BATCHED[name]
    stacked = fn(law, pm.reduced_constants(law), _stack([_stack(r) for r in rows]),
                 _stack([_stack(r) for r in rates]), normals)
    by_material = np.array([fn(m, pm.reduced_constants(m), _stack(r), _stack(q), n)
                            for m, r, q, n in zip(materials, rows, rates, normals)])
    assert stacked.shape == by_material.shape
    np.testing.assert_allclose(stacked, by_material, rtol=1e-13, atol=1e-13)


def test_stacked_law_bounds_match_material_by_material(stacked_materials):
    materials, law = stacked_materials
    stacked = {
        "xi_min": law.form.xi_min, "xi_max": law.form.xi_max, "c": law.speed.c,
        "ratio": pm.materials.worst_stress_energy_ratio(law),
    }
    by_material = {
        "xi_min": [m.form.xi_min for m in materials], "xi_max": [m.form.xi_max for m in materials],
        "c": [m.speed.c for m in materials],
        "ratio": [pm.materials.worst_stress_energy_ratio(m) for m in materials],
    }
    for key, values in stacked.items():
        assert np.shape(values) == (len(materials), 1), key
        np.testing.assert_allclose(values[:, 0], by_material[key], rtol=1e-13, atol=1e-13,
                                   err_msg=key)


@pytest.mark.parametrize("name", sorted(BATCHED))
def test_law_batch_pairs_with_a_state_batch_of_the_same_shape(name, rng, stacked_materials):
    # A (k,) law against (k,) states: material i with state i, one row each.
    materials, _ = stacked_materials
    law = pm.MaterialConstants(**{key: np.stack([getattr(m, key) for m in materials])
                                  for key in pm.materials.MATERIAL_KEYS})
    rows = [random_point_state(rng) for _ in materials]
    normals = rng.standard_normal((len(materials), 3))
    normals /= np.linalg.norm(normals, axis=-1, keepdims=True)
    fn = BATCHED[name]
    stacked = fn(law, pm.reduced_constants(law), _stack(rows), _stack(rows[::-1]), normals)
    by_material = np.array([fn(m, pm.reduced_constants(m), ps, qs, n)
                            for m, ps, qs, n in zip(materials, rows, rows[::-1], normals)])
    assert stacked.shape == by_material.shape
    np.testing.assert_allclose(stacked, by_material, rtol=1e-13, atol=1e-13)
