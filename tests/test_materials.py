"""Material model: symmetries, assembly, eigen-bounds, speed, reduced form."""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import poromix as pm
from poromix import verify
from poromix.config import material_from_spec
from poromix.errors import InvalidParameter, NotPositiveDefinite, SymmetryViolation
from poromix.materials import (
    MATERIAL_KEYS,
    pair_slot,
    quadratic_form_matrix,
    symmetric_subspace_basis,
    worst_stress_energy_ratio,
    _delta4,
    _iso4,
)
from poromix.pointwise import PointState, strain_vector

from .conftest import assert_golden, random_point_state
from . import oracles
from .oracles import power_identity_residuals


def zero_material(**overrides) -> pm.MaterialConstants:
    z2 = np.zeros((3, 3))
    z4 = np.zeros((3, 3, 3, 3))
    base = dict(
        A=z4, B=z4, C=z4, D=z2, E=z2, M=z2, N=z2,
        zeta=0.0, mu=0.0, tau=0.0,
        alpha=z2, beta=z2, gamma=z2, a=z2, b=z2, c=z2,
        rho1=1.0, rho2=1.0, chi1=1.0, chi2=1.0,
    )
    base.update(overrides)
    return pm.MaterialConstants(**base)


def raw_identity_material() -> pm.MaterialConstants:
    """The literal slot-identity constants (not symmetry-compliant)."""
    return zero_material(
        A=_delta4(), C=_delta4(), zeta=1.0, mu=1.0,
        a=np.eye(3), alpha=np.eye(3), gamma=np.eye(3),
    )


class TestSymmetries:
    def test_isotropic_tensor_passes(self):
        consts = zero_material(A=_iso4(1.3, 0.7))
        assert pm.validate_symmetries(consts).ok

    def test_constructed_violation_reported_with_deviation(self):
        a = np.zeros((3, 3))
        a[0, 1] = 1.0
        report = pm.validate_symmetries(zero_material(a=a))
        names = dict(report.violations)
        assert names == {"a_ij=a_ji": 1.0}

    def test_random_symmetrized_passes_and_matches_loop_oracle(self, rng):
        for _ in range(5):
            consts = pm.random_material(rng)
            report = pm.validate_symmetries(consts)
            assert report.ok
            assert oracles.symmetry_violations_loops(consts) == set()

    def test_loop_oracle_agrees_on_broken_materials(self, rng):
        consts = zero_material(
            A=rng.standard_normal((3, 3, 3, 3)),
            C=rng.standard_normal((3, 3, 3, 3)),
            D=rng.standard_normal((3, 3)),
        )
        report = pm.validate_symmetries(consts)
        assert {name for name, _ in report.violations} == oracles.symmetry_violations_loops(consts)

    def test_positivity_enforced(self):
        with pytest.raises(InvalidParameter):
            zero_material(rho1=-1.0)


class TestAssembly:
    def test_identity_assembly_is_exact_identity(self):
        # The raw builder, without the symmetry gate of ``form``.
        form = pm.QuadraticForm(quadratic_form_matrix(raw_identity_material()))
        assert np.array_equal(form.matrix, np.eye(29))
        assert form.xi_min == pytest.approx(1.0, abs=1e-12)
        assert form.xi_max == pytest.approx(1.0, abs=1e-12)

    def test_identity_assembly_respects_symmetry_gate(self):
        consts = raw_identity_material()
        with pytest.raises(SymmetryViolation):
            consts.form
        with pytest.raises(SymmetryViolation):
            consts.stress_matrix

    def test_zero_material_assembles_but_is_inadmissible(self):
        consts = zero_material()
        assert np.all(consts.form.matrix == 0.0)
        assert consts.form.xi_min == 0.0 and consts.form.xi_max == 0.0
        with pytest.raises(NotPositiveDefinite):
            consts.speed

    def test_block_structure(self, random_consts):
        assert np.all(random_consts.form.matrix[:20, 20:] == 0.0)
        assert np.all(random_consts.form.matrix[20:, :20] == 0.0)
        assert np.array_equal(random_consts.form.matrix, random_consts.form.matrix.T)

    def test_quadratic_form_matches_energy_loop_oracle(self, rng, random_consts):
        for _ in range(100):
            ev = strain_vector(random_point_state(rng))
            quad = 0.5 * float(ev.vec @ random_consts.form.matrix @ ev.vec)
            loop = oracles.energy_density_loops(random_consts, ev)
            assert quad == pytest.approx(loop, rel=1e-12, abs=1e-12)


def count_builds(monkeypatch) -> collections.Counter:
    """Count the calls of the raw 𝒜 and Σ builders from here on."""
    calls = collections.Counter()
    for name in ("quadratic_form_matrix", "stress_component_matrix"):
        def counted(consts, _fn=getattr(pm.materials, name), _name=name):
            calls[_name] += 1
            return _fn(consts)
        monkeypatch.setattr(pm.materials, name, counted)
    return calls


class TestDerivedOnce:
    def test_law_is_derived_once_per_instance(self, monkeypatch, random_consts):
        consts = dataclasses.replace(random_consts)
        calls = count_builds(monkeypatch)
        for _ in range(2):
            assert consts.stress_matrix is consts.stress_matrix
            assert consts.speed is consts.speed
        assert calls == {"quadratic_form_matrix": 1, "stress_component_matrix": 1}
        assert not consts.stress_matrix.flags.writeable
        assert dataclasses.replace(consts).form is not consts.form

    def test_second_sample_and_replaced_problem_build_nothing(self, monkeypatch):
        consts = pm.random_material(12)
        verify._point_sample(consts, verify._draw_states(np.random.default_rng(0), 4))
        problem = pm.ProblemSpec(
            grid=pm.Grid(n=(16,), h=(0.1,)), consts=consts,
            boundary=pm.BoundaryPartition.uniform("natural", "natural", dim=1))
        problem.workspace
        calls = count_builds(monkeypatch)
        verify._point_sample(consts, verify._draw_states(np.random.default_rng(1), 4))
        dataclasses.replace(problem, T=2.0).workspace
        assert not calls


class TestEigenBounds:
    def test_identity_bounds(self, identity_consts):
        form = identity_consts.form
        assert (form.xi_min, form.xi_max) == (pytest.approx(1.0), pytest.approx(1.0))

    def test_diagonal_fill_bounds(self):
        # Extremes on non-strain slots; e-block constant so restricted and
        # full spectra coincide.
        diag = np.linspace(0.8, 1.7, 29)
        diag[:9] = 1.0
        diag[18] = 0.5
        diag[20] = 2.0
        form = pm.QuadraticForm(np.diag(diag))
        assert (form.xi_min, form.xi_max) == (pytest.approx(0.5), pytest.approx(2.0))

    def test_bounds_match_jacobi_oracle(self, random_consts):
        q = symmetric_subspace_basis()
        restricted = q.T @ random_consts.form.matrix @ q
        eigs = oracles.jacobi_eigenvalues(restricted)
        assert random_consts.form.xi_min == pytest.approx(eigs[0], abs=1e-10)
        assert random_consts.form.xi_max == pytest.approx(eigs[-1], abs=1e-10)

    def test_coupling_between_the_blocks_is_rejected(self):
        matrix = np.eye(29)
        matrix[3, 25] = matrix[25, 3] = 1e-300
        with pytest.raises(InvalidParameter, match="couples"):
            pm.QuadraticForm(matrix)

    def test_block_bounds_match_the_whole_form_oracle(self):
        chunk = verify._sweep_chunk(np.random.default_rng(0), verify._SWEEP_CHUNK)[0]
        laws = [pm.identity_material(), pm.decoupled_material(), chunk]
        forms = [law.form for law in laws + [pm.random_material(seed) for seed in range(40)]]
        rng = np.random.default_rng(7)
        for scale1, scale2 in [(2.0, 0.5), (0.5, 2.0)]:  # ξ_m in 𝒜₂ and ξ_M in 𝒜₁, and back
            blocks = [scale * np.eye(n) + 0.1 * (r + r.T)
                      for scale, n in [(scale1, 20), (scale2, 9)]
                      for r in [rng.standard_normal((n, n))]]
            form = pm.QuadraticForm(np.block([[blocks[0], np.zeros((20, 9))],
                                              [np.zeros((9, 20)), blocks[1]]]))
            assert (form.xi_min in form.a2_bounds) == (scale1 > scale2)
            assert (form.xi_max in form.a1_bounds) == (scale1 > scale2)
            forms.append(form)
        for form in forms:
            xi_min, xi_max, a2_max = oracles.realizable_form_bounds(form.matrix)
            for got, want in [(form.xi_min, xi_min), (form.xi_max, xi_max),
                              (form.a2_bounds[1], a2_max)]:
                np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    def test_full_spectrum_is_restricted_plus_structural_zeros(self, random_consts):
        full = np.linalg.eigvalsh(random_consts.form.matrix)
        q = symmetric_subspace_basis()
        restricted = np.linalg.eigvalsh(q.T @ random_consts.form.matrix @ q)
        merged = np.sort(np.concatenate([restricted, [0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(full, merged, atol=1e-10)

    def test_envelope_property_on_random_strains(self, rng, random_consts):
        vecs = rng.standard_normal((10_000, 29))
        # symmetrize the e-block so the vectors are realizable strains
        e = vecs[:, :9].reshape(-1, 3, 3)
        vecs[:, :9] = (0.5 * (e + np.transpose(e, (0, 2, 1)))).reshape(-1, 9)
        quad = np.einsum("ki,ij,kj->k", vecs, random_consts.form.matrix, vecs)
        norm2 = np.einsum("ki,ki->k", vecs, vecs)
        assert np.all(quad >= random_consts.form.xi_min * norm2 - 1e-9 * norm2)
        assert np.all(quad <= random_consts.form.xi_max * norm2 + 1e-9 * norm2)

    def test_conjugate_norm_bound(self, rng, random_consts):
        # |A E|^2 <= xi_max * (E . A E) for realizable strains
        vecs = rng.standard_normal((2000, 29))
        e = vecs[:, :9].reshape(-1, 3, 3)
        vecs[:, :9] = (0.5 * (e + np.transpose(e, (0, 2, 1)))).reshape(-1, 9)
        conj = vecs @ random_consts.form.matrix
        lhs = np.einsum("ki,ki->k", conj, conj)
        rhs = random_consts.form.xi_max * np.einsum("ki,ki->k", vecs, conj)
        assert np.all(lhs <= rhs * (1.0 + 1e-12) + 1e-12)


class TestWaveSpeed:
    def test_direct_formula(self, identity_consts):
        # xi_max = 1 and m = 1, so c = 1.
        sp = identity_consts.speed
        assert sp.m_inertia == 1.0
        assert sp.c == pytest.approx(1.0, abs=1e-12)

    def test_min_selection(self, identity_consts):
        # m = min{rho1, rho2, rho1 chi1, rho2 chi2} = 0.5, so c = sqrt(1 / 0.5).
        consts = dataclasses.replace(identity_consts, rho1=2.0, rho2=1.0, chi1=3.0, chi2=0.5)
        sp = consts.speed
        assert sp.m_inertia == 0.5
        assert sp.c == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(NotPositiveDefinite):
            zero_material().speed

    def test_speed_from_jacobi_oracle(self, random_consts):
        q = symmetric_subspace_basis()
        eigs = oracles.jacobi_eigenvalues(q.T @ random_consts.form.matrix @ q)
        m = min(random_consts.rho1, random_consts.rho2,
                random_consts.rho1 * random_consts.chi1, random_consts.rho2 * random_consts.chi2)
        assert random_consts.speed.m_inertia == m
        assert random_consts.speed.c == pytest.approx(np.sqrt(eigs[-1] / m), abs=1e-10)


class TestReducedConstants:
    def test_couplings_zero(self, rng):
        A = pm.materials._sym4_full(rng.standard_normal((3, 3, 3, 3)))
        C = 0.5 * _delta4()
        consts = zero_material(A=A, C=C)
        red = pm.reduced_constants(consts)
        ora = oracles.reduced_constants_loops(consts)
        np.testing.assert_allclose(red.a, ora["a"], atol=1e-14)
        np.testing.assert_array_equal(red.d, C)
        assert np.all(red.tau == 0.0) and np.all(red.sigma == 0.0)

    def test_single_b_tensor_against_loops(self):
        # The slot-identity B is not first-pair symmetric; this probes the
        # raw index bookkeeping of the reduction.
        consts = zero_material(B=_delta4())
        red = pm.reduced_constants(consts)
        ora = oracles.reduced_constants_loops(consts)
        for key in ("a", "b", "d", "tau", "sigma"):
            np.testing.assert_allclose(getattr(red, key), ora[key], atol=1e-14)
        # b_ijrs = B_jirs = delta_jr delta_is for the slot-identity B
        for i in range(3):
            for j in range(3):
                for r in range(3):
                    for s in range(3):
                        assert red.b[i, j, r, s] == (1.0 if (j == r and i == s) else 0.0)

    def test_reduced_symmetries(self, random_consts):
        red = pm.reduced_constants(random_consts)
        np.testing.assert_allclose(red.a, red.a.transpose(2, 3, 0, 1), atol=1e-12)
        np.testing.assert_allclose(red.d, red.d.transpose(2, 3, 0, 1), atol=1e-12)

    def test_loop_oracle_random(self, random_consts):
        red = pm.reduced_constants(random_consts)
        ora = oracles.reduced_constants_loops(random_consts)
        for key in ("a", "b", "d", "tau", "sigma"):
            np.testing.assert_allclose(getattr(red, key), ora[key], atol=1e-12)


class TestRandomMaterialGenerator:
    @given(st.integers(min_value=0, max_value=10**6))
    def test_always_admissible_and_certified(self, seed):
        consts = pm.random_material(seed)
        assert consts.speed.c > 0.0
        assert consts.form.xi_min > 1e-10
        assert worst_stress_energy_ratio(consts) <= 1.0 + 1e-9

    def test_acoustic_speeds_below_c(self):
        for seed in range(5):
            consts = pm.random_material(seed)
            c = consts.speed.c
            assert oracles.acoustic_speed_limit(consts) <= c

    def test_m_n_symmetric(self):
        consts = pm.random_material(5)
        np.testing.assert_allclose(consts.M, consts.M.T, atol=1e-15)
        np.testing.assert_allclose(consts.N, consts.N.T, atol=1e-15)


# sha256 of the float64 bytes of every field, in MATERIAL_KEYS order, of each
# bundled material, captured before their constructors were rewritten; random:0-8
# re-captured when the bounds of 𝒜 came from its two diagonal blocks, which moves
# the certification shift by roundoff.
MATERIAL_DIGESTS = {
    "identity": "636d1582c3b3644398beea722a1f3f1851f42c85f2fde0fc1fa742bf93e64e02",
    "decoupled": "503c0373a97c447c28db6f13c5cf5274dff00f9146b9ecb5c960d30502960d16",
    "random:0": "3980481bd541c9aed70538b3ea6a30805f8d804b6fdec0ab6291bd075dec0151",
    "random:1": "cc738f635ee72ef0c93d345d0b3563bbb73d02b1441c5b8c67fcedefc1cc8511",
    "random:2": "04618960b82bfb339f5504a37f1d432c43a5665be86338e382728d56827e61ee",
    "random:3": "e4ca9ca26d05b64cbd39013b006733cb4eb17672b6f2ef92d6735b749d1c1748",
    "random:4": "44f36194e51ce7c157619d0b5226577df848719c13c466c6b361bc0f7854aebc",
    "random:5": "a37efed0b08b1f6c377c4115b8308da79493d91501bb13b022e2fce3ad0521ab",
    "random:6": "4702e28a85d2ef3da6c3924db645be3c6c999f824187f30b4446010b37a98228",
    "random:7": "88f0a3b6480d21c99277a093b208446957c580e80f710c08b23e7cca2f7c8c76",
    "random:8": "66f8c7734f17b390eafdcf87205cd17f20faf651dd214fb91a00c215949a9392",
    "random:9": "7e685b793985fb1966f00d4cfc5f1d5d63fdd4357664ff3341328501234fd945",
}


@pytest.mark.parametrize("spec, digest", MATERIAL_DIGESTS.items())
def test_bundled_materials_are_bit_identical(spec, digest):
    consts = material_from_spec(spec)
    h = hashlib.sha256()
    for key in MATERIAL_KEYS:
        h.update(np.ascontiguousarray(getattr(consts, key), dtype=np.float64).tobytes())
    assert h.hexdigest() == digest


class TestMaterialFile:
    def test_round_trip_exact(self, tmp_path, random_consts):
        path = tmp_path / "mat.txt"
        pm.save_material(random_consts, path)
        loaded = pm.load_material(path)
        for key in MATERIAL_KEYS:
            np.testing.assert_array_equal(np.asarray(getattr(loaded, key)),
                                          np.asarray(getattr(random_consts, key)))

    def test_comments_and_multiline_arrays(self, tmp_path, random_consts):
        path = tmp_path / "mat.txt"
        pm.save_material(random_consts, path)
        lines = path.read_text().splitlines()
        lines.insert(1, "# inserted comment")
        wrapped = []
        for ln in lines:
            if ln.startswith("alpha"):
                cut = ln.index("],") + 2
                wrapped += [ln[:cut], "    " + ln[cut:]]
            else:
                wrapped.append(ln)
        path.write_text("\n".join(wrapped) + "\n")
        loaded = pm.load_material(path)
        np.testing.assert_array_equal(loaded.alpha, random_consts.alpha)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "mat.txt"
        path.write_text("bogus = 1.0\n")
        with pytest.raises(InvalidParameter, match="unknown key"):
            pm.load_material(path)

    def test_missing_keys_rejected(self, tmp_path, identity_consts):
        path = tmp_path / "mat.txt"
        pm.save_material(identity_consts, path)
        lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("rho1")]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidParameter, match="missing"):
            pm.load_material(path)

    def test_slot_layout_labels(self):
        assert pair_slot(1, 2) == 5
        from poromix.materials import SLOT_LABELS

        assert len(SLOT_LABELS) == 29
        assert SLOT_LABELS[18] == "phi1"


# Every non-runtime check value of suite_constitutive(seed), measured before the
# sweep stacked its materials, which had to reproduce them; the values that moved
# by roundoff re-captured when the bounds of 𝒜 came from its two diagonal blocks.
SWEEP_GOLDEN = {
    0: {"eigen_envelope": 0.0, "power_identity_static": 1.8674394232107226e-15,
        "power_identity_rate": 1.3336709306337883e-15,
        "dual_constitutive_forms": 1.6933444172376679e-15,
        "stress_energy_bound": 0.9447649537742402, "traction_bound": 0.7071323291193101},
    1: {"eigen_envelope": 0.0, "power_identity_static": 2.145365402678709e-15,
        "power_identity_rate": 9.803331249672817e-16,
        "dual_constitutive_forms": 1.740748569303775e-15,
        "stress_energy_bound": 0.9216336285156669, "traction_bound": 0.6965966832367788},
}
# The generator state after the per-material sweep at seed 0, where the
# configured material's states start.
SWEEP_END_STATE = 123729014746426331670029127717936174267


def count_spectra(monkeypatch) -> collections.Counter:
    """Count ``eigvalsh`` calls by matrix size, and Cholesky factorizations (one per
    coupled pencil), from here on."""
    calls = collections.Counter()
    for name in ("eigvalsh", "cholesky"):
        def counted(a, *args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            calls[_name, a.shape[-1]] += 1
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def count_assemblies(monkeypatch) -> collections.Counter:
    """Count assemblies of 𝒜 and of Σ, from here on."""
    calls = collections.Counter()
    for name in ("quadratic_form_matrix", "stress_component_matrix"):
        def counted(consts, _fn=getattr(pm.materials, name), _name=name):
            calls[_name] += 1
            return _fn(consts)
        monkeypatch.setattr(pm.materials, name, counted)
    return calls


class TestCertification:
    def test_a_sweep_chunk_assembles_its_form_and_stress_map_once(self, monkeypatch):
        # 𝒜 of the drawn law and Σ of the shifted one; the certified law carries both
        pm.random_material(0)  # one-time: 𝒜 of the certify steps
        calls = count_assemblies(monkeypatch)
        law, states = verify._sweep_chunk(np.random.default_rng(0), verify._SWEEP_CHUNK)
        verify._sweep_maxima(law, states)
        assert calls == {"quadratic_form_matrix": 1, "stress_component_matrix": 1}

    def test_carried_form_and_stress_map_are_a_fresh_assembly_bit_for_bit(self):
        chunk = verify._sweep_chunk(np.random.default_rng(0), verify._SWEEP_CHUNK)[0]
        for law in [pm.random_material(seed) for seed in range(40)] + [chunk]:
            assert {"form", "stress_matrix"} <= vars(law).keys()  # carried by certify
            fresh = dataclasses.replace(law)
            assert law.form.matrix.tobytes() == fresh.form.matrix.tobytes()
            assert law.stress_matrix.tobytes() == fresh.stress_matrix.tobytes()

    def test_a_sweep_chunk_costs_two_solves_of_each_block_and_one_pencil(self, monkeypatch):
        # the drawn 𝒜₁ and the pencil at 17, the drawn and the certified 𝒜₂ at 9, and a
        # at 3; no solve of the whole 26-slot form, and none in the checks
        budget = {("eigvalsh", 17): 2, ("eigvalsh", 9): 2, ("eigvalsh", 3): 1,
                  ("cholesky", 17): 1}
        calls = count_spectra(monkeypatch)
        law, states = verify._sweep_chunk(np.random.default_rng(0), verify._SWEEP_CHUNK)
        assert calls == budget
        verify._sweep_maxima(law, states)
        assert calls == budget

    def test_carried_block_bounds_are_a_fresh_derivation(self):
        chunk = verify._sweep_chunk(np.random.default_rng(0), verify._SWEEP_CHUNK)[0]
        for law in [pm.random_material(seed) for seed in range(40)] + [chunk]:
            assert pm.validate_symmetries(law).ok
            assert {"a1_bounds", "a2_bounds"} <= vars(law.form).keys()  # derived by certify
            fresh = dataclasses.replace(law).form
            for got, want in zip(*[(f.xi_min, f.xi_max, *f.a1_bounds, *f.a2_bounds)
                                   for f in (law.form, fresh)]):
                np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    def test_carried_coupled_bound_is_a_fresh_pencil_bit_for_bit(self):
        chunk = verify._sweep_chunk(np.random.default_rng(0), verify._SWEEP_CHUNK)[0]
        for law in [pm.random_material(seed) for seed in range(40)] + [chunk]:
            assert "coupled_stress_bound" in vars(law)  # carried, not computed on this law
            fresh = dataclasses.replace(law).coupled_stress_bound
            assert np.asarray(law.coupled_stress_bound).tobytes() == np.asarray(fresh).tobytes()

    def test_certify_steps_are_the_identity_on_realizable_strains(self):
        q = symmetric_subspace_basis()
        restricted = q.T @ pm.identity_material().form.matrix @ q
        np.testing.assert_allclose(restricted, np.eye(26), rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("seed", range(40))
    def test_shifted_bounds_are_the_drawn_bounds_plus_the_step(self, seed):
        drawn = pm.MaterialConstants(**pm.materials.draw_material(np.random.default_rng(seed)))
        s = 0.08 - drawn.form.xi_min  # certify_material's floor
        shifted = dataclasses.replace(drawn, **{
            name: getattr(drawn, name) + s * step
            for name, step in pm.materials._CERTIFY_STEPS.items()})
        assert shifted.form.xi_min == pytest.approx(drawn.form.xi_min + s, rel=1e-13, abs=0.0)
        assert shifted.form.xi_max == pytest.approx(drawn.form.xi_max + s, rel=1e-13, abs=0.0)
        # the certification's comparison of ξ_M against the pencil does not flip
        kappa = shifted.coupled_stress_bound
        assert (shifted.form.xi_max < kappa) == (drawn.form.xi_max + s < kappa)

    def test_the_shifted_xi_max_decides_whether_a_is_raised(self):
        # every block a twentieth of its step, with the zero-floored a, except one large
        # fraction-gradient modulus: ξ_m = 0, so the certification shifts every block by
        # s = 0.08, and κ of the shifted law falls between the drawn and the shifted ξ_M
        given = {name: 0.05 * np.asarray(step) for name, step in pm.materials._CERTIFY_STEPS.items()}
        drawn = pm.materials._material(**given | {"alpha": np.diag([0.0, 0.0, 0.3])})
        assert (drawn.form.xi_min, drawn.form.xi_max) == (0.0, pytest.approx(0.3, rel=1e-15))
        certified = pm.materials.certify_material(drawn)
        kappa = certified.coupled_stress_bound
        assert drawn.form.xi_max < kappa <= certified.form.xi_max
        # the shifted ξ_M already dominates κ: a takes the shift and is not raised further
        np.testing.assert_array_equal(certified.a, drawn.a + 0.08 * np.eye(3))
        assert certified.form.xi_max == pytest.approx(0.38, rel=1e-14)


class TestConstitutiveSweep:
    def test_stacks_are_the_random_material_sequence(self):
        rng, ref = np.random.default_rng(0), np.random.default_rng(0)
        seen = 0
        for law, states in verify._sweep_chunks(rng):
            for i in range(law.A.shape[0]):
                consts = pm.random_material(ref)
                ref_states = verify._draw_states(ref, verify._SWEEP_STATES)
                for key in MATERIAL_KEYS:
                    got = np.asarray(getattr(law, key)[i, 0]).tobytes()
                    assert got == np.asarray(getattr(consts, key)).tobytes(), (seen, key)
                for got, want in zip(states, ref_states):
                    assert got[i].tobytes() == want.tobytes(), seen
                seen += 1
        assert seen == verify._SWEEP_MATERIALS
        assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.bit_generator.state["state"]["state"] == SWEEP_END_STATE

    @pytest.mark.parametrize("seed", [0, 1])
    def test_draws_keep_the_per_call_generator_order(self, seed):
        # one generator call per tensor and per state field, as the oracle draws them
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            got, want = pm.materials.draw_material(rng), oracles.draw_material_per_call(ref)
            assert got.keys() == want.keys()
            for key in MATERIAL_KEYS:
                assert np.asarray(got[key]).tobytes() == np.asarray(want[key]).tobytes(), key
            states = verify._draw_states(rng, verify._SWEEP_STATES)
            ref_states = oracles.draw_states_per_part(ref, verify._SWEEP_STATES)
            for got_part, want_part in zip(states, ref_states, strict=True):
                assert got_part.shape == want_part.shape
                assert got_part.tobytes() == want_part.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("seed", sorted(SWEEP_GOLDEN))
    def test_check_values_are_unchanged(self, seed):
        report = verify.suite_constitutive(seed)
        values = {c.name: c.measured for c in report.checks if not c.name.startswith("runtime_")}
        assert_golden(values, SWEEP_GOLDEN[seed], rel=1e-14)
        bound = next(c for c in report.checks if c.name == "stress_energy_bound")
        assert bound.detail == "operator bound 1"

    def test_point_sample_residuals_are_the_power_identities_bit_for_bit(self):
        law, states = verify._sweep_chunk(np.random.default_rng(0), verify._SWEEP_CHUNK)
        pt = verify._point_sample(law, states)
        parts = states[:-1]  # each state's rate is the next state along axis 1
        want = power_identity_residuals(law, PointState(*parts),
                                        PointState(*(np.roll(p, -1, axis=1) for p in parts)))
        for got, ref in zip((pt["static"], pt["rate"]), want, strict=True):
            assert got.tobytes() == ref.tobytes()

    def test_peak_memory_is_bounded(self):
        # One chunk of the sweep, reduced to its maxima, is held at once: measured
        # 3.92 MB in a fresh process (3.15 MB once its one-time caches are warm),
        # against 5.77 MB when every chunk's samples were kept.  Margin 12 %.
        tracemalloc.start()
        try:
            verify.suite_constitutive(0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.4e6

    def test_the_generator_keeps_nothing_of_a_chunk(self):
        # no draws, stacks or uncertified law between chunks: measured 3.5 kB held,
        # against 1.34 MB when the generator's frame kept them
        next(verify._sweep_chunks(np.random.default_rng(0)))  # one-time caches
        tracemalloc.start()
        try:
            chunks = verify._sweep_chunks(np.random.default_rng(0))
            next(chunks)  # the chunk is dropped at once
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 50_000

    def test_configured_material_is_normalised_as_the_sweep(self):
        consts = pm.random_material(0)
        report = verify.suite_constitutive(0, extra_consts=consts)
        rng = np.random.default_rng(0)
        for _ in verify._sweep_chunks(rng):
            pass
        pt = verify._point_sample(consts, verify._draw_states(rng, verify._SWEEP_STATES))
        expected = max(float(np.max(pt["static"] / (1.0 + pt["n2"]))),
                       float(np.max(pt["rate"] / (1.0 + pt["n2"]))),
                       float(np.max(pt["dual"] / (1.0 + np.sqrt(pt["n2"])))))
        check = next(c for c in report.checks if c.name == "config_material_identities")
        assert check.passed and check.measured == expected
