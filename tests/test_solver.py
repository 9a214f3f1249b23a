"""Dynamics solver: state layout, stencils, force assembly, stepping, rigid fit."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

import poromix as pm
from poromix import diagnostics
from poromix import io as pio
from poromix import solver
from poromix.errors import InvalidParameter, NonFinite
from poromix.fields import STATE_FIELDS, difference, jet_map, subtract_adjoint
from poromix.materials import pair_slot
from poromix.pointwise import generalized_stress, strain_vector
from poromix.solver import acceleration
from poromix.verify import _fast_mode_initial, _peak_position, _peak_speed

from . import oracles


def natural_bc(dim):
    return pm.BoundaryPartition.uniform("natural", "natural", dim=dim)


def small_problem(consts, n=64, dim=1, boundary=None, **kw):
    if dim == 1:
        grid = pm.Grid(n=(n,), h=(1.0 / (n - 1),))
    else:
        grid = pm.Grid(n=(n, n), h=(1.0 / (n - 1), 1.0 / (n - 1)))
    return pm.ProblemSpec(
        grid=grid, consts=consts,
        boundary=boundary or natural_bc(dim), **kw,
    )


class TestGridAndTimestep:
    def test_stable_timestep_formula_1d(self):
        grid = pm.Grid(n=(11,), h=(0.1,))
        sp = pm.SpeedParams(m_inertia=1.0, c=2.0)
        assert pm.stable_timestep(grid, sp, 0.5) == pytest.approx(0.025)

    def test_stable_timestep_formula_2d(self):
        grid = pm.Grid(n=(11, 11), h=(0.1, 0.1))
        sp = pm.SpeedParams(m_inertia=1.0, c=1.0)
        assert pm.stable_timestep(grid, sp, 1.0) == pytest.approx(0.1 / math.sqrt(2.0))

    def test_invalid_cfl(self):
        grid = pm.Grid(n=(11,), h=(0.1,))
        sp = pm.SpeedParams(m_inertia=1.0, c=1.0)
        with pytest.raises(InvalidParameter):
            pm.stable_timestep(grid, sp, 0.0)
        with pytest.raises(InvalidParameter):
            pm.stable_timestep(grid, sp, 1.5)

    @pytest.mark.parametrize("ulps", [0, 1, 2, 4])
    def test_t_a_few_ulps_past_n_steps_takes_n_steps(self, ulps):
        # one ulp of T / base at 20,000 steps (3.6e-12) exceeds an absolute 1e-12 guard
        problem = small_problem(pm.identity_material(), n=11, cfl=0.5)
        base = pm.stable_timestep(problem.grid, problem.speed(), problem.cfl)
        T = 20_000 * base
        for _ in range(ulps):
            T = math.nextafter(T, math.inf)
        assert solver.cfl_steps(replace(problem, T=T)) == 20_000
        assert solver.cfl_steps(replace(problem, T=20_000 * base * (1.0 + 1e-9))) == 20_001

    def test_grid_validation(self):
        with pytest.raises(InvalidParameter):
            pm.Grid(n=(3,), h=(0.1,))
        with pytest.raises(InvalidParameter):
            pm.Grid(n=(5, 5, 5), h=(0.1, 0.1, 0.1))
        with pytest.raises(InvalidParameter):
            pm.Grid(n=(5,), h=(0.1, 0.1))
        for counts in (64.7, (10.9, 5.2), (8, 8.5)):
            with pytest.raises(InvalidParameter, match="integers"):
                pm.Grid(n=counts)
        assert pm.Grid(n=(8.0, np.int64(9))).n == (8, 9)

    def test_grid_defaults_to_the_unit_box(self):
        grid = pm.Grid((5, 9))
        assert (grid.dim, grid.h, grid.origin) == (2, (0.25, 0.125), (0.0, 0.0))
        assert grid.extent() == (1.0, 1.0)
        assert pm.Grid(11) == pm.Grid(n=(11,), h=(0.1,), origin=(0.0,))

    def test_grid_takes_arrays_as_tuples(self):
        arrays = pm.Grid(n=np.array([5, 6]), h=np.array([0.1, 0.2]), origin=np.zeros(2))
        tuples = pm.Grid(n=(5, 6), h=(0.1, 0.2), origin=(0.0, 0.0))
        assert arrays == tuples
        assert np.array_equal(arrays.positions(), tuples.positions())

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_grid_and_run_controls_rejected(self, random_consts, bad):
        with pytest.raises(InvalidParameter, match="spacing"):
            pm.Grid(n=(11,), h=(bad,))
        with pytest.raises(InvalidParameter, match="origin"):
            pm.Grid(n=(5, 5), h=(0.1, 0.1), origin=(0.0, bad))
        for name in ("T", "lam"):
            with pytest.raises(InvalidParameter, match="finite"):
                small_problem(random_consts, **{name: bad})

    def test_weights_measure_volume(self):
        grid = pm.Grid(n=(9, 13), h=(0.125, 0.05))
        assert grid.weights().sum() == pytest.approx(1.0 * 0.6)


# Where each named field lives in the stacked state, and the order of the snapshot blocks.
NAMED_ROWS = {
    "u1": ("U", slice(0, 3)), "u2": ("U", slice(3, 6)), "phi1": ("U", 6), "phi2": ("U", 7),
    "v1": ("V", slice(0, 3)), "v2": ("V", slice(3, 6)), "psi1": ("V", 6), "psi2": ("V", 7),
}


def read_snapshot_blocks(data: bytes) -> dict[str, np.ndarray]:
    """Each block of a snapshot file under the field name of its header."""
    blocks, pos = {}, 0
    while pos < len(data):
        end = data.index(b"\n\n", pos)
        meta = dict(line.split(" ", 1) for line in data[pos:end].decode("ascii").splitlines())
        shape = tuple(int(v) for v in meta["shape"].split())
        nbytes = 8 * math.prod(shape)
        blocks[meta["field"]] = np.frombuffer(data[end + 2:end + 2 + nbytes], "<f8").reshape(shape)
        pos = end + 2 + nbytes
    return blocks


class TestInitialize:
    def test_zero_data(self, random_consts):
        state = pm.initialize(small_problem(random_consts))
        assert state.max_abs() == 0.0

    def test_constant_field(self, random_consts):
        def const(x):
            out = np.zeros((3,) + x.shape[1:])
            out[1] = 2.5
            return out

        state = pm.initialize(small_problem(random_consts, initial=pm.InitialData(u1=const)))
        assert np.all(state.u1[1] == 2.5)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("name", list(NAMED_ROWS))
    def test_named_field_lands_on_its_rows_and_snapshot_block(self, random_consts, tmp_path,
                                                             dim, name):
        array, rows = NAMED_ROWS[name]
        prob = small_problem(random_consts, n=6, dim=dim)
        lead = (3,) if isinstance(rows, slice) else ()
        marker = 1.0 + np.arange(math.prod(lead + prob.grid.shape)).reshape(lead + prob.grid.shape)
        prob = replace(prob, initial=pm.InitialData(**{name: lambda x: marker}))
        state = pm.initialize(prob)
        expected = {"U": np.zeros(state.U.shape), "V": np.zeros(state.V.shape)}
        expected[array][rows] = marker
        np.testing.assert_array_equal(state.U, expected["U"])
        np.testing.assert_array_equal(state.V, expected["V"])
        np.testing.assert_array_equal(getattr(state, name), marker)

        path = tmp_path / "snap.bin"
        pio.write_snapshot(path, state)
        blocks = read_snapshot_blocks(path.read_bytes())
        assert list(blocks) == list(NAMED_ROWS)
        for other, block in blocks.items():
            np.testing.assert_array_equal(block, marker if other == name else np.zeros_like(block))
        back = pio.read_snapshot(path)
        np.testing.assert_array_equal(back.U, state.U)
        np.testing.assert_array_equal(back.V, state.V)

    def test_gaussian_matches_nodal_sampling(self, random_consts):
        prob = small_problem(
            random_consts, n=33,
            initial=pm.InitialData(phi1=pm.gaussian_pulse([0.4], 0.1, 2.0)))
        state = pm.initialize(prob)
        xs = prob.grid.axes()[0]
        np.testing.assert_allclose(
            state.phi1, 2.0 * np.exp(-((xs - 0.4) ** 2) / 0.02), atol=1e-15)


def raw_jet(U):
    return np.stack([U] + [difference(U, ax, np.empty(U.shape)) for ax in range(1, U.ndim)])


def transpose_difference(q, ax):
    """δᵀq, from the in-place kernel F −= δᵀq on F = 0."""
    return -subtract_adjoint(np.zeros(q.shape), q.copy(), ax)


class TestStencils:
    def test_gradient_exact_on_quadratics(self):
        xs = 0.3 + 0.05 * np.arange(12)
        f = 1.5 - 2.0 * xs + 0.75 * xs**2
        g = difference(f, 0, np.empty_like(f)) / (2.0 * 0.05)
        np.testing.assert_allclose(g, -2.0 + 1.5 * xs, atol=1e-12)

    @pytest.mark.parametrize("shape", [(17,), (4,), (8, 4), (9, 7), (4, 4), (8, 5, 4)])
    def test_difference_matches_the_gradient_formula(self, rng, shape):
        f = rng.standard_normal(shape)
        for ax in range(len(shape)):
            want = 0.6 * oracles.central_gradient(f, ax, 0.3)
            np.testing.assert_allclose(difference(f, ax, np.empty(shape)), want,
                                       rtol=0.0, atol=1e-14 * np.max(np.abs(want)))

    def test_field_strain_e_block_is_symmetric(self, rng):
        # representation contract of the 29-slot field: e_ij slots equal e_ji
        for dim, shape, h in ((1, (9,), (0.1,)), (2, (9, 7), (0.1, 0.2))):
            P = jet_map(dim)
            for i in range(3):
                for j in range(3):
                    np.testing.assert_array_equal(P[pair_slot(i, j)], P[pair_slot(j, i)])
            Y = raw_jet(rng.standard_normal((8,) + shape))
            ev = P @ Y.reshape(P.shape[1], -1)
            e = ev[:9].reshape((3, 3, -1))
            np.testing.assert_array_equal(e, np.swapaxes(e, 0, 1))

    @pytest.mark.parametrize("contiguous", [True, False])
    @pytest.mark.parametrize("shape", [(17,), (4,), (9, 7), (4, 4), (8, 4), (8, 5, 4),
                                       (8, 17, 17)])
    def test_adjoint_identity(self, rng, shape, contiguous):
        # sum(δf·q) == sum(f·δᵀq), on the minimal n = 4 grid too; f may be a strided view
        for ax in range(len(shape)):
            f = rng.standard_normal(shape + (2,))[..., 0]
            if contiguous:
                f = f.copy()
            q = rng.standard_normal(shape)
            lhs = float(np.sum(difference(f, ax, np.empty(shape)) * q))
            rhs = float(np.sum(f * transpose_difference(q, ax)))
            assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)

    def test_non_contiguous_input_is_differenced_like_its_copy(self, rng):
        U = rng.standard_normal((8, 9, 14))[:, :, ::2]
        for ax in (1, 2):
            np.testing.assert_array_equal(difference(U, ax, np.empty(U.shape)),
                                          difference(U.copy(), ax, np.empty(U.shape)))


class TestForceIsEnergyGradient:
    @pytest.mark.parametrize("dim,ukind,pkind", [
        (1, "natural", "natural"),
        (1, "dirichlet", "natural"),
        (2, "natural", "natural"),
        (2, "dirichlet", "dirichlet"),
        (2, "mixed", "mixed"),
    ])
    def test_matches_finite_difference(self, rng, random_consts, dim, ukind, pkind):
        if ukind == "mixed":
            # junction corners: Dirichlet on one side per family, natural rest
            bc = pm.BoundaryPartition(
                u={"x0": pm.SideCondition("dirichlet"), "x1": pm.SideCondition("natural"),
                   "y0": pm.SideCondition("natural"), "y1": pm.SideCondition("natural")},
                phi={"x0": pm.SideCondition("natural"), "x1": pm.SideCondition("natural"),
                     "y0": pm.SideCondition("dirichlet"), "y1": pm.SideCondition("natural")},
            )
        else:
            bc = pm.BoundaryPartition.uniform(ukind, pkind, dim=dim)
        prob = small_problem(random_consts, n=7, dim=dim, boundary=bc)
        grid = prob.grid
        ws = prob.workspace
        w = grid.weights()
        shape = grid.shape

        def energy(U):
            return float(np.sum(w * oracles.stored_energy_pointwise(random_consts, U, grid.h)))

        U = rng.standard_normal((8,) + shape)
        a = acceleration(ws, U)
        eps = 1e-6
        k = random_consts
        mask_u, mask_phi = (prob.boundary.dirichlet_mask(family, grid) for family in ("u", "phi"))
        idx = list(np.ndindex(shape))
        for trial in range(16):
            node = idx[rng.integers(0, len(idx))]
            i = int(rng.integers(0, 3))
            for row, masked, inertia in ((i, mask_u, k.rho1), (6, mask_phi, k.rho1 * k.chi1)):
                if masked[node]:
                    continue
                up, um = U.copy(), U.copy()
                up[(row,) + node] += eps
                um[(row,) + node] -= eps
                grad = (energy(up) - energy(um)) / (2 * eps)
                assert a[(row,) + node] == pytest.approx(
                    -grad / (w[node] * inertia), abs=2e-4, rel=1e-4)


class TestJetForm:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_stress_blocks_match_pointwise_law(self, rng, random_consts, dim):
        # (QY)_0 = (p, -p, -g1, -g2) and (QY)_j = (S1[:, j], S2[:, j], h1_j, h2_j)
        prob = small_problem(random_consts, n=9, dim=dim)
        U = rng.standard_normal((8,) + prob.grid.shape)
        Y, QY = prob.workspace.stress(U)
        grads = list(Y[1:])
        idx = list(np.ndindex(prob.grid.shape))
        for trial in range(12):
            node = idx[rng.integers(0, len(idx))]
            S = generalized_stress(random_consts, strain_vector(oracles.point_state_at(U, grads, node)))
            at = (slice(None), slice(None)) + node
            blocks = [np.concatenate([S.p, -S.p, [-S.g1, -S.g2]])]
            blocks += [np.concatenate([S.S1[:, j], S.S2[:, j], [S.h1[j], S.h2[j]]])
                       for j in range(dim)]
            expected = np.array(blocks)
            scale = 1.0 + np.max(np.abs(expected))
            np.testing.assert_allclose(QY[at], expected, rtol=0.0, atol=1e-12 * scale)


class TestStepBasics:
    def test_null_data_stays_exactly_null(self, random_consts):
        prob = small_problem(random_consts, T=0.2)
        final = pm.stream(prob, n_steps=400)[0]
        assert final.max_abs() == 0.0

    def test_nonfinite_raises_with_step(self, random_consts):
        prob = small_problem(
            random_consts, n=16, T=100.0,
            initial=pm.InitialData(u1=pm.gaussian_pulse([0.5], 0.1, 1.0, component=0)))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFinite) as exc:
                pm.stream(prob, n_steps=500)  # dt = 0.2, far above the stable step
        assert exc.value.step is not None

    def test_dirichlet_nodes_pinned(self, random_consts):
        bc = pm.BoundaryPartition.uniform("dirichlet", "dirichlet", dim=1)
        prob = small_problem(
            random_consts, n=32, boundary=bc, T=0.05,
            initial=pm.InitialData(u1=pm.gaussian_pulse([0.5], 0.1, 1.0, component=0)))
        final = pm.stream(prob)[0]
        assert np.all(final.u1[:, 0] == 0.0) and np.all(final.u1[:, -1] == 0.0)
        assert final.phi1[0] == 0.0 and final.phi2[-1] == 0.0

    def test_prescribed_static_dirichlet_value(self, random_consts):
        val = np.array([0.25, -0.5, 0.125])
        bc = pm.BoundaryPartition(
            u={"x0": pm.SideCondition("dirichlet", (val, 0.5 * val)),
               "x1": pm.SideCondition("natural")},
            phi={"x0": pm.SideCondition("natural"), "x1": pm.SideCondition("natural")},
        )
        prob = small_problem(random_consts, n=24, boundary=bc, T=0.02)
        final = pm.stream(prob)[0]
        np.testing.assert_array_equal(final.u1[:, 0], val)
        np.testing.assert_array_equal(final.u2[:, 0], 0.5 * val)

    def test_determinism_bit_identical(self, random_consts):
        prob = small_problem(
            random_consts, n=48, T=0.1,
            initial=pm.InitialData(u1=pm.gaussian_pulse([0.5], 0.08, 1.0, component=0)))
        a = pm.stream(prob)[0]
        kept = a.copy()
        b = pm.stream(prob)[0]
        # each run steps the state it initialized: the first run's final state is unchanged
        assert not np.shares_memory(a.U, b.U)
        assert np.array_equal(a.U, kept.U) and np.array_equal(a.V, kept.V)
        for name in ("u1", "u2", "phi1", "phi2", "v1", "v2", "psi1", "psi2"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_linearity_of_the_flow(self, random_consts):
        ini_a = pm.InitialData(u1=pm.gaussian_pulse([0.4], 0.08, 1.0, component=0))
        ini_b = pm.InitialData(
            v2=pm.gaussian_pulse([0.6], 0.08, 0.7, component=1),
            phi1=pm.gaussian_pulse([0.5], 0.08, 0.5))
        ini_ab = pm.InitialData(
            u1=ini_a.u1, v2=ini_b.v2, phi1=ini_b.phi1)
        finals = [
            pm.stream(small_problem(random_consts, n=101, T=0.3, initial=ini), n_steps=1000)[0]
            for ini in (ini_a, ini_b, ini_ab)
        ]
        scale = max(f.max_abs() for f in finals)
        for name in ("u1", "u2", "phi1", "phi2", "v1", "v2"):
            lhs = getattr(finals[2], name)
            rhs = getattr(finals[0], name) + getattr(finals[1], name)
            assert np.max(np.abs(lhs - rhs)) <= 1e-8 * scale

    def test_long_run_energy_bounded(self, random_consts):
        prob = small_problem(
            random_consts, n=64, cfl=0.9, T=1.0, energy_every=100, snapshot_every=10**9,
            initial=pm.InitialData(u1=pm.gaussian_pulse([0.5], 0.1, 1.0, component=0)))
        series = pm.stream(prob, n_steps=10_000)[1]
        assert np.max(series.total) <= 1.05 * series.total[0]

    def test_null_data_2d(self, random_consts):
        prob = small_problem(random_consts, n=12, dim=2, T=0.05)
        assert pm.stream(prob, n_steps=100)[0].max_abs() == 0.0

    def test_t_zero_returns_initial_record_only(self, random_consts):
        prob = small_problem(
            random_consts, n=16, T=0.0, snapshot_every=1,
            initial=pm.InitialData(u1=pm.gaussian_pulse([0.5], 0.1, 1.0, component=0)))
        final, energy, (states,) = pm.stream(prob, [pm.StateField.copy])
        assert len(states) == len(energy.t) == 1
        assert final.t == 0.0

    def test_2d_energy_oscillation_bounded(self, random_consts):
        def pulse2(comp):
            def f(x):
                out = np.zeros((3,) + x.shape[1:])
                out[comp] = np.exp(-((x[0] - 0.5) ** 2 + (x[1] - 0.5) ** 2) / (2 * 0.08**2))
                return out
            return f

        prob = small_problem(random_consts, n=41, dim=2, T=1.0,
                             initial=pm.InitialData(u1=pulse2(0), v2=pulse2(1)))
        speed = prob.speed()
        dt = 0.5 * min(prob.grid.h) / (speed.c * math.sqrt(2))
        prob2 = small_problem(random_consts, n=41, dim=2, T=400 * dt, energy_every=10,
                              snapshot_every=10**9, initial=prob.initial)
        energy = pm.stream(prob2, n_steps=400)[1]
        # sigma = 3.2 h here, so the bounded leapfrog oscillation dominates
        assert energy.max_relative_drift() <= 5e-3


class TestAccuracy:
    def test_discrete_operator_matches_continuum_second_order(self, random_consts):
        red = pm.reduced_constants(random_consts)
        profiles = {
            "u1": (np.array([1.0, 0.4, -0.3]), oracles.Gaussian1D(0.5, 0.08, 1.0)),
            "u2": (np.array([-0.2, 0.8, 0.1]), oracles.Gaussian1D(0.45, 0.09, 1.0)),
            "phi1": (0.7, oracles.Gaussian1D(0.55, 0.07, 1.0)),
            "phi2": (-0.5, oracles.Gaussian1D(0.5, 0.1, 1.0)),
        }

        def build_initial():
            def vec(amp, g):
                def fn(x):
                    return np.outer(amp, g.val(x[0])).reshape((3,) + x.shape[1:])
                return fn

            def scal(amp, g):
                return lambda x: amp * g.val(x[0])

            return pm.InitialData(
                u1=vec(*profiles["u1"]), u2=vec(*profiles["u2"]),
                phi1=scal(*profiles["phi1"]), phi2=scal(*profiles["phi2"]))

        errs = []
        for n in (101, 201):
            prob = small_problem(random_consts, n=n, initial=build_initial(), T=1.0)
            state = pm.initialize(prob)
            a = acceleration(prob.workspace, state.U)
            xs = prob.grid.axes()[0]
            exact = oracles.continuum_accel_1d(random_consts, red, profiles, xs)
            interior = slice(4, n - 4)
            err = max(
                float(np.max(np.abs(a[0:3, interior] - exact[0][:, interior]))),
                float(np.max(np.abs(a[3:6, interior] - exact[1][:, interior]))),
                float(np.max(np.abs(a[6, interior] - exact[2][interior]))),
                float(np.max(np.abs(a[7, interior] - exact[3][interior]))),
            )
            errs.append(err)
        order = math.log2(errs[0] / errs[1])
        assert 1.7 <= order <= 2.3, f"operator order {order} (errors {errs})"

    def test_single_step_matches_taylor_expansion(self, random_consts):
        red = pm.reduced_constants(random_consts)
        g = oracles.Gaussian1D(0.5, 0.09, 1.0)
        amp = np.array([1.0, -0.5, 0.25])
        profiles = {
            "u1": (amp, g),
            "u2": (np.zeros(3), g),
            "phi1": (0.0, g),
            "phi2": (0.0, g),
        }

        def u1_init(x):
            return np.outer(amp, g.val(x[0])).reshape((3,) + x.shape[1:])

        errs = []
        for lev, n in enumerate((101, 201)):
            prob = small_problem(random_consts, n=n, T=1.0,
                                 initial=pm.InitialData(u1=u1_init))
            state = pm.initialize(prob)
            u1 = state.u1.copy()  # step advances the state in place
            speed = prob.speed()
            dt = 0.5 * prob.grid.h[0] / speed.c
            solver.acceleration(prob.workspace, state.U)  # the first kick reads it
            new = pm.step(state, prob, dt)
            xs = prob.grid.axes()[0]
            exact = oracles.continuum_accel_1d(random_consts, red, profiles, xs)
            interior = slice(4, n - 4)
            taylor = u1[:, interior] + 0.5 * dt**2 * exact[0][:, interior]
            err = float(np.max(np.abs(new.u1[:, interior] - taylor)))
            errs.append(err / (dt**3 + dt * prob.grid.h[0] ** 2))
        # error normalized by (dt^3 + dt h^2) does not grow under refinement (it halves);
        # a step that leaves U where it was misses the drift's ½dt²a and doubles it
        assert errs[1] <= errs[0]

    def test_plane_wave_speed_within_two_percent(self):
        consts = pm.decoupled_material()
        red = pm.reduced_constants(consts)
        v_expected = math.sqrt(red.a[0, 0, 0, 0] / consts.rho1)
        speeds = {}
        for n in (201, 401):
            initial, v_mode = _fast_mode_initial(consts, 0.03, 0.35)
            prob = small_problem(consts, n=n, T=0.25 / v_mode, initial=initial, cfl=0.5,
                                 energy_every=10**9, snapshot_every=4)
            positions = pm.stream(prob, [lambda s: _peak_position(s, prob.grid)])[2][0]
            speeds[n] = _peak_speed(positions)
        assert abs(speeds[401] - v_expected) <= 0.02 * v_expected
        assert v_mode <= prob.speed().c

    def test_l2_convergence_against_mode_solution(self):
        consts = pm.decoupled_material()
        red = pm.reduced_constants(consts)
        kmat = np.array([
            [red.a[0, 0, 0, 0] / consts.rho1, red.b[0, 0, 0, 0] / consts.rho1],
            [red.b[0, 0, 0, 0] / consts.rho2, red.d[0, 0, 0, 0] / consts.rho2],
        ])
        eigvals, eigvecs = np.linalg.eig(kmat)
        fast = int(np.argmax(eigvals.real))
        v_mode = math.sqrt(eigvals.real[fast])
        mode = eigvecs[:, fast].real
        mode /= np.max(np.abs(mode))
        prof = oracles.Gaussian1D(0.35, 0.05, 1.0)
        errs = []
        for n in (101, 201, 401):
            initial, v_check = _fast_mode_initial(consts, 0.05, 0.35)
            assert v_check == pytest.approx(v_mode)
            t_end = 0.3 / v_mode
            prob = small_problem(consts, n=n, T=t_end, initial=initial, cfl=0.4)
            final = pm.stream(prob)[0]
            xs = prob.grid.axes()[0]
            shifted = prof.val(xs - v_mode * t_end)
            err = np.sqrt(np.mean(
                (final.u1[0] - mode[0] * shifted) ** 2
                + (final.u2[0] - mode[1] * shifted) ** 2))
            errs.append(err)
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert sum(orders) / 2 >= 1.6, f"L2 orders {orders} (errors {errs})"


class TestRigidFit:
    def test_pure_translation(self):
        grid = pm.Grid(n=(33,), h=(1.0 / 32.0,))
        tr = np.array([0.3, -0.2, 0.7])
        field = np.broadcast_to(tr.reshape(3, 1), (3, 33)).copy()
        motion, residual, _ = pm.rigid_fit(field, grid)
        np.testing.assert_allclose(motion.translation, tr, atol=1e-12)
        np.testing.assert_allclose(motion.rotation, 0.0, atol=1e-12)
        assert np.max(np.abs(residual)) <= 1e-12

    def test_normalized_data_has_zero_rigid_part(self):
        grid = pm.Grid(n=(41,), h=(0.025,))
        x = grid.positions()
        field = np.zeros((3, 41))
        s = (x[0] - 0.5) / 0.1
        field[0] = s * np.exp(-0.5 * s * s)  # odd axial profile: no momentum/moment
        motion, residual, _ = pm.rigid_fit(field, grid)
        np.testing.assert_allclose(motion.translation, 0.0, atol=1e-10)
        np.testing.assert_allclose(motion.rotation, 0.0, atol=1e-10)
        np.testing.assert_allclose(residual, field, atol=1e-10)

    def test_2d_rotation_recovered(self):
        grid = pm.Grid(n=(15, 17), h=(0.08, 0.07))
        x = grid.positions()
        tr = np.array([0.1, -0.3, 0.2])
        om = np.array([0.0, 0.0, 0.8])
        field = np.zeros((3,) + grid.shape)
        field[0] = tr[0] - om[2] * x[1]
        field[1] = tr[1] + om[2] * x[0]
        field[2] = tr[2]
        motion, _, _ = pm.rigid_fit(field, grid)
        np.testing.assert_allclose(motion.translation, tr, atol=1e-10)
        np.testing.assert_allclose(motion.rotation, om, atol=1e-10)

    def test_random_fields_normalized_against_midpoint_oracle(self, rng, random_consts):
        # the fit takes no density; the oracle's moments carry each constituent's
        for trial in range(100):
            if trial % 2 == 0:
                grid = pm.Grid(n=(int(rng.integers(8, 40)),), h=(0.03,))
            else:
                grid = pm.Grid(n=(int(rng.integers(5, 12)), int(rng.integers(5, 12))),
                               h=(0.05, 0.06))
            shape = grid.shape
            fields = [rng.standard_normal((3,) + shape) for _ in range(4)]
            residuals = [pm.rigid_fit(f, grid)[1] for f in fields]
            x = grid.positions()
            wq = float(np.prod(grid.h))
            for res, rho in ((residuals[0], random_consts.rho1),
                             (residuals[3], random_consts.rho2)):
                lin, ang = oracles.moments_midpoint_loops(res, rho, x, wq)
                scale = rho * wq * np.prod(shape) * max(1.0, np.max(np.abs(res)))
                assert np.max(np.abs(lin)) <= 1e-10 * scale
                assert np.max(np.abs(ang)) <= 1e-10 * scale * max(1.0, np.max(np.abs(x)))


BOUNDARY_CASES = ["traction_free", "dirichlet_zero", "prescribed_value", "prescribed_traction",
                  "prescribed_flux"]


def buffer_case_problem(consts, kind: str, dim: int) -> pm.ProblemSpec:
    """A small problem exercising one boundary kind of the force assembly."""
    keys = [f"{axis}{end}" for axis in "xy"[:dim] for end in (0, 1)]
    u = {k: pm.SideCondition("natural") for k in keys}
    phi = dict(u)
    if kind == "dirichlet_zero":
        u = {k: pm.SideCondition("dirichlet") for k in keys}
        phi = dict(u)
    elif kind == "prescribed_value":
        u["x0"] = pm.SideCondition("dirichlet", ((0.1, 0.2, -0.05), (-0.3, 0.0, 0.15)))
        phi["x1"] = pm.SideCondition("dirichlet", (1.2, -0.9))
    elif kind == "prescribed_traction":
        u["x1"] = pm.SideCondition("natural", ((0.7, 1.1, 1.3), (0.5, 0.25, 0.0)))
    elif kind == "prescribed_flux":
        phi["x0"] = pm.SideCondition("natural", (0.3, -0.05))
    return small_problem(consts, n=17, dim=dim, boundary=pm.BoundaryPartition(u=u, phi=phi))


def internal_force(ws, U):
    """F = −KU, as ``acceleration`` leaves it in the workspace's F buffer."""
    acceleration(ws, U)
    return ws.F.copy()


class TestForceKernel:
    """The raw-difference force against the energy and the jet formula."""

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("kind", BOUNDARY_CASES)
    def test_stiffness_is_symmetric(self, rng, random_consts, kind, dim):
        ws = buffer_case_problem(random_consts, kind, dim).workspace
        U, V = rng.standard_normal((2, 8) + ws.grid.shape)
        FU, FV = internal_force(ws, U), internal_force(ws, V)
        scale = np.linalg.norm(U) * np.linalg.norm(FV)
        assert float(np.vdot(U, FV)) == pytest.approx(float(np.vdot(V, FU)), rel=0.0,
                                                      abs=1e-13 * scale)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("kind", BOUNDARY_CASES)
    def test_strain_energy_is_minus_half_u_dot_f(self, rng, random_consts, kind, dim):
        ws = buffer_case_problem(random_consts, kind, dim).workspace
        U = rng.standard_normal((8,) + ws.grid.shape)
        want = float(np.sum(ws.w * oracles.stored_energy_pointwise(random_consts, U, ws.grid.h)))
        assert -0.5 * float(np.vdot(U, internal_force(ws, U))) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("kind", BOUNDARY_CASES)
    def test_force_matches_the_jet_formula(self, rng, random_consts, kind, dim):
        ws = buffer_case_problem(random_consts, kind, dim).workspace
        U = rng.standard_normal((8,) + ws.grid.shape)
        want = oracles.acceleration_jet(ws, random_consts, U)
        np.testing.assert_allclose(acceleration(ws, U), want, rtol=0.0,
                                   atol=1e-13 * np.max(np.abs(want)))


class TestLineStencil:
    """On a line the force is −KU from blocks of K derived from the jet form."""

    @pytest.mark.parametrize("kind", BOUNDARY_CASES)  # the traction and flux kinds carry a load
    def test_stencil_force_matches_the_jet_path(self, rng, random_consts, kind):
        ws = buffer_case_problem(random_consts, kind, 1).workspace
        assert ws.line is not None
        assert (ws.load is not None) == (kind in ("prescribed_traction", "prescribed_flux"))
        U = rng.standard_normal((8,) + ws.grid.shape)
        for got, want in ((internal_force(ws, U), oracles.internal_force_jet(ws, random_consts, U)),
                          (acceleration(ws, U), oracles.acceleration_jet(ws, random_consts, U))):
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15 * np.max(np.abs(want)))

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_short_lines(self, rng, random_consts, n):
        # below 6 nodes the end windows overlap and the jet path runs; at 6 no node is interior
        ws = small_problem(random_consts, n=n).workspace
        assert (ws.line is None) == (n < 6)
        U = rng.standard_normal((8, n))
        want = oracles.internal_force_jet(ws, random_consts, U)
        np.testing.assert_allclose(internal_force(ws, U), want, rtol=0.0,
                                   atol=1e-15 * np.max(np.abs(want)))

    @pytest.mark.parametrize("n", [6, 17])
    def test_blocks_are_the_probed_stiffness(self, random_consts, n):
        ws = small_problem(random_consts, n=n).workspace
        K = oracles.stiffness_jet(ws, random_consts)  # (8, n, 8, n)
        tol = 1e-13 * np.max(np.abs(K))
        interior, (first, last) = ws.line.interior, ws.line.ends
        B0, B1, B2 = np.split(-interior, 3, axis=1)  # hQ₀₀, A₁, A₂ on (U, δU, δ²U)
        A = {-2: B2, -1: -B1, 0: B0 - 2.0 * B2, 1: B1, 2: B2}
        for i in range(3, n - 3):
            for d in range(-2, 3):
                np.testing.assert_allclose(A[d], K[:, i, :, i + d], rtol=0.0, atol=tol)
            assert not K[:, i, :, :i - 2].any() and not K[:, i, :, i + 3:].any()
        # the end rows act on (U₀, U₁ − U₀, …, U₄ − U₃): back to U by the cumulative sums
        to_diffs = np.eye(5) - np.eye(5, k=-1)
        for rows, at, window in ((first, slice(0, 3), slice(0, 5)),
                                 (last, slice(n - 3, n), slice(n - 5, n))):
            on_U = (rows.reshape(24, 8, 5) @ to_diffs).reshape(8, 3, 8, 5)
            np.testing.assert_allclose(on_U, -K[:, at, :, window], rtol=0.0, atol=tol)
            outside = np.ones(n, bool)
            outside[window] = False
            assert not K[:, at, :, outside].any()

    def test_rigid_translation_is_force_free_to_roundoff_of_the_row_sums(self, rng,
                                                                        random_consts):
        # the jet path rounds at the scale of Q's ∂ blocks, O(1/h); the stencil sees a
        # constant field only through hQ₀₀ and the end rows' sums, O(1)
        ws = small_problem(random_consts, n=201).workspace
        t = rng.standard_normal(3)
        U = np.zeros((8, 201))
        U[:6] = np.r_[t, t][:, None]
        scale = np.max(np.abs(ws.Q[:, :8])) * np.max(np.abs(t))  # Q₀₀ and Q₁₀
        assert np.max(np.abs(internal_force(ws, U))) <= 1e-15 * scale


class TestEvaluationBuffers:
    """The workspace buffers reproduce the allocating formulas bit for bit."""

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("kind", BOUNDARY_CASES)
    def test_force_and_step_match_allocating_oracle(self, rng, random_consts, kind, dim):
        prob = buffer_case_problem(random_consts, kind, dim)
        ws = prob.workspace
        shape = (8,) + prob.grid.shape
        U, V = rng.standard_normal(shape), rng.standard_normal(shape)
        a = acceleration(ws, U)
        np.testing.assert_array_equal(a, oracles.acceleration_allocating(ws, U))
        # step advances U, V and a in place, so the oracle gets copies
        U1, V1, a1 = oracles.step_allocating(ws, U.copy(), V.copy(), 0.01, a.copy())
        new = pm.step(pm.StateField(t=0.3, U=U, V=V), prob, 0.01)
        for got, want in ((new.U, U1), (new.V, V1), (ws.a, a1)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("kind", BOUNDARY_CASES)
    def test_step_advances_its_own_state(self, rng, random_consts, kind, dim):
        prob = buffer_case_problem(random_consts, kind, dim)
        ws, shape, dt = prob.workspace, (8,) + prob.grid.shape, 1e-3
        U, V = rng.standard_normal(shape), rng.standard_normal(shape)
        state = pm.StateField(t=0.0, U=U, V=V)
        a = acceleration(ws, U)
        want = U.copy(), V.copy(), a.copy()
        for k in range(1, 5):
            want = oracles.step_allocating(ws, *want[:2], dt, want[2])
            got = pm.step(state, prob, dt)
            # the same state object and arrays, advanced; the new acceleration in ws.a, still a
            assert got is state and got.U is U and got.V is V and ws.a is a
            assert got.t == k * dt
            for array, expected in zip((U, V, a), want):
                np.testing.assert_array_equal(array, expected)

    def test_step_refuses_a_strided_state(self, rng, random_consts):
        # pinning a copy of a strided U would leave the pinned nodes of the state free
        prob = buffer_case_problem(random_consts, "dirichlet_zero", 1)
        rows = rng.standard_normal((2, 8, prob.grid.n[0] + 3))
        state = pm.StateField(t=0.0, U=rows[0, :, :-3], V=rows[1, :, :-3])
        kept = rows.copy()
        with pytest.raises(InvalidParameter, match="C-contiguous"):
            pm.step(state, prob, 1e-3)
        assert state.t == 0.0 and np.array_equal(rows, kept)

    @pytest.mark.parametrize("walls", ["natural", "dirichlet"])
    def test_steady_state_step_allocates_no_grid_sized_array(self, random_consts, walls):
        import tracemalloc

        prob = small_problem(random_consts, n=64, dim=2,
                             boundary=pm.BoundaryPartition.uniform(walls, walls, dim=2),
                             initial=pm.InitialData(u1=pm.gaussian_pulse([0.5, 0.5], 0.06, 1.0,
                                                                          component=0)))
        ws = prob.workspace
        state = pm.initialize(prob)
        acceleration(ws, state.U)
        for _ in range(3):
            pm.step(state, prob, 1e-3)
        tracemalloc.start()
        try:
            pm.step(state, prob, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # numpy's 64 KiB buffer for the broadcast jet-weight multiply (0.25 U.nbytes
        # at 64²) and the kernels' end-row temporaries: measured 0.2548-0.2551
        assert peak <= 0.26 * state.U.nbytes

    def test_stream_steps_allocate_no_grid_sized_array(self, random_consts, monkeypatch):
        import tracemalloc

        prob = small_problem(random_consts, n=64, dim=2, T=0.01, energy_every=2,
                             initial=pm.InitialData(u1=pm.gaussian_pulse([0.5, 0.5], 0.06, 1.0,
                                                                          component=0)))
        peaks, step = [], solver.step

        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return step(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        monkeypatch.setattr(solver, "step", measured)
        final = pm.stream(prob, n_steps=5)[0]
        # the kernels' temporaries only, the first step's too; one (8, *grid) array would
        # be U.nbytes
        assert len(peaks) == 5 and max(peaks) <= 0.3 * final.U.nbytes

    def test_two_streams_of_one_problem_share_its_buffers(self, random_consts, monkeypatch):
        import tracemalloc

        prob = small_problem(random_consts, n=401, T=0.01,
                             initial=pm.InitialData(u1=pm.gaussian_pulse([0.5], 0.1, 1.0,
                                                                          component=0)))
        ws = prob.workspace
        buffers = (ws.Y, ws.QY, ws.F, ws.scratch, ws.a, ws.line)
        results, peaks = [], []
        step, accel = solver.step, solver.acceleration

        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return step(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        def recorded(*args):
            results.append(accel(*args))
            return results[-1]

        monkeypatch.setattr(solver, "step", measured)
        monkeypatch.setattr(solver, "acceleration", recorded)
        finals = [pm.stream(prob, n_steps=4)[0] for _ in range(2)]
        assert finals[0] is not finals[1]  # each run has its own state
        after = (ws.Y, ws.QY, ws.F, ws.scratch, ws.a, ws.line)
        assert all(now is then for now, then in zip(after, buffers))
        assert all(a is ws.a for a in results) and len(results) == 10
        # a step's own objects only (measured 2,848 B); one (8, *grid) array would be U.nbytes
        assert len(peaks) == 8 and max(peaks) <= 0.3 * finals[0].U.nbytes

    def test_reducers_see_each_snapshot_in_order_and_leave_the_run_unchanged(self,
                                                                             random_consts):
        # every reducer sees each snapshot step, in order, as it is taken
        prob = small_problem(random_consts, n=32, T=0.01, energy_every=2, snapshot_every=3,
                             initial=pm.InitialData(u1=pm.gaussian_pulse([0.5], 0.1, 1.0,
                                                                          component=0)))
        final, energy, _ = pm.stream(prob, n_steps=13)
        got = pm.stream(prob, [pm.StateField.copy, lambda s: s.t, lambda s: s.U.sum()],
                        n_steps=13)
        assert got[0].t == final.t and np.array_equal(got[0].U, final.U)
        for part in ("t", "kinetic_u", "kinetic_phi", "strain"):
            np.testing.assert_array_equal(getattr(got[1], part), getattr(energy, part))
        states, times, sums = got[2]
        assert len(states) == 5  # steps 0, 3, 6, 9 and 12
        assert times == [s.t for s in states]
        assert times[::2] == list(energy.t[::3])  # steps 0, 6 and 12 are on both cadences
        assert sums == [s.U.sum() for s in states]


class TestStoreAlignment:
    """Every grid-sized array a step writes starts on a 64-byte boundary."""

    @pytest.mark.parametrize("dim,n", [(1, 17), (1, 18), (1, 801), (2, 17)])
    def test_written_buffers_start_on_64_byte_boundaries(self, random_consts, dim, n):
        prob = small_problem(random_consts, n=n, dim=dim)
        state, ws = pm.initialize(prob), prob.workspace
        written = [state.U, state.V, ws.F, ws.a, ws.scratch, *ws.Y, *ws.QY]
        if dim == 1:  # the δ outputs of the line force, one entry into their rows
            written += [out for _, _, out in ws.line.deltas]
        assert [array.ctypes.data % 64 for array in written] == [0] * len(written)

    def test_energy_split_does_not_depend_on_alignment(self, rng, random_consts):
        prob = rough_problem(random_consts, "traction_free", 1, rng)
        state = pm.stream(prob, n_steps=3)[0]
        ws, shape = prob.workspace, state.U.shape
        off = pm.StateField(t=state.t, U=solver._aligned(shape, phase=8),
                            V=solver._aligned(shape, phase=8))
        off.U[...], off.V[...] = state.U, state.V
        assert off.U.ctypes.data % 64 == 8 and off.V.ctypes.data % 64 == 8
        assert ws.energy_split(off) == ws.energy_split(state)


class TestReciprocalMass:
    """``acceleration`` times ``inv_mass`` and the factored kinetic split stay within
    roundoff of F/m and of Σ ½mV²."""

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("kind", BOUNDARY_CASES)
    def test_acceleration_is_within_2_ulp_of_force_over_mass(self, rng, random_consts,
                                                             kind, dim):
        prob = buffer_case_problem(random_consts, kind, dim)
        ws = prob.workspace
        a = acceleration(ws, rng.standard_normal((8,) + prob.grid.shape))
        quotient = (ws.F if ws.load is None else ws.load + ws.F) / (ws.w * ws.inertia)
        quotient.reshape(-1)[ws.pin_at] = 0.0
        np.testing.assert_array_max_ulp(a, quotient, maxulp=2)

    @pytest.mark.parametrize("dim,n", [(1, 17), (1, 801), (2, 17)])
    def test_kinetic_split_is_within_1e_15_of_the_sum_of_half_m_v2(self, rng, random_consts,
                                                                   dim, n):
        ws = small_problem(random_consts, n=n, dim=dim).workspace
        state = pm.StateField(t=0.0, U=np.zeros((8,) + ws.grid.shape),
                              V=rng.standard_normal((8,) + ws.grid.shape))
        ws.F[...] = 0.0
        _, kin_u, kin_phi, _ = ws.energy_split(state)
        terms = 0.5 * ws.w * ws.inertia * state.V**2
        for got, rows in ((kin_u, terms[:6]), (kin_phi, terms[6:])):
            assert got == pytest.approx(math.fsum(rows.reshape(-1)), rel=1e-15, abs=0.0)


def rough_problem(consts, kind: str, dim: int, rng, **cadence) -> pm.ProblemSpec:
    """A buffer-case problem with random initial data and a short T."""
    def noise(lead):
        return lambda x: rng.standard_normal(lead + x.shape[1:])

    vec, scal = noise((3,)), noise(())
    initial = pm.InitialData(u1=vec, u2=vec, phi1=scal, phi2=scal,
                             v1=vec, v2=vec, psi1=scal, psi2=scal)
    return replace(buffer_case_problem(consts, kind, dim), initial=initial, T=0.002, **cadence)


class TestRecording:
    """``stream`` samples each recorded step once, from the step's own evaluation."""

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("kind", BOUNDARY_CASES)
    def test_recorded_energies_match_allocating_oracle(self, rng, random_consts, kind, dim):
        prob = rough_problem(random_consts, kind, dim, rng, energy_every=1, snapshot_every=1)
        _, energy, (states,) = pm.stream(prob, [pm.StateField.copy], n_steps=6)
        ws = prob.workspace
        assert len(states) == len(energy.t) == 7
        for j, state in enumerate(states):
            expected = oracles.energy_allocating(ws, state.U, state.V)
            assert (energy.kinetic_u[j], energy.kinetic_phi[j], energy.strain[j]) == expected
        assert energy.strain[-1] > 0.0

    @staticmethod
    def count_force_calls(monkeypatch, prob, steps):
        """Calls of ``acceleration`` and of the jet kernels in one ``stream`` of ``steps``."""
        counts = {"accel": 0, "jet": 0, "force": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(solver, "acceleration", counted("accel", solver.acceleration))
        monkeypatch.setattr(solver, "difference", counted("jet", solver.difference))
        monkeypatch.setattr(solver, "subtract_adjoint", counted("force", solver.subtract_adjoint))
        return counts, pm.stream(prob, n_steps=steps)

    @pytest.mark.parametrize("energy_every, snapshot_every", [(1, 1), (2, 3)])
    def test_one_stress_per_step_and_one_energy_per_recorded_step(
            self, rng, random_consts, monkeypatch, energy_every, snapshot_every):
        # 1-D: one force evaluation per step, by the stencil, which calls no jet kernel
        prob = rough_problem(random_consts, "prescribed_traction", 1, rng,
                             energy_every=energy_every, snapshot_every=snapshot_every)
        steps = 13
        counts, (_, energy, _) = self.count_force_calls(monkeypatch, prob, steps)
        assert counts == {"accel": steps + 1, "jet": 0, "force": 0}
        # one split per step of the energy cadence, each at its own step's time
        np.testing.assert_allclose(energy.t, prob.T / steps * np.arange(0, steps + 1, energy_every),
                                   rtol=1e-12, atol=0.0)

    def test_two_dimensional_force_calls_each_jet_kernel_once_per_axis(self, rng, random_consts,
                                                                       monkeypatch):
        prob = rough_problem(random_consts, "prescribed_traction", 2, rng)
        counts = self.count_force_calls(monkeypatch, prob, 5)[0]
        assert counts == {"accel": 6, "jet": 12, "force": 12}

    @pytest.mark.parametrize("dim", [1, 2])
    def test_identity_sample_energies_equal_the_series_at_shared_steps(self, rng, random_consts,
                                                                       dim):
        # the identity series samples its own split, after a reducer that evaluates stresses
        prob = rough_problem(random_consts, "prescribed_traction", dim, rng,
                             energy_every=2, snapshot_every=3)
        ws = prob.workspace
        identities = diagnostics.IdentitySeries(prob)
        _, energy, _ = pm.stream(prob, [lambda s: ws.stress(s.U), identities], n_steps=13)
        assert (ws.line is None) == (dim == 2)  # the line force, or the jet path
        samples = np.array(identities.samples).reshape(-1, 8)
        assert len(samples) == 5  # steps 0, 3, 6, 9 and 12
        series = np.array([energy.t, energy.kinetic_u, energy.kinetic_phi, energy.strain]).T
        shared = np.intersect1d(energy.t, samples[:, 0])
        assert len(shared) == 3  # steps 0, 6 and 12
        np.testing.assert_array_equal(samples[::2, :4], series[::3])

    def test_steps_go_through_the_module_step_and_acceleration(self, rng, random_consts,
                                                                monkeypatch):
        # perfbench/child.py counts steps by replacing solver.step, and its tracer
        # reads the node count from the positional U of solver.acceleration
        prob = rough_problem(random_consts, "prescribed_flux", 2, rng)
        calls = {"step": 0, "acceleration": 0}
        step, accel = solver.step, solver.acceleration

        def counted_step(*args, **kwargs):
            calls["step"] += 1
            return step(*args, **kwargs)

        def checked_accel(*args, **kwargs):
            assert not kwargs and len(args) == 2
            ws, U = args
            assert ws is prob.workspace and U.shape == (8,) + prob.grid.shape
            calls["acceleration"] += 1
            return accel(*args)

        monkeypatch.setattr(solver, "step", counted_step)
        monkeypatch.setattr(solver, "acceleration", checked_accel)
        pm.stream(prob, n_steps=5)
        assert calls == {"step": 5, "acceleration": 6}

    @pytest.mark.parametrize("field", ["energy_every", "snapshot_every"])
    @pytest.mark.parametrize("value", [0, -2, 1.5, "3"])
    def test_cadence_must_be_a_positive_integer(self, random_consts, field, value):
        with pytest.raises(InvalidParameter, match=field):
            small_problem(random_consts, **{field: value})


class TestRunLoop:
    """``stream`` reduces each snapshot as it is taken and returns the last step."""

    def test_records_each_cadence_and_returns_the_last_step(self, rng, random_consts):
        prob = rough_problem(random_consts, "prescribed_traction", 1, rng,
                             energy_every=3, snapshot_every=5)
        final, energy, (times,) = pm.stream(prob, [lambda s: s.t], n_steps=7)
        dt = prob.T / 7
        assert np.allclose(energy.t / dt, [0, 3, 6], rtol=0.0, atol=1e-9)
        assert np.allclose(np.array(times) / dt, [0, 5], rtol=0.0, atol=1e-9)
        assert times[0] == energy.t[0] == 0.0
        assert final.t == pytest.approx(prob.T, rel=1e-12)  # step 7 is on neither cadence

    @pytest.mark.parametrize("kind", ["traction_free", "prescribed_value"])
    def test_reducers_see_the_run_state_itself(self, rng, random_consts, kind):
        prob = rough_problem(random_consts, kind, 2, rng, energy_every=1, snapshot_every=1)
        drawn = pm.initialize(prob)  # drawn once, so that both runs start alike
        prob = replace(prob, initial=pm.InitialData(
            **{name: lambda x, v=getattr(drawn, name): v for name in STATE_FIELDS}))
        final, energy, (kept,) = pm.stream(prob, [pm.StateField.copy], n_steps=6)
        again = pm.stream(prob, [lambda s: s, pm.StateField.copy], n_steps=6)
        live, at_reduction = again[2]
        for part in ("t", "kinetic_u", "kinetic_phi", "strain"):  # the same split at every step
            np.testing.assert_array_equal(getattr(again[1], part), getattr(energy, part))
        for copied, reduced in zip(kept, at_reduction):  # the copies, bit for bit
            assert copied.t == reduced.t
            np.testing.assert_array_equal(copied.U, reduced.U)
            np.testing.assert_array_equal(copied.V, reduced.V)
        np.testing.assert_array_equal(final.U, at_reduction[-1].U)
        # the run has one state, advanced in place from step 0 on
        assert all(state is again[0] for state in live)

    def test_a_reducer_that_raises_ends_the_run(self, rng, random_consts):
        prob = rough_problem(random_consts, "prescribed_flux", 2, rng, snapshot_every=1)
        seen = []

        def reducer(state):
            if len(seen) == 2:
                raise RuntimeError("reducer failed")
            seen.append(state.t)

        with pytest.raises(RuntimeError, match="reducer"):
            pm.stream(prob, [reducer], n_steps=6)
        assert len(seen) == 2


class TestInitialDirichletProjection:
    def test_recorded_initial_state_satisfies_dirichlet_data(self, random_consts):
        u = {"x0": pm.SideCondition("dirichlet", ((0.1, 0.1, 0.1), (0.0, 0.0, 0.0))),
             "x1": pm.SideCondition("natural")}
        phi = {"x0": pm.SideCondition("dirichlet"), "x1": pm.SideCondition("natural")}
        prob = small_problem(random_consts, n=32, T=0.01, snapshot_every=1,
                             boundary=pm.BoundaryPartition(u=u, phi=phi),
                             initial=pm.InitialData(v1=lambda x: np.ones((3,) + x.shape[1:]),
                                                    phi1=lambda x: 1.0 + x[0]))
        states = pm.stream(prob, [pm.StateField.copy])[2][0]
        ws = prob.workspace
        assert ws.pin_to.any()
        for s in states:
            np.testing.assert_array_equal(s.U.reshape(-1)[ws.pin_at], ws.pin_to)
            assert not s.V.reshape(-1)[ws.pin_at].any()
        # the raw sample keeps the initial data; only the integrated state is projected
        assert pm.initialize(prob).V.reshape(-1)[ws.pin_at].any()
