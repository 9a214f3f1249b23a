"""Diagnostics: energy, support geometry, surface power, means, residuals."""

from __future__ import annotations

import tracemalloc
from collections import namedtuple
from dataclasses import replace

import numpy as np
import pytest

import poromix as pm
from poromix import diagnostics as diag
from poromix import verify
from poromix.errors import (
    Degenerate,
    InsufficientSnapshots,
    InvalidParameter,
    NoFront,
    UndefinedAtZero,
)
from poromix.fields import stored_energy
from poromix.solver import RigidMotion, Workspace

from . import oracles


def natural_bc(dim=1):
    return pm.BoundaryPartition.uniform("natural", "natural", dim=dim)


def problem_1d(consts, n=101, T=0.1, **kw):
    grid = pm.Grid(n=(n,), h=(1.0 / (n - 1),))
    kw.setdefault("boundary", natural_bc())
    return pm.ProblemSpec(grid=grid, consts=consts, T=T, **kw)


def pulse_problem_2d():
    """The centred 64² pulse of the sim2d-pulse benchmark workload."""
    n = 64
    grid = pm.Grid(n=(n, n), h=(1.0 / (n - 1), 1.0 / (n - 1)))
    return pm.ProblemSpec(
        grid=grid, consts=pm.random_material(1), T=0.1, boundary=natural_bc(dim=2),
        initial=pm.InitialData(u1=pm.gaussian_pulse([0.5, 0.5], 0.06, 1.0, component=0)))


def front_problem_2d():
    """A centred 41² pulse narrow enough to leave most nodes outside its support."""
    prob = replace(pulse_problem_2d(), grid=pm.Grid((41, 41)), T=0.0, snapshot_every=3,
                   initial=pm.InitialData(u1=pm.gaussian_pulse([0.5, 0.5], 0.03, 1.0,
                                                               component=0)))
    geom = diag.support_geometry(prob)
    return replace(prob, T=0.6 * geom.L / prob.speed().c), geom


def surface_flux(ws, geom, r_grid, states):
    """The surface flux of copied snapshots, each sampled after the run."""
    shells = diag.surface_shells(ws, geom, r_grid)
    return shells.flux([s.t for s in states], [shells.sample(s) for s in states])


def front_report(geom, states):
    """The front speed of copied snapshots, each sampled after the run."""
    sweep = diag.front_sweep(geom)
    return sweep.report([sweep.sample(s.t, s.magnitude()) for s in states])


PulseRun = namedtuple("PulseRun", "prob geom speed energy snap_energy states pairings")


@pytest.fixture(scope="module")
def pulse_run():
    consts = pm.random_material(21)
    prob = problem_1d(
        consts, n=201, T=0.0,
        initial=pm.InitialData(
            u1=pm.gaussian_pulse([0.5], 0.02, 1.0, component=0),
            v1=pm.gaussian_pulse([0.5], 0.02, 0.5, component=0),
            phi1=pm.gaussian_pulse([0.5], 0.02, 0.4),
        ))
    geom = diag.support_geometry(prob)
    speed = prob.speed()
    t_total = 0.8 * geom.L / speed.c
    prob = replace(prob, T=t_total, energy_every=2, snapshot_every=2)
    _, energy, snap_energy, (states, pairings) = pm.stream(
        prob, [pm.StateField.copy, diag.identity_sampler(prob.workspace)])
    return PulseRun(prob, geom, speed, energy, snap_energy, states, pairings)


class TestTotalEnergy:
    def test_zero_state(self, random_consts):
        energy = pm.stream(problem_1d(random_consts, T=0.0))[1]
        assert energy.total.tolist() == [0.0]

    def test_uniform_kinetic(self, random_consts):
        vel = np.array([0.3, -0.1, 0.2])

        def v(x):
            shape = x.shape[1:]
            return np.broadcast_to(vel.reshape(3, 1), (3,) + shape).copy()

        energy = pm.stream(problem_1d(random_consts, T=0.0, initial=pm.InitialData(v1=v)))[1]
        volume = 1.0
        expected = 0.5 * random_consts.rho1 * float(vel @ vel) * volume
        assert energy.kinetic_u[0] == pytest.approx(expected, rel=1e-12)
        assert energy.kinetic_phi[0] == 0.0 and energy.strain[0] == 0.0
        assert energy.total[0] == energy.kinetic_u[0]

    def test_total_is_sum_of_parts(self, pulse_run):
        energy = pulse_run.energy
        np.testing.assert_allclose(
            energy.total, energy.kinetic_u + energy.kinetic_phi + energy.strain)

    def test_strain_energy_matches_simpson_oracle(self, random_consts):
        # smooth analytic state; trapezoid and Simpson agree to O(h^2)
        diffs = []
        for n in (101, 201):
            prob = problem_1d(
                random_consts, n=n,
                initial=pm.InitialData(
                    u1=pm.gaussian_pulse([0.5], 0.1, 1.0, component=0),
                    phi2=pm.gaussian_pulse([0.45], 0.12, 0.8),
                ))
            state = pm.initialize(prob)
            ws = prob.workspace
            dens = stored_energy(*ws.stress(state.U))
            trap = float(np.sum(ws.w * dens))
            simp = oracles.simpson_1d(dens, prob.grid.h[0])
            diffs.append(abs(trap - simp) / simp)
        assert diffs[0] < 1e-4
        assert diffs[1] < 0.3 * diffs[0]


class TestSupportGeometry:
    def test_single_node_support_gives_distance_field(self, random_consts):
        n = 101
        grid = pm.Grid(n=(n,), h=(0.01,))

        def spike(x):
            out = np.zeros((3,) + x.shape[1:])
            out[0] = np.where(np.abs(x[0] - 0.5) < 1e-9, 1.0, 0.0)
            return out

        prob = pm.ProblemSpec(grid=grid, consts=random_consts, boundary=natural_bc(),
                              initial=pm.InitialData(u1=spike), T=0.1)
        geom = diag.support_geometry(prob)
        assert geom.mask.sum() == 1
        xs = grid.axes()[0]
        np.testing.assert_allclose(geom.dist, np.abs(xs - 0.5), atol=1e-12)
        assert geom.L == pytest.approx(0.5)

    def test_empty_support_falls_back_to_first_boundary_node(self, random_consts):
        prob = problem_1d(random_consts)
        geom = diag.support_geometry(prob)
        assert geom.mask[0] and geom.mask.sum() == 1

    def test_prescribed_flux_side_is_the_support(self, random_consts):
        # with no initial data, the loaded x1 end, not the fallback node 0, is the support
        bc = natural_bc()
        bc.phi["x1"] = pm.SideCondition("natural", (0.3, 0.0))
        prob = problem_1d(random_consts, boundary=bc)
        geom = diag.support_geometry(prob)
        assert geom.mask[-1] and geom.mask.sum() == 1
        assert "workspace" not in vars(prob)  # the side values are read without one

    def test_two_blob_distance_matches_pairwise_oracle(self, random_consts):
        prob = problem_1d(
            random_consts, n=81,
            initial=pm.InitialData(
                u1=pm.gaussian_pulse([0.25], 0.02, 1.0, component=0),
                u2=pm.gaussian_pulse([0.75], 0.02, 1.0, component=1),
            ))
        geom = diag.support_geometry(prob)
        brute = oracles.pairwise_distance(prob.grid, geom.mask)
        np.testing.assert_allclose(geom.dist, brute, atol=1e-12)

    def test_anisotropic_2d_distance_matches_pairwise_oracle(self, monkeypatch, random_consts):
        grid = pm.Grid(n=(23, 17), h=(0.05, 0.03))
        bc = natural_bc(dim=2)  # nonzero displacement pinned on the y1 side
        bc.u["y1"] = pm.SideCondition("dirichlet", ((0.2, 0.2, 0.2), (0.0, 0.0, 0.0)))
        prob = pm.ProblemSpec(
            grid=grid, consts=random_consts, boundary=bc, T=0.1,
            initial=pm.InitialData(
                u1=pm.gaussian_pulse([0.3, 0.12], 0.015, 1.0, component=0),
                phi2=pm.gaussian_pulse([0.85, 0.3], 0.012, 1.0),
            ))
        monkeypatch.setattr(diag, "_SUPPORT_THRESHOLD", 1e-3)
        geom = diag.support_geometry(prob)
        assert geom.mask[:, -1].all() and geom.mask[6, 4] and geom.mask[17, 10]
        assert not geom.mask[:, 0].any()
        brute = oracles.pairwise_distance(grid, geom.mask)
        np.testing.assert_allclose(geom.dist, brute, rtol=0.0, atol=1e-12)
        assert geom.L == pytest.approx(float(brute.max()), abs=1e-12)

    def test_2d_memory_scales_with_the_grid(self):
        prob = pulse_problem_2d()
        tracemalloc.start()
        try:
            geom = diag.support_geometry(prob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert geom.mask.sum() > 2000  # the all-pairs form needed ~450 MB here
        assert peak < 32e6

    @pytest.mark.parametrize("run", ["front", "pulse"])
    def test_a_verify_run_builds_one_workspace(self, monkeypatch, run):
        # the geometry is taken on the T = 0 problem, which then builds no workspace
        built, init = [], Workspace.__init__
        monkeypatch.setattr(Workspace, "__init__",
                            lambda ws, problem: built.append(problem.T) or init(ws, problem))
        if run == "front":
            verify._front_run(pm.decoupled_material(), 101)
        else:
            problem, _, steps = verify._pulse_problem(pm.random_material(2), 101)
            pm.stream(problem, n_steps=steps)
        assert len(built) == 1 and built[0] > 0.0

    def test_mask_nodes_have_zero_distance(self, pulse_run):
        geom = pulse_run.geom
        assert np.all(geom.dist[geom.mask] == 0.0)
        assert np.all(geom.dist >= 0.0)


class TestSurfacePower:
    def test_null_trajectory_gives_zero(self, random_consts):
        prob = replace(problem_1d(random_consts, T=0.05), snapshot_every=2)
        geom = diag.support_geometry(prob)
        shells = diag.surface_shells(prob.workspace, geom, np.array([0.0, 0.1, 0.2]))
        _, _, snap_energy, (surface,) = pm.stream(prob, [shells.sample])
        sps = shells.flux(snap_energy.t, surface).weighted(1.0)
        assert np.all(sps.P == 0.0) and np.all(sps.E_vol == 0.0)

    def test_radii_beyond_L_carry_no_power(self, pulse_run):
        prob, geom, *_, states, _ = pulse_run
        r_grid = np.array([0.0, geom.L, geom.L * 1.5])
        sps = surface_flux(prob.workspace, geom, r_grid, states).weighted(1.0)
        assert np.all(sps.P[1] == 0.0) and np.all(sps.P[2] == 0.0)

    def test_power_nonnegative_and_monotone(self, pulse_run):
        prob, geom, *_, states, _ = pulse_run
        r_grid = diag.default_r_grid(geom, count=20)
        sps = surface_flux(prob.workspace, geom, r_grid, states).weighted(prob.lam)
        p_ref = sps.P[0, -1]
        assert np.min(sps.P) >= -1e-9 * p_ref
        assert np.max(np.diff(sps.P, axis=0)) <= 1e-9 * p_ref

    def test_power_equals_weighted_energy(self, pulse_run):
        prob, geom, *_, states, _ = pulse_run
        r_grid = diag.default_r_grid(geom, count=20)
        sps = surface_flux(prob.workspace, geom, r_grid, states).weighted(prob.lam)
        ref = np.max(np.abs(sps.E_vol))
        sel = np.abs(sps.E_vol) > 1e-2 * ref
        rel = np.max(np.abs(sps.P[sel] - sps.E_vol[sel]) / np.abs(sps.E_vol[sel]))
        assert rel <= 0.08  # coarse n=201 grid; the acceptance run pins 3% at n=401

    def test_weighted_energy_lambda_zero_is_plain_energy(self, pulse_run):
        prob, geom, *_, states, _ = pulse_run
        sps = surface_flux(prob.workspace, geom, np.array([0.0, 0.05]), states).weighted(0.0)
        state = states[-1]
        k = prob.consts
        kin = 0.5 * (k.rho1 * np.sum(state.v1**2, axis=0) + k.rho2 * np.sum(state.v2**2, axis=0)
                     + k.rho1 * k.chi1 * state.psi1**2 + k.rho2 * k.chi2 * state.psi2**2)
        eps = kin + oracles.stored_energy_pointwise(k, state.U, prob.grid.h)
        outside = geom.dist > 0.05
        direct = float(np.sum(prob.grid.weights()[outside] * eps[outside]))
        assert sps.E_vol[1, -1] == pytest.approx(direct, rel=1e-12)

    def test_two_dimensional_power_structure(self):
        consts = pm.random_material(13)
        n = 121
        grid = pm.Grid(n=(n, n), h=(1.0 / (n - 1), 1.0 / (n - 1)))
        bc = natural_bc(dim=2)
        ini = pm.InitialData(
            u1=pm.gaussian_pulse([0.5, 0.5], 0.03, 1.0, component=0),
            v2=pm.gaussian_pulse([0.5, 0.5], 0.03, 1.0, component=1),
        )
        probe = pm.ProblemSpec(grid=grid, consts=consts, boundary=bc, initial=ini, T=0.0)
        geom = diag.support_geometry(probe)
        speed = probe.speed()
        prob = pm.ProblemSpec(grid=grid, consts=consts, boundary=bc, initial=ini,
                              T=0.8 * geom.L / speed.c, cfl=0.4, energy_every=2, snapshot_every=2)
        shells = diag.surface_shells(prob.workspace, geom, diag.default_r_grid(geom, count=16))
        sweep = diag.front_sweep(geom)
        _, _, snap_energy, (surface, fronts) = pm.stream(
            prob, [shells.sample, lambda s: sweep.sample(s.t, s.magnitude())])
        sps = shells.flux(snap_energy.t, surface).weighted(1.0)
        p_ref = sps.P[0, -1]
        assert np.min(sps.P) >= -1e-9 * p_ref
        assert np.max(np.diff(sps.P, axis=0)) <= 1e-9 * p_ref
        ref = np.max(np.abs(sps.E_vol))
        sel = np.abs(sps.E_vol) > 1e-2 * ref
        rel = np.max(np.abs(sps.P[sel] - sps.E_vol[sel]) / np.abs(sps.E_vol[sel]))
        assert rel <= 0.08
        assert sweep.report(fronts).speed <= speed.c

    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_per_radius_oracle(self, pulse_run, dim):
        if dim == 1:
            prob, geom, *_, states, _ = pulse_run
        else:
            prob = pulse_problem_2d()
            geom = diag.support_geometry(prob)
            states = pm.stream(replace(prob, snapshot_every=4), [pm.StateField.copy])[3][0]
        r_grid = np.concatenate([diag.default_r_grid(geom), [geom.L, 2.0 * geom.L]])
        shell = np.searchsorted(r_grid, geom.dist)
        crossed = max(np.abs(np.diff(shell, axis=a)).max() for a in range(prob.grid.dim))
        assert crossed == (1 if dim == 1 else 3)  # 2-D faces cross up to 3 shells
        sps = surface_flux(prob.workspace, geom, r_grid, states).weighted(prob.lam)
        P, E_vol = oracles.surface_power_masks(prob.workspace, states, geom, r_grid, prob.lam)
        for new, ref in ((sps.P, P), (sps.E_vol, E_vol)):
            scale = np.max(np.abs(ref), axis=1, keepdims=True)
            assert np.all(np.abs(new - ref) <= 1e-12 * scale)
            assert np.all(new[ref == 0.0] == 0.0)
        assert np.all(P[-2:] == 0.0) and np.all(E_vol[-2:] == 0.0)

    def test_lambda_sweep_evaluates_each_snapshot_once(self, pulse_run, monkeypatch):
        prob, geom = pulse_run.prob, pulse_run.geom
        shells = diag.surface_shells(prob.workspace, geom, diag.default_r_grid(geom, count=20))
        calls = []
        stress = Workspace.stress
        monkeypatch.setattr(Workspace, "stress",
                            lambda self, U: calls.append(1) or stress(self, U))
        _, _, snap_energy, (surface, pairings) = pm.stream(
            prob, [shells.sample, diag.identity_sampler(prob.workspace)])
        flux = shells.flux(snap_energy.t, surface)
        for lam in (0.5, 1.0, 2.0):
            flux.weighted(lam)
        assert len(calls) == len(snap_energy.t) == len(pulse_run.states)
        diag.IdentityResiduals.from_samples(prob, snap_energy, pairings)
        assert len(calls) == len(snap_energy.t)  # the recorded energies are read, not recomputed

    @pytest.mark.parametrize("r_grid", [[0.0, 0.2, 0.1], [0.0, 0.1, 0.1]])
    def test_r_grid_must_increase(self, pulse_run, r_grid):
        with pytest.raises(InvalidParameter):
            diag.surface_shells(pulse_run.prob.workspace, pulse_run.geom, np.array(r_grid))

    def test_radial_inequality_discrete(self, pulse_run):
        prob, geom, speed, *_, states, _ = pulse_run
        r_grid = diag.default_r_grid(geom, count=20)
        sps = surface_flux(prob.workspace, geom, r_grid, states).weighted(prob.lam)
        dr = np.diff(sps.r_grid)[:, None]
        lhs = (prob.lam / speed.c) * np.abs(sps.P[:-1]) + np.diff(sps.P, axis=0) / dr
        sel = sps.P[0] > 1e-8 * sps.P[0, -1]
        viol = np.max(lhs[:, sel]) / ((prob.lam / speed.c) * sps.P[0, -1])
        assert viol <= 0.05

    def test_default_r_grid_has_distinct_node_sets(self, pulse_run):
        prob, geom = pulse_run.prob, pulse_run.geom
        prob_2d = pulse_problem_2d()
        geom_2d = diag.support_geometry(prob_2d)
        for g, h, count in ((geom, prob.grid.h, 20), (geom_2d, prob_2d.grid.h, 32)):
            r_grid = diag.default_r_grid(g, count=count)
            sets = [tuple((g.dist > r).reshape(-1)) for r in r_grid]
            assert len(set(sets)) == len(sets)
            # No radius cuts a shell of equal-distance nodes (split only by roundoff).
            for r in r_grid:
                below = g.dist[g.dist <= r].max()
                above = g.dist[g.dist > r].min()
                assert above - below > 1e-9 * min(h)


    @pytest.mark.parametrize("count", [1, 2, 5, 20, 32, 10_000])
    def test_default_r_grid_matches_the_unique_oracle(self, pulse_run, rng, count):
        geom = pulse_run.geom
        geom_2d = diag.support_geometry(pulse_problem_2d())
        # shells of 31 radii, each repeated exactly and up to roundoff
        base = np.repeat(0.1 * np.arange(31), 12).reshape(31, 12)
        dist = base * (1.0 + rng.choice([0.0, 0.0, 2e-16, -4e-16, 1e-15], size=base.shape))
        shells = diag.SupportGeometry(mask=dist == 0.0, dist=dist, L=float(dist.max()),
                                      h=(0.1, 0.1))
        for g in (geom, geom_2d, shells):
            np.testing.assert_array_equal(diag.default_r_grid(g, count=count),
                                          oracles.r_grid_unique(g, count))


class TestDecayReport:
    def make_synthetic(self, rate, lam=1.0):
        r = np.linspace(0.0, 1.0, 21)
        t = np.linspace(0.0, 2.0, 9)
        p = 3.0 * np.exp(rate * r)[:, None] * np.ones_like(t)[None, :]
        return diag.SurfacePowerSeries(r_grid=r, t_grid=t, P=p, E_vol=p.copy(), lam=lam)

    def test_exact_exponential_slope(self):
        sps = self.make_synthetic(-2.0)
        sp = pm.SpeedParams(m_inertia=1.0, c=10.0)
        rep = diag.decay_report(sps, sp, t=2.0)
        assert rep.slope == pytest.approx(-2.0, abs=1e-10)

    def test_lambda_zero_reduces_to_monotonicity(self):
        sps = self.make_synthetic(-1.0, lam=0.0)
        sp = pm.SpeedParams(m_inertia=1.0, c=10.0)
        rep = diag.decay_report(sps, sp, t=2.0, tol_h=0.0)
        assert rep.bound_ok  # P(r,t) <= P(0,t) for a decreasing profile

    def test_bound_ok_reads_the_largest_ratio(self):
        sps = self.make_synthetic(1.0, lam=0.0)  # P grows with r
        rep = diag.decay_report(sps, pm.SpeedParams(m_inertia=1.0, c=10.0), t=2.0, tol_h=0.0)
        assert rep.max_bound_ratio > 1.0 and not rep.bound_ok
        for ratio, ok in ((1.0, True), (np.nextafter(1.0, 2.0), False), (np.nan, False)):
            assert replace(rep, max_bound_ratio=ratio).bound_ok == ok

    def test_degenerate_on_too_few_radii(self):
        sps = self.make_synthetic(-2.0)
        sp = pm.SpeedParams(m_inertia=1.0, c=0.01)  # ct excludes radii
        with pytest.raises(Degenerate):
            diag.decay_report(sps, sp, t=2.0)

    def test_pulse_run_bound(self, pulse_run):
        prob, geom, speed, *_, states, _ = pulse_run
        r_grid = diag.default_r_grid(geom, count=20)
        sps = surface_flux(prob.workspace, geom, r_grid, states).weighted(prob.lam)
        rep = diag.decay_report(sps, speed, t=states[-1].t, tol_h=0.05)
        assert rep.bound_ok


class TestFrontSpeed:
    def test_zero_data_raises(self, random_consts):
        prob = replace(problem_1d(random_consts, T=0.05), snapshot_every=2)
        sweep = diag.front_sweep(diag.support_geometry(prob))
        fronts = pm.stream(prob, [lambda s: sweep.sample(s.t, s.magnitude())])[3][0]
        with pytest.raises(NoFront):
            sweep.report(fronts)

    def test_pulse_front_below_c(self, pulse_run):
        rep = front_report(pulse_run.geom, pulse_run.states)
        speed = pulse_run.speed
        assert rep.speed <= speed.c * 1.05
        assert np.all(np.diff(rep.times) > 0)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_front_equals_the_masked_oracle_bit_for_bit(self, pulse_run, dim):
        # each state keeps only its records above the running threshold
        if dim == 1:
            geom, states = pulse_run.geom, pulse_run.states
        else:  # many nodes share a distance
            prob, geom = front_problem_2d()
            states = pm.stream(prob, [pm.StateField.copy])[3][0]
        rep = front_report(geom, states)
        times, r_front, peak = oracles.front_masks(states, geom)
        assert len(times) >= 5
        np.testing.assert_array_equal(rep.times, times)
        np.testing.assert_array_equal(rep.r_front, r_front)
        assert rep.peak == peak
        assert rep.speed == float(np.polyfit(times, r_front, 1)[0])

    def test_front_is_exact_when_the_peak_grows(self, random_consts):
        # a later peak raises the threshold of every earlier state
        prob = problem_1d(random_consts, n=41, initial=pm.InitialData(
            u1=pm.gaussian_pulse([0.5], 0.03, 1.0, component=0)))
        geom = diag.support_geometry(prob)
        rng = np.random.default_rng(3)
        states = []
        for k, scale in enumerate([1.0, 3.0, 10.0, 1e3, 2.0]):
            U = np.zeros((8, 41))  # a rough profile falling by 1e-11 over the outside nodes
            U[0] = scale * np.exp(-geom.dist / 0.01) * rng.uniform(0.5, 1.5, 41)
            states.append(pm.StateField(t=0.1 * k, U=U, V=np.zeros_like(U)))
        rep = front_report(geom, states)
        times, r_front, peak = oracles.front_masks(states, geom)
        np.testing.assert_array_equal(rep.times, times)
        np.testing.assert_array_equal(rep.r_front, r_front)
        assert rep.peak == peak
        # the first state's front at its own threshold is not its front at the final one
        sweep = diag.front_sweep(geom)
        assert sweep.report([sweep.sample(0.0, states[0].magnitude()),
                             sweep.sample(0.1, states[1].magnitude())]).r_front[0] != r_front[0]


class TestCesaroMeans:
    def test_requires_samples_beyond_zero(self):
        series = diag.EnergySeries(t=np.array([0.0]), kinetic_u=np.zeros(1),
                                   kinetic_phi=np.zeros(1), strain=np.zeros(1))
        with pytest.raises(UndefinedAtZero):
            diag.cesaro_means(series)

    def test_constant_energies_reproduced(self):
        t = np.linspace(0.0, 4.0, 33)
        series = diag.EnergySeries(t=t, kinetic_u=np.full(33, 1.5),
                                   kinetic_phi=np.full(33, 0.25),
                                   strain=np.full(33, 2.0))
        cs = diag.cesaro_means(series)
        np.testing.assert_allclose(cs.Kc, 1.75, rtol=1e-12)
        np.testing.assert_allclose(cs.Sc, 2.0, rtol=1e-12)
        np.testing.assert_allclose(cs.gap, -0.25, rtol=1e-11)

    def test_zero_solution_all_zero(self, random_consts):
        prob = problem_1d(random_consts, T=0.05)
        energy = pm.stream(replace(prob, energy_every=2))[1]
        cs = diag.cesaro_means(energy)
        assert np.all(cs.Kc == 0.0) and np.all(cs.Sc == 0.0)

    def test_conservation_of_means(self, random_consts):
        # free-vibration run with a well-resolved pulse: Kc + Sc = E(0)
        prob = problem_1d(
            random_consts, n=201, T=0.3,
            initial=pm.InitialData(
                u1=pm.gaussian_pulse([0.5], 0.06, 1.0, component=0),
                v2=pm.gaussian_pulse([0.45], 0.06, 0.5, component=1),
            ))
        energy = pm.stream(replace(prob, energy_every=2))[1]
        cs = diag.cesaro_means(energy)
        e0 = energy.total[0]
        assert np.max(np.abs(cs.Kc + cs.Sc - e0)) <= 1e-3 * e0

    def test_means_conservation_on_narrow_pulse_run(self, pulse_run):
        # sigma = 4h here, so the leapfrog energy oscillation dominates
        energy = pulse_run.energy
        cs = diag.cesaro_means(energy)
        e0 = energy.total[0]
        assert np.max(np.abs(cs.Kc + cs.Sc - e0)) <= 5e-3 * e0

    def test_means_of_the_snapshot_series(self, pulse_run):
        cs = diag.cesaro_means(pulse_run.snap_energy)
        assert len(cs.t) == len(pulse_run.states) - 1


def free_velocity_problem(consts, dim):
    """All-traction runs whose initial velocities differ per constituent and
    are neither rigid nor free of a rigid part (in 2-D with in-plane rotation)."""
    if dim == 1:
        grid = pm.Grid(n=(41,), h=(0.025,))
        v1 = RigidMotion([0.3, -0.1, 0.2], [0.0, 0.0, 0.0]).field
        initial = pm.InitialData(
            u1=pm.gaussian_pulse([0.5], 0.1, 0.5, component=0),
            v1=lambda x: v1(x) + pm.gaussian_pulse([0.4], 0.1, 0.7, component=1)(x),
            v2=pm.gaussian_pulse([0.6], 0.08, -0.4, component=0))
    else:
        grid = pm.Grid(n=(9, 11), h=(0.1, 0.08))
        v1 = RigidMotion([0.1, 0.2, -0.05], [0.0, 0.0, 0.6]).field
        v2 = RigidMotion([-0.2, 0.0, 0.1], [0.0, 0.0, -0.3]).field
        initial = pm.InitialData(
            u2=pm.gaussian_pulse([0.4, 0.4], 0.15, 0.3, component=1),
            v1=lambda x: v1(x) + pm.gaussian_pulse([0.3, 0.5], 0.15, 0.4, component=0)(x),
            v2=lambda x: v2(x) + pm.gaussian_pulse([0.5, 0.3], 0.12, 0.5, component=2)(x))
    return pm.ProblemSpec(grid=grid, consts=consts, boundary=natural_bc(dim), initial=initial,
                          T=0.01)


class TestEquipartitionReport:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_free_offset_is_the_rigid_kinetic_energy(self, random_consts, dim):
        # ½ Σ_α ρ^α ∫ |ā̇^α|², the rigid part from the midpoint-moment oracle
        prob = free_velocity_problem(random_consts, dim)
        energy = pm.stream(prob)[1]
        rep = diag.equipartition_report(energy, prob)
        x, w = prob.grid.positions(), prob.grid.weights()
        expected = 0.0
        for name, rho in (("v1", random_consts.rho1), ("v2", random_consts.rho2)):
            rigid = oracles.rigid_part_midpoint(getattr(prob.initial, name)(x), x)
            expected += 0.5 * rho * float(np.sum(w * np.sum(rigid**2, axis=0)))
        assert rep.case == "free"
        assert expected > 0.0
        assert rep.predicted_offset == pytest.approx(expected, rel=1e-12)

    def test_case_detection_dirichlet(self, random_consts):
        bc = pm.BoundaryPartition.uniform("dirichlet", "natural", dim=1)
        prob = problem_1d(random_consts, T=0.2, boundary=bc,
                          initial=pm.InitialData(
                              u1=pm.gaussian_pulse([0.5], 0.05, 1.0, component=0)))
        energy = pm.stream(replace(prob, energy_every=2))[1]
        rep = diag.equipartition_report(energy, prob)
        assert rep.case == "dirichlet"
        assert rep.predicted_offset == 0.0
        assert rep.fit_exponent is not None


def streamed_residuals(prob):
    """The identity residuals of one run, its snapshots paired as they are taken."""
    _, _, snap_energy, (pairings,) = pm.stream(prob, [diag.identity_sampler(prob.workspace)])
    return diag.IdentityResiduals.from_samples(prob, snap_energy, pairings)


class TestIdentityResiduals:
    def test_zero_solution_all_zero(self, random_consts):
        prob = problem_1d(random_consts, T=0.05)
        ir = streamed_residuals(replace(prob, snapshot_every=2))
        assert np.all(ir.res_energy_balance == 0.0)
        assert np.all(ir.res_virial == 0.0)
        assert np.all(ir.res_two_time == 0.0)

    def test_initial_time_reduces_to_stored_energy_equality(self, pulse_run):
        prob, *_, snap_energy, _, pairings = pulse_run
        ir = diag.IdentityResiduals.from_samples(prob, snap_energy, pairings)
        assert ir.res_energy_balance[0] <= 1e-12 * ir.scale
        assert ir.res_virial[0] == 0.0

    def test_insufficient_snapshots(self, random_consts):
        prob = problem_1d(random_consts, T=0.01)
        with pytest.raises(InsufficientSnapshots):
            streamed_residuals(replace(prob, snapshot_every=10**6))

    def test_nonzero_dirichlet_data_are_refused(self, random_consts):
        # their reaction work is not in the identities, so residuals would mislead
        bc = pm.BoundaryPartition(
            u={"x0": pm.SideCondition("dirichlet", ((0.1, 0.0, 0.0), (0.0, 0.0, 0.0))),
               "x1": pm.SideCondition("dirichlet")},
            phi=natural_bc().phi)
        prob = problem_1d(random_consts, T=0.05, boundary=bc,
                          initial=pm.InitialData(u1=pm.gaussian_pulse([0.5], 0.05, 1.0,
                                                                      component=0)))
        with pytest.raises(InvalidParameter, match="Dirichlet"):
            streamed_residuals(replace(prob, snapshot_every=2))

    @pytest.mark.parametrize("kind", ["prescribed_traction", "prescribed_flux"])
    def test_loaded_run_residuals_converge(self, kind):
        # a static traction or flux does work in all three identities; without the
        # two-time load term res_two_time stalled near 2e-4 of max E
        bc = natural_bc()
        if kind == "prescribed_traction":
            bc.u["x1"] = pm.SideCondition("natural", ((0.1, 0.0, 0.05), (0.0, 0.2, 0.0)))
        else:
            bc.u["x0"] = pm.SideCondition("dirichlet")
            bc.phi["x0"] = pm.SideCondition("natural", (0.3, -0.4))
        initial = pm.InitialData(u1=pm.gaussian_pulse([0.5], 0.08, 1.0, component=0),
                                 phi1=pm.gaussian_pulse([0.4], 0.08, 0.5))
        rel = []
        for n in (101, 201, 401):
            prob = problem_1d(pm.random_material(5), n=n, T=0.3, boundary=bc, initial=initial,
                              snapshot_every=2)
            ir = streamed_residuals(prob)
            rel.append([np.max(res) / ir.scale
                        for res in (ir.res_energy_balance, ir.res_virial, ir.res_two_time)])
        orders = np.log2(np.array(rel[:-1]) / np.array(rel[1:]))
        assert np.all(orders >= 1.5), orders

    def test_residuals_small_on_resolved_run(self, pulse_run):
        prob, *_, snap_energy, _, pairings = pulse_run
        ir = diag.IdentityResiduals.from_samples(prob, snap_energy, pairings)
        assert np.max(ir.res_energy_balance) <= 5e-2 * ir.scale
        assert np.max(ir.res_virial) <= 5e-2 * ir.scale
        assert np.max(ir.res_two_time) <= 1e-12 * ir.scale


class TestStreamedReductions:
    """Each reduction of a streamed state equals the same reduction of its copy, applied
    after the run, bit for bit, and reducing leaves the run unchanged."""

    @pytest.mark.parametrize("loaded", [False, True])
    def test_streamed_equal_collected_bit_for_bit(self, loaded):
        bc = natural_bc(dim=2)
        if loaded:  # a static traction: the load pairings are nonzero
            bc.u["x1"] = pm.SideCondition("natural", ((0.2, 0.2, 0.2), (0.1, 0.05, 0.0)))
        prob = replace(pulse_problem_2d(), grid=pm.Grid((33, 33)), boundary=bc, T=0.05,
                       snapshot_every=3)
        ws = prob.workspace
        geom = diag.support_geometry(prob)
        r_grid = diag.default_r_grid(geom)
        _, want_energy, want_snap_energy, (states,) = pm.stream(prob, [pm.StateField.copy])
        want_flux = surface_flux(ws, geom, r_grid, states)
        want_ir = diag.IdentityResiduals.from_samples(
            prob, want_snap_energy, [diag.identity_sample(ws, states[0], s) for s in states])

        shells = diag.surface_shells(ws, geom, r_grid)
        _, energy, snap_energy, (surface, pairings) = pm.stream(
            prob, [shells.sample, diag.identity_sampler(ws)])
        assert len(surface) == len(states) >= 5
        flux = shells.flux(snap_energy.t, surface)
        ir = diag.IdentityResiduals.from_samples(prob, snap_energy, pairings)
        for got, want in ((flux.t_grid, want_flux.t_grid), (flux.flux, want_flux.flux),
                          (flux.energy, want_flux.energy), (ir.t, want_ir.t),
                          (ir.res_energy_balance, want_ir.res_energy_balance),
                          (ir.res_virial, want_ir.res_virial),
                          (ir.res_two_time, want_ir.res_two_time)):
            np.testing.assert_array_equal(got, want)
        assert ir.scale == want_ir.scale
        for series, want in ((energy, want_energy), (snap_energy, want_snap_energy)):
            np.testing.assert_array_equal(series.total, want.total)
        assert np.any(np.array(pairings)[:, 1:3] != 0.0) == loaded

    def test_streamed_front_equals_the_front_of_copies_bit_for_bit(self):
        prob, geom = front_problem_2d()
        want = front_report(geom, pm.stream(prob, [pm.StateField.copy])[3][0])
        sweep = diag.front_sweep(geom)
        _, _, _, (samples,) = pm.stream(prob, [lambda s: sweep.sample(s.t, s.magnitude())])
        got = sweep.report(samples)
        assert len(got.times) >= 5
        np.testing.assert_array_equal(got.times, want.times)
        np.testing.assert_array_equal(got.r_front, want.r_front)
        assert (got.speed, got.peak) == (want.speed, want.peak)


class TestCsvWriters:
    def test_energy_csv_deterministic(self, tmp_path, pulse_run):
        from poromix import io as pio

        energy = pulse_run.energy
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        pio.write_energy_csv(p1, energy)
        pio.write_energy_csv(p2, energy)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == "t,kinetic_u,kinetic_phi,strain,total"

    def test_snapshot_round_trip(self, tmp_path, pulse_run):
        from poromix import io as pio

        state = pulse_run.states[3]
        path = tmp_path / "snap.bin"
        pio.write_snapshot(path, state)
        back = pio.read_snapshot(path)
        assert back.t == state.t
        for name in ("u1", "u2", "phi1", "phi2", "v1", "v2", "psi1", "psi2"):
            np.testing.assert_array_equal(getattr(back, name), getattr(state, name))
