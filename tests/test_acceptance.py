"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each criterion prints a single PASS/FAIL line (visible with ``pytest -s``;
also embedded in assertion messages).  The heavyweight verification suites
run once per module and are shared across the criterion tests.

Criteria:
  1  constitutive algebra on seeded random admissible materials/states
  2  stress-energy and traction bounds with ratio reporting
  3  energy conservation at CFL 0.5 with refinement factor >= 3
  4  integral-identity residual convergence at order >= 1.5
  5  measured front speeds below c (decoupled and fully coupled)
  6  surface-power positivity, monotonicity, and P = E agreement
  7  spatial decay envelopes for the lambda sweep
  8  uniqueness of the null solution and bit-exact determinism
  9  asymptotic equipartition in both boundary cases
 10  rigid-decomposition normalization residuals
"""

from __future__ import annotations

import pytest

from poromix import verify

SEED = 0


@pytest.fixture(scope="module")
def constitutive_report():
    return verify.suite_constitutive(SEED)



@pytest.fixture(scope="module")
def identities_report():
    return verify.suite_identities(SEED)


@pytest.fixture(scope="module")
def decay_report():
    return verify.suite_decay(SEED, tol_h=0.05)


@pytest.fixture(scope="module")
def influence_report():
    return verify.suite_influence(SEED)


@pytest.fixture(scope="module")
def equipartition_report():
    return verify.suite_equipartition(SEED)


@pytest.fixture(scope="module")
def uniqueness_report():
    return verify.suite_uniqueness(SEED)


def _criterion(number: int, label: str, report, names: list[str]) -> None:
    checks = {c.name: c for c in report.checks}
    missing = [n for n in names if n not in checks]
    assert not missing, f"criterion {number}: missing checks {missing}"
    selected = [checks[n] for n in names]
    ok = all(c.passed for c in selected)
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {label}")
    for c in selected:
        print(f"    {c.line()}")
    assert ok, f"criterion {number} failed:\n" + "\n".join(c.line() for c in selected)


def test_criterion_01_constitutive_algebra(constitutive_report):
    _criterion(
        1, "constitutive algebra on 10^4 seeded material/state pairs (< 10 s)",
        constitutive_report,
        ["eigen_envelope", "power_identity_static", "power_identity_rate",
         "dual_constitutive_forms", "runtime_constitutive"],
    )


def test_criterion_02_stress_energy_bounds(constitutive_report):
    _criterion(
        2, "stress-energy bound |S|^2 <= 2 xi_M W and traction bound (ratios reported)",
        constitutive_report,
        ["stress_energy_bound", "traction_bound"],
    )


def test_criterion_03_energy_conservation(identities_report):
    _criterion(
        3, "energy conservation <= 1e-4 over 2000 steps; drift shrinks >= 3x (< 30 s)",
        identities_report,
        ["energy_conservation", "energy_drift_refinement", "runtime_conservation"],
    )


def test_criterion_04_identity_residual_orders(identities_report):
    _criterion(
        4, "integral-identity residuals converge at order >= 1.5 over three levels",
        identities_report,
        ["order_res_energy_balance", "order_res_virial", "order_res_two_time"],
    )


def test_criterion_05_domain_of_influence(influence_report):
    _criterion(
        5, "front speed <= 1.05c (baseline) and <= 1.02c (refined), both materials",
        influence_report,
        ["front_speed_decoupled_base", "front_speed_decoupled_refined",
         "front_speed_coupled_base", "front_speed_coupled_refined",
         "pulse_speed_vs_analytic", "influence_quiet_zone"],
    )


def test_criterion_06_surface_power_structure(decay_report):
    _criterion(
        6, "P >= 0, non-increasing in r, P = E within 3% improving under refinement",
        decay_report,
        ["power_nonnegative", "power_monotone", "power_equals_energy",
         "power_equals_energy_refined"],
    )


def test_criterion_07_decay_envelopes(decay_report):
    _criterion(
        7, "P(r,t) <= P(0,t) exp(-lambda r/c) (1.05) for the lambda sweep",
        decay_report,
        ["decay_bound_lam_0.5", "decay_bound_lam_1", "decay_bound_lam_2",
         "radial_inequality"],
    )


def test_criterion_08_uniqueness_and_determinism(uniqueness_report):
    _criterion(
        8, "null data give the exactly null solution; runs are bit-identical",
        uniqueness_report,
        ["null_data_null_solution", "determinism"],
    )


def test_criterion_09_equipartition(equipartition_report):
    _criterion(
        9, "Cesàro equipartition: pinned-wall decay and all-traction offset (< 5 min)",
        equipartition_report,
        ["equipartition_gap_dirichlet", "equipartition_decay_exponent",
         "equipartition_rigid_exact", "equipartition_rigid_exact_2d",
         "equipartition_free_offset", "runtime_equipartition"],
    )


def test_criterion_10_rigid_decomposition(equipartition_report):
    _criterion(
        10, "rigid-decomposition residual moments <= 1e-10 scale on 100 seeded fields",
        equipartition_report,
        ["rigid_normalization"],
    )


# Every non-runtime check value of the simulation suites at SEED.  Values of
# roundoff size are pinned only to be below _ROUNDOFF in magnitude.
SIMULATION_GOLDEN = {
    "identities": {
        "energy_conservation": 4.990829118553347e-05,
        "energy_drift_refinement": 3.9948518510421525,
        "order_res_energy_balance": 1.980167957556462,
        "order_res_virial": 1.9721576544816983,
        "order_res_two_time": 2.9410453174478624e-17,
    },
    "decay": {
        "power_nonnegative": -0.0,
        "power_monotone": 0.0,
        "power_equals_energy": 0.022348826310326496,
        "power_equals_energy_refined": 0.01272353946225596,
        "radial_inequality": -1.0123738209383053e-138,
        "decay_bound_lam_0.5": 0.95238095238095244,
        "decay_bound_lam_1": 0.95238095238095244,
        "decay_bound_lam_2": 0.95238095238095244,
    },
    "influence": {
        "front_speed_decoupled_base": 0.85255582987319178,
        "front_speed_decoupled_refined": 0.79936394866677829,
        "front_speed_coupled_base": 0.94589142475171561,
        "front_speed_coupled_refined": 0.89153130764500643,
        "pulse_speed_vs_analytic": 0.0074647204230911387,
        "influence_quiet_zone": 1.7722835611101484e-24,
    },
    "equipartition": {
        "equipartition_gap_dirichlet": 1.214424756658392e-05,
        "equipartition_decay_exponent": -0.95088126295933,
        "equipartition_rigid_exact": 7.3546085062476262e-16,
        "equipartition_rigid_exact_2d": 7.9657364337008684e-16,
        "equipartition_free_offset": 2.373820150382264e-05,
        "rigid_normalization": 1.5130290924018507e-15,
    },
    "uniqueness": {
        "null_data_null_solution": 0.0,
        "determinism": 1.0,
    },
}
_ROUNDOFF = 1e-12


def _assert_pinned(values: dict[str, float], golden: dict[str, float]) -> None:
    assert values.keys() == golden.keys()
    for name, pinned in golden.items():
        if abs(pinned) >= _ROUNDOFF:
            assert values[name] == pytest.approx(pinned, rel=1e-12, abs=0.0), name
        else:
            assert abs(values[name]) <= _ROUNDOFF, name


def _check_values(report) -> dict[str, float]:
    return {c.name: c.measured for c in report.checks if not c.name.startswith("runtime_")}


@pytest.mark.parametrize("suite", sorted(SIMULATION_GOLDEN))
def test_simulation_check_values_are_unchanged(suite, request):
    _assert_pinned(_check_values(request.getfixturevalue(f"{suite}_report")),
                   SIMULATION_GOLDEN[suite])


# The runs of each suite that record snapshots, and the most nodes of one of them:
# the identities suite records them only in its residual runs.
_SNAPSHOT_RUNS = {"decay": (verify.suite_decay, 801),
                  "identities": (verify._residual_orders, 401),
                  "influence": (verify.suite_influence, 401)}


@pytest.mark.parametrize("suite", sorted(_SNAPSHOT_RUNS))
def test_suite_peak_memory_does_not_grow_with_the_snapshot_count(suite, monkeypatch):
    # each snapshot is reduced as it is taken, so every run taking a snapshot half
    # as often peaks within one state (2·8·n·8 B) of the suite's own cadence; when
    # the suites kept the snapshots, the sparser cadence saved decay about 6 MB
    import tracemalloc
    from dataclasses import replace

    stream, snapshots = verify.stream, {}

    def every(factor):
        def run(problem, *args, **kwargs):
            out = stream(replace(problem, snapshot_every=problem.snapshot_every * factor),
                         *args, **kwargs)
            # every run of these suites has a reducer, which sees each snapshot once
            snapshots[factor] = snapshots.get(factor, 0) + len(out[2][0])
            return out
        return run

    suite_func, nodes = _SNAPSHOT_RUNS[suite]
    suite_func(SEED)  # outside the trace: one-time caches of a first run
    peaks = {}
    for factor in (1, 2):
        monkeypatch.setattr(verify, "stream", every(factor))
        tracemalloc.start()
        try:
            suite_func(SEED)
            peaks[factor] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert snapshots[1] > 1.9 * snapshots[2]
    assert abs(peaks[1] - peaks[2]) < 2 * 8 * nodes * 8
