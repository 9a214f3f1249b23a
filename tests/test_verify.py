"""The pass rule of a verify check, and checks that must fail on a NaN."""

from __future__ import annotations

import math

import pytest

from poromix import diagnostics as diag
from poromix import verify
from poromix.errors import Degenerate

CheckResult = verify.CheckResult


class TestCheckResult:
    @pytest.mark.parametrize("compare", sorted(verify._COMPARE))
    def test_nan_fails_under_every_comparison(self, compare):
        for target, tol in ((0.0, 0.0), (1.0, 1e-9), (math.inf, 0.0), (-math.inf, 0.0)):
            assert not CheckResult("x", "", math.nan, target, tol, compare).passed

    def test_strict_comparison_fails_at_equality(self):
        assert not CheckResult("x", "", 1.5, 1.0, 0.5, "<").passed
        assert CheckResult("x", "", 1.5, 1.0, 0.5, "<=").passed
        assert CheckResult("x", "", 1.4, 1.0, 0.5, "<").passed

    def test_lower_bound_subtracts_the_tolerance(self):
        check = CheckResult("x", "", 0.5, 1.0, 0.5, ">=")
        assert check.bound == 0.5 and check.passed
        assert not CheckResult("x", "", 0.49, 1.0, 0.5, ">=").passed
        # the same tolerance widens an upper bound the other way
        assert CheckResult("x", "", 1.5, 1.0, 0.5).bound == 1.5

    def test_line_prints_the_deciding_comparison(self):
        assert CheckResult("lo", "claim", 0.5, 1.0, 0.5, ">=").line() == (
            "[PASS] lo: measured 0.5 >= 1 - 0.5 :: claim")
        assert CheckResult("hi", "claim", math.nan, 0.0, 1e-9, detail="why").line() == (
            "[FAIL] hi: measured nan <= 0 + 1e-09 :: claim [why]")
        # no tolerance: the target alone is the bound
        assert CheckResult("t", "wall time (s)", 12.0, 10.0, compare="<").line() == (
            "[FAIL] t: measured 12 < 10 :: wall time (s)")

    def test_report_passes_only_if_every_check_does(self):
        report = verify.VerifyReport(suite="fake", checks=[CheckResult("a", "", 0.0, 1.0)])
        assert report.passed
        report.checks.append(CheckResult("b", "", 2.0, 1.0))
        assert not report.passed
        assert report.to_text().splitlines()[-1] == "suite fake: FAIL (1/2 checks)"


# The check that reads each slot of ``_sweep_maxima`` (the last slot, the operator
# ratio, is reported in a detail, not checked).
_SWEEP_SLOT_CHECKS = ("eigen_envelope", "power_identity_static", "power_identity_rate",
                      "dual_constitutive_forms", "stress_energy_bound", "traction_bound")


@pytest.mark.parametrize("slot", range(len(_SWEEP_SLOT_CHECKS)))
def test_a_nan_sweep_maximum_fails_its_check(monkeypatch, slot):
    sweep_maxima, calls = verify._sweep_maxima, []

    def with_nan(law, states):
        maxima = sweep_maxima(law, states)
        calls.append(None)
        if len(calls) == 3:  # one chunk of the middle of the sweep
            maxima[slot] = math.nan
        return maxima

    monkeypatch.setattr(verify, "_sweep_maxima", with_nan)
    report = verify.suite_constitutive(0)
    failed = [c.name for c in report.checks if not c.passed]
    assert failed == [_SWEEP_SLOT_CHECKS[slot]]
    assert math.isnan(report.checks[slot].measured)


def test_a_stress_energy_violation_is_logged_in_its_bound_check(monkeypatch):
    sweep_maxima, calls = verify._sweep_maxima, []

    def violated(law, states):
        maxima = sweep_maxima(law, states)
        calls.append(None)
        if len(calls) == 3:
            maxima[4] = 1.0 + 1e-6
        return maxima

    checks = len(verify.suite_constitutive(0).checks)
    monkeypatch.setattr(verify, "_sweep_maxima", violated)
    report = verify.suite_constitutive(0)
    assert len(report.checks) == checks
    failed = [c for c in report.checks if not c.passed]
    assert [c.name for c in failed] == ["stress_energy_bound"]
    assert failed[0].detail.endswith(f"; max |S|^2/(2 xi_max W) = {1.0 + 1e-6!r}")


def test_a_decay_suite_without_a_usable_time_fails_its_envelopes(monkeypatch):
    def degenerate(*args, **kwargs):
        raise Degenerate("no usable radii")

    monkeypatch.setattr(diag, "decay_report", degenerate)
    checks = {c.name: c for c in verify.suite_decay(0).checks}
    envelopes = [c for name, c in checks.items() if name.startswith("decay_bound_lam_")]
    assert len(envelopes) == 3
    for check in envelopes:
        assert math.isnan(check.measured) and not check.passed
        assert check.line().startswith(f"[FAIL] {check.name}: measured nan <= 1 ")
    assert all(c.passed for name, c in checks.items() if not name.startswith("decay_bound_"))


def test_a_nan_residual_at_one_level_fails_its_order_check(monkeypatch):
    # NaN at the middle level only, where max() over the three levels would drop it
    residuals, calls = diag.IdentitySeries.residuals, []

    def with_nan(*args):
        ir = residuals(*args)
        calls.append(None)
        if len(calls) == 2:
            ir.res_two_time[:] = math.nan
        return ir

    monkeypatch.setattr(diag.IdentitySeries, "residuals", with_nan)
    checks = {c.name: c for c in verify._residual_orders(0)}
    assert not checks["order_res_two_time"].passed
    assert checks["order_res_energy_balance"].passed and checks["order_res_virial"].passed


def test_a_nan_rigid_residual_fails_the_normalization(monkeypatch):
    def case(*args):  # an exact report, so only the rigid-fit loop decides
        return diag.EquipartitionReport(case="free", E0=1.0, gap_final=0.0,
                                        predicted_offset=0.0, fit_exponent=-1.0)

    rigid_fit, calls = verify.rigid_fit, []

    def with_nan(u, grid):
        fit, residual, worst = rigid_fit(u, grid)
        calls.append(None)
        return fit, residual, math.nan if len(calls) == 7 else worst

    for name in ("_equipartition_case_i", "_equipartition_case_ii"):
        monkeypatch.setattr(verify, name, case)
    monkeypatch.setattr(verify, "rigid_fit", with_nan)
    checks = {c.name: c for c in verify.suite_equipartition(0).checks}
    assert len(calls) == 400
    assert math.isnan(checks["rigid_normalization"].measured)
    assert [name for name, c in checks.items() if not c.passed] == ["rigid_normalization"]
