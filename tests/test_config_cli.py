"""Configuration schema and the command-line entry points."""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest

import poromix as pm
from poromix import cli, verify
from poromix.config import build_problem, canonical_text, load_config, save_config
from poromix.errors import InvalidParameter, NonFinite, ParseError, SchemaError

MINIMAL = "grid.n = 64\n"

PULSE = """\
material = random:5
grid.dim = 1
grid.n = 101
T = 0.05
init = gaussian_pulse field=u1 component=0 center=0.5 width=0.08 amplitude=1.0
boundary.u.x0 = traction_free
boundary.u.x1 = traction_free
boundary.phi.x0 = traction_free
boundary.phi.x1 = traction_free
record.snapshot_every = 5
"""


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestConfigSchema:
    def test_minimal_file_fills_defaults(self, tmp_path):
        cfg = load_config(write(tmp_path, MINIMAL))
        assert cfg.cfl == 0.5
        assert cfg.lam == 1.0
        assert cfg.material == "identity"
        assert cfg.dim == 1 and cfg.n == (64,)
        assert dict((s, k) for s, k, _ in cfg.boundary_u) == {"x0": "dirichlet_zero",
                                                              "x1": "dirichlet_zero"}

    def test_two_dimensional_default_grid(self, tmp_path):
        cfg = load_config(write(tmp_path, "grid.dim = 2\n"))
        assert cfg.n == (128, 128) and cfg.h == (1.0 / 127, 1.0 / 127)
        path2 = tmp_path / "canon.cfg"
        save_config(cfg, path2)
        assert load_config(path2) == cfg

    def test_unknown_key_rejected_with_line(self, tmp_path):
        path = write(tmp_path, "grid.n = 64\nwibble = 3\n")
        with pytest.raises(SchemaError) as exc:
            load_config(path)
        assert any("line 2" in e and "wibble" in e for e in exc.value.errors)

    def test_duplicate_key_rejected(self, tmp_path):
        with pytest.raises(SchemaError, match="duplicate"):
            load_config(write(tmp_path, "T = 1.0\nT = 2.0\n"))

    def test_negative_seed_rejected_with_line(self, tmp_path, capsys):
        path = write(tmp_path, "grid.n = 32\nseed = -3\noutput = vout\n")
        with pytest.raises(SchemaError) as exc:
            load_config(path)
        assert any("line 2" in e and "seed" in e for e in exc.value.errors)
        assert cli.main(["verify", "--config", str(path), "--suite", "constitutive"]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    def test_bad_values_rejected(self, tmp_path):
        path = write(tmp_path, "cfl = 1.5\nlambda = -1\ngrid.dim = 5\n")
        with pytest.raises(SchemaError) as exc:
            load_config(path)
        assert len(exc.value.errors) == 3

    def test_parse_error_on_missing_equals(self, tmp_path):
        with pytest.raises(ParseError):
            load_config(write(tmp_path, "just a line\n"))

    def test_boundary_side_validity_per_dim(self, tmp_path):
        path = write(tmp_path, "grid.dim = 1\ngrid.n = 32\nboundary.u.y0 = traction_free\n")
        with pytest.raises(SchemaError, match="y0"):
            load_config(path)

    def test_bad_profile_rejected(self, tmp_path):
        path = write(tmp_path, "init = warp field=u1\n")
        with pytest.raises(SchemaError, match="warp"):
            load_config(path)

    def test_prescribed_boundary_parsing(self, tmp_path):
        text = (
            "grid.n = 32\n"
            "boundary.u.x0 = prescribed_traction 0.1,0,0 0,0,0\n"
            "boundary.phi.x1 = prescribed_value 0.5 0.25\n"
        )
        cfg = load_config(write(tmp_path, text))
        table = {s: (k, p) for s, k, p in cfg.boundary_u}
        assert table["x0"] == ("prescribed_traction", ((0.1, 0.0, 0.0), (0.0, 0.0, 0.0)))
        prob = build_problem(cfg)
        assert prob.boundary.side("u", 0, 0).kind == "natural"
        assert prob.boundary.side("phi", 0, 1).kind == "dirichlet"

    def test_round_trip_canonical(self, tmp_path):
        cfg = load_config(write(tmp_path, PULSE))
        path2 = tmp_path / "canon.cfg"
        save_config(cfg, path2)
        cfg2 = load_config(path2)
        # base_dir may differ only if paths differ; same directory here
        assert cfg2 == cfg
        assert canonical_text(cfg2) == canonical_text(cfg)

    def test_build_problem_matches_profiles(self, tmp_path):
        cfg = load_config(write(tmp_path, PULSE))
        prob = build_problem(cfg)
        state = pm.initialize(prob)
        xs = prob.grid.axes()[0]
        np.testing.assert_allclose(
            state.u1[0], np.exp(-((xs - 0.5) ** 2) / (2 * 0.08**2)), atol=1e-15)
        assert state.max_abs() > 0


class TestMaterialCheckCommand:
    def test_identity_passes(self, capsys):
        rc = cli.main(["material-check", "identity"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "xi_min = 1" in out and "c = 1" in out

    def test_admissible_file(self, tmp_path, capsys):
        path = tmp_path / "mat.txt"
        pm.save_material(pm.random_material(4), path)
        assert cli.main(["material-check", str(path)]) == 0

    def test_indefinite_material_fails(self, tmp_path, capsys):
        consts = pm.identity_material().replace(zeta=-5.0)
        path = tmp_path / "bad.txt"
        pm.save_material(consts, path)
        rc = cli.main(["material-check", str(path)])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_missing_file_is_usage_error(self, tmp_path):
        assert cli.main(["material-check", str(tmp_path / "nope.txt")]) == 2

    def test_printed_moduli_match_eigen_oracle(self, tmp_path, capsys):
        from poromix.materials import symmetric_subspace_basis

        from .oracles import jacobi_eigenvalues

        consts = pm.random_material(9)
        path = tmp_path / "mat.txt"
        pm.save_material(consts, path)
        assert cli.main(["material-check", str(path)]) == 0
        out = capsys.readouterr().out
        printed = {
            line.split(" = ")[0]: float(line.split(" = ")[1])
            for line in out.splitlines() if " = " in line
        }
        q = symmetric_subspace_basis()
        eigs = jacobi_eigenvalues(q.T @ consts.form.matrix @ q)
        assert printed["xi_min"] == pytest.approx(eigs[0], abs=1e-10)
        assert printed["xi_max"] == pytest.approx(eigs[-1], abs=1e-10)
        assert printed["c"] == pytest.approx(
            np.sqrt(eigs[-1] / printed["m"]), rel=1e-10)


class TestSimulateCommand:
    def test_zero_data_writes_zero_energy(self, tmp_path, capsys):
        path = write(tmp_path, "grid.n = 32\nT = 0.01\noutput = out0\n")
        assert cli.main(["simulate", "--config", str(path)]) == 0
        rows = (tmp_path / "out0" / "energy.csv").read_text().splitlines()[1:]
        totals = [float(r.split(",")[-1]) for r in rows]
        assert all(v == 0.0 for v in totals)

    def test_same_config_twice_identical_manifests(self, tmp_path, capsys):
        path = write(tmp_path, PULSE)
        assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "a")]) == 0
        assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "b")]) == 0
        man_a = (tmp_path / "a" / "manifest.txt").read_text()
        man_b = (tmp_path / "b" / "manifest.txt").read_text()
        assert man_a == man_b
        assert (tmp_path / "a" / "energy.csv").read_bytes() == (
            tmp_path / "b" / "energy.csv").read_bytes()
        assert (tmp_path / "a" / "snapshots" / "snap_000000.bin").exists()

    def test_config_error_exit_code(self, tmp_path):
        path = write(tmp_path, "nonsense.key = 1\n")
        assert cli.main(["simulate", "--config", str(path)]) == 2

    def test_numeric_failure_exit_code(self, tmp_path, monkeypatch):
        path = write(tmp_path, PULSE)

        def boom(problem, **kw):
            raise NonFinite("blew up", step=7)

        monkeypatch.setattr("poromix.cli.simulate", boom)
        assert cli.main(["simulate", "--config", str(path)]) == 3

    def test_pulse_energy_conserved_in_csv(self, tmp_path, capsys):
        # plumbing-level drift bound at n=101; criterion-level 1e-4 at n=400
        # lives in the acceptance suite
        path = write(tmp_path, PULSE)
        assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "c")]) == 0
        rows = (tmp_path / "c" / "energy.csv").read_text().splitlines()[1:]
        totals = np.array([float(r.split(",")[-1]) for r in rows])
        assert np.max(np.abs(totals - totals[0])) <= 2e-3 * totals[0]

    def test_prescribed_value_run_starts_on_its_dirichlet_data(self, tmp_path, capsys):
        # a 0.1 displacement pinned at x0: sampled at t = 0 without it, the
        # run jumped by 16 % in energy at the first step (residual 4.5)
        text = PULSE.replace("grid.n = 101", "grid.n = 201").replace("T = 0.05", "T = 0.3")
        text = text.replace("width=0.08", "width=0.05").replace(
            "boundary.u.x0 = traction_free", "boundary.u.x0 = prescribed_value 0.1,0,0 0,0,0")
        path = write(tmp_path, text)
        assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "d")]) == 0
        rows = (tmp_path / "d" / "energy.csv").read_text().splitlines()[1:]
        totals = np.array([float(r.split(",")[-1]) for r in rows])
        assert np.max(np.abs(totals - totals[0])) <= 0.02 * totals[0]
        rows = (tmp_path / "d" / "residuals.csv").read_text().splitlines()[1:]
        assert max(float(r.split(",")[1]) for r in rows) < 1.0


class TestVerifyCommand:
    def test_uniqueness_suite_passes(self, tmp_path, capsys):
        path = write(tmp_path, "grid.n = 32\noutput = vout\n")
        rc = cli.main(["verify", "--config", str(path), "--suite", "uniqueness", "--seed", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "suite uniqueness: PASS" in out
        assert (tmp_path / "vout" / "verify_uniqueness.csv").exists()
        assert "seed = 3" in out

    def test_constitutive_suite_on_identity_material_passes(self, tmp_path, capsys):
        # the identity material passes the material-independent algebra and
        # has its (violating) operator ratio reported, not gated
        path = write(tmp_path, "grid.n = 32\nmaterial = identity\noutput = vout\n")
        rc = cli.main(["verify", "--config", str(path), "--suite", "constitutive"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "config_material_identities" in out
        assert "config_material_ok_ratio" in out

    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys):
        path = write(tmp_path, "grid.n = 32\noutput = vout\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--config", str(path), "--suite", "uniqueness", "--seed", "-9"])
        assert exc.value.code == 2
        assert "seed must be an integer >= 0" in capsys.readouterr().err


class TestSerialSuites:
    def test_suites_start_no_thread(self, monkeypatch):
        # the suites run in the calling thread, whatever the environment says
        monkeypatch.setenv("POROMIX_THREADS", "4")

        def refuse(thread):
            raise AssertionError(f"a suite started thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert verify.run_suite("influence", seed=0).passed


def bad_material(tmp_path, kind: str) -> str:
    """The ``material =`` value of a config whose material is bad in the given way."""
    if kind == "non_integer_seed":
        return "random:abc"
    consts = pm.identity_material()
    if kind == "asymmetric_D":
        D = np.zeros((3, 3))
        D[0, 1] = 0.3
        consts = consts.replace(D=D)
    else:
        consts = consts.replace(zeta=-5.0)
    pm.save_material(consts, tmp_path / "mat.txt")
    return "file:mat.txt"


BAD_MATERIALS = ["non_integer_seed", "asymmetric_D", "indefinite"]


class TestBadConfiguredMaterial:
    def test_non_integer_seed_rejected_with_line(self, tmp_path):
        with pytest.raises(SchemaError) as exc:
            load_config(write(tmp_path, "grid.n = 32\nmaterial = random:abc\n"))
        assert any("line 2" in e and "SEED" in e for e in exc.value.errors)

    @pytest.mark.parametrize("command", ["simulate", "decay-report"])
    @pytest.mark.parametrize("kind", BAD_MATERIALS)
    def test_run_commands_exit_with_config_error(self, tmp_path, capsys, command, kind):
        path = write(tmp_path, f"material = {bad_material(tmp_path, kind)}\ngrid.n = 32\n")
        assert cli.main([command, "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("kind", BAD_MATERIALS)
    def test_verify_reports_fail_checks(self, tmp_path, capsys, kind):
        path = write(tmp_path, f"material = {bad_material(tmp_path, kind)}\noutput = vout\n")
        rc = cli.main(["verify", "--config", str(path), "--suite", "constitutive"])
        out = capsys.readouterr().out
        if kind == "non_integer_seed":
            assert rc == 2
            return
        assert rc == 1
        symmetric = kind == "indefinite"
        assert ("[PASS] config_material_symmetries" in out) == symmetric
        error = "NotPositiveDefinite" if symmetric else "SymmetryViolation"
        for name in ("config_material_identities", "config_material_ok_ratio"):
            line = next(ln for ln in out.splitlines() if f"] {name}:" in ln)
            assert line.startswith("[FAIL]") and error in line
        assert "suite constitutive: FAIL" in out


    @pytest.mark.parametrize("value", ["'x'", "[1.0]"])
    def test_non_numeric_material_value_is_config_error(self, tmp_path, capsys, value):
        pm.save_material(pm.identity_material(), tmp_path / "mat.txt")
        text = (tmp_path / "mat.txt").read_text().splitlines()
        text = [f"zeta = {value}" if ln.startswith("zeta") else ln for ln in text]
        (tmp_path / "mat.txt").write_text("\n".join(text) + "\n")
        with pytest.raises(InvalidParameter, match="zeta"):
            pm.load_material(tmp_path / "mat.txt")
        path = write(tmp_path, "material = file:mat.txt\ngrid.n = 32\n")
        assert cli.main(["simulate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "zeta" in err

    @pytest.mark.parametrize("spec", ["random:abc", "random:-1", "random:"])
    def test_material_check_and_config_share_the_spec_message(self, tmp_path, capsys, spec):
        assert cli.main(["material-check", spec]) == 2
        cli_message = capsys.readouterr().err.strip().removeprefix("error: ")
        with pytest.raises(SchemaError) as exc:
            load_config(write(tmp_path, f"material = {spec}\n"))
        assert exc.value.errors == [f"line 1: {cli_message}"]

    def test_material_check_accepts_config_specs(self, tmp_path, capsys):
        pm.save_material(pm.random_material(4), tmp_path / "mat.txt")
        assert cli.main(["material-check", f"file:{tmp_path / 'mat.txt'}"]) == 0
        assert cli.main(["material-check", "decoupled"]) == 0


class TestDecayReportCommand:
    def test_basic_run(self, tmp_path, capsys):
        text = PULSE.replace("width=0.08", "width=0.03").replace("T = 0.05", "T = 0.08")
        path = write(tmp_path, text)
        rc = cli.main(["decay-report", "--config", str(path)])
        out = capsys.readouterr().out
        assert "lambda=" in out
        assert rc in (0, 1)

    def test_lambda_sweep(self, tmp_path, capsys):
        text = PULSE.replace("width=0.08", "width=0.03").replace("T = 0.05", "T = 0.08")
        path = write(tmp_path, text)
        rc = cli.main(["decay-report", "--config", str(path), "--lambda-sweep"])
        out = capsys.readouterr().out
        assert out.count("lambda=") == 3
