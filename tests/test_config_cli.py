"""Configuration schema and the command-line entry points."""

from __future__ import annotations

import inspect
import os
import re
import subprocess
import sys
import threading
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np
import pytest

import poromix as pm
from poromix import cli, config, diagnostics, solver, verify
from poromix.config import build_problem, canonical_text, load_config, save_config
from poromix.errors import InvalidParameter, NonFinite, SchemaError

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
        # a line without '=' is one more bad line: the error lists it with the others
        with pytest.raises(SchemaError) as exc:
            load_config(write(tmp_path, "just a line\nwibble = 3\n"))
        assert exc.value.errors == ["line 1: expected 'key = value'",
                                    "line 2: unknown key 'wibble'"]

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


# One config that uses every key, profile kind, field target and boundary kind.
EVERY_KEY = """\
material = random:3
grid.dim = 2
grid.n = 9 7
grid.h = 0.125 0.2
grid.origin = -0.5 0.25
lambda = 2.5
T = 0.1
cfl = 0.4
seed = 7
record.energy_every = 2
record.snapshot_every = 3
output = golden_out
init = gaussian_pulse field=u1 component=1 center=0.1,0.6 width=0.2 amplitude=0.5
init = plane_wave field=u2 k=3.0,1.5 amplitude=0.25 component=2
init = rigid field=u translation=0.1,0,0 rotation=0,0,0.3
init = zero field=u1_dot
init = rigid field=u2_dot translation=0,0.2,0
init = gaussian_pulse field=u_dot component=0 width=0.3
init = plane_wave field=phi1 k=2
init = gaussian_pulse field=phi2 amplitude=0.1
init = zero field=phi1_dot
init = plane_wave field=phi2_dot k=1,1 amplitude=0.05
boundary.u.x0 = dirichlet_zero
boundary.u.x1 = traction_free
boundary.u.y0 = prescribed_value 0.01,0,0 0,0.02,0
boundary.u.y1 = prescribed_traction 0.1,0,0 0,0,0.2
boundary.phi.x0 = prescribed_flux 0.3 0.4
boundary.phi.x1 = prescribed_value 0.05 0.06
boundary.phi.y0 = traction_free
boundary.phi.y1 = dirichlet_zero
verify.suites = decay influence
verify.tol_h = 0.07
"""

EVERY_KEY_CANONICAL = """\
material = random:3
grid.dim = 2
grid.n = 9 7
grid.h = 0.125 0.2
grid.origin = -0.5 0.25
lambda = 2.5
T = 0.1
cfl = 0.4
seed = 7
record.energy_every = 2
record.snapshot_every = 3
output = golden_out
init = gaussian_pulse field=u1 amplitude=0.5 center=0.1,0.6 component=1.0 width=0.2
init = plane_wave field=u2 amplitude=0.25 component=2.0 k=3.0,1.5
init = rigid field=u rotation=0.0,0.0,0.3 translation=0.1,0.0,0.0
init = zero field=u1_dot
init = rigid field=u2_dot translation=0.0,0.2,0.0
init = gaussian_pulse field=u_dot component=0.0 width=0.3
init = plane_wave field=phi1 k=2.0
init = gaussian_pulse field=phi2 amplitude=0.1
init = zero field=phi1_dot
init = plane_wave field=phi2_dot amplitude=0.05 k=1.0,1.0
boundary.u.x0 = dirichlet_zero
boundary.u.x1 = traction_free
boundary.u.y0 = prescribed_value 0.01,0.0,0.0 0.0,0.02,0.0
boundary.u.y1 = prescribed_traction 0.1,0.0,0.0 0.0,0.0,0.2
boundary.phi.x0 = prescribed_flux 0.3 0.4
boundary.phi.x1 = prescribed_value 0.05 0.06
boundary.phi.y0 = traction_free
boundary.phi.y1 = dirichlet_zero
verify.suites = decay influence
verify.tol_h = 0.07
"""

_MATERIAL_SPEC = "material must be identity|decoupled|random:SEED (SEED an integer >= 0)|file:PATH"
_BOUNDARY_KIND = ("boundary kind must be one of ('dirichlet_zero', 'traction_free', "
                  "'prescribed_value', 'prescribed_traction', 'prescribed_flux')")

# One bad input per error branch of the schema, with its verbatim error list.
SCHEMA_ERRORS = [
    ("init =\n", ["line 1: empty init profile"]),
    ("init = warp field=u1\n",
     ["line 1: unknown profile 'warp' (known: ('gaussian_pulse', 'plane_wave', 'rigid', 'zero'))"]),
    ("init = gaussian_pulse width\n", ["line 1: profile parameter 'width' is not key=value"]),
    ("init = zero field=w\n", ["line 1: unknown field target 'w'"]),
    ("init = gaussian_pulse width=abc\n", ["line 1: cannot parse numbers in 'width=abc'"]),
    ("init = zero width=1\n", ["line 1: profile 'zero' does not take 'width'"]),
    ("init = rigid field=phi1 translation=0.1\n",
     ["line 1: profile 'rigid' needs a vector field, not 'phi1'"]),
    ("init = rigid field=phi2_dot\n", ["line 1: profile 'rigid' needs a vector field, not 'phi2_dot'"]),
    ("init = gaussian_pulse field=phi1 component=2\n",
     ["line 1: 'component' applies to vector fields, not 'phi1'"]),
    ("init = plane_wave field=phi2_dot component=0\n",
     ["line 1: 'component' applies to vector fields, not 'phi2_dot'"]),
    ("init = gaussian_pulse field=u1 width=0.1 width=0.3\n",
     ["line 1: duplicate profile parameter 'width'"]),
    ("init = zero field=u1 field=phi1\n", ["line 1: duplicate profile parameter 'field'"]),
    ("boundary.u.x0 = traction_free 1\n", ["line 1: traction_free takes no parameters"]),
    ("boundary.u.x0 = clamped\n", [f"line 1: {_BOUNDARY_KIND}"]),
    ("boundary.u.x0 = prescribed_flux 1 2\n",
     ["line 1: prescribed_flux applies to the phi family"]),
    ("boundary.phi.x0 = prescribed_traction 1,0,0 0,0,0\n",
     ["line 1: prescribed_traction applies to the u family"]),
    ("boundary.u.x0 = prescribed_value 1,0,0\n",
     ["line 1: prescribed_value needs two constant value groups"]),
    ("boundary.phi.x1 = prescribed_value a 1\n", ["line 1: cannot parse numbers in 'a'"]),
    ("boundary.u.x1 = prescribed_traction 1,0 0,0,0\n",
     ["line 1: each value group needs 3 component(s)"]),
    ("boundary.u.x0 = prescribed_value , 0,0,0\n",
     ["line 1: each value group needs 3 component(s)"]),
    ("T = 1.0\nT = 2.0\n", ["line 2: duplicate key 'T'"]),
    ("grid.dim = two\n", ["line 1: bad value for 'grid.dim': 'two'"]),
    ("grid.dim =\n", ["line 1: bad value for 'grid.dim': ''"]),
    ("lambda = fast\n", ["line 1: bad value for 'lambda': 'fast'"]),
    ("T =\n", ["line 1: bad value for 'T': ''"]),
    ("grid.n = 10 x\n", ["line 1: bad value for 'grid.n': '10 x'"]),
    ("grid.h = 0.1 y\n", ["line 1: bad value for 'grid.h': '0.1 y'"]),
    ("cfl = 1.5\n", ["line 1: 'cfl' out of range: '1.5'"]),
    ("grid.n = 3\n", ["line 1: 'grid.n' out of range: '3'"]),
    ("grid.h = 0\n", ["line 1: 'grid.h' out of range: '0'"]),
    ("seed = -3\n", ["line 1: 'seed' out of range: '-3'"]),
    ("record.energy_every = 0\n", ["line 1: 'record.energy_every' out of range: '0'"]),
    ("verify.tol_h = -1\n", ["line 1: 'verify.tol_h' out of range: '-1'"]),
    ("material = random:abc\n", [f"line 1: {_MATERIAL_SPEC}"]),
    ("material =\n", [f"line 1: {_MATERIAL_SPEC}"]),
    ("boundary.w.x0 = traction_free\n", ["line 1: unknown key 'boundary.w.x0'"]),
    ("boundary.u = traction_free\n", ["line 1: unknown key 'boundary.u'"]),
    ("boundary.u.x0 = traction_free\nboundary.u.x0 = dirichlet_zero\n",
     ["line 2: duplicate key 'boundary.u.x0'"]),
    ("verify.suites = decay warp\n",
     ["line 1: unknown suite(s) ['warp'] (known: ('constitutive', 'identities', 'decay', "
      "'influence', 'equipartition', 'uniqueness', 'all'))"]),
    ("wibble = 3\n", ["line 1: unknown key 'wibble'"]),
    ("grid.dim = 2\ngrid.n = 10\n", ["grid.n has 1 entries for dim=2"]),
    ("grid.h = 0.1 0.1\n", ["grid.h has 2 entries for dim=1"]),
    ("grid.origin = 0 0\n", ["grid.origin has 2 entries for dim=1"]),
    ("boundary.u.y0 = traction_free\n", ["boundary side 'y0' invalid for dim=1"]),
]

# Empty and non-finite values: each is a schema error on its own line (line 2 here).
REJECTED_VALUES = [
    ("boundary.u.x0 =", _BOUNDARY_KIND),
    ("verify.suites =", "bad value for 'verify.suites': ''"),
    ("grid.n =", "bad value for 'grid.n': ''"),
    ("grid.h =", "bad value for 'grid.h': ''"),
    ("grid.origin =", "bad value for 'grid.origin': ''"),
    ("output =", "bad value for 'output': ''"),
    ("init = gaussian_pulse field=u1 amplitude=", "cannot parse numbers in 'amplitude='"),
    ("T = inf", "bad value for 'T': 'inf'"),
    ("lambda = inf", "bad value for 'lambda': 'inf'"),
    ("verify.tol_h = inf", "bad value for 'verify.tol_h': 'inf'"),
    ("grid.h = inf", "bad value for 'grid.h': 'inf'"),
    ("grid.h = 1e400", "bad value for 'grid.h': '1e400'"),
    ("grid.origin = nan", "bad value for 'grid.origin': 'nan'"),
    ("init = gaussian_pulse field=u1 amplitude=inf", "cannot parse numbers in 'amplitude=inf'"),
    ("boundary.u.x0 = prescribed_traction nan,0,0 0,0,0", "cannot parse numbers in 'nan,0,0'"),
]

# Profile values outside their admissible sets: each crashed, ran, or lost values.
REJECTED_PROFILE_VALUES = [
    "gaussian_pulse field=u1 center=0.5 component=5",
    "gaussian_pulse field=u1 center=0.5 component=0.7",
    "gaussian_pulse field=u1 center=0.5 component=-1",
    "plane_wave field=u1 k=1,2,3,4",
    "rigid field=u translation=1,2,3,4",
    "rigid field=u rotation=0,0,1,1",
    "gaussian_pulse field=u1 center=0.5 width=0.1,0.2",
    "gaussian_pulse field=u1 center=0.5 amplitude=1,2",
    "gaussian_pulse field=u1 center=0.5 width=0",
    "gaussian_pulse field=u1 center=0.5 width=-0.1",
    "gaussian_pulse field=u1 center=0.5,7,9,11",
]



def readme_run_configuration() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split("## Run configuration", 1)[1].split("\n## ", 1)[0]


class TestConfigTables:
    def test_canonical_text_of_every_key_is_golden(self, tmp_path):
        cfg = load_config(write(tmp_path, EVERY_KEY))
        assert canonical_text(cfg) == EVERY_KEY_CANONICAL
        assert load_config(write(tmp_path, EVERY_KEY_CANONICAL, "canon.cfg")) == cfg

    @pytest.mark.parametrize("text, errors", SCHEMA_ERRORS)
    def test_schema_errors_are_golden(self, tmp_path, text, errors):
        with pytest.raises(SchemaError) as exc:
            load_config(write(tmp_path, text))
        assert exc.value.errors == errors

    @pytest.mark.parametrize("line, message", REJECTED_VALUES)
    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_empty_and_non_finite_values_are_config_errors(self, tmp_path, capsys, line,
                                                           message, command):
        path = write(tmp_path, f"# the rejected line\n{line}\n")
        with pytest.raises(SchemaError) as exc:
            load_config(path)
        assert exc.value.errors == [f"line 2: {message}"]
        args = ["--out", str(tmp_path / "o")] if command == "simulate" else ["--suite", "decay"]
        assert cli.main([command, "--config", str(path), *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "line 2: " in err
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    @pytest.mark.parametrize("profile", REJECTED_PROFILE_VALUES)
    def test_inadmissible_profile_values_are_config_errors(self, tmp_path, capsys, profile):
        path = write(tmp_path, f"grid.n = 32\nT = 0.01\ninit = {profile}\n")
        kind, *_, tok = profile.split()
        with pytest.raises(SchemaError) as exc:
            load_config(path)
        assert exc.value.errors == [f"line 3: {tok!r} out of range for {kind}"]
        assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("config error: line 3: ")
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    def test_every_defaulted_problem_field_is_set_by_a_key(self, tmp_path):
        # a ProblemSpec field that no config key reaches is an option only tests set
        prob = build_problem(load_config(write(tmp_path, EVERY_KEY)))
        for f in fields(pm.ProblemSpec):
            if f.default is not MISSING or f.default_factory is not MISSING:
                default = f.default if f.default is not MISSING else f.default_factory()
                assert getattr(prob, f.name) != default, f.name

    def test_boundary_data_matches_a_hand_built_oracle(self, tmp_path):
        # all five boundary kinds on zero initial data; the y1 side carries no data
        text = ("grid.dim = 2\ngrid.n = 9 7\ngrid.h = 0.125 0.2\ngrid.origin = -0.5 0.25\n"
                "boundary.u.x0 = dirichlet_zero\n"
                "boundary.u.x1 = prescribed_traction 0.1,0,0 0,0,0.2\n"
                "boundary.u.y0 = prescribed_value 0.01,0,0 0,0.02,0\n"
                "boundary.u.y1 = traction_free\n"
                "boundary.phi.x0 = prescribed_flux 0.3 0.4\n"
                "boundary.phi.x1 = prescribed_value 0.05 0.06\n"
                "boundary.phi.y0 = traction_free\n"
                "boundary.phi.y1 = dirichlet_zero\n")
        prob = build_problem(load_config(write(tmp_path, text)))
        (nx, ny), (hx, hy) = prob.grid.n, prob.grid.h
        # each group on its Dirichlet side, written in side order x0, x1, y0, y1, so the
        # y0 values win the corners they share with x0 and x1; dirichlet_zero writes nothing
        pins = np.zeros((8, nx, ny))
        pins[6, -1, :], pins[7, -1, :] = 0.05, 0.06
        pins[0:3, :, 0] = np.array([0.01, 0.0, 0.0])[:, None]
        pins[3:6, :, 0] = np.array([0.0, 0.02, 0.0])[:, None]
        # group × h of the other axis × trapezoid weight, summed over the natural sides
        trap_y = hy * np.r_[0.5, np.ones(ny - 2), 0.5]
        load = np.zeros((8, nx, ny))
        load[0:3, -1, :] = np.array([0.1, 0.0, 0.0])[:, None] * trap_y
        load[3:6, -1, :] = np.array([0.0, 0.0, 0.2])[:, None] * trap_y
        load[6, 0, :], load[7, 0, :] = 0.3 * trap_y, 0.4 * trap_y
        # u pinned on x0 and y0, φ on x1 and y1
        pinned = np.zeros((8, nx, ny), dtype=bool)
        pinned[:6, 0, :] = pinned[:6, :, 0] = pinned[6:, -1, :] = pinned[6:, :, -1] = True
        ws = prob.workspace
        np.testing.assert_array_equal(ws.pin_at, np.flatnonzero(pinned))
        np.testing.assert_array_equal(ws.pin_to, pins[pinned])
        assert not pins[~pinned].any()
        np.testing.assert_array_equal(ws.load, load)
        # the support: every node of a side that carries data (x0, x1, y0)
        support = np.zeros((nx, ny), dtype=bool)
        support[0, :] = support[-1, :] = support[:, 0] = True
        np.testing.assert_array_equal(diagnostics.support_geometry(prob).mask, support)

    def test_readme_names_the_tables(self):
        section = readme_run_configuration()
        block = section.split("```")[1]
        keys = set(re.findall(r"^([\w.]+) = ", block, re.M))
        assert keys == set(config._NUMERIC_KEYS) | {
            "material", "output", "init", "boundary.u.x0", "boundary.phi.x0", "verify.suites"}
        profiles = re.findall(r"^init = (\w+) (.*)$", block, re.M)
        assert {kind for kind, _ in profiles} == set(config._PROFILES)
        for kind, params in profiles:
            named = dict(p.split("=", 1) for p in params.split())
            assert named.pop("field") in config._TARGETS
            assert set(named) <= set(config._PROFILES[kind])
        targets = re.search(r"Init field targets: `([^`]*)`", section.replace("\n", " "))
        assert targets.group(1).split() == list(config._TARGETS)
        for family in ("u", "phi"):
            spec = re.search(rf"^boundary\.{family}\.x0 = ((?:.*\n(?=\s+\|))*.*)$", block, re.M)
            kinds = {alt.split()[0] for alt in spec.group(1).split("|")}
            assert kinds == {kind for kind, (_, families) in config._BOUNDARY_KINDS.items()
                             if not families or family in families}


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
        consts = replace(pm.identity_material(), zeta=-5.0)
        path = tmp_path / "bad.txt"
        pm.save_material(consts, path)
        rc = cli.main(["material-check", str(path)])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("deviation, rc, printed", [
        (1e-14, 0, "symmetry check: ok"),
        (1e-10, 1, "symmetry check: FAIL (A_ijrs=A_rsij violated by"),
    ])
    def test_symmetry_holds_to_its_tolerance(self, tmp_path, capsys, deviation, rc, printed):
        consts = pm.random_material(0)
        A = consts.A.copy()
        A[0, 0, 1, 1] += deviation
        path = tmp_path / "mat.txt"
        pm.save_material(replace(consts, A=A), path)
        assert cli.main(["material-check", str(path)]) == rc
        assert printed in capsys.readouterr().out

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


def child_env() -> dict[str, str]:
    """The environment of a fresh process that imports this checkout's poromix."""
    src = str(Path(pm.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def command_imports(argv: list[str], modules: list[str]) -> list[bool]:
    """Whether ``poromix ARGV``, in a fresh process, imports each of ``modules``."""
    script = ("import sys\nfrom poromix import cli\n"
              f"code = cli.main({argv!r})\n"
              f"print(code, *[m in sys.modules for m in {modules!r}])\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=child_env(), timeout=120)
    printed = done.stdout.split()[-1 - len(modules):]
    assert printed[:1] == ["0"], done.stderr
    return [flag == "True" for flag in printed[1:]]


class TestPackageNamespace:
    def test_the_package_holds_the_materials_and_solver_names(self):
        # plain imports: a name its module dropped fails at ``import poromix``
        public = {name: obj for name, obj in vars(pm).items()
                  if not name.startswith("_") and not inspect.ismodule(obj)}
        assert len(public) == 23 and "__getattr__" not in vars(pm)
        for name, obj in public.items():
            assert obj.__module__ in ("poromix.materials", "poromix.solver")
            assert getattr(sys.modules[obj.__module__], name) is obj
        assert "stream" in public and not {"run", "simulate", "PointState"} & set(public)

    @pytest.mark.parametrize("command", ["simulate", "decay-report", "material-check"])
    def test_commands_other_than_verify_leave_it_unimported(self, tmp_path, command):
        # every module a run imports is compiled in a checkout without bytecode:
        # the verification suites are about a fifth of the package, and only
        # they need the point-state algebra
        text = PULSE.replace("width=0.08", "width=0.03").replace("T = 0.05", "T = 0.08")
        argv = (["material-check", "random:1"] if command == "material-check"
                else [command, "--config", str(write(tmp_path, text))])
        assert command_imports(argv, ["poromix.verify", "poromix.pointwise"]) == [
            False, False]


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

    def test_rerun_leaves_only_its_own_snapshots(self, tmp_path, capsys):
        # a second run with a sparser cadence used to leave the first run's extra
        # snapshots behind, unlisted in its manifest
        out = tmp_path / "out"
        counts = []
        for every in (2, 5):
            path = write(tmp_path, PULSE.replace("record.snapshot_every = 5",
                                                 f"record.snapshot_every = {every}"))
            assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 0
            (out / "snapshots" / "notes.txt").write_text("kept")
            counts.append(len(list((out / "snapshots").glob("snap_*.bin"))))
        listed = {line.split()[1] for line in (out / "manifest.txt").read_text().splitlines()}
        on_disk = {f"snapshots/{p.name}" for p in (out / "snapshots").glob("snap_*.bin")}
        assert on_disk == {name for name in listed if name.startswith("snapshots/")}
        assert counts[0] > counts[1] == len(on_disk)
        assert (out / "snapshots" / "notes.txt").read_text() == "kept"

    @pytest.mark.parametrize("dim", [1, 2])
    def test_simulate_leaves_numpy_ma_unimported(self, tmp_path, dim):
        # numpy.ma costs about 16 ms and 1.3 MB in every run that imports it;
        # np.unique does so lazily, so no run path may call it
        text = PULSE if dim == 1 else PULSE.replace("grid.dim = 1", "grid.dim = 2").replace(
            "grid.n = 101", "grid.n = 17 17").replace("center=0.5", "center=0.5,0.5") + (
            "boundary.u.y0 = traction_free\nboundary.u.y1 = traction_free\n"
            "boundary.phi.y0 = traction_free\nboundary.phi.y1 = traction_free\n")
        argv = ["simulate", "--config", str(write(tmp_path, text)), "--out", str(tmp_path / "out")]
        assert command_imports(argv, ["numpy.ma"]) == [False]

    def test_config_error_exit_code(self, tmp_path):
        path = write(tmp_path, "nonsense.key = 1\n")
        assert cli.main(["simulate", "--config", str(path)]) == 2

    @pytest.mark.parametrize("command", ["simulate", "decay-report"])
    def test_a_step_count_numpy_cannot_index_is_a_config_error(self, tmp_path, command):
        # T / dt = 2e300 steps: simulate died in its energy array after making the output
        # directory, and decay-report stepped for ever; a fresh process with a timeout
        # makes a hang fail without stalling the suite
        path = write(tmp_path, "grid.n = 8\ngrid.h = 1e-300\nT = 1.0\n")
        done = subprocess.run([sys.executable, "-m", "poromix.cli", command, "--config", str(path)],
                              capture_output=True, text=True, env=child_env(), timeout=60)
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("config error: ") and "numpy can index" in done.stderr
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]  # no output directory

    def test_command_line_out_is_relative_to_the_working_directory(self, tmp_path, monkeypatch,
                                                                    capsys):
        # a config's output path is next to the config; an --out path is the caller's
        (tmp_path / "cfgs").mkdir()
        (tmp_path / "work").mkdir()
        path = write(tmp_path / "cfgs", PULSE + "output = from_config\n")
        monkeypatch.chdir(tmp_path / "work")
        assert cli.main(["simulate", "--config", str(path), "--out", "from_cli"]) == 0
        assert (tmp_path / "work" / "from_cli" / "manifest.txt").exists()
        assert cli.main(["simulate", "--config", str(path)]) == 0
        assert (tmp_path / "cfgs" / "from_config" / "manifest.txt").exists()
        assert sorted(p.name for p in (tmp_path / "cfgs").iterdir()) == ["from_config", "run.cfg"]

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_output_path_that_is_a_file_is_a_config_error(self, tmp_path, monkeypatch, capsys,
                                                          command):
        (tmp_path / "afile").write_text("not a directory")
        path = write(tmp_path, PULSE + "output = afile\n")
        monkeypatch.setattr(solver, "step", None)  # no step may be taken
        argv = ["--out", str(tmp_path / "afile")] if command == "simulate" else [
            "--suite", "uniqueness"]
        assert cli.main([command, "--config", str(path), *argv]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert (tmp_path / "afile").read_text() == "not a directory"

    def test_numeric_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        # the snapshots reach the disk as they are taken, so a run that fails
        # after writing some must leave neither them nor a manifest behind
        path = write(tmp_path, PULSE)
        out, snaps = tmp_path / "out", tmp_path / "out" / "snapshots"
        assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        (snaps / "notes.txt").write_text("kept")
        on_disk, step = [], solver.step

        def boom(*args, step_index=None, **kwargs):
            if step_index == 11:  # after the snapshots of steps 0, 5 and 10
                on_disk.append(sorted(p.name for p in snaps.glob("snap_*.bin")))
                raise NonFinite("blew up", step=step_index)
            return step(*args, step_index=step_index, **kwargs)

        monkeypatch.setattr(solver, "step", boom)
        assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 3
        assert on_disk == [[f"snap_{i:06d}.bin" for i in range(3)]]
        assert "(step 11)" in capsys.readouterr().err
        assert not (out / "manifest.txt").exists()
        assert sorted(p.name for p in snaps.iterdir()) == ["notes.txt"]

    def test_peak_memory_does_not_grow_with_the_snapshot_count(self, tmp_path, capsys):
        # each snapshot is written and reduced when it is taken, so 41 snapshots
        # peak within one snapshot (2·8·33²·8 B) of 6; kept copies grew it linearly
        import tracemalloc

        dt = pm.stable_timestep(pm.Grid((33, 33)), pm.random_material(5).speed, 0.5)
        text = (f"material = random:5\ngrid.dim = 2\ngrid.n = 33 33\nT = {39.5 * dt!r}\n"
                "init = gaussian_pulse field=u1 component=0 center=0.5,0.5 width=0.08 "
                "amplitude=1.0\n")
        runs = {every: ["simulate", "--config",
                        str(write(tmp_path, text + f"record.snapshot_every = {every}\n",
                                  name=f"every{every}.cfg")),
                        "--out", str(tmp_path / f"out{every}")] for every in (1, 8)}
        assert cli.main(runs[8]) == 0  # outside the trace: one-time caches of a first run
        peaks = {}
        for every, argv in runs.items():
            tracemalloc.start()
            try:
                assert cli.main(argv) == 0
                peaks[every] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert len(list((tmp_path / "out1" / "snapshots").glob("snap_*.bin"))) == 41
        assert abs(peaks[1] - peaks[8]) < 2 * 8 * 33 * 33 * 8

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
        # the identities miss the reaction work of the nonzero pinned values,
        # so the run writes no residuals and says why
        assert not (tmp_path / "d" / "residuals.csv").exists()
        err = capsys.readouterr().err
        assert "residuals.csv not written" in err and "Dirichlet" in err
        assert "residuals.csv" not in (tmp_path / "d" / "manifest.txt").read_text()


    @pytest.mark.parametrize("line, left_out", [
        ("T = 0", {"cesaro.csv": "beyond t = 0", "residuals.csv": "at least 3 snapshots"}),
        ("record.snapshot_every = 1000", {"residuals.csv": "at least 3 snapshots"}),
    ])
    def test_artifacts_left_out_are_named_on_stderr(self, tmp_path, capsys, line, left_out):
        key = line.split(" =")[0]
        text = re.sub(rf"^{re.escape(key)} = .*$", line, PULSE, flags=re.M)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(write(tmp_path, text)), "--out",
                         str(out)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert [ln.split(":")[0] for ln in err] == [f"{name} not written" for name in left_out] + [
            "steps", "energy drift", "front speed / c", "max |P-E|/E"]
        for name, reason in left_out.items():
            assert reason in next(ln for ln in err if ln.startswith(name))
        listed = (out / "manifest.txt").read_text()
        for name in ("cesaro.csv", "residuals.csv"):
            assert (out / name).exists() == (name not in left_out) == (name in listed)


# the arguments of each command with a config phase; verify's suite is never reached
PHASE_ARGS = {"simulate": [], "decay-report": [], "verify": ["--suite", "uniqueness"]}


class TestConfigPhase:
    """Bad input exits 2 with ``config error: …`` before the command writes anything."""

    @staticmethod
    def assert_refused(tmp_path, capsys, command, path) -> str:
        """The stderr of a refused run."""
        before = sorted(p.name for p in tmp_path.iterdir())
        assert cli.main([command, "--config", str(path), *PHASE_ARGS[command]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == before  # no output directory
        return err

    @pytest.mark.parametrize("command", PHASE_ARGS)
    def test_a_config_that_is_not_utf8(self, tmp_path, capsys, command):
        # a CR LF and a lone CR end a line each, as for the other config errors
        path = tmp_path / "run.cfg"
        path.write_bytes(b"grid.n = 32\r\n# note\routput = caf\xe9\n")
        err = self.assert_refused(tmp_path, capsys, command, path)
        assert err == f"config error: {path}: line 3: not UTF-8 text\n"

    @pytest.mark.parametrize("command", PHASE_ARGS)
    def test_a_material_file_that_is_not_utf8(self, tmp_path, capsys, command):
        # the material file is named, not the config that names it
        (tmp_path / "mat.txt").write_bytes(b"zeta = 1.0\n# caf\xe9\n")
        path = write(tmp_path, "material = file:mat.txt\ngrid.n = 32\n")
        err = self.assert_refused(tmp_path, capsys, command, path)
        assert err == f"config error: {tmp_path / 'mat.txt'}: line 2: not UTF-8 text\n"

    def test_verify_with_a_missing_material_file(self, tmp_path, capsys):
        path = write(tmp_path, "material = file:absent.txt\ngrid.n = 32\n")
        self.assert_refused(tmp_path, capsys, "verify", path)

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_a_nul_byte_in_the_output_path(self, tmp_path, capsys, command):
        path = write(tmp_path, "grid.n = 32\noutput = a\0b\n")
        self.assert_refused(tmp_path, capsys, command, path)


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


    @pytest.mark.parametrize("argv, text", [
        (["decay-report"], PULSE),
        (["verify", "--suite", "uniqueness"], "grid.n = 32\noutput = vout\n"),
    ])
    def test_numerical_failure_names_the_step(self, tmp_path, monkeypatch, capsys, argv, text):
        step = solver.step

        def boom(*args, step_index=None, **kwargs):
            if step_index == 3:
                raise NonFinite("blew up", step=step_index)
            return step(*args, step_index=step_index, **kwargs)

        monkeypatch.setattr(solver, "step", boom)
        path = write(tmp_path, text)
        assert cli.main([argv[0], "--config", str(path), *argv[1:]]) == 3
        assert capsys.readouterr().err == "numerical failure: blew up (step 3)\n"


class TestSerialSuites:
    def test_suites_start_no_thread(self, monkeypatch):
        # the suites run in the calling thread
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
        consts = replace(consts, D=D)
    elif kind == "indefinite":
        consts = replace(consts, zeta=-5.0)
    elif kind == "overflow":  # every constant finite, but (A + A^T)/2 overflows
        consts = replace(consts, zeta=1.7e308, mu=1.7e308, tau=1.7e308)
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


    def test_an_overflowing_form_fails_the_admissibility_gate(self, tmp_path, capsys):
        # refused before any eigensolve, which would not converge on it
        path = write(tmp_path, f"material = {bad_material(tmp_path, 'overflow')}\noutput = vout\n")
        cause = "non-finite entries"
        assert cli.main(["material-check", str(tmp_path / "mat.txt")]) == 1
        last = capsys.readouterr().out.splitlines()[-1]
        assert last.startswith("admissibility: FAIL (") and cause in last
        for command in ("simulate", "decay-report"):
            assert cli.main([command, "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and cause in err
        assert cli.main(["verify", "--config", str(path), "--suite", "constitutive"]) == 1
        out = capsys.readouterr().out
        for name in ("config_material_identities", "config_material_ok_ratio"):
            line = next(ln for ln in out.splitlines() if f"] {name}:" in ln)
            assert line.startswith("[FAIL]") and "NotPositiveDefinite" in line

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

    def test_lambda_sweep(self, tmp_path, monkeypatch, capsys):
        text = PULSE.replace("width=0.08", "width=0.03").replace("T = 0.05", "T = 0.08")
        path = write(tmp_path, text)
        monkeypatch.setattr(diagnostics, "IdentitySeries", None)  # the report needs only P(r, t)
        rc = cli.main(["decay-report", "--config", str(path), "--lambda-sweep"])
        out = capsys.readouterr().out
        # multiples of c/L, with L = 1 the extent of the unit line
        c = pm.random_material(5).speed.c
        assert re.findall(r"lambda=(\S+):", out) == [f"{m * c:.6g}" for m in (0.5, 1.0, 2.0)]

    def test_a_report_before_t_says_so(self, tmp_path, capsys):
        # T = 0.08 takes 36 steps: with a snapshot every 5 steps the last is at step 35
        early = "decay report at the last snapshot, t = 0.0777778, before T = 0.08\n"
        for every, err in ((5, early), (4, "")):
            text = PULSE.replace("T = 0.05", "T = 0.08").replace(
                "snapshot_every = 5", f"snapshot_every = {every}")
            cli.main(["decay-report", "--config", str(write(tmp_path, text))])
            assert capsys.readouterr().err == err
