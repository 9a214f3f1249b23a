"""Run configuration: line-oriented structured text, schema-validated.

Format: one ``key = value`` per line, ``#`` comments, repeated ``init =``
lines accumulate. Unknown keys are rejected with their line number.  The
canonical writer emits every key (defaults included) so write→load round
trips exactly.

Example::

    material = random:42
    grid.dim = 1
    grid.n = 400
    grid.h = 0.0025066
    lambda = 1.0
    T = 1.0
    cfl = 0.5
    init = gaussian_pulse field=u1 component=0 center=0.5 width=0.06 amplitude=1.0
    boundary.u.x0 = traction_free
    boundary.u.x1 = traction_free
    boundary.phi.x0 = traction_free
    boundary.phi.x1 = traction_free
    output = out
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidParameter, ParseError, SchemaError
from .materials import (
    MaterialConstants,
    decoupled_material,
    identity_material,
    load_material,
    random_material,
)
from .solver import (
    AXIS_NAMES,
    BoundaryPartition,
    Grid,
    InitialData,
    ProblemSpec,
    RigidMotion,
    SideCondition,
    gaussian_pulse,
)

# The verification suites, in run order; "all" runs every one.
SUITES = ("constitutive", "identities", "decay", "influence", "equipartition", "uniqueness")

_BOUNDARY_KINDS = ("dirichlet_zero", "traction_free")
_PRESCRIBED_KINDS = ("prescribed_value", "prescribed_traction", "prescribed_flux")

_PROFILE_KINDS = ("gaussian_pulse", "plane_wave", "rigid", "zero")

_FIELD_TARGETS = (
    "u1", "u2", "u", "u1_dot", "u2_dot", "u_dot",
    "phi1", "phi2", "phi1_dot", "phi2_dot",
)


@dataclass(frozen=True)
class InitProfile:
    """One named analytic initial-data profile."""

    kind: str
    field: str
    params: tuple[tuple[str, tuple[float, ...]], ...]

    def get(self, name: str, default=None):
        for key, val in self.params:
            if key == name:
                return val
        return default


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration (schema documented in the README)."""

    material: str = "identity"
    dim: int = 1
    n: tuple[int, ...] = ()  # load_config fills in 128 per dimension
    h: tuple[float, ...] = ()
    origin: tuple[float, ...] = ()
    lam: float = 1.0
    T: float = 1.0
    cfl: float = 0.5
    seed: int = 0
    energy_every: int = 1
    snapshot_every: int = 10
    output: str = "out"
    init: tuple[InitProfile, ...] = ()
    # per side: (side, kind, params) with params a tuple of value groups
    boundary_u: tuple[tuple, ...] = ()
    boundary_phi: tuple[tuple, ...] = ()
    suites: tuple[str, ...] = ("all",)
    tol_h: float = 0.05
    base_dir: str = "."

    def spacing(self) -> tuple[float, ...]:
        if self.h:
            return self.h
        return tuple(1.0 / (ni - 1) for ni in self.n)


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.replace(",", " ").split())


def _parse_profile(text: str, lineno: int, errors: list[str]) -> InitProfile | None:
    parts = text.split()
    if not parts:
        errors.append(f"line {lineno}: empty init profile")
        return None
    kind = parts[0]
    if kind not in _PROFILE_KINDS:
        errors.append(f"line {lineno}: unknown profile {kind!r} (known: {_PROFILE_KINDS})")
        return None
    params = {}
    target = "u1"
    for tok in parts[1:]:
        if "=" not in tok:
            errors.append(f"line {lineno}: profile parameter {tok!r} is not key=value")
            return None
        key, val = tok.split("=", 1)
        if key == "field":
            if val not in _FIELD_TARGETS:
                errors.append(f"line {lineno}: unknown field target {val!r}")
                return None
            target = val
        else:
            try:
                params[key] = _parse_floats(val)
            except ValueError:
                errors.append(f"line {lineno}: cannot parse numbers in {tok!r}")
                return None
    allowed = {
        "gaussian_pulse": {"center", "width", "amplitude", "component"},
        "plane_wave": {"k", "amplitude", "component"},
        "rigid": {"translation", "rotation"},
        "zero": set(),
    }[kind]
    for key in params:
        if key not in allowed:
            errors.append(f"line {lineno}: profile {kind!r} does not take {key!r}")
            return None
    return InitProfile(kind=kind, field=target, params=tuple(sorted(params.items())))


def _parse_boundary(val: str, family: str, lineno: int, errors: list[str]):
    """Parse one boundary spec into (kind, params) with params a tuple of tuples."""
    parts = val.split()
    kind = parts[0]
    if kind in _BOUNDARY_KINDS:
        if len(parts) > 1:
            errors.append(f"line {lineno}: {kind} takes no parameters")
            return None
        return (kind, ())
    if kind not in _PRESCRIBED_KINDS:
        errors.append(
            f"line {lineno}: boundary kind must be one of {_BOUNDARY_KINDS + _PRESCRIBED_KINDS}"
        )
        return None
    if family == "u" and kind == "prescribed_flux":
        errors.append(f"line {lineno}: prescribed_flux applies to the phi family")
        return None
    if family == "phi" and kind == "prescribed_traction":
        errors.append(f"line {lineno}: prescribed_traction applies to the u family")
        return None
    want = 3 if family == "u" else 1
    if len(parts) != 3:
        errors.append(f"line {lineno}: {kind} needs two constant value groups")
        return None
    groups = []
    for tok in parts[1:]:
        try:
            g = _parse_floats(tok)
        except ValueError:
            errors.append(f"line {lineno}: cannot parse numbers in {tok!r}")
            return None
        if len(g) != want:
            errors.append(f"line {lineno}: each value group needs {want} component(s)")
            return None
        groups.append(g)
    return (kind, tuple(groups))


def load_config(path) -> RunConfig:
    """Parse and validate a run configuration file.

    Raises:
        ParseError: unreadable line structure.
        SchemaError: unknown keys or invalid values (with line references).
    """
    base_dir = os.path.dirname(os.path.abspath(path))
    entries: list[tuple[int, str, str]] = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"{path}:{lineno}: expected 'key = value'")
            key, val = (s.strip() for s in line.split("=", 1))
            entries.append((lineno, key, val))

    errors: list[str] = []
    cfg = RunConfig(base_dir=base_dir)
    seen: set[str] = set()
    init: list[InitProfile] = []
    boundary_u: dict[str, str] = {}
    boundary_phi: dict[str, str] = {}

    def once(lineno: int, key: str) -> bool:
        if key in seen:
            errors.append(f"line {lineno}: duplicate key {key!r}")
            return False
        seen.add(key)
        return True

    def set_num(lineno, key, val, caster, attr, cond=lambda v: True, what="value"):
        if not once(lineno, key):
            return
        nonlocal cfg
        try:
            v = caster(val)
        except ValueError:
            errors.append(f"line {lineno}: bad {what} for {key!r}: {val!r}")
            return
        if not cond(v):
            errors.append(f"line {lineno}: {key !r} out of range: {val!r}")
            return
        cfg = replace(cfg, **{attr: v})

    for lineno, key, val in entries:
        if key == "material":
            if once(lineno, key):
                try:
                    parse_material_spec(val)
                    cfg = replace(cfg, material=val)
                except InvalidParameter as exc:
                    errors.append(f"line {lineno}: {exc}")
        elif key == "grid.dim":
            set_num(lineno, key, val, int, "dim", lambda v: v in (1, 2))
        elif key == "grid.n":
            set_num(lineno, key, val, lambda s: tuple(int(x) for x in s.split()), "n",
                    lambda v: all(x >= 4 for x in v))
        elif key == "grid.h":
            set_num(lineno, key, val, _parse_floats, "h", lambda v: all(x > 0 for x in v))
        elif key == "grid.origin":
            set_num(lineno, key, val, _parse_floats, "origin")
        elif key == "lambda":
            set_num(lineno, key, val, float, "lam", lambda v: v > 0)
        elif key == "T":
            set_num(lineno, key, val, float, "T", lambda v: v >= 0)
        elif key == "cfl":
            set_num(lineno, key, val, float, "cfl", lambda v: 0 < v <= 1)
        elif key == "seed":
            set_num(lineno, key, val, int, "seed", lambda v: v >= 0)
        elif key == "record.energy_every":
            set_num(lineno, key, val, int, "energy_every", lambda v: v >= 1)
        elif key == "record.snapshot_every":
            set_num(lineno, key, val, int, "snapshot_every", lambda v: v >= 1)
        elif key == "output":
            if once(lineno, key):
                cfg = replace(cfg, output=val)
        elif key == "init":
            prof = _parse_profile(val, lineno, errors)
            if prof is not None:
                init.append(prof)
        elif key.startswith("boundary."):
            parts = key.split(".")
            if len(parts) != 3 or parts[1] not in ("u", "phi"):
                errors.append(f"line {lineno}: unknown key {key!r}")
                continue
            spec = _parse_boundary(val, parts[1], lineno, errors)
            if spec is None:
                continue
            table = boundary_u if parts[1] == "u" else boundary_phi
            if parts[2] in table:
                errors.append(f"line {lineno}: duplicate key {key!r}")
            table[parts[2]] = spec
        elif key == "verify.suites":
            if once(lineno, key):
                suites = tuple(val.split())
                known = SUITES + ("all",)
                bad = [s for s in suites if s not in known]
                if bad:
                    errors.append(f"line {lineno}: unknown suite(s) {bad} (known: {known})")
                else:
                    cfg = replace(cfg, suites=suites)
        elif key == "verify.tol_h":
            set_num(lineno, key, val, float, "tol_h", lambda v: v >= 0)
        else:
            errors.append(f"line {lineno}: unknown key {key!r}")

    if len(cfg.n) not in (0, cfg.dim):
        errors.append(f"grid.n has {len(cfg.n)} entries for dim={cfg.dim}")
    if cfg.h and len(cfg.h) != cfg.dim:
        errors.append(f"grid.h has {len(cfg.h)} entries for dim={cfg.dim}")
    if cfg.origin and len(cfg.origin) != cfg.dim:
        errors.append(f"grid.origin has {len(cfg.origin)} entries for dim={cfg.dim}")
    if len(cfg.n) == 0:
        cfg = replace(cfg, n=(128,) * cfg.dim)
    valid_sides = {f"{AXIS_NAMES[a]}{e}" for a in range(cfg.dim) for e in (0, 1)}
    for table in (boundary_u, boundary_phi):
        for side in table:
            if side not in valid_sides:
                errors.append(f"boundary side {side!r} invalid for dim={cfg.dim}")
    if errors:
        raise SchemaError(errors)
    default = ("dirichlet_zero", ())
    full_u = tuple((s,) + boundary_u.get(s, default) for s in sorted(valid_sides))
    full_phi = tuple((s,) + boundary_phi.get(s, default) for s in sorted(valid_sides))
    cfg = replace(cfg, init=tuple(init), boundary_u=full_u, boundary_phi=full_phi)
    return replace(cfg, h=cfg.spacing())


def canonical_text(cfg: RunConfig) -> str:
    """Serialize with every key explicit; load(canonical_text(c)) == c."""
    lines = [
        f"material = {cfg.material}",
        f"grid.dim = {cfg.dim}",
        f"grid.n = {' '.join(str(v) for v in cfg.n)}",
        f"grid.h = {' '.join(repr(v) for v in cfg.spacing())}",
    ]
    if cfg.origin:
        lines.append(f"grid.origin = {' '.join(repr(v) for v in cfg.origin)}")
    lines += [
        f"lambda = {cfg.lam!r}",
        f"T = {cfg.T!r}",
        f"cfl = {cfg.cfl!r}",
        f"seed = {cfg.seed}",
        f"record.energy_every = {cfg.energy_every}",
        f"record.snapshot_every = {cfg.snapshot_every}",
        f"output = {cfg.output}",
    ]
    for prof in cfg.init:
        params = " ".join(
            f"{k}={','.join(repr(x) for x in v)}" for k, v in prof.params
        )
        lines.append(f"init = {prof.kind} field={prof.field}{(' ' + params) if params else ''}")
    for family, table in (("u", cfg.boundary_u), ("phi", cfg.boundary_phi)):
        for side, kind, params in table:
            suffix = "".join(" " + ",".join(repr(x) for x in g) for g in params)
            lines.append(f"boundary.{family}.{side} = {kind}{suffix}")
    lines.append(f"verify.suites = {' '.join(cfg.suites)}")
    lines.append(f"verify.tol_h = {cfg.tol_h!r}")
    return "\n".join(lines) + "\n"


def save_config(cfg: RunConfig, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(canonical_text(cfg))


def parse_material_spec(spec: str) -> tuple[str, str]:
    """(kind, argument) of identity|decoupled|random:SEED|file:PATH; else InvalidParameter."""
    kind, _, arg = spec.partition(":")
    if not (spec in ("identity", "decoupled") or kind == "file"
            or (kind == "random" and arg.strip().isdecimal())):
        raise InvalidParameter("material must be identity|decoupled|"
                               "random:SEED (SEED an integer >= 0)|file:PATH")
    return kind, arg


def material_from_spec(spec: str, base_dir: str = "") -> MaterialConstants:
    """The material a spec names; a relative file PATH is taken from ``base_dir``."""
    kind, arg = parse_material_spec(spec)
    if kind == "random":
        return random_material(int(arg))
    if kind == "file":
        return load_material(os.path.join(base_dir, arg))
    return identity_material() if kind == "identity" else decoupled_material()


def resolve_material(cfg: RunConfig) -> MaterialConstants:
    return material_from_spec(cfg.material, cfg.base_dir)


def _profile_field(prof: InitProfile, x: np.ndarray, dim: int, vector: bool) -> np.ndarray:
    shape = x.shape[1:]
    if prof.kind == "zero":
        return np.zeros((3,) + shape) if vector else np.zeros(shape)
    if prof.kind == "gaussian_pulse":
        c = prof.get("center", (0.0,))
        center = (tuple(c) + (0.0,) * dim)[:dim]
        comp = int(prof.get("component", (0.0,))[0]) if vector else None
        pulse = gaussian_pulse(center, prof.get("width", (0.1,))[0],
                               prof.get("amplitude", (1.0,))[0], component=comp)
        return pulse(x)
    if prof.kind == "plane_wave":
        kvec = np.zeros(3)
        kv = prof.get("k", (np.pi,))
        kvec[: len(kv)] = kv
        amp = prof.get("amplitude", (1.0,))[0]
        phase = sum(kvec[a] * x[a] for a in range(dim))
        wave = amp * np.sin(phase)
        if not vector:
            return wave
        comp = int(prof.get("component", (0.0,))[0])
        out = np.zeros((3,) + shape)
        out[comp] = wave
        return out
    # rigid
    tr = np.zeros(3)
    rot = np.zeros(3)
    tv = prof.get("translation", ())
    rv = prof.get("rotation", ())
    tr[: len(tv)] = tv
    rot[: len(rv)] = rv
    return RigidMotion(tr, rot).field(x)


def build_initial_data(cfg: RunConfig) -> InitialData:
    """Turn the accumulated init profiles into field callables."""
    targets = {
        "u1": ("u1",), "u2": ("u2",), "u": ("u1", "u2"),
        "u1_dot": ("v1",), "u2_dot": ("v2",), "u_dot": ("v1", "v2"),
        "phi1": ("phi1",), "phi2": ("phi2",),
        "phi1_dot": ("psi1",), "phi2_dot": ("psi2",),
    }
    buckets: dict[str, list[InitProfile]] = {}
    for prof in cfg.init:
        for slot in targets[prof.field]:
            buckets.setdefault(slot, []).append(prof)

    def maker(slot: str, vector: bool):
        profs = buckets.get(slot)
        if not profs:
            return None

        def fn(x, _profs=tuple(profs), _vector=vector):
            acc = None
            for p in _profs:
                val = _profile_field(p, x, cfg.dim, _vector)
                acc = val if acc is None else acc + val
            return acc

        return fn

    return InitialData(
        u1=maker("u1", True),
        u2=maker("u2", True),
        v1=maker("v1", True),
        v2=maker("v2", True),
        phi1=maker("phi1", False),
        phi2=maker("phi2", False),
        psi1=maker("psi1", False),
        psi2=maker("psi2", False),
    )


def build_problem(cfg: RunConfig, consts: MaterialConstants | None = None) -> ProblemSpec:
    """Materialize the ProblemSpec described by a configuration."""
    consts = consts if consts is not None else resolve_material(cfg)
    grid = Grid(dim=cfg.dim, n=cfg.n, h=cfg.spacing(), origin=cfg.origin or (0.0,) * cfg.dim)

    def side_condition(family: str, kind: str, params) -> SideCondition:
        if kind == "dirichlet_zero":
            return SideCondition("dirichlet")
        if kind == "traction_free":
            return SideCondition("natural")
        g1, g2 = (np.asarray(g, dtype=float) for g in params)

        if kind == "prescribed_value":
            if family == "u":
                def dval(x, _a=g1, _b=g2):
                    shape = x.shape[1:]
                    return (
                        np.broadcast_to(_a.reshape((3,) + (1,) * len(shape)), (3,) + shape),
                        np.broadcast_to(_b.reshape((3,) + (1,) * len(shape)), (3,) + shape),
                    )
            else:
                def dval(x, _a=g1, _b=g2):
                    shape = x.shape[1:]
                    return (np.full(shape, _a[0]), np.full(shape, _b[0]))
            return SideCondition("dirichlet", value=dval)

        if family == "u":
            def nval(x, t, _a=g1, _b=g2):
                shape = x.shape[1:]
                return (
                    np.broadcast_to(_a.reshape((3,) + (1,) * len(shape)), (3,) + shape),
                    np.broadcast_to(_b.reshape((3,) + (1,) * len(shape)), (3,) + shape),
                )
        else:
            def nval(x, t, _a=g1, _b=g2):
                shape = x.shape[1:]
                return (np.full(shape, _a[0]), np.full(shape, _b[0]))
        return SideCondition("natural", value=nval)

    boundary = BoundaryPartition(
        u={side: side_condition("u", kind, params) for side, kind, params in cfg.boundary_u},
        phi={side: side_condition("phi", kind, params) for side, kind, params in cfg.boundary_phi},
    )
    return ProblemSpec(
        grid=grid,
        consts=consts,
        boundary=boundary,
        initial=build_initial_data(cfg),
        lam=cfg.lam,
        T=cfg.T,
        cfl=cfg.cfl,
        energy_every=cfg.energy_every,
        snapshot_every=cfg.snapshot_every,
    )
