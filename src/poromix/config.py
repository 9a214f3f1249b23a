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

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidParameter, SchemaError
from .fields import STATE_FIELDS
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


def _real(text: str) -> float:
    """A finite float; ``inf`` and ``nan`` are bad values like any other."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text!r}")
    return value


def _reals(text: str) -> tuple[float, ...]:
    """Finite floats separated by commas or spaces."""
    return tuple(_real(v) for v in text.replace(",", " ").split())


def _nonempty(values: tuple) -> tuple:
    """``values`` if there is at least one; an empty value is a bad value."""
    if not values:
        raise ValueError("empty value")
    return values


# Numeric keys in canonical order: key -> (RunConfig field, parser, admissible values).
# A parser raises ValueError on a bad value.
_NUMERIC_KEYS = {
    "grid.dim": ("dim", int, lambda v: v in (1, 2)),
    "grid.n": ("n", lambda s: _nonempty(tuple(int(x) for x in s.split())),
               lambda v: all(x >= 4 for x in v)),
    "grid.h": ("h", lambda s: _nonempty(_reals(s)), lambda v: all(x > 0 for x in v)),
    "grid.origin": ("origin", lambda s: _nonempty(_reals(s)), lambda v: True),
    "lambda": ("lam", _real, lambda v: v > 0),
    "T": ("T", _real, lambda v: v >= 0),
    "cfl": ("cfl", _real, lambda v: 0 < v <= 1),
    "seed": ("seed", int, lambda v: v >= 0),
    "record.energy_every": ("energy_every", int, lambda v: v >= 1),
    "record.snapshot_every": ("snapshot_every", int, lambda v: v >= 1),
    "verify.tol_h": ("tol_h", _real, lambda v: v >= 0),
}

# Boundary kind -> (SideCondition kind, families a prescribed kind applies to).
# The homogeneous kinds apply to both families and take no parameters.
_BOUNDARY_KINDS = {
    "dirichlet_zero": ("dirichlet", ()),
    "traction_free": ("natural", ()),
    "prescribed_value": ("dirichlet", ("u", "phi")),
    "prescribed_traction": ("natural", ("u",)),
    "prescribed_flux": ("natural", ("phi",)),
}


def _one(admissible=lambda x: True):
    """Admissible values: exactly one value, itself admissible."""
    return lambda v: len(v) == 1 and admissible(v[0])


def _up_to_3(values) -> bool:
    """Admissible values: at most three, the leading components of a 3-vector."""
    return len(values) <= 3


# Init profile kind -> its parameters -> (default, admissible values).
_AMPLITUDE = ((1.0,), _one())
_COMPONENT = ((0.0,), _one(lambda x: x in (0, 1, 2)))
_PROFILES = {
    "gaussian_pulse": {"center": ((0.0,), lambda v: True),
                       "width": ((0.1,), _one(lambda x: x > 0)),
                       "amplitude": _AMPLITUDE, "component": _COMPONENT},
    "plane_wave": {"k": ((np.pi,), _up_to_3), "amplitude": _AMPLITUDE, "component": _COMPONENT},
    "rigid": {"translation": ((), _up_to_3), "rotation": ((), _up_to_3)},
    "zero": {},
}

# Init field target -> the ``STATE_FIELDS`` it feeds.
_TARGETS = {
    "u1": ("u1",), "u2": ("u2",), "u": ("u1", "u2"),
    "u1_dot": ("v1",), "u2_dot": ("v2",), "u_dot": ("v1", "v2"),
    "phi1": ("phi1",), "phi2": ("phi2",), "phi1_dot": ("psi1",), "phi2_dot": ("psi2",),
}


@dataclass(frozen=True)
class InitProfile:
    """One named analytic initial-data profile."""

    kind: str
    field: str
    params: tuple[tuple[str, tuple[float, ...]], ...]


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration (schema documented in the README)."""

    material: str = "identity"
    dim: int = 1
    n: tuple[int, ...] = ()  # load_config fills in 128 per dimension
    h: tuple[float, ...] = ()  # load_config fills in 1/(n-1) per dimension
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


def _parse_numeric(key: str, val: str):
    """The value of a numeric key; ValueError if it does not parse or is out of range."""
    _, parse, admissible = _NUMERIC_KEYS[key]
    try:
        value = parse(val)
    except ValueError:
        raise ValueError(f"bad value for {key!r}: {val!r}") from None
    if not admissible(value):
        raise ValueError(f"{key!r} out of range: {val!r}")
    return value


def _parse_profile(text: str) -> InitProfile:
    """One ``init =`` value; ValueError says what is wrong with it."""
    parts = text.split()
    if not parts:
        raise ValueError("empty init profile")
    kind, *tokens = parts
    if kind not in _PROFILES:
        raise ValueError(f"unknown profile {kind!r} (known: {tuple(_PROFILES)})")
    params = {}  # the field target too, under "field", until the tokens are read
    for tok in tokens:
        if "=" not in tok:
            raise ValueError(f"profile parameter {tok!r} is not key=value")
        key, val = tok.split("=", 1)
        if key in params:
            raise ValueError(f"duplicate profile parameter {key!r}")
        if key == "field":
            if val not in _TARGETS:
                raise ValueError(f"unknown field target {val!r}")
            params[key] = val
            continue
        try:
            params[key] = _nonempty(_reals(val))
        except ValueError:
            raise ValueError(f"cannot parse numbers in {tok!r}") from None
        if key not in _PROFILES[kind]:
            raise ValueError(f"profile {kind!r} does not take {key!r}")
        if not _PROFILES[kind][key][1](params[key]):
            raise ValueError(f"{tok!r} out of range for {kind}")
    target = params.pop("field", "u1")
    if not isinstance(STATE_FIELDS[_TARGETS[target][0]][1], slice):
        if kind == "rigid":
            raise ValueError(f"profile 'rigid' needs a vector field, not {target!r}")
        if "component" in params:
            raise ValueError(f"'component' applies to vector fields, not {target!r}")
    return InitProfile(kind=kind, field=target, params=tuple(sorted(params.items())))


def _parse_boundary(val: str, family: str):
    """One boundary spec as (kind, params), params a tuple of tuples; else ValueError."""
    kind, *groups = val.split() or [""]
    if kind not in _BOUNDARY_KINDS:
        raise ValueError(f"boundary kind must be one of {tuple(_BOUNDARY_KINDS)}")
    families = _BOUNDARY_KINDS[kind][1]
    if not families:
        if groups:
            raise ValueError(f"{kind} takes no parameters")
        return (kind, ())
    if family not in families:
        raise ValueError(f"{kind} applies to the {families[0]} family")
    want = 3 if family == "u" else 1
    if len(groups) != 2:
        raise ValueError(f"{kind} needs two constant value groups")
    params = []
    for tok in groups:
        try:
            g = _reals(tok)
        except ValueError:
            raise ValueError(f"cannot parse numbers in {tok!r}") from None
        if len(g) != want:
            raise ValueError(f"each value group needs {want} component(s)")
        params.append(g)
    return (kind, tuple(params))


def load_config(path) -> RunConfig:
    """Parse and validate a run configuration file.

    Raises:
        OSError: if the file cannot be read.
        UnicodeDecodeError: if it is not UTF-8 text.
        SchemaError: lines without ``=``, unknown keys or invalid values, each
            with its line number.
    """
    errors: list[str] = []
    cfg = RunConfig(base_dir=os.path.dirname(os.path.abspath(path)))
    seen: set[str] = set()
    init: list[tuple[int, str, InitProfile]] = []  # (line number, text, profile)
    boundary: dict[str, dict[str, tuple]] = {"u": {}, "phi": {}}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                errors.append(f"line {lineno}: expected 'key = value'")
                continue
            key, val = (s.strip() for s in line.split("=", 1))
            try:
                if key in seen:
                    raise ValueError(f"duplicate key {key!r}")
                if key != "init":  # repeated init lines accumulate; any other key is set once
                    seen.add(key)
                if key in _NUMERIC_KEYS:
                    cfg = replace(cfg, **{_NUMERIC_KEYS[key][0]: _parse_numeric(key, val)})
                elif key == "material":
                    parse_material_spec(val)
                    cfg = replace(cfg, material=val)
                elif key == "output":
                    if not val:
                        raise ValueError(f"bad value for {key!r}: ''")
                    cfg = replace(cfg, output=val)
                elif key == "init":
                    init.append((lineno, val, _parse_profile(val)))
                elif key.startswith(("boundary.u.", "boundary.phi.")) and key.count(".") == 2:
                    _, family, side = key.split(".")
                    boundary[family][side] = _parse_boundary(val, family)
                elif key == "verify.suites":
                    suites, known = tuple(val.split()), SUITES + ("all",)
                    unknown = [s for s in suites if s not in known]
                    if not suites:
                        raise ValueError(f"bad value for {key!r}: ''")
                    if unknown:
                        raise ValueError(f"unknown suite(s) {unknown} (known: {known})")
                    cfg = replace(cfg, suites=suites)
                else:
                    raise ValueError(f"unknown key {key!r}")
            except ValueError as exc:  # InvalidParameter from parse_material_spec too
                errors.append(f"line {lineno}: {exc}")

    for key in ("grid.n", "grid.h", "grid.origin"):
        count = len(getattr(cfg, _NUMERIC_KEYS[key][0]))
        if count not in (0, cfg.dim):
            errors.append(f"{key} has {count} entries for dim={cfg.dim}")
    for lineno, text, prof in init:  # a center has at most one value per grid dimension
        if len(dict(prof.params).get("center", ())) > cfg.dim:
            tok = next(t for t in text.split() if t.startswith("center="))
            errors.append(f"line {lineno}: {tok!r} out of range for {prof.kind}")
    valid_sides = {f"{AXIS_NAMES[a]}{e}" for a in range(cfg.dim) for e in (0, 1)}
    for table in boundary.values():
        for side in table:
            if side not in valid_sides:
                errors.append(f"boundary side {side!r} invalid for dim={cfg.dim}")
    if errors:
        raise SchemaError(errors)
    n = cfg.n or (128,) * cfg.dim
    full = {
        family: tuple((s,) + table.get(s, ("dirichlet_zero", ())) for s in sorted(valid_sides))
        for family, table in boundary.items()
    }
    return replace(cfg, n=n, h=cfg.h or Grid(n).h,
                   init=tuple(prof for _, _, prof in init),
                   boundary_u=full["u"], boundary_phi=full["phi"])


def _text(value, sep: str = " ") -> str:
    """A config value as written: a tuple's entries joined by ``sep``, numbers by repr."""
    return sep.join(repr(v) for v in value) if isinstance(value, tuple) else repr(value)


def canonical_text(cfg: RunConfig) -> str:
    """Serialize with every key explicit; load(canonical_text(c)) == c."""
    numeric = [
        f"{key} = {_text(getattr(cfg, attr))}"
        for key, (attr, _, _) in _NUMERIC_KEYS.items()
        if getattr(cfg, attr) != ()
    ]
    lines = [f"material = {cfg.material}", *numeric[:-1], f"output = {cfg.output}"]
    for prof in cfg.init:
        params = "".join(f" {k}={_text(v, ',')}" for k, v in prof.params)
        lines.append(f"init = {prof.kind} field={prof.field}{params}")
    for family, table in (("u", cfg.boundary_u), ("phi", cfg.boundary_phi)):
        for side, kind, params in table:
            suffix = "".join(" " + _text(g, ",") for g in params)
            lines.append(f"boundary.{family}.{side} = {kind}{suffix}")
    lines += [f"verify.suites = {' '.join(cfg.suites)}", numeric[-1]]
    return "\n".join(lines) + "\n"


def save_config(cfg: RunConfig, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
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


def _vec3(values) -> np.ndarray:
    """A 3-vector from up to three leading components; the rest are zero."""
    out = np.zeros(3)
    out[: len(values)] = values
    return out


def _profile_field(prof: InitProfile, x: np.ndarray, dim: int, vector: bool) -> np.ndarray:
    p = {key: default for key, (default, _) in _PROFILES[prof.kind].items()} | dict(prof.params)
    shape = x.shape[1:]
    if prof.kind == "zero":
        return np.zeros((3,) + shape) if vector else np.zeros(shape)
    if prof.kind == "gaussian_pulse":
        center = (tuple(p["center"]) + (0.0,) * dim)[:dim]
        comp = int(p["component"][0]) if vector else None
        return gaussian_pulse(center, p["width"][0], p["amplitude"][0], component=comp)(x)
    if prof.kind == "plane_wave":
        kvec = _vec3(p["k"])
        wave = p["amplitude"][0] * np.sin(sum(kvec[a] * x[a] for a in range(dim)))
        if not vector:
            return wave
        out = np.zeros((3,) + shape)
        out[int(p["component"][0])] = wave
        return out
    return RigidMotion(_vec3(p["translation"]), _vec3(p["rotation"])).field(x)


def build_initial_data(cfg: RunConfig) -> InitialData:
    """One callable per ``STATE_FIELDS`` entry the init profiles feed (vector: rows a slice)."""
    fields = {}
    for name, (_, rows) in STATE_FIELDS.items():
        profs = tuple(p for p in cfg.init if name in _TARGETS[p.field])
        if not profs:
            continue

        def fn(x, _profs=profs, _vector=isinstance(rows, slice)):
            first, *rest = (_profile_field(p, x, cfg.dim, _vector) for p in _profs)
            return sum(rest, first)

        fields[name] = fn
    return InitialData(**fields)


def build_problem(cfg: RunConfig, consts: MaterialConstants | None = None) -> ProblemSpec:
    """Materialize the ProblemSpec described by a configuration."""
    consts = consts if consts is not None else resolve_material(cfg)
    grid = Grid(n=cfg.n, h=cfg.h, origin=cfg.origin)

    def sides(table) -> dict[str, SideCondition]:
        return {side: SideCondition(_BOUNDARY_KINDS[kind][0], params or None)
                for side, kind, params in table}

    return ProblemSpec(
        grid=grid,
        consts=consts,
        boundary=BoundaryPartition(u=sides(cfg.boundary_u), phi=sides(cfg.boundary_phi)),
        initial=build_initial_data(cfg),
        lam=cfg.lam,
        T=cfg.T,
        cfl=cfg.cfl,
        energy_every=cfg.energy_every,
        snapshot_every=cfg.snapshot_every,
    )
