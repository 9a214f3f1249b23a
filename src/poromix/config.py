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

from .errors import InvalidParameter, ParseError, SchemaError
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


def _parse_profile(text: str, lineno: int, errors: list[str]) -> InitProfile | None:
    parts = text.split()
    if not parts:
        errors.append(f"line {lineno}: empty init profile")
        return None
    kind = parts[0]
    if kind not in _PROFILES:
        errors.append(f"line {lineno}: unknown profile {kind!r} (known: {tuple(_PROFILES)})")
        return None
    params = {}
    target = "u1"
    for tok in parts[1:]:
        if "=" not in tok:
            errors.append(f"line {lineno}: profile parameter {tok!r} is not key=value")
            return None
        key, val = tok.split("=", 1)
        if key == "field":
            if val not in _TARGETS:
                errors.append(f"line {lineno}: unknown field target {val!r}")
                return None
            target = val
        else:
            try:
                params[key] = _nonempty(_reals(val))
            except ValueError:
                errors.append(f"line {lineno}: cannot parse numbers in {tok!r}")
                return None
            if key not in _PROFILES[kind]:
                errors.append(f"line {lineno}: profile {kind!r} does not take {key!r}")
                return None
            if not _PROFILES[kind][key][1](params[key]):
                errors.append(f"line {lineno}: {tok!r} out of range for {kind}")
                return None
    return InitProfile(kind=kind, field=target, params=tuple(sorted(params.items())))


def _parse_boundary(val: str, family: str, lineno: int, errors: list[str]):
    """Parse one boundary spec into (kind, params) with params a tuple of tuples."""
    kind, *groups = val.split() or [""]
    if kind not in _BOUNDARY_KINDS:
        errors.append(f"line {lineno}: boundary kind must be one of {tuple(_BOUNDARY_KINDS)}")
        return None
    families = _BOUNDARY_KINDS[kind][1]
    if not families:
        if groups:
            errors.append(f"line {lineno}: {kind} takes no parameters")
            return None
        return (kind, ())
    if family not in families:
        errors.append(f"line {lineno}: {kind} applies to the {families[0]} family")
        return None
    want = 3 if family == "u" else 1
    if len(groups) != 2:
        errors.append(f"line {lineno}: {kind} needs two constant value groups")
        return None
    params = []
    for tok in groups:
        try:
            g = _reals(tok)
        except ValueError:
            errors.append(f"line {lineno}: cannot parse numbers in {tok!r}")
            return None
        if len(g) != want:
            errors.append(f"line {lineno}: each value group needs {want} component(s)")
            return None
        params.append(g)
    return (kind, tuple(params))


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
    init: list[tuple[int, str, InitProfile]] = []  # (line number, text, profile)
    boundary: dict[str, dict[str, tuple]] = {"u": {}, "phi": {}}

    for lineno, key, val in entries:
        if key != "init":  # repeated init lines accumulate; any other key is set once
            if key in seen:
                errors.append(f"line {lineno}: duplicate key {key!r}")
                continue
            seen.add(key)
        bad_value = f"line {lineno}: bad value for {key!r}: {val!r}"
        if key in _NUMERIC_KEYS:
            attr, parse, admissible = _NUMERIC_KEYS[key]
            try:
                v = parse(val)
            except ValueError:
                errors.append(bad_value)
                continue
            if admissible(v):
                cfg = replace(cfg, **{attr: v})
            else:
                errors.append(f"line {lineno}: {key!r} out of range: {val!r}")
        elif key == "material":
            try:
                parse_material_spec(val)
                cfg = replace(cfg, material=val)
            except InvalidParameter as exc:
                errors.append(f"line {lineno}: {exc}")
        elif key == "output":
            if val:
                cfg = replace(cfg, output=val)
            else:
                errors.append(bad_value)
        elif key == "init":
            prof = _parse_profile(val, lineno, errors)
            if prof is not None:
                init.append((lineno, val, prof))
        elif key.startswith("boundary."):
            parts = key.split(".")
            if len(parts) != 3 or parts[1] not in boundary:
                errors.append(f"line {lineno}: unknown key {key!r}")
                continue
            spec = _parse_boundary(val, parts[1], lineno, errors)
            if spec is not None:
                boundary[parts[1]][parts[2]] = spec
        elif key == "verify.suites":
            suites, known = tuple(val.split()), SUITES + ("all",)
            unknown = [s for s in suites if s not in known]
            if not suites:
                errors.append(bad_value)
            elif unknown:
                errors.append(f"line {lineno}: unknown suite(s) {unknown} (known: {known})")
            else:
                cfg = replace(cfg, suites=suites)
        else:
            errors.append(f"line {lineno}: unknown key {key!r}")

    for key in ("grid.n", "grid.h", "grid.origin"):
        count = len(getattr(cfg, _NUMERIC_KEYS[key][0]))
        if count not in (0, cfg.dim):
            errors.append(f"{key} has {count} entries for dim={cfg.dim}")
    for lineno, text, prof in init:  # a center has at most one value per grid dimension
        if len(dict(prof.params).get("center", ())) > cfg.dim:
            tok = [t for t in text.split() if t.startswith("center=")][-1]
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


def _constant(groups):
    """Side data ``values(x)``: one constant value group per constituent."""
    arrays = [np.asarray(g, dtype=float) for g in groups]
    lead = (3,) if len(arrays[0]) == 3 else ()

    def values(x):
        shape = lead + x.shape[1:]
        return tuple(np.broadcast_to(a.reshape(lead + (1,) * (x.ndim - 1)), shape)
                     for a in arrays)

    return values


def build_problem(cfg: RunConfig, consts: MaterialConstants | None = None) -> ProblemSpec:
    """Materialize the ProblemSpec described by a configuration."""
    consts = consts if consts is not None else resolve_material(cfg)
    grid = Grid(n=cfg.n, h=cfg.h, origin=cfg.origin)

    def sides(table) -> dict[str, SideCondition]:
        return {side: SideCondition(_BOUNDARY_KINDS[kind][0],
                                    _constant(params) if params else None)
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
