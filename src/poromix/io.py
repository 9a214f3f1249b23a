"""Deterministic artifact I/O: CSV diagnostics, binary snapshots, manifests.

Floats are always written with 17 significant digits so identical runs
produce byte-identical files.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .diagnostics import CesaroSeries, EnergySeries, IdentityResiduals, SurfacePowerSeries
from .fields import STATE_FIELDS, STATE_ROWS
from .solver import StateField

FLOAT_FMT = "%.17g"


def _fmt(x: float) -> str:
    return FLOAT_FMT % float(x)


def _write_rows(path, header: list[str], rows) -> None:
    """One CSV line per row, a tuple of one float per header name."""
    line = ",".join([FLOAT_FMT] * len(header)) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % row for row in rows)


def write_energy_csv(path, series: EnergySeries) -> None:
    rows = zip(series.t, series.kinetic_u, series.kinetic_phi, series.strain, series.total)
    _write_rows(path, ["t", "kinetic_u", "kinetic_phi", "strain", "total"], rows)


def write_power_csv(path, sps: SurfacePowerSeries) -> None:
    rows = (
        (t, r, sps.P[i, j], sps.E_vol[i, j])
        for i, r in enumerate(sps.r_grid)
        for j, t in enumerate(sps.t_grid)
    )
    _write_rows(path, ["t", "r", "P", "E_vol"], rows)


def write_cesaro_csv(path, cs: CesaroSeries) -> None:
    rows = zip(cs.t, cs.Kc_u, cs.Kc_phi, cs.Kc, cs.Sc, cs.gap)
    _write_rows(path, ["t", "Kc_u", "Kc_phi", "Kc", "Sc", "gap"], rows)


def write_residuals_csv(path, ir: IdentityResiduals) -> None:
    rows = zip(ir.t, ir.res_energy_balance, ir.res_virial, ir.res_two_time)
    _write_rows(path, ["t", "res_energy_balance", "res_virial", "res_two_time"], rows)


def write_snapshot(path, state: StateField) -> None:
    """Flat binary blocks, one per named field in ``STATE_FIELDS`` order, each
    preceded by a self-describing text header.  Each block is written from
    the field's own buffer, copied only if it is not contiguous little-endian."""
    with open(path, "wb") as fh:
        for name in STATE_FIELDS:
            arr = np.ascontiguousarray(getattr(state, name), dtype="<f8")
            header = (
                f"field {name}\n"
                f"shape {' '.join(str(s) for s in arr.shape)}\n"
                f"time {_fmt(state.t)}\n"
                f"dtype float64\n\n"
            )
            fh.write(header.encode("ascii"))
            fh.write(arr)


def read_snapshot(path) -> StateField:
    blocks = {}
    t = 0.0
    with open(path, "rb") as fh:
        data = fh.read()
    pos = 0
    while pos < len(data):
        end = data.index(b"\n\n", pos)
        header = data[pos:end].decode("ascii").splitlines()
        meta = dict(line.split(" ", 1) for line in header)
        shape = tuple(int(v) for v in meta["shape"].split())
        t = float(meta["time"])
        count = int(np.prod(shape))
        start = end + 2
        blocks[meta["field"]] = np.frombuffer(data[start : start + 8 * count],
                                              dtype="<f8").reshape(shape)
        pos = start + 8 * count
    grid_shape = blocks["u1"].shape[1:]
    state = StateField(t=t, U=np.empty((STATE_ROWS,) + grid_shape),
                       V=np.empty((STATE_ROWS,) + grid_shape))
    for name, (array, rows) in STATE_FIELDS.items():
        getattr(state, array)[rows] = blocks[name]
    return state


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(path, entries: dict[str, str]) -> None:
    """name -> sha256 lines, sorted by name."""
    with open(path, "w", newline="\n") as fh:
        for name in sorted(entries):
            fh.write(f"{entries[name]}  {name}\n")

