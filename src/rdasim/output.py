"""Deterministic writers: CSV series, JSON summaries, legacy-VTK snapshots.

CSV and JSON files carry the config hash and the seed for provenance;
a VTK snapshot carries neither, only its `t=...` title.  CSV and JSON
floats are written with shortest round-trip repr, and VTK data as exact
big-endian float64, so reruns with the same seed produce byte-identical
files.  CSV files double as gnuplot column input (comment lines start
with '#').

A series with one row per time step is streamed (`csv_stream`): its
writer takes one block of rows at a time, so the whole series is never
held, and the file is renamed into place only when the run that feeds it
has finished, so a failed run leaves no partial series.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np

__all__ = [
    "fmt",
    "write_json",
    "write_csv",
    "csv_stream",
    "write_step_series_csv",
    "write_norm_series_csv",
    "write_energy_csv",
    "write_vtk_structured_points",
]


# an array's rows are converted to Python floats this many at a time; the
# lists of a 4,096-row chunk already raised the epidemic run's peak RSS.
# `integrator.run` hands its step rows over in blocks of this size.
_CSV_CHUNK_ROWS = 256


def fmt(x) -> str:
    """Shortest round-trip decimal form of a float."""
    return repr(float(x))


def _sanitize(obj):
    """Make numpy containers JSON-serializable."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        val = float(obj)
        return val if np.isfinite(val) else repr(val)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def write_json(path, payload: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_sanitize(payload), sort_keys=True, indent=2) + "\n")


def _write_head(fh, header: list[str], meta: dict | None) -> None:
    for key, value in sorted((meta or {}).items()):
        fh.write(f"# {key}={value}\n")
    fh.write(",".join(header) + "\n")


def _write_table(fh, table) -> None:
    """Write a 2D numeric array's rows, converted to Python floats a chunk at a time.

    Their repr is the same text as the per-value repr(float(v)).
    """
    table = np.asarray(table, dtype=float)
    for start in range(0, len(table), _CSV_CHUNK_ROWS):
        for row in table[start:start + _CSV_CHUNK_ROWS].tolist():
            fh.write(",".join(map(repr, row)) + "\n")


def write_csv(path, header: list[str], rows, meta: dict | None = None) -> None:
    """Plain CSV with '#'-prefixed provenance lines before the header.

    `rows` is a 2D numeric array, or an iterable of rows whose cells are
    numbers or strings.  Rows are formatted and written one at a time, so a
    long series is never held as one string.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        _write_head(fh, header, meta)
        if isinstance(rows, np.ndarray):
            _write_table(fh, rows)
        else:
            for row in rows:
                fh.write(",".join(v if isinstance(v, str) else repr(float(v))
                                  for v in row) + "\n")


@contextmanager
def csv_stream(path, header: list[str], meta: dict | None = None):
    """Write a CSV one block of rows at a time; yields the writer of a block.

    The writer takes a 2D numeric array, and the file holds the same bytes
    as `write_csv` of the blocks stacked in order.  It is written under the
    temporary name `<path>.part` and renamed to `path` when the body
    returns; if the body raises, the temporary file is removed and `path`
    is left as it was.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(path.name + ".part")
    try:
        with open(partial, "w") as fh:
            _write_head(fh, header, meta)
            yield lambda table: _write_table(fh, table)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    partial.replace(path)


@contextmanager
def write_step_series_csv(path, species_names: list[str], meta=None):
    """Stream the per-step reduced summaries: masses, sup-norms, global minimum.

    Yields the writer of a block of `integrator.run`'s step rows
    (t | masses | sup-norms | min | dt | halvings), of which it writes all
    but the dt and halvings columns; the file is a `csv_stream`.
    """
    header = (["time"] + [f"mass_{n}" for n in species_names]
              + [f"sup_{n}" for n in species_names] + ["min_value"])
    with csv_stream(path, header, meta) as write:
        yield lambda rows: write(rows[:, :len(header)])


def write_norm_series_csv(path, series: dict, species_names=None, meta=None) -> None:
    """Long-format snapshot norms: time, species, p, value."""
    times = series["times"]
    any_table = next(iter(series["norms"].values()))
    m = any_table.shape[0]
    names = species_names or [f"u{i + 1}" for i in range(m)]
    rows = []
    for p in series["norms"]:
        label = "inf" if p == np.inf else fmt(p)
        table = series["norms"][p]
        for k, t in enumerate(times):
            for i in range(m):
                rows.append([t, names[i], label, table[i, k]])
    write_csv(path, ["time", "species", "p", "value"], rows, meta)


def write_energy_csv(path, times, specs, values, meta=None) -> None:
    """One column per energy spec; `values` is the (nspecs, ntimes) trace."""
    header = ["time"] + [
        f"L{spec.p}_w{'_'.join(fmt(w) for w in spec.weights)}"
        for spec in specs
    ]
    write_csv(path, header, np.column_stack([times, np.asarray(values).T]), meta)


def write_vtk_structured_points(path, grid, fields: dict, title: str = "rdasim fields") -> None:
    """Legacy-VTK 3.0 BINARY structured-points snapshot of cell-centered fields.

    Fields are emitted as point data at the cell centers, which requires a
    uniform grid.  Each field's values follow its two text lines as one
    big-endian float64 block and a newline; the values are stored exactly.
    """
    if not grid.is_uniform():
        raise ValueError("VTK structured-points output requires a uniform grid")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    nx = grid.shape[0]
    ny = grid.shape[1] if grid.dim == 2 else 1
    hx = float(grid.widths[0][0])
    hy = float(grid.widths[1][0]) if grid.dim == 2 else 1.0
    ox = grid.origin[0] + hx / 2.0
    oy = (grid.origin[1] + hy / 2.0) if grid.dim == 2 else 0.0
    lines = [
        "# vtk DataFile Version 3.0",
        title,
        "BINARY",
        "DATASET STRUCTURED_POINTS",
        f"DIMENSIONS {nx} {ny} 1",
        f"ORIGIN {fmt(ox)} {fmt(oy)} 0.0",
        f"SPACING {fmt(hx)} {fmt(hy)} 1.0",
        f"POINT_DATA {nx * ny}",
    ]
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode())
        for name, values in fields.items():
            values = np.asarray(values, dtype=float)
            # VTK iterates x fastest; the flat cell order has the last axis fastest
            ordered = values if grid.dim == 1 else values.reshape(nx, ny).T.ravel()
            fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n".encode())
            fh.write(np.ascontiguousarray(ordered, dtype=">f8").tobytes() + b"\n")
