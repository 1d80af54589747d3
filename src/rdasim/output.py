"""Deterministic writers: CSV series, JSON summaries, legacy-VTK snapshots.

Every file carries the config hash and the seed for provenance.  Floats
are written with shortest round-trip repr, so reruns with the same seed
produce byte-identical files.  CSV files double as gnuplot column input
(comment lines start with '#').
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

__all__ = [
    "fmt",
    "write_json",
    "write_csv",
    "write_step_series_csv",
    "write_norm_series_csv",
    "write_energy_csv",
    "write_vtk_structured_points",
]


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


def write_csv(path, header: list[str], rows, meta: dict | None = None) -> None:
    """Plain CSV with '#'-prefixed provenance lines before the header.

    Rows are formatted and written one at a time, so a long series is never
    held as one string.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for key, value in sorted((meta or {}).items()):
            fh.write(f"# {key}={value}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str) else repr(float(v)) for v in row) + "\n")


def write_step_series_csv(path, traj, species_names=None, meta=None) -> None:
    """Dense per-step reduced summaries: masses, sup-norms, global minimum."""
    m = traj.step_masses.shape[1]
    names = species_names or [f"u{i + 1}" for i in range(m)]
    header = (["time"] + [f"mass_{n}" for n in names]
              + [f"sup_{n}" for n in names] + ["min_value"])
    table = np.column_stack([traj.step_times, traj.step_masses, traj.step_supnorms,
                             traj.step_minima])
    write_csv(path, header, (row.tolist() for row in table), meta)


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


def write_energy_csv(path, trace, meta=None) -> None:
    header = ["time"] + [
        f"L{spec.p}_w{'_'.join(fmt(w) for w in spec.weights.entries)}"
        for spec in trace.specs
    ]
    rows = []
    for k, t in enumerate(trace.times):
        rows.append([t] + [vals[k] for vals in trace.values])
    write_csv(path, header, rows, meta)


def write_vtk_structured_points(path, grid, fields: dict, title: str = "rdasim fields") -> None:
    """Legacy-ASCII VTK structured-points snapshot of cell-centered fields.

    Fields are emitted as point data at the cell centers, which requires a
    uniform grid.
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
        "ASCII",
        "DATASET STRUCTURED_POINTS",
        f"DIMENSIONS {nx} {ny} 1",
        f"ORIGIN {fmt(ox)} {fmt(oy)} 0.0",
        f"SPACING {fmt(hx)} {fmt(hy)} 1.0",
        f"POINT_DATA {nx * ny}",
    ]
    for name, values in fields.items():
        values = np.asarray(values, dtype=float)
        # VTK iterates x fastest; the flat cell order has the last axis fastest
        ordered = values if grid.dim == 1 else values.reshape(nx, ny).T.ravel()
        lines.append(f"SCALARS {name} double 1")
        lines.append("LOOKUP_TABLE default")
        lines.extend(map(repr, ordered.tolist()))
    path.write_text("\n".join(lines) + "\n")
