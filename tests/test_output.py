"""Writers: byte identity with a row-by-row reference formatting."""

import struct
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rdasim import output
from rdasim.grid import StructuredGrid
from rdasim.output import (
    fmt,
    write_csv,
    write_step_series_csv,
    write_vtk_structured_points,
)

EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
               1.7976931348623157e308, 1.0, -3.0, 1e16, 0.1, np.inf, -np.inf, np.nan]

values = st.one_of(
    st.sampled_from(EDGE_VALUES),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=-1e-300, max_value=1e-300),  # subnormals and near-zero
    st.integers(-10**17, 10**17).map(float),  # integral floats, some beyond 2**53
)


def float_arrays(shape):
    return arrays(np.float64, shape, elements=values)


META = {"seed": 3, "config_sha256": "ab12"}


def reference_csv(header, rows, meta):
    lines = [f"# {key}={value}" for key, value in sorted(meta.items())]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def reference_vtk(grid, fields, title):
    """Header text, then per field its two lines and one packed big-endian block."""
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
    blob = ("\n".join(lines) + "\n").encode()
    for name, vals in fields.items():
        # VTK iterates x fastest: point (ix, iy) is cell ix * ny + iy
        ordered = [vals[ix * ny + iy] for iy in range(ny) for ix in range(nx)]
        blob += f"SCALARS {name} double 1\nLOOKUP_TABLE default\n".encode()
        blob += struct.pack(f">{len(ordered)}d", *ordered) + b"\n"
    return blob


@st.composite
def tables(draw):
    rows = draw(st.integers(0, 12))
    cols = draw(st.integers(1, 5))
    return draw(float_arrays((rows, cols)))


@settings(max_examples=60, deadline=None)
@given(table=tables())
def test_write_csv_matches_reference(tmp_path_factory, table):
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    header = [f"c{j}" for j in range(table.shape[1])]
    # mixed rows: numpy scalars, python floats and a string label
    rows = [[*row, "label", row.tolist()[0]] for row in table]
    write_csv(path, header + ["name", "first"], rows, META)
    assert path.read_bytes() == reference_csv(header + ["name", "first"], rows,
                                              META).encode()


@settings(max_examples=60, deadline=None)
@given(table=tables(), as_int=st.booleans())
def test_write_csv_array_matches_per_value_rows(tmp_path_factory, table, as_int):
    # the array path converts rows to Python floats; the per-value path
    # formats numpy scalars, ints and strings one at a time
    if as_int:
        table = np.nan_to_num(table, posinf=0.0, neginf=0.0).clip(-1e15, 1e15).astype(np.int64)
    header = [f"c{j}" for j in range(table.shape[1])]
    fast = tmp_path_factory.mktemp("csv") / "array.csv"
    slow = tmp_path_factory.mktemp("csv") / "rows.csv"
    write_csv(fast, header, table, META)
    write_csv(slow, header, list(table), META)
    expected = reference_csv(header, list(table), META).encode()
    assert fast.read_bytes() == slow.read_bytes() == expected


def test_write_csv_array_spans_chunks(tmp_path):
    rows = 2 * output._CSV_CHUNK_ROWS + 5
    table = np.resize(np.array(EDGE_VALUES), (rows, 3))
    table[:, 0] = np.arange(rows) * 0.005
    path = tmp_path / "long.csv"
    write_csv(path, ["t", "a", "b"], table, META)
    assert path.read_bytes() == reference_csv(["t", "a", "b"], table, META).encode()


@settings(max_examples=60, deadline=None)
@given(data=st.data(), steps=st.integers(0, 12), m=st.integers(1, 4))
def test_write_step_series_csv_matches_reference(tmp_path_factory, data, steps, m):
    traj = SimpleNamespace(
        step_times=data.draw(float_arrays(steps + 1)),
        step_masses=data.draw(float_arrays((steps + 1, m))),
        step_supnorms=data.draw(float_arrays((steps + 1, m))),
        step_minima=data.draw(float_arrays(steps + 1)),
    )
    path = tmp_path_factory.mktemp("steps") / "series_steps.csv"
    write_step_series_csv(path, traj, meta=META)
    names = [f"u{i + 1}" for i in range(m)]
    header = (["time"] + [f"mass_{n}" for n in names]
              + [f"sup_{n}" for n in names] + ["min_value"])
    rows = [[traj.step_times[k], *traj.step_masses[k], *traj.step_supnorms[k],
             traj.step_minima[k]] for k in range(steps + 1)]
    assert path.read_bytes() == reference_csv(header, rows, META).encode()


@settings(max_examples=60, deadline=None)
@given(data=st.data(), nx=st.integers(1, 6), ny=st.integers(1, 5), dim=st.sampled_from([1, 2]))
def test_write_vtk_matches_reference(tmp_path_factory, data, nx, ny, dim):
    if dim == 1:
        grid = StructuredGrid.uniform([(0.0, 1.0)], [nx])
    else:
        grid = StructuredGrid.uniform([(0.0, 2.0), (-1.0, 1.0)], [nx, ny])
    fields = {"a": data.draw(float_arrays(grid.ncells)),
              "b": data.draw(float_arrays(grid.ncells))}
    path = tmp_path_factory.mktemp("vtk") / "snap.vtk"
    write_vtk_structured_points(path, grid, fields, title="t=0.5")
    assert path.read_bytes() == reference_vtk(grid, fields, "t=0.5")
