"""Writers: byte identity with a row-by-row reference formatting, whole or streamed."""

import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rdasim import output
from rdasim.diagnostics import mass_budget
from rdasim.epidemic import conservation_residual
from rdasim.grid import StructuredGrid
from rdasim.output import (
    csv_stream,
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
    # step rows t | masses | sup-norms | min | dt | halvings; dt and halvings are not written
    rows = data.draw(float_arrays((steps + 1, 2 * m + 4)))
    path = tmp_path_factory.mktemp("steps") / "series_steps.csv"
    names = [f"u{i + 1}" for i in range(m)]
    with write_step_series_csv(path, names, meta=META) as write:
        write(rows)
    header = (["time"] + [f"mass_{n}" for n in names]
              + [f"sup_{n}" for n in names] + ["min_value"])
    assert path.read_bytes() == reference_csv(header, rows[:, :2 * m + 2], META).encode()


def test_csv_stream_leaves_no_file_when_its_body_raises(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("earlier\n")
    try:
        with csv_stream(path, ["t"], META) as write:
            write(np.ones((3, 1)))
            raise RuntimeError("the run failed")
    except RuntimeError:
        pass
    assert sorted(p.name for p in tmp_path.iterdir()) == ["series.csv"]
    assert path.read_text() == "earlier\n"


def same_floats(a, b) -> bool:
    """Equal bit for bit, except that NaN matches NaN: which NaN an operation
    on two NaNs returns depends on where numpy's SIMD loops place the element,
    and every NaN is written as "nan"."""
    a, b = np.asarray(a), np.asarray(b)
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()


def budget_reference(times, masses, weights, k1, k2, volume):
    """The weighted-mass budget as one pass over the whole series computes it."""
    weighted = masses @ weights
    integrand = k1 * masses.sum(axis=1) + k2 * volume
    dt = np.diff(times)
    accum = np.concatenate([[0.0], np.cumsum(0.5 * dt * (integrand[1:] + integrand[:-1]))])
    return weighted - weighted[0] - accum


def host_reference(times, masses, mortality):
    """The host budget as one pass over the whole series computes it."""
    host = masses[:, :3].sum(axis=1)
    infected = masses[:, 1]
    dt = np.diff(times)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * dt * (infected[1:] + infected[:-1]))])
    return host + mortality * cum - host[0]


# the edge values overflow to inf and make NaN on purpose
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 40))
def test_folded_budgets_and_streamed_csvs_equal_one_pass(tmp_path_factory, data, n):
    # a step table split at random block boundaries: each block continues the
    # budgets from the previous block's carry, as the run command folds them
    m = 4
    # every entry drawn, moderate values whose sums round mixed with the edge values
    rows = data.draw(arrays(np.float64, (n, 2 * m + 4), fill=st.nothing(),
                            elements=st.one_of(st.floats(-10.0, 10.0), values)))
    cuts = data.draw(st.lists(st.integers(1, max(1, n - 1)), max_size=6, unique=True))
    blocks = np.split(rows, sorted(c for c in cuts if c < n))
    system = SimpleNamespace(mass_weights=data.draw(float_arrays(m)),
                             mass_constants=(data.draw(values), data.draw(values)))
    volume = data.draw(values)
    params = SimpleNamespace(mortality=data.draw(st.floats(1e-300, 1e300)))

    times, masses = rows[:, 0], np.ascontiguousarray(rows[:, 1:1 + m])
    budget, _ = mass_budget(times, masses, system, volume)
    host, _ = conservation_residual(times, masses, params)
    if n > 1:
        # a one-row table is summed as the rows of a taller one, not as np.dot does
        assert same_floats(budget, budget_reference(times, masses, system.mass_weights,
                                                    *system.mass_constants, volume))
    assert same_floats(host, host_reference(times, masses, params.mortality))

    out = tmp_path_factory.mktemp("fold")
    names = [f"u{i + 1}" for i in range(m)]
    budgets, hosts, budget_carry, host_carry = [], [], None, None
    with write_step_series_csv(out / "series_steps.csv", names, META) as write_steps, \
            csv_stream(out / "epi_conservation.csv", ["time", "residual"], META) as write_host:
        for block in blocks:
            write_steps(block)
            t, ms = block[:, 0], np.ascontiguousarray(block[:, 1:1 + m])
            residual, budget_carry = mass_budget(t, ms, system, volume, budget_carry)
            budgets.append(residual)
            residual, host_carry = conservation_residual(t, ms, params, host_carry)
            hosts.append(residual)
            write_host(np.column_stack([t, residual]))
    assert same_floats(np.concatenate(budgets), budget)
    assert same_floats(np.concatenate(hosts), host)

    header = (["time"] + [f"mass_{n}" for n in names]
              + [f"sup_{n}" for n in names] + ["min_value"])
    write_csv(out / "whole_steps.csv", header, rows[:, :2 * m + 2], META)
    write_csv(out / "whole_host.csv", ["time", "residual"], np.column_stack([times, host]), META)
    assert (out / "series_steps.csv").read_bytes() == (out / "whole_steps.csv").read_bytes()
    assert (out / "epi_conservation.csv").read_bytes() == (out / "whole_host.csv").read_bytes()


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
