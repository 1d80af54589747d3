"""Stepping, transport solves, conservation, convergence, checkpoints."""

import dis
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rdasim import cli, integrator
from rdasim.config import build_solver_config, load_config
from rdasim.grid import (
    BoundarySpec,
    CoefficientField,
    Dirichlet,
    NoFluxWithDrift,
    Robin,
    StructuredGrid,
    _transport_entries,
    discrete_norm,
)
from rdasim.diagnostics import mass_budget
from rdasim.integrator import (
    LinearSolveError,
    NonFiniteError,
    PositivityError,
    Problem,
    SimState,
    SolverConfig,
    TransportOperators,
    dump_state,
    epsilon_refinement_study,
    load_state,
    run,
    step,
)
from assembly import assemble_transport
from steprows import run_with_steps

from rdasim.reactions import (
    STATE_TOL,
    ReactionSystem,
    builtin_linear_decay,
    builtin_reversible_reaction,
    system_from_expressions,
)


def make_problem(system, n=32, diffusion=0.1, drift=None, bc=None,
                 extent=1.0, dim=1):
    if dim == 1:
        grid = StructuredGrid.uniform([(0.0, extent)], [n])
    else:
        grid = StructuredGrid.uniform([(0.0, extent), (0.0, extent)], [n, n])
    coeff = CoefficientField.constant(
        grid, [diffusion] * system.m,
        None if drift is None else [drift] * system.m,
    )
    boundary = BoundarySpec.uniform(system.m, grid.dim, bc or NoFluxWithDrift())
    return Problem(grid, system, coeff, boundary)


def zero_reactions(m):
    return ReactionSystem(
        m=m, evaluate=lambda x, t, u: np.zeros_like(np.asarray(u, dtype=float)),
        mass_weights=np.ones(m), mass_constants=(0.0, 0.0), sum_matrix=np.eye(m),
        intermediate_order=1.0, growth_order=1.0, growth_constant=1.0,
    )


def direct_solve(a, b, dim, dt=np.inf):
    """Solve (I/dt + a) x = b by the transport path of a `dim`-D grid, with `a` as the one
    species' operator: through TridiagonalLU in 1D and SuperLU in 2D.

    The 2D grid is n x 1.  The default infinite step makes the shifted system `a` itself.
    """
    n = a.shape[0]
    grid = StructuredGrid.uniform([(0.0, 1.0)] * dim, [n] + [1] * (dim - 1))
    problem = Problem(grid, zero_reactions(1), CoefficientField.constant(grid, [1.0]),
                      BoundarySpec.uniform(1, dim, NoFluxWithDrift()))
    ops = TransportOperators(problem, 0.0)
    entries = sp.coo_matrix(a)
    ops.csc = integrator._csc_arrays(entries.row, entries.col, entries.data, grid.ncells)[:4]
    return ops.solve(dt, np.asarray(b, dtype=float)[None, :])[0]


def random_m_matrix(n, dim=2, seed=1):
    """A random M-matrix: tridiagonal, every neighbour coupled, for a 1D solve; 5% dense in 2D."""
    rng = np.random.default_rng(seed)
    off = -np.abs(rng.standard_normal((n, n)))
    if dim == 1:
        off *= np.abs(np.subtract.outer(np.arange(n), np.arange(n))) == 1
    else:
        off *= rng.random((n, n)) < 0.05
    np.fill_diagonal(off, 0.0)
    return sp.csr_matrix(off + np.diag(np.abs(off).sum(axis=1) + rng.uniform(0.5, 2.0, n)))


class TestLinearSolve:
    def test_identity(self):
        # a zero operator stores no diagonal: the shift must insert all of it
        b = np.random.default_rng(0).standard_normal(20)
        for dim in (1, 2):
            x = direct_solve(sp.csr_matrix((20, 20)), b, dim, dt=1.0)
            assert np.array_equal(x, b)

    def test_tridiagonal_vs_banded_oracle(self):
        # Dirichlet Laplacian rows [2, -1] on 50 cells; first basis vector load
        n = 50
        low = np.full(n - 1, -1.0)
        a = sp.diags([low, np.full(n, 2.0), low], [-1, 0, 1]).tocsr()
        b = np.zeros(n)
        b[0] = 1.0
        ab = np.zeros((3, n))
        ab[0, 1:] = a.diagonal(1)
        ab[1] = a.diagonal(0)
        ab[2, :-1] = a.diagonal(-1)
        oracle = scipy.linalg.solve_banded((1, 1), ab, b)
        for dim in (1, 2):
            x = direct_solve(a, b, dim)
            assert np.max(np.abs(x - oracle)) < 1e-12

    def test_random_m_matrix_converges(self):
        # the direct solve leaves a residual at rounding level
        b = np.random.default_rng(1).standard_normal(100)
        for dim in (1, 2):
            a = random_m_matrix(100, dim)
            x = direct_solve(a, b, dim)
            assert np.linalg.norm(a @ x - b) <= 1e-13 * np.linalg.norm(b)

    def test_tiny_right_hand_side(self):
        # no absolute threshold: a right-hand side of 1e-20 solves as well as one of 1
        b = 1e-20 * np.random.default_rng(1).standard_normal(100)
        for dim in (1, 2):
            a = random_m_matrix(100, dim)
            x = direct_solve(a, b, dim)
            assert np.linalg.norm(a @ x - b) <= 1e-13 * np.linalg.norm(b)

    def test_zero_right_hand_side(self):
        for dim in (1, 2):
            x = direct_solve(random_m_matrix(25, dim), np.zeros(25), dim)
            assert np.array_equal(x, np.zeros(25))

    @pytest.mark.parametrize("first", ["rdasim", "scipy.linalg"])
    def test_lapack_routines_are_scipy_linalg_lapack_exports(self, first):
        # the routines TridiagonalLU calls are the very objects that
        # scipy.linalg.lapack exports, whichever is imported first in a fresh
        # process, so the 1D solve is bit for bit scipy's
        script = "\n".join([
            "import sys",
            "import numpy as np",
            "from rdasim import integrator",
            "def factorize():",
            "    i = np.arange(5)",
            "    csc = integrator._csc_arrays(np.r_[i, i[1:], i[:-1]], np.r_[i, i[:-1], i[1:]],",
            "                                 np.r_[np.full(5, 3.0), np.full(8, -1.0)], 5)",
            "    lu = integrator.TridiagonalLU(*csc[:3])",
            "    return integrator._scipy_extension('scipy.linalg._flapack').dgttrf, lu._dgttrs",
            "if sys.argv[1] == 'rdasim':",
            "    dgttrf, dgttrs = factorize()",
            "    print('scipy.linalg' in sys.modules)",
            "    import scipy.linalg.lapack as lapack",
            "else:",
            "    import scipy.linalg.lapack as lapack",
            "    dgttrf, dgttrs = factorize()",
            "print(dgttrf is lapack.dgttrf, dgttrs is lapack.dgttrs)",
        ])
        src = str(Path(integrator.__file__).resolve().parents[1])
        tests = str(Path(__file__).resolve().parent)
        path = os.pathsep.join(filter(None, [src, tests, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", script, first],
                              env=dict(os.environ, PYTHONPATH=path),
                              capture_output=True, text=True, check=True)
        assert done.stdout.split() == ["False"] * (first == "rdasim") + ["True", "True"]

    @pytest.mark.parametrize("first", ["rdasim", "scipy.sparse.linalg"])
    def test_superlu_is_the_extension_splu_uses(self, first):
        # the 2D factors come from the very _superlu module that
        # scipy.sparse.linalg.splu calls, whichever is imported first in a
        # fresh process, and solve bit for bit as splu's factors of the
        # shifted CSC matrix do, on blocky diffusivities with drift
        script = "\n".join([
            "import sys",
            "import numpy as np",
            "from rdasim import integrator",
            "from rdasim.grid import BoundarySpec, CoefficientField, NoFluxWithDrift, "
            "StructuredGrid",
            "from rdasim.reactions import builtin_reversible_reaction",
            "rng = np.random.default_rng(0)",
            "grid = StructuredGrid.uniform([(0.0, 1.0), (0.0, 1.0)], [32, 32])",
            "blocks = 10.0 ** rng.integers(-3, 1, size=(2, 2, 4, 4))",
            "diffusion = blocks.repeat(8, axis=2).repeat(8, axis=3).reshape(2, 2, -1)",
            "coeff = CoefficientField(grid, diffusion, np.full((2, 2, grid.ncells), 0.3))",
            "problem = integrator.Problem(grid, builtin_reversible_reaction(), coeff, "
            "BoundarySpec.uniform(2, 2, NoFluxWithDrift()))",
            "def factorize():",
            "    return integrator.TransportOperators(problem, 0.0)._system(0.01)",
            "if sys.argv[1] == 'rdasim':",
            "    lu = factorize()",
            "    print(sorted(m for m in sys.modules if m.startswith(('scipy.sparse', "
            "'scipy.linalg'))))",
            "    from scipy.sparse.linalg import splu",
            "else:",
            "    from scipy.sparse.linalg import splu",
            "    lu = factorize()",
            "superlu = sys.modules['scipy.sparse.linalg._dsolve._superlu']",
            "print(integrator._scipy_extension(superlu.__name__) is superlu,",
            "      splu.__globals__['_superlu'] is superlu, type(lu) is superlu.SuperLU)",
            "from assembly import assemble_transport",
            "block = assemble_transport(grid, coeff, problem.boundary).tocsc()",
            "block.setdiag(block.diagonal() + 1.0 / 0.01)",
            "reference = splu(block, permc_spec='MMD_AT_PLUS_A', panel_size=1)",
            "rhs = rng.uniform(0.0, 2.0, size=(block.shape[0], 3))",
            "print(lu.solve(rhs).tobytes() == reference.solve(rhs).tobytes())",
        ])
        src = str(Path(integrator.__file__).resolve().parents[1])
        tests = str(Path(__file__).resolve().parent)
        path = os.pathsep.join(filter(None, [src, tests, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", script, first],
                              env=dict(os.environ, PYTHONPATH=path),
                              capture_output=True, text=True, check=True)
        lines = done.stdout.splitlines()
        if first == "rdasim":
            assert lines.pop(0) == "['scipy.sparse.linalg._dsolve._superlu']"
        assert lines == ["True True True", "True"]


def dense_transport_oracle(ops, dt, rhs):
    """Solve with the dense `assemble_transport` matrix of the operators' problem at t = 0."""
    problem = ops.problem
    a = assemble_transport(problem.grid, problem.coefficients, problem.boundary).toarray()
    return np.linalg.solve(np.eye(rhs.size) / dt + a, rhs.ravel()).reshape(rhs.shape)


def relative_error(u, ref):
    return np.max(np.abs(u - ref)) / np.max(np.abs(ref))


def count_factorizations(monkeypatch):
    """Record the shape of every factorization, 1D or 2D, made from here on."""
    factored = []

    def counting(real_lu):
        def counting_lu(data, indices, indptr):
            factored.append((indptr.size - 1, indptr.size - 1))
            return real_lu(data, indices, indptr)
        return counting_lu

    for name in ("TridiagonalLU", "_sparse_lu"):
        monkeypatch.setattr(integrator, name, counting(getattr(integrator, name)))
    return factored


class TestTransportSolve:
    @settings(max_examples=25, deadline=None)
    @given(
        widths=st.lists(st.floats(0.05, 1.0), min_size=2, max_size=12),
        diffusivity=st.floats(1e-3, 10.0),
        contrast=st.floats(1.0, 100.0),
        drift=st.floats(-2.0, 2.0),
        dt=st.floats(1e-3, 1.0),
    )
    def test_1d_matches_dense_oracle(self, widths, diffusivity, contrast, drift, dt):
        # three species with a diffusivity jump mid-domain and every
        # boundary kind on some side
        grid = StructuredGrid([np.array(widths)])
        n = grid.ncells
        jump = np.where(np.arange(n) < n // 2, 1.0, contrast)
        diff = np.array([[diffusivity * jump], [diffusivity / jump], [diffusivity * np.ones(n)]])
        drifts = np.full((3, 1, n), drift)
        boundary = BoundarySpec((
            {"x_lo": Dirichlet(), "x_hi": Robin(0.5)},
            {"x_lo": Robin(2.0), "x_hi": NoFluxWithDrift()},
            {"x_lo": NoFluxWithDrift(), "x_hi": Dirichlet()},
        ), 1)
        problem = Problem(grid, zero_reactions(3), CoefficientField(grid, diff, drifts), boundary)
        ops = TransportOperators(problem, 0.0)
        rhs = np.random.default_rng(n).uniform(0.0, 2.0, size=(3, n))
        u = ops.solve(dt, rhs)
        assert relative_error(u, dense_transport_oracle(ops, dt, rhs)) <= 1e-10

    def test_2d_matches_dense_oracle(self):
        grid = StructuredGrid.uniform([(0.0, 1.0), (0.0, 1.0)], [8, 6])
        rng = np.random.default_rng(11)
        diff = rng.uniform(0.01, 1.0, size=(2, 2, grid.ncells))
        drifts = rng.uniform(-1.0, 1.0, size=(2, 2, grid.ncells))
        problem = Problem(grid, zero_reactions(2), CoefficientField(grid, diff, drifts),
                          BoundarySpec.uniform(2, 2, NoFluxWithDrift()))
        ops = TransportOperators(problem, 0.0)
        rhs = rng.uniform(0.0, 2.0, size=(2, grid.ncells))
        u = ops.solve(0.1, rhs)
        assert relative_error(u, dense_transport_oracle(ops, 0.1, rhs)) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), m=st.integers(1, 3), ncells=st.integers(1, 10),
           members=st.integers(1, 4))
    def test_1d_multi_column_solve_equals_member_solves(self, data, m, ncells, members):
        def draw(lo, hi, shape):
            return data.draw(arrays(np.float64, shape, elements=st.floats(lo, hi)))

        grid = StructuredGrid([draw(0.05, 1.0, (ncells,))])
        coeff = CoefficientField(grid, draw(1e-3, 10.0, (m, 1, ncells)),
                                 draw(-2.0, 2.0, (m, 1, ncells)))
        walls = st.one_of(st.just(Dirichlet()), st.builds(Robin, st.floats(0.0, 5.0)),
                          st.just(NoFluxWithDrift()))
        boundary = BoundarySpec(tuple({"x_lo": data.draw(walls), "x_hi": data.draw(walls)}
                                      for _ in range(m)), 1)
        ops = TransportOperators(Problem(grid, zero_reactions(m), coeff, boundary), 0.0)
        dt = 10.0 ** data.draw(st.floats(-3.0, 0.0))
        # a batch: column c * members + l holds member l at cell c
        rhs = draw(-10.0, 10.0, (m, ncells * members))
        stacked = ops.solve(dt, rhs)
        assert stacked.shape == rhs.shape
        for l in range(members):
            b = np.ascontiguousarray(rhs[:, l::members])
            assert stacked[:, l::members].tobytes() == ops.solve(dt, b).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), m=st.integers(1, 3), ncells=st.integers(1, 40))
    def test_1d_bands_equal_the_assembled_diagonals(self, data, m, ncells):
        # the bands that reach dgttrf are read from the CSC arrays without
        # scipy.sparse: bit for bit the diagonals of the shifted CSR matrix,
        # padded with identity below three unknowns
        def draw(lo, hi, shape):
            return data.draw(arrays(np.float64, shape, elements=st.floats(lo, hi)))

        grid = StructuredGrid([draw(0.05, 1.0, (ncells,))])
        coeff = CoefficientField(grid, draw(1e-3, 10.0, (m, 1, ncells)),
                                 draw(-2.0, 2.0, (m, 1, ncells)))
        walls = st.one_of(st.just(Dirichlet()), st.builds(Robin, st.floats(0.0, 5.0)),
                          st.just(NoFluxWithDrift()))
        boundary = BoundarySpec(tuple({"x_lo": data.draw(walls), "x_hi": data.draw(walls)}
                                      for _ in range(m)), 1)
        dt = 10.0 ** data.draw(st.floats(-3.0, 0.0))
        factored = []
        lapack = integrator._scipy_extension("scipy.linalg._flapack")

        def recording_dgttrf(lower, diag, upper):
            factored.append((lower, diag, upper))
            return lapack.dgttrf(lower, diag, upper)

        recording = SimpleNamespace(dgttrf=recording_dgttrf, dgttrs=lapack.dgttrs)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(integrator, "_scipy_extension", lambda name: recording)
            ops = TransportOperators(Problem(grid, zero_reactions(m), coeff, boundary), 0.0)
            ops.solve(dt, np.ones((m, ncells)))
        block = assemble_transport(grid, coeff, boundary).tocsc()
        block.setdiag(block.diagonal() + 1.0 / dt)
        pad = max(0, 3 - m * ncells)
        [(lower, diag, upper)] = factored
        assert np.array_equal(lower, np.append(block.diagonal(-1), np.zeros(pad)))
        assert np.array_equal(diag, np.append(block.diagonal(), np.ones(pad)))
        assert np.array_equal(upper, np.append(block.diagonal(1), np.zeros(pad)))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), m=st.integers(1, 3), nx=st.integers(1, 12), ny=st.integers(1, 12))
    def test_2d_csc_arrays_equal_the_assembled_matrix(self, data, m, nx, ny):
        # the CSC arrays handed to SuperLU are summed from the entries without
        # scipy.sparse: bit for bit the CSR matrix's duplicates summed in entry
        # order, converted to CSC and shifted by setdiag, every diagonal stored
        def draw(lo, hi, shape):
            return data.draw(arrays(np.float64, shape, elements=st.floats(lo, hi)))

        grid = StructuredGrid([draw(0.05, 1.0, (nx,)), draw(0.05, 1.0, (ny,))])
        coeff = CoefficientField(grid, draw(1e-3, 10.0, (m, 2, grid.ncells)),
                                 draw(-2.0, 2.0, (m, 2, grid.ncells)))
        walls = st.one_of(st.just(Dirichlet()), st.builds(Robin, st.floats(0.0, 5.0)),
                          st.just(NoFluxWithDrift()))
        boundary = BoundarySpec(tuple({side: data.draw(walls)
                                       for side in ("x_lo", "x_hi", "y_lo", "y_hi")}
                                      for _ in range(m)), 2)
        dt = 10.0 ** data.draw(st.floats(-3.0, 0.0))
        factored = []
        real_lu = integrator._sparse_lu

        def recording_lu(values, indices, indptr):
            factored.append((values, indices, indptr))
            return real_lu(values, indices, indptr)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(integrator, "_sparse_lu", recording_lu)
            ops = TransportOperators(Problem(grid, zero_reactions(m), coeff, boundary), 0.0)
            ops.solve(dt, np.ones((m, grid.ncells)))
        block = assemble_transport(grid, coeff, boundary).tocsc()
        block.setdiag(block.diagonal() + 1.0 / dt)
        [(values, indices, indptr)] = factored
        assert np.array_equal(values, block.data)
        assert np.array_equal(indices, block.indices)
        assert np.array_equal(indptr, block.indptr)
        assert indices.dtype == indptr.dtype == np.intc

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 2), m=st.integers(1, 3),
           switches=st.integers(1, 3))
    def test_later_epochs_sum_into_the_first_pattern(self, data, dim, m, switches):
        # the pattern depends only on the grid and the walls: each later epoch
        # sums its own entries into the first epoch's arrays, bit for bit the
        # arrays `_csc_arrays` builds from those entries alone
        def draw(lo, hi, shape):
            return data.draw(arrays(np.float64, shape, elements=st.floats(lo, hi)))

        grid = StructuredGrid([draw(0.05, 1.0, (data.draw(st.integers(1, 12)),))
                               for _ in range(dim)])
        shape = (m, dim, grid.ncells)
        coeff = CoefficientField(grid, draw(1e-3, 10.0, shape), draw(-2.0, 2.0, shape),
                                 schedule=[(0.25 * k, draw(1e-3, 10.0, shape),
                                            draw(-2.0, 2.0, shape))
                                           for k in range(1, switches + 1)])
        walls = st.one_of(st.just(Dirichlet()), st.builds(Robin, st.floats(0.0, 5.0)),
                          st.just(NoFluxWithDrift()))
        boundary = BoundarySpec(tuple({side: data.draw(walls)
                                       for side in ("x_lo", "x_hi", "y_lo", "y_hi")[:2 * dim]}
                                      for _ in range(m)), dim)
        built = []

        class Recording(TransportOperators):
            def __init__(self, problem, t, pattern=None):
                super().__init__(problem, t, pattern)
                built.append((t, self.csc))

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(integrator, "TransportOperators", Recording)
            run(SimState(0.0, np.ones((m, grid.ncells)), 1.0), SolverConfig(dt=0.1, t_end=1.0),
                Problem(grid, zero_reactions(m), coeff, boundary))
        assert len(built) == switches + 1
        (_, first), *later = built
        for t, csc in later:
            entries = _transport_entries(grid, coeff, boundary, t)
            expected = integrator._csc_arrays(*entries, m * grid.ncells)[:4]
            for got, want in zip(csc, expected):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            # the first epoch's pattern, not a copy of it
            assert all(got is kept for got, kept in zip(csc[1:], first[1:]))

    @pytest.mark.parametrize("size", [46340, 46341])
    def test_csc_arrays_past_int32_keys(self, size):
        # col * size + row overflows int32 from 46341 rows on: the keys widen
        rows = np.array([size - 1, 0, size - 1, 7, size - 1], dtype=np.int32)
        cols = np.array([size - 1, size - 1, 3, 7, size - 1], dtype=np.int32)
        vals = np.array([0.5, -1.0, 2.0, 0.25, 0.125])
        data, indices, indptr, diagonal, slots = integrator._csc_arrays(rows, cols, vals, size)
        # the slots sum the entries into the same data bit for bit
        assert np.array_equal(np.bincount(slots, vals, minlength=data.size), data)
        block = sp.coo_matrix((vals, (rows, cols)), shape=(size, size)).tocsr().tocsc()
        block.setdiag(block.diagonal() + 4.0)
        data[diagonal] += 4.0
        assert np.array_equal(data, block.data)
        assert np.array_equal(indices, block.indices)
        assert np.array_equal(indptr, block.indptr)

    def test_2d_multi_column_solve_equals_member_solves(self):
        grid = StructuredGrid.uniform([(0.0, 1.0), (0.0, 2.0)], [9, 7])
        rng = np.random.default_rng(13)
        coeff = CoefficientField(grid, rng.uniform(1e-3, 1.0, size=(2, 2, grid.ncells)),
                                 rng.uniform(-1.0, 1.0, size=(2, 2, grid.ncells)))
        boundary = BoundarySpec((
            {"x_lo": Dirichlet(), "x_hi": NoFluxWithDrift(), "y_lo": Robin(0.5),
             "y_hi": NoFluxWithDrift()},
            {"x_lo": Robin(2.0), "x_hi": Dirichlet(), "y_lo": NoFluxWithDrift(),
             "y_hi": Dirichlet()},
        ), 2)
        ops = TransportOperators(Problem(grid, zero_reactions(2), coeff, boundary), 0.0)
        rhs = rng.uniform(0.0, 2.0, size=(2, grid.ncells * 3))
        stacked = ops.solve(0.05, rhs)
        for l in range(3):
            b = np.ascontiguousarray(rhs[:, l::3])
            assert stacked[:, l::3].tobytes() == ops.solve(0.05, b).tobytes()

    def test_one_factorization_per_dt(self, monkeypatch):
        calls = count_factorizations(monkeypatch)
        problem = make_problem(builtin_reversible_reaction(), n=16, diffusion=0.2, drift=0.3)
        ops = TransportOperators(problem, 0.0)
        rhs = np.ones((2, 16))
        first = ops.solve(0.1, rhs)
        for _ in range(4):
            again = ops.solve(0.1, rhs)
            assert np.array_equal(again, first)
        assert calls == [(32, 32)]
        ops.solve(0.05, rhs)
        assert len(calls) == 2

    @pytest.mark.parametrize("cells", [1, 2, 3])
    def test_1d_fewer_than_three_unknowns(self, cells):
        # LAPACK's wrappers need three unknowns; one species on one or two
        # cells is padded and must still match the dense solve
        problem = make_problem(builtin_linear_decay(m=1), n=cells, diffusion=0.3, drift=0.5,
                               bc=Dirichlet())
        ops = TransportOperators(problem, 0.0)
        rhs = np.arange(1.0, cells + 1.0)[None, :]
        u = ops.solve(0.1, rhs)
        assert u.shape == (1, cells)
        assert relative_error(u, dense_transport_oracle(ops, 0.1, rhs)) <= 1e-14

    def test_1d_rejects_entries_off_the_three_diagonals(self, monkeypatch):
        real_entries = integrator._transport_entries

        def stray_entry(*args):
            # species 1's cells 2 and 5 are rows and columns 10 and 13
            rows, cols, vals = real_entries(*args)
            return np.append(rows, 10), np.append(cols, 13), np.append(vals, 1e-3)

        monkeypatch.setattr(integrator, "_transport_entries", stray_entry)
        problem = make_problem(builtin_reversible_reaction(), n=8)
        ops = TransportOperators(problem, 0.0)
        # the entries are checked where the first system is factorized
        with pytest.raises(LinearSolveError, match=r"entry \(10, 13\) of a 16-row system"):
            ops.solve(0.1, np.ones((2, 8)))

    def test_1d_singular_system_raises(self):
        # A = -I/dt on species 0 cancels the shifted identity: every pivot is zero
        problem = make_problem(builtin_reversible_reaction(), n=8)
        ops = TransportOperators(problem, 0.0)
        data, indices, indptr, diagonal = ops.csc
        data = data.copy()
        data[:indptr[8]] = 0.0
        data[diagonal[:8]] = -1.0 / 0.1
        ops.csc = data, indices, indptr, diagonal
        with pytest.raises(LinearSolveError, match="dgttrf info 1 "):
            ops.solve(0.1, np.ones((2, 8)))

    def test_2d_singular_system_raises(self):
        # the same cancellation on a 2D grid: SuperLU finds an exactly zero pivot
        problem = make_problem(builtin_reversible_reaction(), n=4, dim=2)
        ops = TransportOperators(problem, 0.0)
        data, indices, indptr, diagonal = ops.csc
        data = data.copy()
        data[:indptr[16]] = 0.0
        data[diagonal[:16]] = -1.0 / 0.1
        ops.csc = data, indices, indptr, diagonal
        with pytest.raises(LinearSolveError, match="a 32-row system failed: .*singular"):
            ops.solve(0.1, np.ones((2, 16)))


class TestStep:
    @pytest.mark.parametrize("function", [
        integrator._march,
        step,
        TransportOperators.solve,
        integrator.TridiagonalLU.solve,
    ], ids=lambda f: f.__qualname__)
    def test_per_step_path_runs_no_import(self, function):
        # scipy is imported where its objects are built, never once per step
        ops = {ins.opname for ins in dis.get_instructions(function)}
        assert "IMPORT_NAME" not in ops

    def test_transport_conserves_mass_noflux(self):
        system = zero_reactions(2)
        problem = make_problem(system, n=24, diffusion=0.3, drift=0.4)
        rng = np.random.default_rng(3)
        fields = rng.uniform(0.0, 2.0, size=(2, 24))
        state = SimState(0.0, fields, 1e-3)
        cfg = SolverConfig(dt=0.05, t_end=1.0)
        ops = TransportOperators(problem, 0.0)
        vol = problem.grid.cell_volumes
        before = fields @ vol
        new_state, report = step(state, cfg, ops)
        after = new_state.fields @ vol
        assert np.allclose(before, after, atol=1e-10)
        assert report.halvings == 0
        assert new_state.t == pytest.approx(0.05)

    def test_dirichlet_diffusion_decays_to_zero(self):
        system = zero_reactions(1)
        problem = make_problem(system, n=16, diffusion=50.0, bc=Dirichlet())
        state = SimState(0.0, np.ones((1, 16)), 1e-3)
        cfg = SolverConfig(dt=0.1, t_end=1.0)
        ops = TransportOperators(problem, 0.0)
        sups = [1.0]
        for _ in range(10):
            state, _ = step(state, cfg, ops)
            sups.append(float(np.max(state.fields)))
        assert all(b <= a + 1e-14 for a, b in zip(sups, sups[1:]))
        assert sups[-1] < 1e-6

    def test_positivity_guard_halves(self):
        # a stiff sink would push the explicit reaction negative at dt = 1
        sink = system_from_expressions(
            ["0 - 30*u1"], mass_weights=[1.0], mass_constants=(0.0, 0.0),
            intermediate_order=1.0, growth_order=1.0, growth_constant=30.0,
        )
        problem = make_problem(sink, n=8, diffusion=0.01)
        state = SimState(0.0, np.full((1, 8), 0.5), 1e-6)
        cfg = SolverConfig(dt=1.0, t_end=2.0)
        ops = TransportOperators(problem, 0.0)
        new_state, report = step(state, cfg, ops)
        assert report.halvings > 0
        assert new_state.fields.min() >= -STATE_TOL
        assert report.dt < 1.0

    def test_halving_cap_raises(self):
        sink = system_from_expressions(
            ["0 - 30*u1"], mass_weights=[1.0], mass_constants=(0.0, 0.0),
            intermediate_order=1.0, growth_order=1.0, growth_constant=30.0,
        )
        problem = make_problem(sink, n=4, diffusion=0.01)
        state = SimState(0.0, np.full((1, 4), 0.5), 1e-6)
        cfg = SolverConfig(dt=1.0, t_end=2.0, max_halvings=0)
        ops = TransportOperators(problem, 0.0)
        with pytest.raises(PositivityError):
            step(state, cfg, ops)

    def test_accepted_state_is_not_validated_again(self, monkeypatch):
        # step has tested the new minimum; SimState's own check would repeat it
        system = builtin_reversible_reaction()
        problem = make_problem(system, n=8, diffusion=0.1)
        state = SimState(0.0, np.ones((2, 8)), 1e-3)
        validated = []
        monkeypatch.setattr(SimState, "__post_init__", lambda self: validated.append(self))
        new_state, report = step(state, SolverConfig(dt=0.1, t_end=1.0),
                                 TransportOperators(problem, 0.0))
        assert validated == []
        assert isinstance(new_state, SimState)
        assert new_state.t == 0.1 and new_state.eps is state.eps
        assert report.min_value == new_state.fields.min()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), m=st.integers(1, 3), ncells=st.integers(1, 8))
    def test_nonnegative_or_positivity_error(self, data, m, ncells):
        # F_i = s_i + sum_{j != i} c_ij u_j + u_i (d_i + sum_j q_ij u_j): every
        # term without the factor u_i is non-negative, so F is quasi-positive
        def draw(lo, hi, shape):
            return data.draw(arrays(np.float64, shape, elements=st.floats(lo, hi)))

        source, decay = draw(0.0, 10.0, (m,)), draw(-100.0, 10.0, (m,))
        coupling = draw(0.0, 10.0, (m, m)) * (1.0 - np.eye(m))
        quad = draw(-10.0, 10.0, (m, m))

        def evaluate(x, t, u):
            u = np.asarray(u, dtype=float)
            return source[:, None] + coupling @ u + u * (decay[:, None] + quad @ u)

        system = ReactionSystem(
            m=m, evaluate=evaluate, mass_weights=np.ones(m), mass_constants=(0.0, 0.0),
            sum_matrix=np.eye(m), intermediate_order=2.0, growth_order=2.0, growth_constant=1.0,
        )
        grid = StructuredGrid([draw(0.05, 1.0, (ncells,))])
        coeff = CoefficientField(grid, draw(1e-3, 10.0, (m, 1, ncells)),
                                 draw(-2.0, 2.0, (m, 1, ncells)))
        walls = st.one_of(st.just(Dirichlet()), st.builds(Robin, st.floats(0.0, 5.0)),
                          st.just(NoFluxWithDrift()))
        boundary = BoundarySpec(tuple({"x_lo": data.draw(walls), "x_hi": data.draw(walls)}
                                      for _ in range(m)), 1)
        problem = Problem(grid, system, coeff, boundary)
        fields = draw(0.0, 10.0, (m, ncells))
        eps = 10.0 ** data.draw(st.floats(-6.0, 0.0))
        cfg = SolverConfig(dt=10.0 ** data.draw(st.floats(-3.0, 0.0)), t_end=2.0,
                           max_halvings=data.draw(st.integers(0, 20)))
        try:
            new_state, report = step(SimState(0.0, fields, eps), cfg,
                                     TransportOperators(problem, 0.0))
        except PositivityError:
            return
        assert new_state.fields.min() >= -STATE_TOL
        assert report.min_value == new_state.fields.min()
        assert report.dt == cfg.dt / 2**report.halvings


class TestRun:
    def test_zero_initial_zero_reactions_stays_zero(self):
        system = builtin_reversible_reaction()
        problem = make_problem(system, n=16, diffusion=0.2)
        state = SimState(0.0, np.zeros((2, 16)), 1e-3)
        traj = run(state, SolverConfig(dt=0.05, t_end=0.5), problem)
        assert all(np.all(s == 0.0) for s in traj.states)

    def test_reversible_mass_constant(self):
        system = builtin_reversible_reaction()
        problem = make_problem(system, n=32, diffusion=0.05)
        rng = np.random.default_rng(4)
        fields = rng.uniform(0.2, 1.5, size=(2, 32))
        state = SimState(0.0, fields, 1e-4)
        _, steps = run_with_steps(state, SolverConfig(dt=0.01, t_end=1.0), problem)
        total = steps.masses.sum(axis=1)
        assert np.max(np.abs(total - total[0])) < 1e-10

    def test_positivity_throughout(self):
        system = builtin_reversible_reaction()
        problem = make_problem(system, n=32, diffusion=0.05)
        rng = np.random.default_rng(5)
        fields = rng.uniform(0.0, 2.0, size=(2, 32))
        state = SimState(0.0, fields, 1e-4)
        traj, steps = run_with_steps(state, SolverConfig(dt=0.02, t_end=2.0), problem)
        assert steps.minima.min() >= -1e-12
        assert traj.min_value == steps.minima.min()

    def test_step_records_outgrow_their_preallocation(self):
        # the stiff sink halves every step, so the run takes far more steps
        # than (t_end - t0) / dt = 2
        sink = system_from_expressions(
            ["0 - 30*u1"], mass_weights=[1.0], mass_constants=(0.0, 0.0),
            intermediate_order=1.0, growth_order=1.0, growth_constant=30.0,
        )
        problem = make_problem(sink, n=8, diffusion=0.01)
        state = SimState(0.0, np.full((1, 8), 0.5), 1e-6)
        traj, steps = run_with_steps(state, SolverConfig(dt=1.0, t_end=2.0, record_dt=None),
                                     problem)
        assert steps.halvings.sum() > 0
        assert traj.halvings_total == steps.halvings.sum()
        # 4 rows: the initial one, 2 steps of dt = 1 and 1 epoch
        assert steps.dts.size > 2 * 4
        assert traj.steps == steps.dts.size
        states = np.asarray(traj.states)
        vol = problem.grid.cell_volumes
        assert np.array_equal(steps.times, traj.times)
        assert np.array_equal(steps.masses, states @ vol)
        assert np.array_equal(steps.supnorms, np.max(np.abs(states), axis=2))
        assert np.array_equal(steps.minima, states.min(axis=(1, 2)))
        np.testing.assert_allclose(steps.times[1:] - steps.times[:-1],
                                   steps.dts, rtol=1e-12)
        assert np.issubdtype(steps.halvings.dtype, np.integer)

    def test_snapshot_cadence(self):
        system = zero_reactions(1)
        problem = make_problem(system, n=8, diffusion=0.1)
        state = SimState(0.0, np.ones((1, 8)), 1.0)
        traj = run(state, SolverConfig(dt=0.01, t_end=1.0, record_dt=0.25), problem)
        assert np.allclose(traj.times, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-9)

    def test_t_end_off_the_cadence_is_recorded(self):
        problem = make_problem(zero_reactions(1), n=8, diffusion=0.1)
        state = SimState(0.0, np.ones((1, 8)), 1.0)
        traj = run(state, SolverConfig(dt=0.01, t_end=1.0, record_dt=0.3), problem)
        assert np.allclose(traj.times, [0.0, 0.3, 0.6, 0.9, 1.0], atol=1e-9)

    def test_record_dt_below_rounding_returns_and_records_every_step(self):
        # 1e-20 is below half an ulp of t, so a next snapshot time advanced
        # by adding record_dt would never pass t; a subprocess with a
        # timeout turns such a hang into a failure
        script = "\n".join([
            "import numpy as np",
            "from rdasim import *",
            "grid = StructuredGrid.uniform([(0.0, 1.0)], [8])",
            "problem = Problem(grid, builtin_linear_decay(1), CoefficientField.constant(grid, [0.1]),",
            "                  BoundarySpec.uniform(1, 1, NoFluxWithDrift()))",
            "state = SimState(0.0, np.ones((1, 8)), 1.0)",
            "times = []",
            "traj = run(state, SolverConfig(dt=0.01, t_end=0.05, record_dt=1e-20), problem,",
            "           on_steps=lambda rows: times.append(rows[:, 0].copy()))",
            "print(np.array_equal(traj.times, np.concatenate(times)))",
        ])
        src = str(Path(integrator.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
                              capture_output=True, text=True, timeout=60, check=True)
        assert done.stdout.split() == ["True"]

    def test_record_dt_overflowing_the_count_records_every_step(self):
        # 0.01 / 5e-324 overflows to inf, so the passed-point count cannot grow
        problem = make_problem(builtin_linear_decay(1), n=8, diffusion=0.1)
        state = SimState(0.0, np.ones((1, 8)), 1.0)
        traj, steps = run_with_steps(state, SolverConfig(dt=0.01, t_end=0.05, record_dt=5e-324),
                                     problem)
        assert steps.times.size == 6
        assert np.array_equal(traj.times, steps.times)

    @pytest.mark.parametrize("record_dt", [-0.05, 0.0])
    def test_non_positive_record_dt_rejected(self, record_dt):
        # the next snapshot time would never pass t, so the run would not end
        with pytest.raises(ValueError, match="record_dt must be positive or None"):
            SolverConfig(dt=0.01, t_end=1.0, record_dt=record_dt)

    def test_coefficient_schedule_applied(self):
        # diffusion switches from tiny to huge at t = 0.5: the spatial
        # variance of the field must collapse only after the switch
        grid = StructuredGrid.uniform([(0.0, 1.0)], [32])
        tiny = np.full((1, 1, 32), 1e-6)
        huge = np.full((1, 1, 32), 50.0)
        coeff = CoefficientField(grid, tiny, schedule=[(0.5, huge, np.zeros((1, 1, 32)))])
        system = zero_reactions(1)
        problem = Problem(grid, system, coeff, BoundarySpec.uniform(1, 1, NoFluxWithDrift()))
        bump = np.exp(-100 * (grid.cell_centers[0] - 0.5) ** 2)[None, :]
        state = SimState(0.0, bump, 1.0)
        traj = run(state, SolverConfig(dt=0.05, t_end=1.0, record_dt=0.25), problem)
        var = [float(np.var(s)) for s in traj.states]
        mid = int(np.argmin(np.abs(traj.times - 0.5)))
        assert var[mid] > 0.5 * var[0]     # nearly frozen before the switch
        assert var[-1] < 1e-6 * var[0]     # homogenized after it

    def test_heat_equation_convergence_order(self):
        # manufactured solution u = exp(-pi^2 t) sin(pi x), walls pinned at 0
        errors = []
        for n in (16, 32, 64):
            grid = StructuredGrid.uniform([(0.0, 1.0)], [n])
            system = zero_reactions(1)
            coeff = CoefficientField.constant(grid, [1.0])
            boundary = BoundarySpec.uniform(1, 1, Dirichlet())
            problem = Problem(grid, system, coeff, boundary)
            x = grid.cell_centers[0]
            u0 = np.sin(np.pi * x)[None, :]
            h = 1.0 / n
            t_end = 0.1
            cfg = SolverConfig(dt=0.25 * h * h, t_end=t_end, record_dt=t_end)
            traj = run(SimState(0.0, u0, 1.0), cfg, problem)
            exact = np.exp(-np.pi**2 * t_end) * np.sin(np.pi * x)
            errors.append(discrete_norm(traj.states[-1][0] - exact, grid, 2))
        orders = [np.log2(errors[k] / errors[k + 1]) for k in range(2)]
        assert min(orders) >= 1.8

    def test_2d_smoke_conserves(self):
        system = builtin_linear_decay(m=1, rate=0.0)
        problem = make_problem(system, n=8, diffusion=0.2, drift=0.3, dim=2)
        rng = np.random.default_rng(6)
        fields = rng.uniform(0.5, 1.5, size=(1, 64))
        state = SimState(0.0, fields, 1.0)
        traj, steps = run_with_steps(state, SolverConfig(dt=0.05, t_end=0.5), problem)
        total = steps.masses.sum(axis=1)
        assert np.max(np.abs(total - total[0])) < 1e-12
        assert traj.min_value >= -1e-12

    @settings(max_examples=10, deadline=None)
    @given(data=st.data(), nx=st.integers(17, 24), ny=st.integers(17, 24))
    def test_2d_mass_budget_is_exact(self, data, nx, ny):
        # more than 16^2 cells, with diffusivities jumping by up to 1e3 between
        # neighbours, random drift, no-flux walls and no reaction: the weighted
        # mass moves only by rounding
        def draw(lo, hi, shape):
            return data.draw(arrays(np.float64, shape, elements=st.floats(lo, hi)))

        grid = StructuredGrid([draw(0.5, 2.0, (nx,)) / nx, draw(0.5, 2.0, (ny,)) / ny])
        levels = np.array([1e-3, 1e-2, 1e-1, 1.0])
        picks = data.draw(arrays(np.int64, (2, 2, grid.ncells), elements=st.integers(0, 3)))
        coeff = CoefficientField(grid, levels[picks], draw(-1.0, 1.0, (2, 2, grid.ncells)))
        system = zero_reactions(2)
        problem = Problem(grid, system, coeff, BoundarySpec.uniform(2, 2, NoFluxWithDrift()))
        fields = draw(0.0, 2.0, (2, grid.ncells))
        cfg = SolverConfig(dt=10.0 ** data.draw(st.floats(-3.0, -1.0)), t_end=0.1)
        _, steps = run_with_steps(SimState(0.0, fields, 1.0), cfg, problem)
        residual, _ = mass_budget(steps.times, steps.masses, system, grid.domain_volume)
        assert np.max(np.abs(residual)) <= 1e-12

    def test_halved_systems_are_built_once(self, monkeypatch):
        # a stiff sink halves dt = 0.5 four times a step until it has decayed;
        # each dt of that ladder is factorized the first time it is tried
        sink = system_from_expressions(
            ["0 - 30*u1"], mass_weights=[1.0], mass_constants=(0.0, 0.0),
            intermediate_order=1.0, growth_order=1.0, growth_constant=30.0,
        )
        problem = make_problem(sink, n=24, diffusion=0.05, drift=0.2, dim=2)
        fields = np.random.default_rng(9).uniform(0.5, 1.5, size=(1, problem.grid.ncells))
        factored = count_factorizations(monkeypatch)
        cfg = SolverConfig(dt=0.5, t_end=1.0, record_dt=0.25)
        _, steps = run_with_steps(SimState(0.0, fields, 1e-6), cfg, problem)
        assert steps.halvings[:11].min() == 4
        assert len(factored) == 5

    def test_2d_factorizes_once_per_epoch(self, monkeypatch):
        # diffusion and drift switch at t = 0.5; no step halves, so each of the
        # two epochs factorizes its two-species system once
        grid = StructuredGrid.uniform([(0.0, 1.0), (0.0, 1.0)], [6, 5])
        rng = np.random.default_rng(12)
        coeff = CoefficientField(
            grid, rng.uniform(0.01, 1.0, size=(2, 2, grid.ncells)),
            rng.uniform(-1.0, 1.0, size=(2, 2, grid.ncells)),
            schedule=[(0.5, rng.uniform(0.01, 1.0, size=(2, 2, grid.ncells)),
                       rng.uniform(-1.0, 1.0, size=(2, 2, grid.ncells)))],
        )
        problem = Problem(grid, builtin_reversible_reaction(), coeff,
                          BoundarySpec.uniform(2, 2, NoFluxWithDrift()))
        factored = count_factorizations(monkeypatch)
        fields = rng.uniform(0.5, 1.5, size=(2, grid.ncells))
        traj = run(SimState(0.0, fields, 1e-6),
                   SolverConfig(dt=0.05, t_end=1.0), problem)
        assert traj.halvings_total == 0
        assert factored == [(60, 60), (60, 60)]

    @pytest.mark.parametrize("dim, switches", [(1, 1), (2, 3), (2, 0)])
    def test_pattern_is_computed_once_per_run(self, monkeypatch, dim, switches):
        # k switches: a run and a ladder each build k + 1 operators, and only
        # the first computes the sparsity pattern; with no switch, no epoch
        # reads it, so its entry slots are not kept
        problem = make_problem(builtin_reversible_reaction(), n=6, drift=0.3,
                               bc=Dirichlet(), dim=dim)
        grid, coeff = problem.grid, problem.coefficients
        rng = np.random.default_rng(dim)
        problem.coefficients = CoefficientField(
            grid, coeff.epochs[0][1], coeff.epochs[0][2],
            schedule=[(k / (switches + 1), rng.uniform(0.01, 1.0, size=(2, dim, grid.ncells)),
                       rng.uniform(-1.0, 1.0, size=(2, dim, grid.ncells)))
                      for k in range(1, switches + 1)])
        built, patterns = [], []
        real_init, real_csc_arrays = TransportOperators.__init__, integrator._csc_arrays

        def counting_init(self, *args):
            built.append(self)
            real_init(self, *args)

        def counting_csc_arrays(*args):
            patterns.append(args[-1])
            return real_csc_arrays(*args)

        monkeypatch.setattr(TransportOperators, "__init__", counting_init)
        monkeypatch.setattr(integrator, "_csc_arrays", counting_csc_arrays)
        fields = rng.uniform(0.5, 1.5, size=(2, grid.ncells))
        cfg = SolverConfig(dt=0.05, t_end=1.0)
        run(SimState(0.0, fields, 1e-6), cfg, problem)
        epsilon_refinement_study(problem, fields, [1e-2, 1e-4], cfg)
        assert len(built) == 2 * (switches + 1)
        assert patterns == [2 * grid.ncells] * 2
        assert all((ops.pattern is None) == (switches == 0) for ops in built)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_later_epoch_overflow_names_its_entry(self, dim):
        # D/h^2 overflows only after the switch: the epoch that sums its values
        # into the kept pattern still checks them, and numpy stays silent
        problem = make_problem(builtin_linear_decay(m=1), n=8, dim=dim)
        grid = problem.grid
        huge = np.full((1, dim, grid.ncells), 1e308)
        problem.coefficients = CoefficientField(grid, problem.coefficients.epochs[0][1],
                                                schedule=[(0.5, huge, None)])
        with pytest.raises(LinearSolveError,
                           match=r"entry \(0, 0\) of the transport operator at t=0.5 is inf"):
            run(SimState(0.0, np.ones((1, grid.ncells)), 1.0),
                SolverConfig(dt=0.1, t_end=1.0), problem)

    def test_one_factorization_per_run(self, monkeypatch):
        # the problem of configs/reversible.json: after 3999 steps of 0.01, t
        # lies past 39.99 by rounding, so the remainder falls short of dt
        calls = count_factorizations(monkeypatch)
        system = builtin_reversible_reaction()
        grid = StructuredGrid.uniform([(0.0, 1.0)], [32])
        jump = np.where(grid.cell_centers[0] < 0.5, 0.1, 0.01)
        coeff = CoefficientField(grid, np.stack([jump[None, :]] * 2))
        problem = Problem(grid, system, coeff, BoundarySpec.uniform(2, 1, NoFluxWithDrift()))
        fields = np.stack([np.where(grid.cell_centers[0] < 0.5, 1.5, 1.0), np.full(32, 0.7)])
        cfg = SolverConfig(dt=0.01, t_end=40.0, record_dt=0.2)
        _, steps = run_with_steps(SimState(0.0, fields, 1e-6), cfg, problem)
        assert calls == [(64, 64)]
        assert np.all(steps.dts == cfg.dt)
        assert abs(steps.times[-1] - cfg.t_end) <= 1e-12 * cfg.t_end
        np.testing.assert_allclose(np.diff(steps.times), steps.dts, rtol=1e-10)


class TestEpsilonStudy:
    def test_inactive_truncation_identical(self):
        # bounded reactions, eps so small the regularization is inert at
        # machine precision: trajectories coincide
        system = builtin_linear_decay(m=2, rate=0.5)
        problem = make_problem(system, n=16, diffusion=0.1)
        fields = np.ones((2, 16))
        cfg = SolverConfig(dt=0.05, t_end=0.5, record_dt=0.1)
        report = epsilon_refinement_study(problem, fields, [1e-14, 1e-15], cfg)
        assert report["pair_distances"][0] < 1e-12

    def test_linear_scaling_in_eps(self):
        system = builtin_reversible_reaction()
        problem = make_problem(system, n=16, diffusion=0.05)
        rng = np.random.default_rng(7)
        fields = rng.uniform(0.5, 2.0, size=(2, 16))
        cfg = SolverConfig(dt=0.01, t_end=0.5, record_dt=0.1)
        report = epsilon_refinement_study(problem, fields, [1e-2, 1e-3, 1e-4], cfg)
        d = report["pair_distances"]
        assert report["monotone_shrinking"]
        # distances to the eps -> 0 limit scale linearly, so consecutive
        # differences shrink by about the eps ratio
        assert d[1] <= 0.2 * d[0]


REPO = Path(__file__).resolve().parents[1]


def shipped_ladder(name, t_end=None):
    """Problem, members and solver settings of `rdasim epsilon-study` on a shipped config."""
    cfg = load_config(REPO / "configs" / f"{name}.json")
    if t_end is not None:
        cfg["solver"]["t_end"] = t_end
    grid, system, coeff, boundary, initial, _, _ = cli._assemble(cfg, REPO / "configs")
    eps = cfg.get("diagnostics", {}).get("epsilon_study", [1e-2, 1e-3, 1e-4])
    members = [SimState(0.0, initial, e) for e in eps]
    return Problem(grid, system, coeff, boundary), members, build_solver_config(cfg)


def stiff_ladder(record_dt):
    """A sink against which solo eps = 1 and eps = 1e-4 runs halve dt in different steps."""
    sink = system_from_expressions(
        ["0 - 1000*u1"], mass_weights=[1.0], mass_constants=(0.0, 0.0),
        intermediate_order=1.0, growth_order=1.0, growth_constant=1000.0,
    )
    problem = make_problem(sink, n=64, diffusion=0.1, bc=Dirichlet())
    fields = np.exp(-50.0 * (problem.grid.cell_centers[0] - 0.5) ** 2)[None, :]
    members = [SimState(0.0, fields, e) for e in (1.0, 1e-4)]
    return problem, members, SolverConfig(dt=0.01, t_end=1.0, record_dt=record_dt)


class TestEpsilonLadder:
    @pytest.mark.parametrize("name, t_end", [
        ("reversible", None),
        ("heat", None),
        ("epidemic", 20.0),  # 4,000 of its 40,000 steps
    ])
    def test_batched_snapshots_equal_member_runs(self, name, t_end):
        problem, members, cfg = shipped_ladder(name, t_end)
        times, states = integrator._march_ladder(members, cfg, problem)
        assert states.shape[:2] == (len(members), times.size)
        for member, member_states in zip(members, states):
            traj = run(member, cfg, problem)
            assert traj.times.tobytes() == times.tobytes()
            assert traj.states.tobytes() == member_states.tobytes()

    def test_batch_repeats_the_cell_centres_once_per_march(self):
        seen = []
        system = builtin_reversible_reaction()
        evaluate = system.evaluate
        system.evaluate = lambda x, t, u: seen.append(x) or evaluate(x, t, u)
        problem = make_problem(system, n=8)
        fields = np.random.default_rng(16).uniform(0.5, 1.5, size=(2, 8))
        members = [SimState(0.0, fields, e) for e in (1e-1, 1e-2)]
        integrator._march_ladder(members, SolverConfig(dt=0.1, t_end=0.5), problem)
        assert len(seen) == 5
        assert all(x is seen[0] for x in seen)
        assert np.array_equal(seen[0], problem.grid.cell_centers.repeat(2, axis=1))

    def test_uniform_rate_epidemic_ladder_never_locates(self, monkeypatch):
        # the batch evaluates at the cell centres repeated per member;
        # uniform rates need no cell lookup for them
        problem, members, cfg = shipped_ladder("epidemic", 1.0)
        calls = []
        locate = StructuredGrid.locate
        monkeypatch.setattr(StructuredGrid, "locate",
                            lambda grid, points: calls.append(1) or locate(grid, points))
        epsilon_refinement_study(problem, members[0].fields, [m.eps for m in members], cfg)
        assert calls == []

    def test_2d_ladder_across_a_switch_equals_member_runs(self, monkeypatch):
        # diffusion and drift switch at t = 0.5: the batch reassembles and
        # factorizes once per epoch for all three members
        grid = StructuredGrid.uniform([(0.0, 1.0), (0.0, 1.0)], [6, 5])
        rng = np.random.default_rng(14)
        coeff = CoefficientField(
            grid, rng.uniform(0.01, 1.0, size=(2, 2, grid.ncells)),
            rng.uniform(-1.0, 1.0, size=(2, 2, grid.ncells)),
            schedule=[(0.5, rng.uniform(0.01, 1.0, size=(2, 2, grid.ncells)),
                       rng.uniform(-1.0, 1.0, size=(2, 2, grid.ncells)))],
        )
        problem = Problem(grid, builtin_reversible_reaction(), coeff,
                          BoundarySpec.uniform(2, 2, NoFluxWithDrift()))
        fields = rng.uniform(0.5, 1.5, size=(2, grid.ncells))
        members = [SimState(0.0, fields, e) for e in (1e-1, 1e-2, 1e-3)]
        cfg = SolverConfig(dt=0.05, t_end=1.0, record_dt=0.2)
        factored = count_factorizations(monkeypatch)
        times, states = integrator._march_ladder(members, cfg, problem)
        assert factored == [(60, 60), (60, 60)]
        for member, member_states in zip(members, states):
            traj = run(member, cfg, problem)
            assert traj.times.tobytes() == times.tobytes()
            assert traj.states.tobytes() == member_states.tobytes()

    def test_position_dependent_ladder_equals_member_runs(self):
        # the rates vary by cell, so every batch column must see its own cell's centre
        system = system_from_expressions(["x*u2 - u1", "u1 - x*u2"], mass_weights=[1.0, 1.0])
        problem = make_problem(system, n=16, diffusion=0.05, drift=0.2)
        fields = np.random.default_rng(15).uniform(0.5, 1.5, size=(2, 16))
        members = [SimState(0.0, fields, e) for e in (1.0, 1e-1, 1e-2)]
        cfg = SolverConfig(dt=0.01, t_end=0.5, record_dt=0.1)
        times, states = integrator._march_ladder(members, cfg, problem)
        for member, member_states in zip(members, states):
            traj = run(member, cfg, problem)
            assert traj.times.tobytes() == times.tobytes()
            assert traj.states.tobytes() == member_states.tobytes()

    def test_shipped_ladder_assembles_and_factorizes_once(self, monkeypatch):
        assembled = []
        real_entries = integrator._transport_entries

        def counting_entries(grid, coefficients, boundary, t):
            assembled.append(t)
            return real_entries(grid, coefficients, boundary, t)

        factored = count_factorizations(monkeypatch)
        monkeypatch.setattr(integrator, "_transport_entries", counting_entries)
        problem, members, cfg = shipped_ladder("reversible")
        report = epsilon_refinement_study(problem, members[0].fields,
                                          [m.eps for m in members], cfg)
        assert report["monotone_shrinking"]
        assert factored == [(64, 64)]
        assert assembled == [0.0]

    def test_reversible_ladder_calls_step_once_per_time_step(self, monkeypatch):
        # the batch takes each time step through `step`, at its module name
        shapes = []
        real_step = integrator.step

        def counting_step(state, *args, **kwargs):
            shapes.append(state.fields.shape)
            return real_step(state, *args, **kwargs)

        monkeypatch.setattr(integrator, "step", counting_step)
        problem, members, cfg = shipped_ladder("reversible")
        epsilon_refinement_study(problem, members[0].fields, [m.eps for m in members], cfg)
        m, ncells = members[0].fields.shape
        assert shapes == [(m, ncells * len(members))] * round(cfg.t_end / cfg.dt)

    def test_halving_ladder_equals_solo_replays_of_its_steps(self):
        # alone, eps = 1 and eps = 1e-4 would halve dt in different steps; the
        # batch halves for both, so each member replays the batch's step sizes
        problem, members, cfg = stiff_ladder(record_dt=0.1)
        (m, n), L = members[0].fields.shape, len(members)
        batch = SimState(0.0, np.stack([b.fields for b in members], axis=2).reshape(m, n * L),
                         np.tile([b.eps for b in members], n))
        steps = [(report, recorded)
                 for _, report, recorded in integrator._march(batch, cfg, problem)]
        assert sum(report.halvings for report, _ in steps) > 0
        times, states = integrator._march_ladder(members, cfg, problem)
        assert times.size == 11
        operators = TransportOperators(problem, 0.0)
        for member, member_states in zip(members, states):
            state, snap_times, snapshots = member, [member.t], [member.fields]
            for report, recorded in steps:
                state, solo = step(state, cfg, operators, max_dt=report.dt)
                assert solo.dt == report.dt and solo.halvings == 0
                if recorded:
                    snap_times.append(state.t)
                    snapshots.append(state.fields)
            assert np.asarray(snap_times).tobytes() == times.tobytes()
            assert np.stack(snapshots).tobytes() == member_states.tobytes()

    def test_halving_member_raises_like_member_runs(self):
        # alone, eps = 100 needs no more than 3 halvings and eps = 1e-4 does: the
        # batch raises the eps = 1e-4 run's error, though its other member would pass
        problem, members, _ = stiff_ladder(record_dt=0.1)
        cfg = SolverConfig(dt=0.01, t_end=1.0, record_dt=0.1, max_halvings=3)
        fields = members[0].fields
        run(SimState(0.0, fields, 100.0), cfg, problem)
        with pytest.raises(PositivityError) as solo:
            run(SimState(0.0, fields, 1e-4), cfg, problem)
        with pytest.raises(PositivityError) as batch:
            epsilon_refinement_study(problem, fields, [100.0, 1e-4], cfg)
        assert str(batch.value) == str(solo.value)
        assert str(batch.value).startswith("positivity not restored after 3 halvings")

    def test_later_member_overflow_names_its_cell_and_eps(self):
        # eps = 1 caps the reaction at 1, eps = 1e-6 lets the bump in cell 5 run
        # away: only the second member overflows, as in its solo run
        problem = make_problem(system_from_expressions(
            ["u1^2*exp(u1)"], mass_weights=[1.0], mass_constants=(0.0, 0.0),
        ), n=8, diffusion=1e-3)
        fields = np.zeros((1, 8))
        fields[0, 5] = 5.0
        cfg = SolverConfig(dt=0.01, t_end=0.1)
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteError) as solo:
                run(SimState(0.0, fields, 1e-6), cfg, problem)
            with pytest.raises(NonFiniteError) as batch:
                epsilon_refinement_study(problem, fields, [1.0, 1e-6], cfg)
        assert str(batch.value) == str(solo.value)
        assert " in cell 5 at t=" in str(batch.value)
        assert str(batch.value).endswith(" with eps=1e-06")

    def test_non_finite_member_raises_like_its_run(self):
        problem = make_problem(system_from_expressions(
            ["u1^2*exp(u1)"], mass_weights=[1.0], mass_constants=(0.0, 0.0),
        ), n=8)
        fields = np.full((1, 8), 800.0)
        with pytest.raises(NonFiniteError, match="non-finite reaction inf for species 1"):
            epsilon_refinement_study(problem, fields, [1e-2, 1e-3],
                                     SolverConfig(dt=0.01, t_end=0.1))


class TestCheckpoints:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), m=st.integers(1, 4), ncells=st.integers(1, 9),
           t=st.floats(allow_nan=False, allow_infinity=False),
           eps=st.floats(min_value=5e-324, allow_infinity=False))
    def test_roundtrip_bit_exact(self, tmp_path_factory, data, m, ncells, t, eps):
        values = (st.sampled_from([0.0, -0.0, 5e-324, 2.225e-308, 1e308])
                  | st.floats(min_value=0.0, allow_infinity=False))
        fields = data.draw(arrays(np.float64, (m, ncells), elements=values))
        grid = StructuredGrid.uniform([(0.0, 1.0)], [ncells])
        state = SimState(t, fields, eps)
        path = tmp_path_factory.mktemp("ck") / "state.ck"
        dump_state(state, grid, path)
        back = load_state(path, grid)
        assert np.float64(back.t).tobytes() == np.float64(t).tobytes()
        assert np.float64(back.eps).tobytes() == np.float64(eps).tobytes()
        assert back.fields.shape == (m, ncells)
        assert back.fields.tobytes() == fields.tobytes()

    def test_grid_mismatch_rejected(self, tmp_path):
        grid = StructuredGrid.uniform([(0.0, 1.0)], [12])
        other = StructuredGrid.uniform([(0.0, 1.0)], [13])
        state = SimState(0.0, np.zeros((1, 12)), 1.0)
        path = tmp_path / "state.ck"
        dump_state(state, grid, path)
        with pytest.raises(ValueError, match="different grid"):
            load_state(path, other)


class TestSimState:
    def test_negative_state_rejected(self):
        with pytest.raises(PositivityError):
            SimState(0.0, np.array([[1.0, -1e-6]]), 1.0)

    def test_tiny_negative_tolerated(self):
        state = SimState(0.0, np.array([[1.0, -1e-13]]), 1.0)
        assert state.fields.min() == -1e-13

    @pytest.mark.parametrize("eps", [0, -1.0, np.array([1e-3, 0.0, 1e-2])])
    def test_non_positive_eps_rejected(self, eps):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            SimState(0.0, np.ones((1, 3)), eps)

    def test_int_eps_stored_as_float(self):
        state = SimState(0.0, np.ones((1, 3)), 1)
        assert type(state.eps) is float and state.eps == 1.0
