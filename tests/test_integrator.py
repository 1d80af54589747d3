"""Stepping, linear solvers, conservation, convergence, checkpoints."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from rdasim import integrator
from rdasim.grid import (
    BoundarySpec,
    CoefficientField,
    Dirichlet,
    NoFluxWithDrift,
    Robin,
    StructuredGrid,
    discrete_norm,
)
from rdasim.integrator import (
    LinearSolveError,
    PositivityError,
    Problem,
    SimState,
    SolverConfig,
    TransportOperators,
    dump_state,
    epsilon_refinement_study,
    linear_solve,
    load_state,
    run,
    step,
)
from rdasim.reactions import (
    ReactionSystem,
    TruncationParam,
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


class TestLinearSolve:
    def test_identity(self):
        rng = np.random.default_rng(0)
        b = rng.standard_normal(20)
        x, _ = linear_solve(sp.eye(20).tocsr(), b)
        assert np.allclose(x, b, atol=1e-12)

    def test_tridiagonal_vs_banded_oracle(self):
        # Dirichlet Laplacian rows [2, -1] scaled; first basis vector load
        n = 50
        main = np.full(n, 2.0)
        low = np.full(n - 1, -1.0)
        a = sp.diags([low, main, low], [-1, 0, 1]).tocsr()
        b = np.zeros(n)
        b[0] = 1.0
        ab = np.zeros((3, n))
        ab[0, 1:] = a.diagonal(1)
        ab[1] = a.diagonal(0)
        ab[2, :-1] = a.diagonal(-1)
        oracle = scipy.linalg.solve_banded((1, 1), ab, b)
        x, _ = linear_solve(a, b, tol=1e-12, max_iter=300)
        assert np.max(np.abs(x - oracle)) < 1e-10

    def test_random_m_matrix_converges(self):
        rng = np.random.default_rng(1)
        n = 100
        off = -np.abs(rng.standard_normal((n, n))) * (rng.random((n, n)) < 0.05)
        np.fill_diagonal(off, 0.0)
        a = off + np.diag(np.abs(off).sum(axis=1) + rng.uniform(0.5, 2.0, n))
        b = rng.standard_normal(n)
        x, _ = linear_solve(sp.csr_matrix(a), b, tol=1e-10, max_iter=500)
        assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b) * 1.01

    def test_tiny_right_hand_side(self):
        # scipy's rho breakdown test is absolute; the solve must not depend on |b|
        rng = np.random.default_rng(1)
        n = 100
        off = -np.abs(rng.standard_normal((n, n))) * (rng.random((n, n)) < 0.05)
        np.fill_diagonal(off, 0.0)
        a = off + np.diag(np.abs(off).sum(axis=1) + rng.uniform(0.5, 2.0, n))
        b = 1e-20 * rng.standard_normal(n)
        x, _ = linear_solve(sp.csr_matrix(a), b, tol=1e-10, max_iter=500)
        assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b) * 1.01
        x0 = x * (1.0 + 1e-6)
        x, _ = linear_solve(sp.csr_matrix(a), b, tol=1e-10, max_iter=500, x0=x0)
        assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b) * 1.01

    def test_zero_right_hand_side(self):
        x, iterations = linear_solve(sp.eye(5).tocsr(), np.zeros(5), x0=np.ones(5))
        assert np.array_equal(x, np.zeros(5))
        assert iterations == 0

    def test_half_step_convergence_counts_one_iteration(self):
        # Jacobi is exact on a diagonal system: BiCGStab stops at its first half step
        a = sp.diags(np.linspace(1.0, 4.0, 30)).tocsr()
        _, iterations = linear_solve(a, np.ones(30))
        assert iterations == 1

    def test_iterations_match_full_steps(self):
        n = 50
        low = np.full(n - 1, -1.0)
        a = sp.diags([low, np.full(n, 2.0), low], [-1, 0, 1]).tocsr()
        b = np.random.default_rng(4).standard_normal(n)
        steps = []
        scipy.sparse.linalg.bicgstab(
            a, b / np.linalg.norm(b), rtol=1e-10, atol=0.0, maxiter=500,
            M=sp.diags(1.0 / a.diagonal()), callback=lambda xk: steps.append(1),
        )
        _, iterations = linear_solve(a, b, tol=1e-10, max_iter=500)
        assert iterations in (len(steps), len(steps) + 1)

    def test_nonconvergence_reports_residual(self):
        # an indefinite system BiCGStab cannot crack in two iterations
        rng = np.random.default_rng(2)
        a = rng.standard_normal((40, 40))
        a = sp.csr_matrix(a + a.T)
        with pytest.raises(LinearSolveError, match="residual"):
            linear_solve(a, rng.standard_normal(40), tol=1e-14, max_iter=2)


def dense_transport_oracle(ops, dt, rhs):
    n = rhs.shape[1]
    return np.array([np.linalg.solve(np.eye(n) / dt + a.toarray(), r)
                     for a, r in zip(ops.matrices, rhs)])


def relative_error(u, ref):
    return np.max(np.abs(u - ref)) / np.max(np.abs(ref))


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
        u, iterations = ops.solve(dt, rhs, SolverConfig(dt=dt, t_end=1.0))
        assert iterations == 0
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
        cfg = SolverConfig(dt=0.1, t_end=1.0, linear_tol=1e-13)
        u, iterations = ops.solve(0.1, rhs, cfg, x0=rhs)
        assert iterations > 0
        assert relative_error(u, dense_transport_oracle(ops, 0.1, rhs)) <= 1e-10

    def test_one_factorization_per_dt(self, monkeypatch):
        calls = []
        real_splu = integrator.splu

        def counting_splu(a):
            calls.append(a.shape)
            return real_splu(a)

        monkeypatch.setattr(integrator, "splu", counting_splu)
        problem = make_problem(builtin_reversible_reaction(), n=16, diffusion=0.2, drift=0.3)
        ops = TransportOperators(problem, 0.0)
        rhs = np.ones((2, 16))
        cfg = SolverConfig(dt=0.1, t_end=1.0)
        first, _ = ops.solve(0.1, rhs, cfg)
        for _ in range(4):
            again, _ = ops.solve(0.1, rhs, cfg)
            assert np.array_equal(again, first)
        assert calls == [(32, 32)]
        ops.solve(0.05, rhs, cfg)
        assert len(calls) == 2


class TestStep:
    def test_transport_conserves_mass_noflux(self):
        system = zero_reactions(2)
        problem = make_problem(system, n=24, diffusion=0.3, drift=0.4)
        rng = np.random.default_rng(3)
        fields = rng.uniform(0.0, 2.0, size=(2, 24))
        state = SimState(0.0, fields, TruncationParam(1e-3))
        cfg = SolverConfig(dt=0.05, t_end=1.0)
        ops = TransportOperators(problem, 0.0)
        vol = problem.grid.cell_volumes
        before = fields @ vol
        new_state, report = step(state, cfg, ops, system)
        after = new_state.fields @ vol
        assert np.allclose(before, after, atol=1e-10)
        assert report.halvings == 0
        assert new_state.t == pytest.approx(0.05)

    def test_dirichlet_diffusion_decays_to_zero(self):
        system = zero_reactions(1)
        problem = make_problem(system, n=16, diffusion=50.0, bc=Dirichlet())
        state = SimState(0.0, np.ones((1, 16)), TruncationParam(1e-3))
        cfg = SolverConfig(dt=0.1, t_end=1.0)
        ops = TransportOperators(problem, 0.0)
        sups = [1.0]
        for _ in range(10):
            state, _ = step(state, cfg, ops, system)
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
        state = SimState(0.0, np.full((1, 8), 0.5), TruncationParam(1e-6))
        cfg = SolverConfig(dt=1.0, t_end=2.0)
        ops = TransportOperators(problem, 0.0)
        new_state, report = step(state, cfg, ops, sink)
        assert report.halvings > 0
        assert new_state.fields.min() >= -cfg.positivity_tol
        assert report.dt < 1.0

    def test_halving_cap_raises(self):
        sink = system_from_expressions(
            ["0 - 30*u1"], mass_weights=[1.0], mass_constants=(0.0, 0.0),
            intermediate_order=1.0, growth_order=1.0, growth_constant=30.0,
        )
        problem = make_problem(sink, n=4, diffusion=0.01)
        state = SimState(0.0, np.full((1, 4), 0.5), TruncationParam(1e-6))
        cfg = SolverConfig(dt=1.0, t_end=2.0, max_halvings=0)
        ops = TransportOperators(problem, 0.0)
        with pytest.raises(PositivityError):
            step(state, cfg, ops, sink)


class TestRun:
    def test_zero_initial_zero_reactions_stays_zero(self):
        system = builtin_reversible_reaction()
        problem = make_problem(system, n=16, diffusion=0.2)
        state = SimState(0.0, np.zeros((2, 16)), TruncationParam(1e-3))
        traj = run(state, SolverConfig(dt=0.05, t_end=0.5), problem)
        assert all(np.all(s == 0.0) for s in traj.states)

    def test_reversible_mass_constant(self):
        system = builtin_reversible_reaction()
        problem = make_problem(system, n=32, diffusion=0.05)
        rng = np.random.default_rng(4)
        fields = rng.uniform(0.2, 1.5, size=(2, 32))
        state = SimState(0.0, fields, TruncationParam(1e-4))
        traj = run(state, SolverConfig(dt=0.01, t_end=1.0), problem)
        total = traj.step_masses.sum(axis=1)
        assert np.max(np.abs(total - total[0])) < 1e-10

    def test_positivity_throughout(self):
        system = builtin_reversible_reaction()
        problem = make_problem(system, n=32, diffusion=0.05)
        rng = np.random.default_rng(5)
        fields = rng.uniform(0.0, 2.0, size=(2, 32))
        state = SimState(0.0, fields, TruncationParam(1e-4))
        traj = run(state, SolverConfig(dt=0.02, t_end=2.0), problem)
        assert traj.step_minima.min() >= -1e-12

    def test_step_records_outgrow_their_preallocation(self):
        # the stiff sink halves every step, so the run takes far more steps
        # than (t_end - t0) / dt and the step records must grow
        sink = system_from_expressions(
            ["0 - 30*u1"], mass_weights=[1.0], mass_constants=(0.0, 0.0),
            intermediate_order=1.0, growth_order=1.0, growth_constant=30.0,
        )
        problem = make_problem(sink, n=8, diffusion=0.01)
        state = SimState(0.0, np.full((1, 8), 0.5), TruncationParam(1e-6))
        traj = run(state, SolverConfig(dt=1.0, t_end=2.0, record_dt=None), problem)
        assert traj.step_halvings.sum() > 0
        # 4 preallocated rows: the initial one, 2 steps of dt = 1 and 1 epoch
        assert traj.step_dts.size > 2 * 4
        states = np.asarray(traj.states)
        vol = problem.grid.cell_volumes
        assert np.array_equal(traj.step_times, traj.times)
        assert np.array_equal(traj.step_masses, states @ vol)
        assert np.array_equal(traj.step_supnorms, np.max(np.abs(states), axis=2))
        assert np.array_equal(traj.step_minima, states.min(axis=(1, 2)))
        np.testing.assert_allclose(traj.step_times[1:] - traj.step_times[:-1],
                                   traj.step_dts, rtol=1e-12)
        assert traj.reaction_integrals.shape == (traj.step_times.size, 1)
        assert np.issubdtype(traj.step_halvings.dtype, np.integer)
        assert np.issubdtype(traj.step_linear_iterations.dtype, np.integer)

    def test_snapshot_cadence(self):
        system = zero_reactions(1)
        problem = make_problem(system, n=8, diffusion=0.1)
        state = SimState(0.0, np.ones((1, 8)), TruncationParam(1.0))
        traj = run(state, SolverConfig(dt=0.01, t_end=1.0, record_dt=0.25), problem)
        assert np.allclose(traj.times, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-9)

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
        state = SimState(0.0, bump, TruncationParam(1.0))
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
            traj = run(SimState(0.0, u0, TruncationParam(1.0)), cfg, problem)
            exact = np.exp(-np.pi**2 * t_end) * np.sin(np.pi * x)
            errors.append(discrete_norm(traj.states[-1][0] - exact, grid, 2))
        orders = [np.log2(errors[k] / errors[k + 1]) for k in range(2)]
        assert min(orders) >= 1.8

    def test_2d_smoke_conserves(self):
        system = builtin_linear_decay(m=1, rate=0.0)
        problem = make_problem(system, n=8, diffusion=0.2, drift=0.3, dim=2)
        rng = np.random.default_rng(6)
        fields = rng.uniform(0.5, 1.5, size=(1, 64))
        state = SimState(0.0, fields, TruncationParam(1.0))
        traj = run(state, SolverConfig(dt=0.05, t_end=0.5), problem)
        total = traj.step_masses.sum(axis=1)
        assert np.max(np.abs(total - total[0])) < 1e-8
        assert traj.step_minima.min() >= -1e-12


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


class TestCheckpoints:
    def test_roundtrip_bit_exact(self):
        grid = StructuredGrid.uniform([(0.0, 1.0)], [12])
        rng = np.random.default_rng(8)
        state = SimState(1.375, rng.uniform(0, 1, size=(3, 12)), TruncationParam(1e-3))
        path = "/tmp/rdasim_ck_test.ck"
        dump_state(state, grid, path)
        back = load_state(path, grid)
        assert back.t == state.t
        assert back.eps.epsilon == state.eps.epsilon
        assert np.array_equal(back.fields, state.fields)

    def test_grid_mismatch_rejected(self):
        grid = StructuredGrid.uniform([(0.0, 1.0)], [12])
        other = StructuredGrid.uniform([(0.0, 1.0)], [13])
        state = SimState(0.0, np.zeros((1, 12)), TruncationParam(1.0))
        path = "/tmp/rdasim_ck_test2.ck"
        dump_state(state, grid, path)
        with pytest.raises(ValueError, match="different grid"):
            load_state(path, other)


class TestSimState:
    def test_negative_state_rejected(self):
        with pytest.raises(PositivityError):
            SimState(0.0, np.array([[1.0, -1e-6]]), TruncationParam(1.0))

    def test_tiny_negative_tolerated(self):
        state = SimState(0.0, np.array([[1.0, -1e-13]]), TruncationParam(1.0))
        assert state.fields.min() == -1e-13
