"""Norm series, energy traces, windowed sup-norms, and budgets."""

import numpy as np
import pytest

from rdasim.cli import _energy_records
from rdasim.diagnostics import (
    Trajectory,
    energy_trace,
    mass_budget,
    no_growth,
    norm_series,
    windowed_sup,
)
from rdasim.energy import EnergySpec
from rdasim.grid import (
    BoundarySpec,
    CoefficientField,
    Dirichlet,
    NoFluxWithDrift,
    StructuredGrid,
    discrete_norm,
)
from rdasim.integrator import Problem, SimState, SolverConfig, run
from rdasim.reactions import (
    builtin_linear_decay,
    builtin_reversible_reaction,
    system_from_expressions,
)


def snapshot_trajectory(grid, times, states):
    return Trajectory(grid=grid, times=np.asarray(times, dtype=float), states=states)


def run_problem(system, fields, t_end=1.0, dt=0.01, diffusion=0.1, n=24,
                bc=None, record_dt=None, eps=1e-4):
    grid = StructuredGrid.uniform([(0.0, 1.0)], [n])
    coeff = CoefficientField.constant(grid, [diffusion] * system.m)
    boundary = BoundarySpec.uniform(system.m, 1, bc or NoFluxWithDrift())
    problem = Problem(grid, system, coeff, boundary)
    state = SimState(0.0, fields, eps)
    cfg = SolverConfig(dt=dt, t_end=t_end, record_dt=record_dt)
    return run(state, cfg, problem), problem


class TestTrajectory:
    def test_times_must_increase(self):
        grid = StructuredGrid.uniform([(0.0, 1.0)], [4])
        with pytest.raises(ValueError, match="strictly increasing"):
            snapshot_trajectory(grid, [0.0, 0.0], [np.zeros((1, 4))] * 2)

    def test_alignment(self):
        grid = StructuredGrid.uniform([(0.0, 1.0)], [4])
        with pytest.raises(ValueError, match="align"):
            snapshot_trajectory(grid, [0.0, 1.0], [np.zeros((1, 4))])

    def test_states_from_a_list_become_one_array(self):
        grid = StructuredGrid.uniform([(0.0, 1.0)], [4])
        states = [np.full((2, 4), k) for k in range(3)]
        traj = snapshot_trajectory(grid, [0.0, 1.0, 2.0], states)
        assert isinstance(traj.states, np.ndarray)
        assert traj.states.shape == (3, 2, 4)
        assert traj.states.dtype == np.float64
        assert traj.m == 2
        assert np.array_equal(traj.states[2], states[2])

    def test_states_must_cover_the_grid(self):
        grid = StructuredGrid.uniform([(0.0, 1.0)], [4])
        with pytest.raises(ValueError, match="on 4 cells"):
            snapshot_trajectory(grid, [0.0, 1.0], [np.zeros((1, 3))] * 2)


class TestSnapshotOnlyFallback:
    """A reloaded trajectory carries no step arrays: the mass and sup-norm
    diagnostics use the masses and sup-norms of its snapshots."""

    grid = StructuredGrid([np.array([0.25, 0.5, 0.25])])
    times = np.linspace(0.0, 4.0, 9)
    states = np.random.default_rng(9).uniform(0.0, 2.0, size=(9, 2, 3))

    def test_mass_budget(self):
        system = system_from_expressions(["0*u1", "0*u2"], mass_weights=[1.0, 2.0],
                                         mass_constants=(0.5, 0.25))
        traj = snapshot_trajectory(self.grid, self.times, self.states)
        times, residual = mass_budget(traj, system)
        masses = np.array([[field @ self.grid.cell_volumes for field in snap]
                           for snap in self.states])
        weighted = masses @ [1.0, 2.0]
        integrand = 0.5 * masses.sum(axis=1) + 0.25 * self.grid.domain_volume
        accum = [np.trapezoid(integrand[:k + 1], self.times[:k + 1]) for k in range(9)]
        assert np.array_equal(times, self.times)
        assert np.allclose(residual, weighted - weighted[0] - accum, rtol=0, atol=1e-13)

    def test_windowed_sup(self):
        traj = snapshot_trajectory(self.grid, self.times, self.states)
        result = windowed_sup(traj, window=2.0)
        sups = self.states.max(axis=2)
        expected = [sups[(self.times > tau) & (self.times <= tau + 2.0)].max(axis=0)
                    for tau in (0.0, 1.0, 2.0)]
        assert np.array_equal(result["anchors"], [0.0, 1.0, 2.0])
        assert np.array_equal(result["values"], np.transpose(expected))


class TestNormSeries:
    def test_constant_state_constant_series(self):
        grid = StructuredGrid.uniform([(0.0, 1.0)], [8])
        state = np.vstack([np.full(8, 2.0), np.full(8, 3.0)])
        traj = snapshot_trajectory(grid, [0.0, 1.0, 2.0], [state] * 3)
        series = norm_series(traj, [1, 2])
        for p, table in series["norms"].items():
            assert np.allclose(table, table[:, :1])
        assert np.allclose(series["norms"][1][0], 2.0)
        assert np.allclose(series["norms"][np.inf][1], 3.0)

    def test_sup_norm_included_and_matches_scan(self):
        rng = np.random.default_rng(0)
        grid = StructuredGrid.uniform([(0.0, 1.0)], [16])
        states = [rng.uniform(0, 1, size=(2, 16)) for _ in range(3)]
        traj = snapshot_trajectory(grid, [0.0, 0.5, 1.0], states)
        series = norm_series(traj, [1])
        for k, state in enumerate(states):
            assert series["norms"][np.inf][0, k] == np.abs(state[0]).max()

    def test_tables_are_species_by_time(self):
        rng = np.random.default_rng(5)
        grid = StructuredGrid([rng.uniform(0.1, 1.0, 5), rng.uniform(0.1, 1.0, 3)])
        states = [rng.uniform(0, 2, size=(2, 15)) for _ in range(4)]
        traj = snapshot_trajectory(grid, [0.0, 0.5, 1.0, 2.0], states)
        series = norm_series(traj, [1, 3, 1])
        assert list(series["norms"]) == [1, 3, np.inf]
        for p, table in series["norms"].items():
            assert table.shape == (2, 4)
            for k, state in enumerate(states):
                for i in range(2):
                    assert table[i, k] == pytest.approx(discrete_norm(state[i], grid, p),
                                                        rel=1e-15)

    def test_dirichlet_decay_is_monotone(self):
        system = builtin_linear_decay(m=1, rate=0.0)
        fields = np.ones((1, 24))
        traj, _ = run_problem(system, fields, t_end=0.5, diffusion=5.0,
                              bc=Dirichlet(), record_dt=0.05)
        series = norm_series(traj, [1])
        sup = series["norms"][np.inf][0]
        assert np.all(np.diff(sup) <= 1e-14)


class TestEnergyTrace:
    def test_zero_trajectory(self):
        grid = StructuredGrid.uniform([(0.0, 1.0)], [8])
        traj = snapshot_trajectory(grid, [0.0, 1.0], [np.zeros((2, 8))] * 2)
        values = energy_trace(traj, [EnergySpec(4, np.ones(2))])
        assert values.shape == (1, 2)
        assert np.all(values == 0.0)

    def test_order_one_equals_l1_sum(self):
        rng = np.random.default_rng(1)
        grid = StructuredGrid.uniform([(0.0, 1.0)], [16])
        states = [rng.uniform(0, 2, size=(3, 16)) for _ in range(4)]
        traj = snapshot_trajectory(grid, [0.0, 0.3, 0.6, 1.0], states)
        values = energy_trace(traj, [EnergySpec(1, np.ones(3))])
        for k, state in enumerate(states):
            l1 = sum(discrete_norm(state[i], grid, 1) for i in range(3))
            assert values[0, k] == pytest.approx(l1, rel=1e-13)

    def test_linear_decay_fits_positive_rate(self, tmp_path):
        system = builtin_linear_decay(m=2, rate=1.0)
        rng = np.random.default_rng(2)
        fields = rng.uniform(0.5, 1.5, size=(2, 24))
        traj, _ = run_problem(system, fields, t_end=2.0, record_dt=0.1)
        specs = [EnergySpec(3, np.ones(2))]
        values = energy_trace(traj, specs)
        assert np.all(np.diff(values[0]) < 0)
        (record,) = _energy_records(traj, specs, tmp_path / "energy.csv", {})
        assert record["bounded_no_growth"]
        assert record["sup_value"] == record["initial_value"] == values[0, 0]

    def test_growth_flagged_unbounded(self, tmp_path):
        growth = system_from_expressions(
            ["u1"], mass_weights=[1.0], mass_constants=(1.0, 0.0),
            intermediate_order=1.0, growth_order=1.0, growth_constant=1.0,
        )
        fields = np.ones((1, 24))
        traj, _ = run_problem(growth, fields, t_end=2.0, record_dt=0.1)
        specs = [EnergySpec(2, np.ones(1))]
        (record,) = _energy_records(traj, specs, tmp_path / "energy.csv", {})
        assert not record["bounded_no_growth"]
        assert record["sup_value"] == energy_trace(traj, specs)[0, -1]


class TestWindowedSup:
    def test_constant_trajectory(self):
        grid = StructuredGrid.uniform([(0.0, 1.0)], [4])
        times = np.linspace(0, 10, 101)
        state = np.ones((1, 4))
        traj = Trajectory(grid=grid, times=times, states=[state] * 101,
                          step_times=times,
                          step_supnorms=np.ones((101, 1)),
                          step_masses=np.ones((101, 1)))
        result = windowed_sup(traj)
        assert np.allclose(result["values"], 1.0)
        assert all(result["no_growth"])

    def test_growth_detected(self):
        growth = system_from_expressions(
            ["u1"], mass_weights=[1.0], mass_constants=(1.0, 0.0),
            intermediate_order=1.0, growth_order=1.0, growth_constant=1.0,
        )
        fields = np.ones((1, 16))
        traj, _ = run_problem(growth, fields, t_end=6.0, dt=0.02, n=16)
        result = windowed_sup(traj)
        assert not result["no_growth"][0]

    def test_too_short_raises(self):
        grid = StructuredGrid.uniform([(0.0, 1.0)], [4])
        times = np.linspace(0, 1, 11)
        traj = Trajectory(grid=grid, times=times, states=[np.ones((1, 4))] * 11,
                          step_times=times, step_supnorms=np.ones((11, 1)))
        with pytest.raises(ValueError, match="shorter than one window"):
            windowed_sup(traj, window=2.0)

    def test_truncation_monotone(self):
        # dropping late records never increases earlier window values
        rng = np.random.default_rng(4)
        grid = StructuredGrid.uniform([(0.0, 1.0)], [4])
        times = np.linspace(0, 8, 161)
        sups = rng.uniform(0.5, 1.5, size=(161, 1))
        traj_full = Trajectory(grid=grid, times=times, states=[np.ones((1, 4))] * 161,
                               step_times=times, step_supnorms=sups)
        cut = 120
        traj_cut = Trajectory(grid=grid, times=times[:cut],
                              states=[np.ones((1, 4))] * cut,
                              step_times=times[:cut], step_supnorms=sups[:cut])
        full = windowed_sup(traj_full)
        part = windowed_sup(traj_cut)
        k = part["values"].shape[1]
        assert np.all(part["values"][:, :k] <= full["values"][:, :k] + 1e-15)


class TestMassBudget:
    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_pure_transport_conserves_at_every_resolution(self, n):
        system = builtin_linear_decay(m=2, rate=0.0)
        rng = np.random.default_rng(5)
        fields = rng.uniform(0.0, 1.0, size=(2, n))
        traj, problem = run_problem(system, fields, t_end=1.0, n=n)
        times, residual = mass_budget(traj, system)
        assert np.max(np.abs(residual)) < 1e-8

    def test_reversible_budget_tight(self):
        system = builtin_reversible_reaction()
        rng = np.random.default_rng(6)
        fields = rng.uniform(0.2, 1.0, size=(2, 24))
        traj, _ = run_problem(system, fields, t_end=1.0)
        _, residual = mass_budget(traj, system)
        assert np.max(np.abs(residual)) < 1e-8

    def test_dirichlet_outflow_nonpositive(self):
        system = builtin_linear_decay(m=1, rate=0.0)
        fields = np.ones((1, 24))
        traj, _ = run_problem(system, fields, t_end=0.5, bc=Dirichlet())
        _, residual = mass_budget(traj, system)
        assert np.all(residual <= 1e-12)
        assert residual[-1] < -1e-3  # mass genuinely leaves

    def test_budget_with_source_bound(self):
        # production exactly matches K2: residual stays near zero
        source = system_from_expressions(
            ["1 + 0*u1"], mass_weights=[1.0], mass_constants=(0.0, 1.0),
            intermediate_order=1.0, growth_order=1.0, growth_constant=2.0,
        )
        fields = np.zeros((1, 24))
        traj, _ = run_problem(source, fields, t_end=1.0, eps=1e-9)
        _, residual = mass_budget(traj, source)
        assert np.max(np.abs(residual)) < 1e-6


class TestNoGrowth:
    def test_flat(self):
        assert no_growth(np.ones(10))

    def test_decay(self):
        assert no_growth(np.exp(-np.linspace(0, 3, 20)))

    def test_growth(self):
        assert not no_growth(np.exp(np.linspace(0, 1, 20)))
