"""Host-pathogen scenario: assumptions, structure, budgets, decay."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rdasim.diagnostics import mass_budget
from rdasim.epidemic import (
    AssumptionViolation,
    EpiParams,
    EpiSteps,
    build_epi_coefficients,
    build_epi_system,
    conservation_residual,
    decay_report,
    s_infinity,
    validate_params,
)
from rdasim.grid import NoFluxWithDrift, StructuredGrid, discrete_norm
from rdasim.integrator import Problem, SimState, SolverConfig
from rdasim.reactions import check_quasi_positivity
from steprows import run_with_steps


def desk_params(grid=None, shedding=0.25, drift=0.05):
    """1D fixture: 10:1 diffusivity jump at the midpoint."""
    grid = grid or StructuredGrid.uniform([(0.0, 1.0)], [64])
    jump = np.where(grid.cell_centers[0] < 0.5, 0.1, 0.01)
    return EpiParams(
        grid=grid,
        diffusivities=np.stack([jump, jump, jump, jump]),
        contact_rate=np.ones(grid.ncells),
        uptake_rate=np.ones(grid.ncells),
        shedding=np.full(grid.ncells, shedding, dtype=float),
        drift=np.full((grid.dim, grid.ncells), drift),
        waning_rate=0.1,
        recovery_rate=0.2,
        mortality=0.3,
        pathogen_decay=0.5,
    )


def bump(grid, center=0.25, width=0.05, amplitude=1.0):
    x = grid.cell_centers[0]
    return amplitude * np.exp(-((x - center) ** 2) / (2 * width**2))


def desk_initial(grid, susceptible=0.3, seed_amplitude=1e-3):
    fields = np.zeros((4, grid.ncells))
    fields[0] = susceptible
    fields[1] = bump(grid, amplitude=seed_amplitude)
    return fields


def desk_run(t_end=5.0, dt=0.01, shedding=0.25, susceptible=0.3,
             seed_amplitude=1e-3, eps=1e-9, record_dt=None):
    params = desk_params(shedding=shedding)
    system, boundary = build_epi_system(params)
    coeff = build_epi_coefficients(params)
    problem = Problem(params.grid, system, coeff, boundary)
    initial = desk_initial(params.grid, susceptible, seed_amplitude)
    state = SimState(0.0, initial, eps)
    cfg = SolverConfig(dt=dt, t_end=t_end, record_dt=record_dt or t_end / 20)
    traj, steps = run_with_steps(state, cfg, problem)
    return traj, params, steps


def fold_steps(steps, params):
    """`EpiSteps` of a run's step rows, added as one block."""
    folded = EpiSteps(params)
    folded.add(steps.times, steps.masses)
    return folded


def s_infinity_of(steps, params):
    """`s_infinity` of a run's step rows."""
    return s_infinity(steps.times, steps.masses[:, 1], float(steps.masses[0, :3].sum()), params)


class TestValidateParams:
    def test_fixture_passes(self):
        assert validate_params(desk_params()) is None

    def test_shedding_at_mortality_is_boundary_case(self):
        params = desk_params(shedding=0.3)  # exactly the mortality rate
        assert validate_params(params) is None

    def test_shedding_above_mortality_fails(self):
        with pytest.raises(AssumptionViolation, match="shedding-bound"):
            validate_params(desk_params(shedding=0.6))

    def test_violation_carries_locations(self):
        grid = StructuredGrid.uniform([(0.0, 1.0)], [16])
        shed = np.zeros(16)
        shed[5] = 1.0
        try:
            validate_params(desk_params(grid=grid, shedding=shed))
        except AssumptionViolation as exc:
            cells = [v["cells"] for v in exc.violations
                     if v["assumption"] == "shedding-bound"]
            assert cells and 5 in cells[0]
        else:
            pytest.fail("expected a violation")

    def test_zero_diffusivity_fails(self):
        grid = StructuredGrid.uniform([(0.0, 1.0)], [8])
        d = np.ones(8)
        d[0] = 0.0
        params = EpiParams(
            grid=grid, diffusivities=np.stack([d, d, d, d]), contact_rate=np.ones(8),
            uptake_rate=np.ones(8), shedding=np.full(8, 0.1), drift=np.zeros((1, 8)),
            waning_rate=0.1, recovery_rate=0.2, mortality=0.3, pathogen_decay=0.5,
        )
        with pytest.raises(AssumptionViolation, match="diffusivity-lower-bound"):
            validate_params(params)

    @pytest.mark.parametrize("name, value, message", [
        ("contact_rate", 1.0, r"contact_rate has shape \(\), not \(64,\)"),
        ("diffusivities", np.ones((3, 64)), r"diffusivities has shape \(3, 64\), not \(4, 64\)"),
        ("drift", np.zeros(64), r"drift has shape \(64,\), not \(1, 64\)"),
        ("mortality", 0.0, "mortality must be positive, got 0.0"),
        ("waning_rate", np.nan, "waning_rate must be positive, got nan"),
    ], ids=["scalar-rate", "three-diffusivities", "flat-drift", "zero-rate", "nan-rate"])
    def test_shape_or_rate_fault_is_a_value_error(self, name, value, message):
        # checked before the assumptions, which read these fields cell by cell
        params = desk_params(shedding=0.6)
        setattr(params, name, value)
        with pytest.raises(ValueError, match=message):
            build_epi_system(params)

    def test_transmission_must_be_positive(self):
        params = desk_params()
        params.contact_rate = np.zeros(params.grid.ncells)
        with pytest.raises(AssumptionViolation, match="transmission-rate-bounds"):
            validate_params(params)


class TestBuildSystem:
    def test_reactions_on_susceptible_face(self):
        system, _ = build_epi_system(desk_params())
        x = desk_params().grid.cell_centers[:, :1]
        u = np.array([0.0, 0.4, 0.7, 0.2])
        f = system.evaluate(x, 0.0, u)
        # with no susceptibles, gains come only from waning immunity
        assert f[0] == pytest.approx(0.1 * 0.7)
        assert f[0] >= 0

    def test_host_sum_is_minus_mortality(self):
        params = desk_params()
        system, _ = build_epi_system(params)
        rng = np.random.default_rng(0)
        u = rng.uniform(0, 5, size=(4, 1000))
        x = params.grid.cell_centers[:, rng.integers(0, 64, 1000)]
        f = system.evaluate(x, 0.0, u)
        assert np.allclose(f[0] + f[1] + f[2], -0.3 * u[1], atol=1e-12)

    def test_telescoping_bounds_sampled(self):
        params = desk_params()
        system, _ = build_epi_system(params)
        rng = np.random.default_rng(1)
        u = rng.uniform(0, 10, size=(4, 10_000))
        x = params.grid.cell_centers[:, rng.integers(0, 64, 10_000)]
        f = system.evaluate(x, 0.0, u)
        gamma_r = params.waning_rate * u[2]
        assert np.all(f[0] <= gamma_r + 1e-12)
        assert np.all(f[0] + f[1] <= gamma_r + 1e-12)
        assert np.all(f[0] + f[1] + f[2] <= 1e-12)
        assert np.all(f.sum(axis=0) <= 1e-12)  # needs shedding <= mortality

    def test_quasi_positivity_checker_passes(self):
        system, _ = build_epi_system(desk_params())
        report = check_quasi_positivity(system, samples_per_radius=4000)
        assert report.passed

    def test_boundary_is_total_flux_zero(self):
        _, boundary = build_epi_system(desk_params())
        for mapping in boundary.conditions:
            assert all(isinstance(bc, NoFluxWithDrift) for bc in mapping.values())

    def test_coefficients_drift_only_on_pathogen(self):
        params = desk_params(drift=0.07)
        coeff = build_epi_coefficients(params)
        _, drift = coeff.at_time(0.0)
        assert np.allclose(drift[:3], 0.0)
        assert np.allclose(drift[3], 0.07)

    def test_spatial_rates_resolved_by_position(self):
        grid = StructuredGrid.uniform([(0.0, 1.0)], [16])
        shed = np.linspace(0.0, 0.2, 16)
        params = desk_params(grid=grid, shedding=shed)
        system, _ = build_epi_system(params)
        u = np.array([0.0, 1.0, 0.0, 0.0])
        left = system.evaluate(np.array([[0.03]]), 0.0, u)
        right = system.evaluate(np.array([[0.97]]), 0.0, u)
        assert left[3] == pytest.approx(shed[0] - 0.0)
        assert right[3] == pytest.approx(shed[15])


def explicit_reactions(u, sigma_i, sigma_b, phi, gamma_w, lam, alpha, delta_b):
    """The scenario's reactions written out one compartment at a time."""
    s, i, r, b = u
    return np.array([
        -sigma_i * s * i - sigma_b * s * b + gamma_w * r,
        sigma_i * s * i + sigma_b * s * b - (lam + alpha) * i,
        lam * i - gamma_w * r,
        phi * i - delta_b * b,
    ])


def explicit_magnitudes(u, sigma_i, sigma_b, phi, gamma_w, lam, alpha, delta_b):
    """Per-compartment sums of the absolute values of the terms above."""
    s, i, r, b = u
    infection = sigma_i * s * i + sigma_b * s * b
    return np.array([infection + gamma_w * r, infection + (lam + alpha) * i,
                     lam * i + gamma_w * r, phi * i + delta_b * b])


STATE_MAX = 1e3
rates = st.floats(1e-3, 10.0)
states = st.floats(0.0, STATE_MAX)


def ulps(scale):
    """A few ulp of the term magnitudes.

    A product that underflows to a subnormal is rounded to an absolute
    spacing, which a later factor of at most STATE_MAX can scale up.
    """
    return 8 * (np.finfo(float).eps * scale + STATE_MAX * np.finfo(float).smallest_subnormal)


class TestMatrixFormEvaluator:
    CELLS = 8

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), gamma_w=rates, lam=rates, alpha=rates, delta_b=rates,
           uniform=st.booleans())
    def test_matches_explicit_formulas(self, data, gamma_w, lam, alpha, delta_b, uniform):
        grid = StructuredGrid.uniform([(0.0, 1.0)], [self.CELLS])
        shape = () if uniform else (self.CELLS,)
        sigma_i, sigma_b = (data.draw(arrays(float, shape, elements=rates)) for _ in range(2))
        phi = data.draw(arrays(float, shape, elements=st.floats(0.0, alpha)))
        # a uniform rate is the same value in every cell
        sigma_i, sigma_b, phi = (np.broadcast_to(r, self.CELLS) for r in (sigma_i, sigma_b, phi))
        params = EpiParams(grid=grid, diffusivities=np.full((4, self.CELLS), 0.1),
                           contact_rate=sigma_i, uptake_rate=sigma_b, shedding=phi,
                           drift=np.zeros((1, self.CELLS)), waning_rate=gamma_w,
                           recovery_rate=lam, mortality=alpha, pathogen_decay=delta_b)
        system, _ = build_epi_system(params)
        rates_per_cell = (params.contact_rate, params.uptake_rate, params.shedding)
        scalars = (gamma_w, lam, alpha, delta_b)
        u = data.draw(arrays(float, (4, self.CELLS), elements=states))
        cases = [(grid.cell_centers, u, rates_per_cell),
                 (grid.cell_centers[:, [5]], u[:, 5], [r[5] for r in rates_per_cell]),
                 (grid.cell_centers[:, ::-1], u, [r[::-1] for r in rates_per_cell])]
        if uniform:
            cases.append((None, u, [r[0] for r in rates_per_cell]))
            cases.append((None, u[:, 2], [r[0] for r in rates_per_cell]))
        for x, state, (si, sb, sh) in cases:
            f = system.evaluate(x, 0.0, state)
            assert f.shape == state.shape
            terms = (si, sb, sh, *scalars)
            expected = explicit_reactions(state, *terms)
            scale = explicit_magnitudes(state, *terms)
            assert np.all(np.abs(f - expected) <= ulps(scale))
            # the host compartments lose exactly the mortality outflow
            host = f[0] + f[1] + f[2]
            assert np.all(np.abs(host + alpha * state[1]) <= ulps(scale[:3].sum(axis=0)))


class TestConservation:
    def test_no_infection_residual_tiny(self):
        _, params, steps = desk_run(t_end=2.0, seed_amplitude=0.0)
        residual, _ = conservation_residual(steps.times, steps.masses, params)
        assert np.max(np.abs(residual)) < 1e-10

    def test_epidemic_residual_small(self):
        _, params, steps = desk_run(t_end=5.0, dt=0.005)
        residual, _ = conservation_residual(steps.times, steps.masses, params)
        host0 = float(steps.masses[0, :3].sum())
        assert np.max(np.abs(residual)) < 1e-6 * host0

    def test_matches_weighted_budget_specialization(self):
        # the host budget equals the weighted-mass budget with host-only
        # weights plus the mortality integral, computed independently here
        _, params, steps = desk_run(t_end=2.0)
        residual, _ = conservation_residual(steps.times, steps.masses, params)

        class HostWeights:
            mass_weights = np.array([1.0, 1.0, 1.0, 0.0])
            mass_constants = (0.0, 0.0)

        budget, _ = mass_budget(steps.times, steps.masses, HostWeights(),
                                params.grid.domain_volume)
        infected = steps.masses[:, 1]
        dt = np.diff(steps.times)
        cum = np.concatenate([[0.0],
                              np.cumsum(0.5 * dt * (infected[1:] + infected[:-1]))])
        assert np.allclose(residual, budget + params.mortality * cum, atol=1e-12)

    def test_alpha_zero_limit_is_conservative(self):
        # mortality cannot be zero by construction; shrink it instead and
        # watch the host mass drift scale down with it
        drifts = []
        for mortality in (0.3, 0.03):
            params = desk_params(shedding=0.8 * mortality)
            params.mortality = mortality
            system, boundary = build_epi_system(params)
            coeff = build_epi_coefficients(params)
            problem = Problem(params.grid, system, coeff, boundary)
            initial = desk_initial(params.grid, 0.3, 1e-2)
            _, steps = run_with_steps(SimState(0.0, initial, 1e-9),
                                      SolverConfig(dt=0.01, t_end=2.0, record_dt=0.5), problem)
            host = steps.masses[:, :3].sum(axis=1)
            drifts.append(abs(host[-1] - host[0]))
        assert drifts[1] < 0.2 * drifts[0]


class TestAsymptotics:
    def test_no_infection_s_stationary(self):
        _, params, steps = desk_run(t_end=2.0, seed_amplitude=0.0)
        est = s_infinity_of(steps, params)
        s_mass = steps.masses[:, 0]
        assert est["estimate"] == pytest.approx(s_mass[0], rel=1e-12)
        assert abs(s_mass[-1] - est["estimate"]) < 1e-10
        assert not est["fit_ok"]  # nothing decays, nothing to fit

    def test_estimate_close_to_final_s(self):
        _, params, steps = desk_run(t_end=60.0, dt=0.02)
        est = s_infinity_of(steps, params)
        assert est["fit_ok"]
        s_final = float(steps.masses[-1, 0])
        assert abs(s_final - est["estimate"]) <= 1e-2 * est["estimate"]

    def test_pathogen_decays_exponentially_without_shedding(self):
        # zero shedding decouples the pathogen: its mass follows exp(-decay t)
        params = desk_params(shedding=1e-300)
        system, boundary = build_epi_system(params)
        coeff = build_epi_coefficients(params)
        problem = Problem(params.grid, system, coeff, boundary)
        fields = np.zeros((4, 64))
        fields[0] = 0.3
        fields[3] = bump(params.grid, amplitude=1.0)
        _, steps = run_with_steps(SimState(0.0, fields, 1e-9),
                                  SolverConfig(dt=0.005, t_end=4.0, record_dt=1.0), problem)
        b_mass = steps.masses[:, 3]
        expected = b_mass[0] * np.exp(-params.pathogen_decay * steps.times)
        late = steps.times > 0.5
        assert np.max(np.abs(b_mass[late] / expected[late] - 1.0)) < 0.05

    def test_decay_report_epidemic(self):
        traj, params, steps = desk_run(t_end=90.0, dt=0.02, susceptible=0.2)
        report = decay_report(traj, fold_steps(steps, params))
        for name in ("infected", "recovered", "pathogen"):
            assert report["decayed"][name], f"{name} did not decay"
            assert report["final_fractions"][name] <= 0.01
        for p in (1.0, 2.0, 4.0):
            # (ntimes, 3) snapshot norms of the infected, recovered and pathogen fields
            series = discrete_norm(traj.states[:, 1:], traj.grid, p)
            assert np.all(series[-1] <= 0.05 * series.max(axis=0) + 1e-12), p
        assert report["s_fluctuation_final"] < 1e-3
        assert report["conservation_max_abs"] < 1e-6

    def test_zero_infection_report(self):
        traj, params, steps = desk_run(t_end=3.0, seed_amplitude=0.0)
        report = decay_report(traj, fold_steps(steps, params))
        # infected and recovered masses stay zero on every step
        assert np.allclose(steps.masses[:, 1:3], 0.0, atol=1e-12)
        assert all(report["decayed"].values())


def s_infinity_reference(times, infected, host0, params):
    """`s_infinity` as one pass over the whole dense series computes it."""
    total_infected = float(np.trapezoid(infected, times))
    estimate = host0 - params.mortality * total_infected
    start = int(len(times) * 0.5)
    tail_t, tail_i = times[start:], infected[start:]
    good = tail_i > 0
    decay_time, fit_ok = float("inf"), False
    if good.sum() >= 3:
        coeffs = np.polyfit(tail_t[good], np.log(tail_i[good]), 1)
        if coeffs[0] < 0:
            decay_time, fit_ok = float(-1.0 / coeffs[0]), True
    tail_bound = params.mortality * float(infected[-1]) * decay_time
    return estimate, tail_bound, decay_time, fit_ok


class TestSInfinity:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 60))
    def test_equals_the_reference_bit_for_bit(self, data, n):
        # rising times, and infected masses that decay, hold or touch zero
        steps = data.draw(arrays(np.float64, n, elements=st.floats(1e-3, 1.0)))
        times = np.cumsum(steps)
        infected = data.draw(arrays(np.float64, n, elements=st.sampled_from([0.0, 1e-300])
                                    | st.floats(0.0, 1.0)))
        params = SimpleNamespace(mortality=data.draw(st.floats(0.01, 1.0)))
        est = s_infinity(times, infected, 0.3, params)
        # repr tells -0.0 from 0.0 and writes every NaN alike
        assert repr((est["estimate"], est["tail_bound"], est["decay_time"], est["fit_ok"])) == \
            repr(s_infinity_reference(times, infected, 0.3, params))


class TestHorizonConsistency:
    def test_doubling_horizon_moves_estimate_within_tail_bound(self):
        _, params, short = desk_run(t_end=60.0, dt=0.02, susceptible=0.2)
        _, _, long = desk_run(t_end=120.0, dt=0.02, susceptible=0.2)
        est_short = s_infinity_of(short, params)
        est_long = s_infinity_of(long, params)
        assert est_short["fit_ok"]
        assert abs(est_long["estimate"] - est_short["estimate"]) <= est_short["tail_bound"]
