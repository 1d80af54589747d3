"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass line (visible with `pytest -s`); a failed
assertion is the fail line.  Expensive trajectories are computed once per
module and shared.  Criterion 8 (positivity, no clamping) is asserted
over every trajectory produced here, on top of the hard guard built into
the stepper itself.
"""

import time

import numpy as np
import pytest

from rdasim.diagnostics import energy_trace, mass_budget, no_growth, windowed_sup
from rdasim.energy import (
    EnergySpec,
    assemble_coupling_matrix,
    energy_density,
    energy_time_derivative,
    ibp_identity_sides,
    min_eigenvalue,
    select_weights,
)
from rdasim.epidemic import (
    EpiParams,
    EpiSteps,
    build_epi_coefficients,
    build_epi_system,
    decay_report,
)
from rdasim.grid import (
    BoundarySpec,
    CoefficientField,
    Dirichlet,
    NoFluxWithDrift,
    StructuredGrid,
    assemble_transport,
    discrete_norm,
    face_diffusivities,
)
from rdasim.integrator import (
    Problem,
    SimState,
    SolverConfig,
    epsilon_refinement_study,
    run,
)
from rdasim.reactions import builtin_reversible_reaction, truncate
from steprows import run_with_steps

TRAJECTORIES = {}


def passed(number, message):
    print(f"criterion {number:2d} PASS: {message}")


def desk_epi_params(grid):
    """1D desk scenario: 10:1 diffusivity jump at the midpoint."""
    jump = np.where(grid.cell_centers[0] < 0.5, 0.1, 0.01)
    return EpiParams(
        grid=grid,
        diffusivities=[jump, jump, jump, jump],
        contact_rate=1.0,
        uptake_rate=1.0,
        shedding=0.25,
        waning_rate=0.1,
        recovery_rate=0.2,
        mortality=0.3,
        pathogen_decay=0.5,
        drift=0.05,
    )


def seed_bump(x, amplitude, center=0.25, width=0.05):
    return amplitude * np.exp(-((x - center) ** 2) / (2 * width**2))


@pytest.fixture(scope="module")
def desk_epi_run():
    grid = StructuredGrid.uniform([(0.0, 1.0)], [64])
    params = desk_epi_params(grid)
    system, boundary = build_epi_system(params)
    coeff = build_epi_coefficients(params)
    problem = Problem(grid, system, coeff, boundary)
    fields = np.zeros((4, 64))
    fields[0] = 0.3
    fields[1] = seed_bump(grid.cell_centers[0], 1e-3)
    cfg = SolverConfig(dt=0.005, t_end=200.0, record_dt=1.0)
    # the step rows are folded as the CLI folds them, a block at a time
    steps = EpiSteps(params)
    traj = run(SimState(0.0, fields, 1e-9), cfg, problem,
               on_steps=lambda rows: steps.add(rows[:, 0], rows[:, 1:5]))
    TRAJECTORIES["desk_epi"] = traj
    return traj, params, steps


@pytest.fixture(scope="module")
def reversible_run():
    system = builtin_reversible_reaction()
    grid = StructuredGrid.uniform([(0.0, 1.0)], [32])
    jump = np.where(grid.cell_centers[0] < 0.5, 0.1, 0.01)
    coeff = CoefficientField(grid, np.stack([jump[None, :], jump[None, :]]))
    boundary = BoundarySpec.uniform(2, 1, NoFluxWithDrift())
    problem = Problem(grid, system, coeff, boundary)
    x = grid.cell_centers[0]
    fields = np.vstack([1.0 + 0.5 * np.cos(2 * np.pi * x),
                        0.7 + 0.3 * np.sin(2 * np.pi * x)])
    weights, bound_constant = select_weights(
        system, face_diffusivities(grid, coeff), 4, samples_per_radius=2000
    )
    cfg = SolverConfig(dt=0.01, t_end=40.0, record_dt=0.2)
    traj, steps = run_with_steps(SimState(0.0, fields, 1e-6), cfg, problem)
    TRAJECTORIES["reversible"] = traj
    return traj, system, weights, bound_constant, steps


def test_criterion_1_multinomial_reduction():
    started = time.perf_counter()
    rng = np.random.default_rng(100)
    for _ in range(1000):
        m = int(rng.integers(1, 6))
        p = int(rng.integers(1, 9))
        u = rng.uniform(0.0, 5.0, size=m)
        spec = EnergySpec(p, np.ones(m))
        expected = np.sum(u) ** p
        assert energy_density(u, spec) == pytest.approx(expected, rel=1e-12, abs=1e-300)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    passed(1, f"unit-weight density equals (sum u)^p to 1e-12 over 1000 draws "
              f"({elapsed:.2f}s)")


def test_criterion_2_time_derivative_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(1000):
        m = int(rng.integers(1, 6))
        p = int(rng.integers(2, 7))
        spec = EnergySpec(p, rng.uniform(0.5, 2.0, m))
        u = rng.uniform(0.2, 2.0, m)
        du = rng.uniform(-1.0, 1.0, m)
        analytic = energy_time_derivative(u, du, spec)
        h = 1e-5
        numeric = (energy_density(u + h * du, spec)
                   - energy_density(u - h * du, spec)) / (2 * h)
        assert analytic == pytest.approx(numeric, rel=1e-6, abs=1e-8)
    # closed form at unit weights, exact to 1e-12
    for _ in range(200):
        m = int(rng.integers(1, 6))
        p = int(rng.integers(2, 9))
        u = rng.uniform(0.1, 2.0, m)
        du = rng.uniform(-1.0, 1.0, m)
        spec = EnergySpec(p, np.ones(m))
        expected = p * np.sum(u) ** (p - 1) * np.sum(du)
        assert energy_time_derivative(u, du, spec) == pytest.approx(expected, rel=1e-12)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    passed(2, f"chain-rule expansion matches finite differences (1e-6) and the "
              f"unit-weight closed form (1e-12) ({elapsed:.2f}s)")


def test_criterion_3_gradient_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(102)
    for _ in range(1000):
        m = int(rng.integers(1, 5))
        p = int(rng.integers(2, 7))
        n = int(rng.integers(1, 4))
        spec = EnergySpec(p, rng.uniform(0.5, 2.0, m))
        u = rng.uniform(0.2, 2.0, m)
        grads = rng.standard_normal((m, n))
        mats = []
        for _ in range(m):
            a = rng.standard_normal((n, n))
            mats.append(a @ a.T + n * np.eye(n))
        lhs, rhs = ibp_identity_sides(u, grads, mats, spec)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    passed(3, f"integration-by-parts identity holds to 1e-10 over 1000 instances "
              f"({elapsed:.2f}s)")


def test_criterion_4_positive_definiteness_gate():
    started = time.perf_counter()
    for t in (0.5, 0.99, 1.01, 2.0):
        block = assemble_coupling_matrix([np.eye(2), np.eye(2)], (t, t))
        lam = min_eigenvalue(block)
        assert lam == pytest.approx(t**2 - 1.0, abs=1e-10)
        assert (lam > 0) == (t > 1.0)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    passed(4, f"coupling-matrix eigenvalues match t^2 +/- 1 and flip sign at t=1 "
              f"({elapsed:.2f}s)")


def test_criterion_5_truncation_bound():
    started = time.perf_counter()
    rng = np.random.default_rng(103)
    for eps in (1.0, 1e-2, 1e-4):
        f = rng.uniform(-1e6, 1e6, size=(5, 10_000))
        out = truncate(f, eps)
        assert np.max(np.abs(out)) <= 1.0 / eps * (1 + 1e-12)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    passed(5, f"regularized reactions bounded by 1/eps on 10^4 draws for "
              f"eps in {{1, 1e-2, 1e-4}} ({elapsed:.2f}s)")


def test_criterion_6_interface_exactness():
    started = time.perf_counter()
    n = 64
    grid = StructuredGrid.uniform([(0.0, 1.0)], [n])
    d = np.where(grid.cell_centers[0] < 0.5, 1.0, 10.0)
    coeff = CoefficientField(grid, d[None, None, :])
    boundary = BoundarySpec.uniform(1, 1, Dirichlet())
    a = assemble_transport(grid, coeff, boundary).toarray()
    h = 1.0 / n
    rhs = np.zeros(n)
    rhs[0] = 2.0 * d[0] / h**2  # ghost-mirror lift imposing value 1 at x=0
    u = np.linalg.solve(a, rhs)
    flux = 1.0 / (0.5 / 1.0 + 0.5 / 10.0)
    x = grid.cell_centers[0]
    exact = np.where(x < 0.5, 1.0 - flux * x, (1.0 - x) * flux / 10.0)
    err = np.max(np.abs(u - exact))
    assert err < 1e-10
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    passed(6, f"two-material steady state exact at cell centers "
              f"(max error {err:.2e}, {elapsed:.2f}s)")


def test_criterion_7_discrete_mass_budget():
    started = time.perf_counter()
    # pure transport, total-flux-zero walls, 128 cells over unit time
    grid = StructuredGrid.uniform([(0.0, 1.0)], [128])
    from rdasim.reactions import ReactionSystem

    inert = ReactionSystem(
        m=1, evaluate=lambda x, t, u: np.zeros_like(np.asarray(u, dtype=float)),
        mass_weights=np.ones(1), mass_constants=(0.0, 0.0), sum_matrix=np.eye(1),
        intermediate_order=1.0, growth_order=1.0, growth_constant=1.0,
    )
    coeff = CoefficientField.constant(grid, [0.3], [0.4])
    boundary = BoundarySpec.uniform(1, 1, NoFluxWithDrift())
    problem = Problem(grid, inert, coeff, boundary)
    rng = np.random.default_rng(104)
    fields = rng.uniform(0.0, 2.0, size=(1, 128))
    traj, steps = run_with_steps(SimState(0.0, fields, 1e-6),
                                 SolverConfig(dt=0.01, t_end=1.0), problem)
    TRAJECTORIES["inert_transport"] = traj
    mass = steps.masses[:, 0]
    drift = np.max(np.abs(mass - mass[0]))
    assert drift <= 1e-8

    # reversible reactions conserve the weighted mass exactly
    system = builtin_reversible_reaction()
    coeff2 = CoefficientField.constant(grid, [0.05, 0.08])
    problem2 = Problem(grid, system, coeff2,
                       BoundarySpec.uniform(2, 1, NoFluxWithDrift()))
    fields2 = rng.uniform(0.2, 1.5, size=(2, 128))
    traj2, steps2 = run_with_steps(SimState(0.0, fields2, 1e-4),
                                   SolverConfig(dt=0.01, t_end=1.0), problem2)
    TRAJECTORIES["reversible_budget"] = traj2
    weighted = steps2.masses @ system.mass_weights
    drift2 = np.max(np.abs(weighted - weighted[0]))
    assert drift2 <= 1e-8
    residual, _ = mass_budget(steps2.times, steps2.masses, system, grid.domain_volume)
    assert np.max(np.abs(residual)) <= 1e-8
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    passed(7, f"transport drift {drift:.2e}, reversible weighted-mass drift "
              f"{drift2:.2e} (both <= 1e-8, {elapsed:.2f}s)")


def test_criterion_9_energy_boundedness(reversible_run):
    started = time.perf_counter()
    traj, system, weights, bound_constant, steps = reversible_run
    assert np.isfinite(bound_constant)
    (values,) = energy_trace(traj, [EnergySpec(4, weights)])
    assert no_growth(values[values.size // 2:])
    sup = float(np.max(values))
    windows = windowed_sup(steps.times, steps.supnorms, window=2.0, tol=0.05)
    assert all(windows["no_growth"])
    elapsed = time.perf_counter() - started
    passed(9, f"sup L4 = {sup:.4g} (L4(0) = {values[0]:.4g}), bounded over its latter "
              f"half; windowed sup-norms show no growth over T=40 ({elapsed:.2f}s)")


def test_criterion_10_desk_epidemic(desk_epi_run):
    started = time.perf_counter()
    traj, params, steps = desk_epi_run
    host0 = steps.host0

    res_max = float(steps.conservation_max_abs)
    assert res_max <= 1e-6 * host0

    report = decay_report(traj, steps)
    for name in ("infected", "recovered", "pathogen"):
        assert report.final_fractions[name] <= 0.01, name

    est = steps.s_infinity()
    s_final = float(steps.final[0])
    assert abs(s_final - est.estimate) <= 1e-2 * est.estimate
    elapsed = time.perf_counter() - started
    passed(10, f"conservation residual {res_max:.2e} <= 1e-6*mass, final "
               f"infected/recovered/pathogen fractions "
               f"{max(report.final_fractions.values()):.2e} <= 1%, "
               f"|s(T) - s_inf| = {abs(s_final - est.estimate):.2e} "
               f"<= 1% of {est.estimate:.4f} ({elapsed:.2f}s)")


def test_criterion_11_epsilon_robustness():
    started = time.perf_counter()
    grid = StructuredGrid.uniform([(0.0, 1.0)], [64])
    params = desk_epi_params(grid)
    system, boundary = build_epi_system(params)
    coeff = build_epi_coefficients(params)
    problem = Problem(grid, system, coeff, boundary)
    fields = np.zeros((4, 64))
    fields[0] = 1.0
    fields[1] = seed_bump(grid.cell_centers[0], 0.05)
    cfg = SolverConfig(dt=0.01, t_end=20.0, record_dt=0.5)
    report = epsilon_refinement_study(problem, fields, [1e-2, 1e-3, 1e-4], cfg)
    d12, d23 = report["pair_distances"]
    assert report["monotone_shrinking"]
    assert d23 <= 0.2 * d12
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    passed(11, f"pairwise trajectory distances {d12:.3e} -> {d23:.3e} "
               f"(ratio {d23 / d12:.3f} <= 0.2, {elapsed:.2f}s)")


def test_criterion_12_manufactured_convergence():
    started = time.perf_counter()
    from rdasim.reactions import ReactionSystem

    inert = ReactionSystem(
        m=1, evaluate=lambda x, t, u: np.zeros_like(np.asarray(u, dtype=float)),
        mass_weights=np.ones(1), mass_constants=(0.0, 0.0), sum_matrix=np.eye(1),
        intermediate_order=1.0, growth_order=1.0, growth_constant=1.0,
    )
    errors = []
    for n in (16, 32, 64):
        grid = StructuredGrid.uniform([(0.0, 1.0)], [n])
        coeff = CoefficientField.constant(grid, [1.0])
        boundary = BoundarySpec.uniform(1, 1, Dirichlet())
        problem = Problem(grid, inert, coeff, boundary)
        x = grid.cell_centers[0]
        h = 1.0 / n
        t_end = 0.1
        cfg = SolverConfig(dt=0.25 * h * h, t_end=t_end, record_dt=t_end)
        traj = run(SimState(0.0, np.sin(np.pi * x)[None, :], 1.0),
                   cfg, problem)
        TRAJECTORIES[f"heat_{n}"] = traj
        exact = np.exp(-np.pi**2 * t_end) * np.sin(np.pi * x)
        errors.append(discrete_norm(traj.states[-1][0] - exact, grid, 2))
    orders = [float(np.log2(errors[k] / errors[k + 1])) for k in range(2)]
    assert min(orders) >= 1.8
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    passed(12, f"observed spatial orders {orders[0]:.2f}, {orders[1]:.2f} >= 1.8 "
               f"({elapsed:.2f}s)")


def test_criterion_8_positivity_everywhere(desk_epi_run, reversible_run):
    # runs last over every trajectory the suite produced; the stepper
    # additionally hard-fails any state below the tolerance, and there is
    # no clamping path anywhere (halvings are the only remedy)
    assert TRAJECTORIES, "no trajectories collected"
    worst = min(traj.min_value for traj in TRAJECTORIES.values())
    assert worst >= -1e-12
    halvings = {name: traj.halvings_total for name, traj in TRAJECTORIES.items()}
    passed(8, f"minimum over {len(TRAJECTORIES)} trajectories and all steps is "
              f"{worst:.2e} >= -1e-12 with no clamping (halvings: {halvings})")
