"""IMEX time stepping for the regularized reaction-transport system.

Each step treats transport implicitly (backward Euler on the assembled
diffusion + advection operator, unconditionally stable and positivity
preserving for M-matrices) and the bounded reaction explicitly at the old
state:

    (I/dt + A_i) u_i_new = u_i_old / dt + truncate(F(u_old), eps)_i.

If any cell of the solution dips below the positivity tolerance the step
is retried with a halved dt; states are never clamped, so the discrete
mass budget stays exact up to linear-solver residuals.

The systems I/dt + A_i are cached per dt for each coefficient epoch.  On
1D grids the per-species systems are stacked into one block-diagonal
matrix, factorized once by sparse LU and reused for every step at that
dt; on 2D grids each species is solved by Jacobi-preconditioned BiCGStab,
warm-started from the old state.  A non-finite reaction stops the step
with NonFiniteError.  `run` writes the reduced summaries of each accepted
step (time, masses, sup-norms, minimum, cumulative reaction, dt,
halvings, linear iterations) as one row of a preallocated float array
rather than as per-step Python objects.  Checkpoints serialize a state
as a flat little-endian binary record; loading checks its size.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, bicgstab, splu

from .diagnostics import Trajectory
from .grid import (
    BoundarySpec,
    CoefficientField,
    StructuredGrid,
    assemble_advection,
    assemble_diffusion,
)
from .reactions import ReactionSystem, TruncationParam, truncate

__all__ = [
    "SimState",
    "SolverConfig",
    "StepReport",
    "Problem",
    "TransportOperators",
    "SolverError",
    "PositivityError",
    "LinearSolveError",
    "NonFiniteError",
    "linear_solve",
    "step",
    "run",
    "epsilon_refinement_study",
    "dump_state",
    "load_state",
]

_STATE_TOL = 1e-12


class SolverError(RuntimeError):
    """Base class for time-stepping failures."""


class PositivityError(SolverError):
    """A state left the non-negative orthant beyond tolerance."""


class LinearSolveError(SolverError):
    """The linear solver did not reach the requested residual."""


class NonFiniteError(SolverError):
    """The reaction evaluated to inf or NaN."""


@dataclass
class SimState:
    """Species fields at one time level, with the truncation strength."""

    t: float
    fields: np.ndarray  # (m, ncells)
    eps: TruncationParam

    def __post_init__(self):
        self.fields = np.asarray(self.fields, dtype=float)
        if self.fields.ndim != 2:
            raise ValueError(f"fields must be (m, ncells), got shape {self.fields.shape}")
        low = float(self.fields.min(initial=0.0))
        if low < -_STATE_TOL:
            raise PositivityError(f"state has component {low} below -{_STATE_TOL}")

    @property
    def m(self) -> int:
        return self.fields.shape[0]


@dataclass
class SolverConfig:
    dt: float
    t_end: float
    linear_tol: float = 1e-10
    max_linear_iter: int = 500
    positivity_tol: float = 1e-12
    max_halvings: int = 20
    record_dt: float | None = None  # None records every accepted step

    def __post_init__(self):
        if self.dt <= 0 or self.t_end <= 0:
            raise ValueError("dt and t_end must be positive")
        if self.linear_tol <= 0 or self.positivity_tol <= 0:
            raise ValueError("tolerances must be positive")


@dataclass
class StepReport:
    dt: float
    linear_iterations: int
    halvings: int
    min_value: float
    reaction_mass: np.ndarray | None = None  # per-species volume integral of it


@dataclass
class Problem:
    """Grid, physics and boundary data for one simulation."""

    grid: StructuredGrid
    system: ReactionSystem
    coefficients: CoefficientField
    boundary: BoundarySpec

    def __post_init__(self):
        if self.coefficients.m != self.system.m:
            raise ValueError("coefficient field and system disagree on species count")
        if len(self.boundary.conditions) != self.system.m:
            raise ValueError("boundary spec and system disagree on species count")


def linear_solve(a, b, tol: float = 1e-10, max_iter: int = 500,
                 x0=None) -> tuple[np.ndarray, int]:
    """Solve a sparse system to a relative residual by Jacobi-preconditioned BiCGStab.

    Returns (x, iterations).  Raises LinearSolveError with the final
    residual when BiCGStab breaks down, runs out of iterations, or leaves a
    true residual above `tol` times the norm of b.
    """
    a = sp.csr_matrix(a)
    b = np.asarray(b, dtype=float).ravel()
    bnorm = np.linalg.norm(b)
    scale = bnorm or 1.0
    diag = a.diagonal()
    inv_diag = 1.0 / np.where(diag == 0.0, 1.0, diag)
    preconditioner_calls = 0

    def jacobi(v):
        nonlocal preconditioner_calls
        preconditioner_calls += 1
        return v * inv_diag

    # scipy's breakdown test |rho| < eps**2 is absolute and rho scales with
    # |b|**2, so solve for x / |b| to make it relative
    x, info = bicgstab(
        a, b / scale, x0=None if x0 is None else np.asarray(x0, dtype=float) / scale,
        rtol=tol, atol=0.0, maxiter=max_iter,
        M=LinearOperator(a.shape, matvec=jacobi, dtype=float),
    )
    x = x * scale
    # a full iteration applies the preconditioner twice; one that converges
    # at its half step applies it once
    iterations = (preconditioner_calls + 1) // 2
    res = np.linalg.norm(b - a @ x)
    if info != 0 or res > tol * bnorm:
        raise LinearSolveError(
            f"BiCGStab stopped at relative residual {res / bnorm:.3e} "
            f"(target {tol:.3e}, status {info}) after {iterations} iterations"
        )
    return x, iterations


class TransportOperators:
    """Assembled per-species transport operators for one coefficient epoch.

    Caches the system I/dt + A_i per dt value.  In 1D that is one sparse LU
    factorization of the block-diagonal species system, so a step is a
    single pair of triangular solves.  In 2D it is the per-species CSR
    matrices, each solved by `linear_solve`: a direct 2D factorization
    needs more memory than the iterative solve.
    """

    def __init__(self, problem: Problem, t: float):
        self.problem = problem
        grid = problem.grid
        self.matrices = []
        for i in range(problem.system.m):
            a_diff = assemble_diffusion(grid, problem.coefficients, problem.boundary, i, t)
            a_adv = assemble_advection(grid, problem.coefficients, problem.boundary, i, t)
            self.matrices.append((a_diff + a_adv).tocsr())
        self._systems: dict[float, object] = {}

    def _system(self, dt: float):
        cached = self._systems.get(dt)
        if cached is None:
            n = self.problem.grid.ncells
            shifted = [(sp.identity(n) / dt + a).tocsr() for a in self.matrices]
            if self.problem.grid.dim == 1:
                cached = splu(sp.block_diag(shifted, format="csc"))
            else:
                cached = shifted
            self._systems[dt] = cached
        return cached

    def solve(self, dt: float, rhs: np.ndarray, cfg: SolverConfig,
              x0: np.ndarray | None = None) -> tuple[np.ndarray, int]:
        """Solve (I/dt + A_i) u_i = rhs_i for every species; returns (u, iterations)."""
        system = self._system(dt)
        if self.problem.grid.dim == 1:
            return system.solve(rhs.ravel()).reshape(rhs.shape), 0
        out = np.empty_like(rhs)
        iterations = 0
        for i, a in enumerate(system):
            guess = None if x0 is None else x0[i]
            out[i], it = linear_solve(a, rhs[i], cfg.linear_tol, cfg.max_linear_iter, x0=guess)
            iterations = max(iterations, it)
        return out, iterations


def step(state: SimState, cfg: SolverConfig, operators: TransportOperators,
         system: ReactionSystem, max_dt: float | None = None) -> tuple[SimState, StepReport]:
    """Advance one accepted IMEX step, halving dt until positivity holds."""
    grid = operators.problem.grid
    raw = np.asarray(system.evaluate(grid.cell_centers, state.t, state.fields), dtype=float)
    if not np.isfinite(raw).all():
        species, cell = np.argwhere(~np.isfinite(raw))[0]
        raise NonFiniteError(
            f"non-finite reaction {raw[species, cell]} for species {species + 1} "
            f"in cell {cell} at t={state.t:.6g}"
        )
    reaction = truncate(raw, state.eps)
    dt = cfg.dt if max_dt is None else min(cfg.dt, max_dt)
    halvings = 0
    while True:
        rhs = state.fields / dt + reaction
        new_fields, iterations = operators.solve(dt, rhs, cfg, x0=state.fields)
        low = float(new_fields.min())
        if low >= -cfg.positivity_tol:
            break
        halvings += 1
        if halvings > cfg.max_halvings:
            raise PositivityError(
                f"positivity not restored after {cfg.max_halvings} halvings "
                f"(min value {low:.3e} at t={state.t:.6g})"
            )
        dt /= 2.0
    new_state = SimState(state.t + dt, new_fields, state.eps)
    report = StepReport(
        dt=dt,
        linear_iterations=iterations,
        halvings=halvings,
        min_value=low,
        reaction_mass=reaction @ grid.cell_volumes,
    )
    return new_state, report


def run(initial: SimState, cfg: SolverConfig, problem: Problem,
        config_echo: dict | None = None) -> Trajectory:
    """Integrate to t_end, recording snapshots and per-step reduced summaries.

    Operators are reassembled whenever a coefficient schedule switch is
    crossed; steps never straddle a switch time.  Snapshots are taken at
    the configured cadence (every step if none); the per-step series
    (masses, sup-norms, minima, cumulative applied reaction, dt, halvings,
    linear iterations) are always dense.  Each accepted step is one row of
    a preallocated float array, sized for (t_end - t0) / dt steps plus one
    clipped step per epoch and doubled if halvings outgrow it; the
    Trajectory step arrays are contiguous copies of its columns.
    """
    grid = problem.grid
    system = problem.system
    if initial.fields.shape != (system.m, grid.ncells):
        raise ValueError(
            f"initial fields shape {initial.fields.shape} does not match "
            f"({system.m}, {grid.ncells})"
        )
    if not np.all(np.isfinite(initial.fields)):
        raise ValueError("initial data must be finite")

    t_end = cfg.t_end
    if t_end <= initial.t:
        raise ValueError(f"t_end {t_end} must exceed the initial time {initial.t}")
    switches = [s for s in problem.coefficients.switch_times() if initial.t < s < t_end]
    boundaries = sorted(set(switches + [t_end]))

    m = system.m
    # series columns: t | masses | sup-norms | min | reaction integrals | dt, halvings, iterations
    mass, sup, low, react, dt_col = 1, 1 + m, 1 + 2 * m, 2 + 2 * m, 2 + 3 * m
    capacity = math.ceil((t_end - initial.t) / cfg.dt) + len(boundaries) + 1
    series = np.zeros((capacity, dt_col + 3))

    vol = grid.cell_volumes
    state = initial
    snap_times = [state.t]
    snapshots = [state.fields.copy()]
    row = series[0]
    row[0] = state.t
    row[mass:sup] = state.fields @ vol
    row[sup:low] = np.abs(state.fields).max(axis=1)
    row[low] = state.fields.min()
    n = 1

    next_record = state.t + cfg.record_dt if cfg.record_dt else None
    operators = TransportOperators(problem, state.t)
    epoch_idx = 0
    eps_round = 1e-12 * max(1.0, abs(t_end))

    while state.t < t_end - eps_round:
        boundary = boundaries[epoch_idx]
        if state.t >= boundary - eps_round:
            epoch_idx += 1
            boundary = boundaries[epoch_idx]
            # release the old epoch's cached systems before assembling the
            # next ones, so the two are never held at once
            operators = None
            operators = TransportOperators(problem, state.t + eps_round)
        room = boundary - state.t
        state, report = step(state, cfg, operators, system, max_dt=room)

        if n == series.shape[0]:
            series = np.concatenate([series, np.zeros_like(series)])
        row = series[n]
        row[0] = state.t
        row[mass:sup] = state.fields @ vol
        row[sup:low] = np.abs(state.fields).max(axis=1)
        row[low] = report.min_value
        row[react:dt_col] = series[n - 1, react:dt_col] + report.dt * report.reaction_mass
        row[dt_col:] = report.dt, report.halvings, report.linear_iterations
        n += 1

        at_end = state.t >= t_end - eps_round
        if next_record is None or state.t >= next_record - eps_round or at_end:
            snap_times.append(state.t)
            snapshots.append(state.fields.copy())
            if next_record is not None:
                while next_record <= state.t + eps_round:
                    next_record += cfg.record_dt

    series = series[:n]
    return Trajectory(
        grid=grid,
        times=np.asarray(snap_times),
        states=snapshots,
        step_times=series[:, 0].copy(),
        step_masses=series[:, mass:sup].copy(),
        step_supnorms=series[:, sup:low].copy(),
        step_minima=series[:, low].copy(),
        reaction_integrals=series[:, react:dt_col].copy(),
        step_dts=series[1:, dt_col].copy(),
        step_halvings=series[1:, dt_col + 1].astype(int),
        step_linear_iterations=series[1:, dt_col + 2].astype(int),
        config_echo=config_echo,
    )


def epsilon_refinement_study(problem: Problem, initial_fields: np.ndarray,
                             eps_list, cfg: SolverConfig) -> dict:
    """Run the same problem for a ladder of truncation strengths.

    Reports the pairwise space-time L2 distances between consecutive
    trajectories (time-trapezoid of the spatial L2 distance squared over
    the shared snapshot grid).  Shrinking distances as eps decreases are
    the numerical robustness signature of the regularization.
    """
    eps_values = [e.epsilon if isinstance(e, TruncationParam) else float(e) for e in eps_list]
    if len(eps_values) < 2:
        raise ValueError("need at least two truncation strengths")
    trajectories = []
    for eps in eps_values:
        state = SimState(0.0, np.array(initial_fields, dtype=float), TruncationParam(eps))
        trajectories.append(run(state, cfg, problem))
    vol = problem.grid.cell_volumes
    times = trajectories[0].times
    for traj in trajectories[1:]:
        if traj.times.shape != times.shape or not np.allclose(traj.times, times):
            raise RuntimeError("trajectories recorded incompatible snapshot grids")
    distances = []
    for a, b in zip(trajectories, trajectories[1:]):
        sq = np.array([
            float(np.sum((sa - sb) ** 2 @ vol))
            for sa, sb in zip(a.states, b.states)
        ])
        distances.append(float(np.sqrt(np.trapezoid(sq, times))))
    ratios = [distances[k + 1] / distances[k] if distances[k] > 0 else float("nan")
              for k in range(len(distances) - 1)]
    monotone = all(d2 <= d1 for d1, d2 in zip(distances, distances[1:]))
    return {
        "epsilons": eps_values,
        "pair_distances": distances,
        "ratios": ratios,
        "monotone_shrinking": monotone,
    }


# Checkpoint record layout (all little-endian):
#   bytes  0-7   uint64  grid content hash
#   bytes  8-15  uint64  species count m
#   bytes 16-23  uint64  cell count
#   bytes 24-31  float64 time
#   bytes 32-39  float64 truncation epsilon
#   then m * ncells float64 cell values, species-major
_CHECKPOINT_HEADER = struct.Struct("<QQQdd")


def dump_state(state: SimState, grid: StructuredGrid, path) -> None:
    """Serialize a state to the flat binary checkpoint record."""
    from pathlib import Path

    m, ncells = state.fields.shape
    if ncells != grid.ncells:
        raise ValueError(f"state has {ncells} cells for a grid with {grid.ncells}")
    header = _CHECKPOINT_HEADER.pack(
        grid.content_hash(), m, ncells, state.t, state.eps.epsilon
    )
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(state.fields, dtype="<f8").tobytes())


def load_state(path, grid: StructuredGrid) -> SimState:
    """Restore a state from a checkpoint record, verifying the grid hash and the size."""
    with open(path, "rb") as fh:
        raw = fh.read(_CHECKPOINT_HEADER.size)
        if len(raw) != _CHECKPOINT_HEADER.size:
            raise ValueError(f"checkpoint {path} has a {len(raw)}-byte header, "
                             f"expected {_CHECKPOINT_HEADER.size} bytes")
        ghash, m, ncells, t, eps = _CHECKPOINT_HEADER.unpack(raw)
        if ghash != grid.content_hash():
            raise ValueError("checkpoint was written for a different grid")
        if ncells != grid.ncells:
            raise ValueError(f"checkpoint has {ncells} cells for a grid with {grid.ncells}")
        # compare sizes before reading, so a corrupt species count cannot
        # request an arbitrarily large buffer
        expected = 8 * m * ncells
        actual = os.fstat(fh.fileno()).st_size - _CHECKPOINT_HEADER.size
        if actual != expected:
            raise ValueError(f"checkpoint {path} holds {actual} data bytes, expected "
                             f"{expected} for {m} species x {ncells} cells")
        data = np.frombuffer(fh.read(expected), dtype="<f8").reshape(m, ncells)
    return SimState(t, data.copy(), TruncationParam(eps))
