"""IMEX time stepping for the regularized reaction-transport system.

Each step treats transport implicitly (backward Euler on the assembled
diffusion + advection operator, unconditionally stable and positivity
preserving for M-matrices) and the bounded reaction explicitly at the old
state:

    (I/dt + A_i) u_i_new = u_i_old / dt + truncate(F(u_old), eps)_i.

If any cell of the solution dips below -STATE_TOL, the rounding floor
every state respects, the step is retried with a halved dt; states are
never clamped, and every solve is direct, so the discrete mass budget is
exact up to rounding.

All species' transport operators form one block-diagonal matrix A,
assembled once per coefficient epoch.  The system I/dt + A is factorized
once per dt in each epoch, whose last step takes the full dt when the
remainder is within rounding of it.  On 1D grids the two-point flux makes
each species' system tridiagonal, so the block-diagonal stack of them is
one tridiagonal matrix: LAPACK's tridiagonal LU (dgttrf) factorizes it,
and dgttrs solves every step at that dt.  On 2D grids SuperLU factorizes
it (scipy's `splu`, minimum-degree ordering), and each step is one pair
of triangular solves.  A non-finite reaction stops the step with
NonFiniteError.  `run` writes the reduced summaries of each accepted step
(time, masses, sup-norms, minimum, dt, halvings) as one row of a
preallocated float array rather than as per-step Python objects.
Checkpoints serialize a state as a flat little-endian binary record;
loading checks its size.

The epsilon ladder takes the same steps on a batch: its members differ
only in eps, so they are one state whose columns hold the members side by
side, cell by cell, with one eps per column.  One operator assembly per
epoch and one factorization per dt serve them all, and each time step is
one `step` call in the epoch loop `run` uses (`_march`).  A step that
any member would halve is halved for the whole batch, so the members
share one time grid; each member's numbers equal a solo replay of the
batch's step sizes, and a solo `run` when no member halves.

scipy is imported where a scipy object is built -- the assembled operator
and the LU factors -- and not in `_march`, `step`, `TransportOperators.solve`
or `TridiagonalLU.solve`, which run every step.  `check` and `energy-report`
never build an operator, so they never pay scipy's import time, and a 1D
run never loads scipy.sparse.linalg.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .diagnostics import Trajectory
from .grid import (
    BoundarySpec,
    CoefficientField,
    StructuredGrid,
    assemble_transport,
)
from .reactions import STATE_TOL, ReactionSystem, truncate

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
    "step",
    "run",
    "epsilon_refinement_study",
    "dump_state",
    "load_state",
]


class SolverError(RuntimeError):
    """Base class for time-stepping failures."""


class PositivityError(SolverError):
    """A state left the non-negative orthant beyond tolerance."""


class LinearSolveError(SolverError):
    """A transport system could not be factorized or solved."""


class NonFiniteError(SolverError):
    """The reaction evaluated to inf or NaN."""


@dataclass
class SimState:
    """Species fields at one time level, with the truncation strength.

    eps is a positive float.  A batch of L members is one state with
    fields (m, ncells * L), where column c * L + l holds member l at cell
    c; its eps is then an (ncells * L,) array with one strength per column.
    """

    t: float
    fields: np.ndarray  # (m, ncells), or (m, ncells * L) for a batch
    eps: float | np.ndarray

    def __post_init__(self):
        eps = np.asarray(self.eps, dtype=float)
        if not (eps > 0).all():
            raise ValueError(f"epsilon must be positive, got {self.eps}")
        self.eps = float(eps) if eps.ndim == 0 else eps
        self.fields = np.asarray(self.fields, dtype=float)
        if self.fields.ndim != 2:
            raise ValueError(f"fields must be (m, ncells), got shape {self.fields.shape}")
        low = float(self.fields.min(initial=0.0))
        if low < -STATE_TOL:
            raise PositivityError(f"state has component {low} below -{STATE_TOL}")

    @property
    def m(self) -> int:
        return self.fields.shape[0]


@dataclass
class SolverConfig:
    dt: float
    t_end: float
    max_halvings: int = 20
    record_dt: float | None = None  # None records every accepted step

    def __post_init__(self):
        if self.dt <= 0 or self.t_end <= 0:
            raise ValueError("dt and t_end must be positive")
        if self.record_dt is not None and not self.record_dt > 0:
            raise ValueError(f"record_dt must be positive or None, got {self.record_dt}")


@dataclass
class StepReport:
    dt: float
    halvings: int
    min_value: float


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


class TridiagonalLU:
    """LU factors of a tridiagonal matrix from LAPACK dgttrf, solved by dgttrs.

    A nonzero entry off the three diagonals, or a zero pivot, raises
    LinearSolveError.  scipy's wrappers reject fewer than three unknowns,
    so a smaller matrix is padded with identity rows.
    """

    def __init__(self, a):
        import scipy.sparse as sp
        from scipy.linalg.lapack import dgttrf, dgttrs

        a = sp.coo_matrix(a)
        far = (np.abs(a.row - a.col) > 1) & (a.data != 0.0)
        if far.any():
            row, col = a.row[far][0], a.col[far][0]
            raise LinearSolveError(f"entry ({row}, {col}) of a {a.shape[0]}-row system "
                                   f"lies off its three diagonals")
        self.n = a.shape[0]
        self.pad = max(0, 3 - self.n)
        zeros, ones = np.zeros(self.pad), np.ones(self.pad)
        *self.factors, info = dgttrf(np.append(a.diagonal(-1), zeros),
                                     np.append(a.diagonal(), ones),
                                     np.append(a.diagonal(1), zeros))
        if info != 0:
            raise LinearSolveError(f"tridiagonal LU of a {self.n}-row system failed: "
                                   f"dgttrf info {info} (positive: a zero pivot)")
        self._dgttrs = dgttrs

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve for one right-hand side (n,) or for the columns of an (n, L) one."""
        if self.pad:
            b = np.concatenate([b, np.zeros((self.pad,) + b.shape[1:])])
        x, info = self._dgttrs(*self.factors, b)
        if info != 0:
            raise LinearSolveError(f"tridiagonal solve failed: dgttrs info {info}")
        return x[:self.n]


class TransportOperators:
    """The assembled transport operator of every species for one coefficient epoch.

    `matrix` is the block-diagonal operator A of all species, one
    `assemble_transport` build.  The system I/dt + A is factorized the
    first time a dt is solved and cached per dt value, so every step is a
    direct solve.  In 1D the system is tridiagonal and its factors are a
    TridiagonalLU; in 2D they are SuperLU's.  At 128^2 cells the 2D L + U
    hold 664k nonzeros per species (about 7 MB resident): a factorization
    takes 30-50 ms and a solve about 1.5 ms.  A singular system raises
    LinearSolveError.
    """

    def __init__(self, problem: Problem, t: float):
        self.problem = problem
        self.matrix = assemble_transport(problem.grid, problem.coefficients, problem.boundary, t)
        self._systems: dict[float, object] = {}

    def _system(self, dt: float):
        cached = self._systems.get(dt)
        if cached is None:
            block = self.matrix.tocsc()
            block.setdiag(block.diagonal() + 1.0 / dt)
            if self.problem.grid.dim == 1:
                cached = TridiagonalLU(block)
            else:
                from scipy.sparse.linalg import splu

                try:
                    cached = splu(
                        block,
                        # 664k L + U nonzeros per 128^2 species, against 1.22M for COLAMD
                        permc_spec="MMD_AT_PLUS_A",
                        # a two-species 128^2 run peaks at 96 MB resident, not 107 MB
                        panel_size=1,
                    )
                except RuntimeError as exc:
                    raise LinearSolveError(f"sparse LU of a {block.shape[0]}-row system "
                                           f"failed: {exc}") from None
            self._systems[dt] = cached
        return cached

    def solve(self, dt: float, rhs: np.ndarray) -> np.ndarray:
        """Solve (I/dt + A_i) u_i = rhs_i for every species i.

        `rhs` is (m, ncells), or a batch (m, ncells * L) of L members whose
        column c * L + l is member l at cell c: each member is then one
        column of a multi-column solve with the same factors.
        """
        unknowns = rhs.shape[0] * self.problem.grid.ncells
        return self._system(dt).solve(rhs.reshape(unknowns, -1)).reshape(rhs.shape)


def _reaction_points(grid: StructuredGrid, fields: np.ndarray) -> np.ndarray:
    """The positions of the columns of a solo or batch state: its cells' centres."""
    members = fields.shape[1] // grid.ncells
    centers = grid.cell_centers
    return centers.repeat(members, axis=1) if members > 1 else centers


def step(state: SimState, cfg: SolverConfig, operators: TransportOperators,
         max_dt: float | None = None,
         centers: np.ndarray | None = None) -> tuple[SimState, StepReport]:
    """Advance one accepted IMEX step, halving dt until no value is below -STATE_TOL.

    The reaction is the one of the problem the operators were assembled
    for.  A batch state of L members, (m, ncells * L) with member l of
    cell c in column c * L + l, takes the same step: the reaction is
    evaluated at the cell centres repeated L times, truncated with each
    column's eps, and the L right-hand sides are solved together, so a
    halving halves dt for every member.  A non-finite reaction raises
    NonFiniteError naming the species, the cell and the member's eps.
    `centers` are those positions, `_reaction_points` of the state, which
    a caller taking many steps builds once.
    """
    grid, system = operators.problem.grid, operators.problem.system
    if centers is None:
        centers = _reaction_points(grid, state.fields)
    raw = np.asarray(system.evaluate(centers, state.t, state.fields), dtype=float)
    if not np.isfinite(raw).all():
        species, column = np.argwhere(~np.isfinite(raw))[0]
        # batch column c * L + l is member l at cell c, with that member's eps
        cell = column // (raw.shape[1] // grid.ncells)
        eps = float(np.broadcast_to(state.eps, raw.shape[1])[column])
        raise NonFiniteError(
            f"non-finite reaction {raw[species, column]} for species {species + 1} "
            f"in cell {cell} at t={state.t:.6g} with eps={eps!r}"
        )
    reaction = truncate(raw, state.eps)
    dt = cfg.dt if max_dt is None else min(cfg.dt, max_dt)
    halvings = 0
    while True:
        rhs = state.fields / dt + reaction
        new_fields = operators.solve(dt, rhs)
        low = float(new_fields.min())
        if low >= -STATE_TOL:
            break
        halvings += 1
        if halvings > cfg.max_halvings:
            raise PositivityError(
                f"positivity not restored after {cfg.max_halvings} halvings "
                f"(min value {low:.3e} at t={state.t:.6g})"
            )
        dt /= 2.0
    # `low` is the accepted state's minimum, so __post_init__'s checks would repeat it
    new_state = object.__new__(SimState)
    new_state.t, new_state.fields, new_state.eps = state.t + dt, new_fields, state.eps
    return new_state, StepReport(dt=dt, halvings=halvings, min_value=low)


def _check_initial(initial: SimState, cfg: SolverConfig, problem: Problem) -> None:
    shape = (problem.system.m, problem.grid.ncells)
    if initial.fields.shape != shape:
        raise ValueError(f"initial fields shape {initial.fields.shape} does not match {shape}")
    if not np.all(np.isfinite(initial.fields)):
        raise ValueError("initial data must be finite")
    if cfg.t_end <= initial.t:
        raise ValueError(f"t_end {cfg.t_end} must exceed the initial time {initial.t}")


def _march(state: SimState, cfg: SolverConfig, problem: Problem):
    """Step a solo or batch state to cfg.t_end, yielding (state, report, recorded).

    Each coefficient epoch ends at a schedule switch or at t_end.  At a
    switch the old epoch's operators are released, and the next ones are
    assembled at t + eps_round.  The last step of an epoch is capped so
    that it lands on the epoch's end; it straddles the end by rounding at
    most.  `recorded` says whether the new state is a snapshot: at t_end,
    and on every step that passes a point t0 + k * record_dt (every step if
    record_dt is None).  The passed points are counted by one floor
    division, so a record_dt below the rounding of t still advances, and
    one so small that the count overflows records every step.  The last
    epoch's operators are released once the generator is exhausted.
    """
    t_end = cfg.t_end
    eps_round = 1e-12 * max(1.0, abs(t_end))
    switches = [s for s in problem.coefficients.switch_times() if state.t < s < t_end]
    t0, passed = state.t, 0.0
    centers = _reaction_points(problem.grid, state.fields)
    operators = TransportOperators(problem, state.t)
    for epoch, boundary in enumerate(sorted(set(switches + [t_end]))):
        if epoch:
            # release the old epoch's cached systems before assembling the
            # next ones, so the two are never held at once
            operators = None
            operators = TransportOperators(problem, state.t + eps_round)
        while state.t < boundary - eps_round:
            # t accumulates by addition, so an epoch of whole steps can end a
            # rounding error short of dt: that remainder reuses the cached dt
            room = boundary - state.t
            state, report = step(state, cfg, operators,
                                 max_dt=None if room >= cfg.dt - eps_round else room,
                                 centers=centers)
            recorded = cfg.record_dt is None or state.t >= t_end - eps_round
            if cfg.record_dt is not None:
                count = (state.t - t0 + eps_round) // cfg.record_dt
                # a count that overflows to inf passes a point on every step
                recorded, passed = recorded or count > passed or math.isinf(count), count
            yield state, report, recorded


def run(initial: SimState, cfg: SolverConfig, problem: Problem) -> Trajectory:
    """Integrate to t_end, recording snapshots and per-step reduced summaries.

    Epochs and snapshots follow `_march`: operators are reassembled
    whenever a coefficient schedule switch is crossed.  The per-step
    series (masses, sup-norms, minima, dt, halvings) are always dense.  Each accepted step is one row of a
    preallocated float array, sized for (t_end - t0) / dt steps plus one
    clipped step per epoch and doubled if halvings outgrow it; the
    Trajectory step arrays are contiguous copies of its columns.
    """
    grid = problem.grid
    _check_initial(initial, cfg, problem)

    m = problem.system.m
    # series columns: t | masses | sup-norms | min | dt, halvings
    mass, sup, low, dt_col = 1, 1 + m, 1 + 2 * m, 2 + 2 * m
    epochs = len(problem.coefficients.switch_times()) + 1
    capacity = math.ceil((cfg.t_end - initial.t) / cfg.dt) + epochs + 1
    series = np.zeros((capacity, dt_col + 2))

    vol = grid.cell_volumes
    snap_times = [initial.t]
    snapshots = [initial.fields.copy()]
    row = series[0]
    row[0] = initial.t
    row[mass:sup] = initial.fields @ vol
    row[sup:low] = np.abs(initial.fields).max(axis=1)
    row[low] = initial.fields.min()
    n = 1

    for state, report, recorded in _march(initial, cfg, problem):
        if n == series.shape[0]:
            series = np.concatenate([series, np.zeros_like(series)])
        row = series[n]
        row[0] = state.t
        row[mass:sup] = state.fields @ vol
        row[sup:low] = np.abs(state.fields).max(axis=1)
        row[low] = report.min_value
        row[dt_col:] = report.dt, report.halvings
        n += 1
        if recorded:
            snap_times.append(state.t)
            snapshots.append(state.fields.copy())

    series = series[:n]
    return Trajectory(
        grid=grid,
        times=np.asarray(snap_times),
        states=np.stack(snapshots),
        step_times=series[:, 0].copy(),
        step_masses=series[:, mass:sup].copy(),
        step_supnorms=series[:, sup:low].copy(),
        step_minima=series[:, low].copy(),
        step_dts=series[1:, dt_col].copy(),
        step_halvings=series[1:, dt_col + 1].astype(int),
    )


def _march_ladder(members: list[SimState], cfg: SolverConfig,
                  problem: Problem) -> tuple[np.ndarray, np.ndarray]:
    """March ladder members that differ only in eps as one batch, recording snapshots.

    The L members are one batch state (m, ncells * L), with member l of
    cell c in column c * L + l and its eps tiled over the cells, which
    `_march` steps like a solo state: a step that would leave any member
    below -STATE_TOL halves dt for the whole batch, so every member takes
    the same steps and records the same snapshot times.  Each member's
    values go through the operations a solo `step` applies, so its
    snapshots equal a solo replay of the batch's step sizes bit for bit,
    and a solo `run` whenever no member halves.  Returns the snapshot
    times and the contiguous (L, ntimes, m, ncells) snapshots.
    """
    first = members[0]
    _check_initial(first, cfg, problem)
    L, (m, n) = len(members), first.fields.shape
    fields = np.stack([member.fields for member in members], axis=2).reshape(m, n * L)
    batch = SimState(first.t, fields, np.tile([member.eps for member in members], n))
    snap_times, snapshots = [first.t], [fields]
    for state, _, recorded in _march(batch, cfg, problem):
        if recorded:
            snap_times.append(state.t)
            snapshots.append(state.fields)
    states = np.stack(snapshots).reshape(-1, m, n, L).transpose(3, 0, 1, 2)
    return np.asarray(snap_times), np.ascontiguousarray(states)


def epsilon_refinement_study(problem: Problem, initial_fields: np.ndarray,
                             eps_list, cfg: SolverConfig) -> dict:
    """Run the same problem for a ladder of truncation strengths.

    The members share the grid, the operators, dt and the step count, so
    they march as one batch state (`_march_ladder`): one operator assembly
    per epoch, one factorization per dt and one `step` per time step serve
    the whole ladder.  A halving halves dt for every member, so the members
    share one time grid and differ only in eps; with no halving each
    member's snapshots are those of its solo `run`.

    Reports the pairwise space-time L2 distances between consecutive
    trajectories (time-trapezoid of the spatial L2 distance squared over
    the shared snapshot grid).  Shrinking distances as eps decreases are
    the numerical robustness signature of the regularization.
    """
    eps_values = [float(e) for e in eps_list]
    if len(eps_values) < 2:
        raise ValueError("need at least two truncation strengths")
    members = [SimState(0.0, np.array(initial_fields, dtype=float), eps)
               for eps in eps_values]
    times, states = _march_ladder(members, cfg, problem)
    vol = problem.grid.cell_volumes
    distances = [
        float(np.sqrt(np.trapezoid(((a - b) ** 2 @ vol).sum(axis=1), times)))
        for a, b in zip(states, states[1:])
    ]
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
    m, ncells = state.fields.shape
    if ncells != grid.ncells:
        raise ValueError(f"state has {ncells} cells for a grid with {grid.ncells}")
    header = _CHECKPOINT_HEADER.pack(
        grid.content_hash(), m, ncells, state.t, state.eps
    )
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(state.fields, dtype="<f8").tobytes())


def load_state(path, grid: StructuredGrid) -> SimState:
    """Restore a state from a checkpoint record, verifying the grid hash, size and values.

    A non-finite value, one below -STATE_TOL, or a non-positive eps raises
    ValueError naming the file.
    """
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
    if not np.isfinite(data).all():
        raise ValueError(f"checkpoint {path} holds a non-finite value")
    try:
        return SimState(t, data.copy(), eps)
    except (ValueError, PositivityError) as exc:
        raise ValueError(f"checkpoint {path}: {exc}") from None
