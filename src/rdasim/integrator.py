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

All species' transport operators form one block-diagonal matrix A, kept
as its CSC arrays, summed straight from the assembled entries once per
coefficient epoch.  The system I/dt + A adds 1/dt on their diagonal and
is factorized once per dt in each epoch, whose last step takes the full
dt when the remainder is within rounding of it; only the LU depends on
the dimension.  In 1D the two-point flux makes the system tridiagonal:
LAPACK's dgttrf factorizes its three diagonals, read from the CSC arrays,
and dgttrs solves every step at that dt.  In 2D SuperLU factorizes it
(the `gstrf` that scipy's `splu` calls, minimum-degree ordering), so each
step is one pair of triangular solves.
A non-finite reaction stops the step with NonFiniteError.  `run` writes
the reduced summaries of each accepted step (time, masses, sup-norms,
minimum, dt, halvings) as one row of a fixed block of rows, which it
hands to the caller's `on_steps` each time the block fills, so its memory
grows with the snapshots it records, not with its steps; it keeps the
snapshots and the run's totals (steps, minimum, halvings).
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

scipy is loaded where a scipy object is built -- the LU factors -- and
not in `_march`, `step`, `TransportOperators.solve` or
`TridiagonalLU.solve`, which run every step.  `check` and `energy-report`
never build an operator, so they never pay scipy's load time.  At its
first factorization a run or `epsilon-study` loads only the one scipy
extension module it calls (`_scipy_extension`): LAPACK's `_flapack` in 1D,
SuperLU's `_superlu` in 2D.  The `scipy.linalg` package would cost 18 MB
resident and 0.2 s, and `scipy.sparse` with `scipy.sparse.linalg` 27 MB
and 0.15 s; no run loads any of them.
"""

from __future__ import annotations

import math
import os
import struct
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .diagnostics import Trajectory
from .grid import (
    BoundarySpec,
    CoefficientField,
    StructuredGrid,
    _transport_entries,
)
from .output import _CSV_CHUNK_ROWS
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


def _scipy_extension(name: str):
    """scipy's compiled extension module `name`, loaded by its file path.

    Only the light `import scipy` runs (on Windows it puts the bundled
    OpenBLAS on the DLL path), not the packages around the module, such as
    `scipy.linalg` or `scipy.sparse`.  Under its own name the module is the
    one those packages find, in either import order, and it is loaded once
    per process.
    """
    if name not in sys.modules:
        import scipy
        from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
        from importlib.util import module_from_spec, spec_from_loader

        stem = os.path.join(scipy.__path__[0], *name.split(".")[1:])
        path = next(stem + s for s in EXTENSION_SUFFIXES if os.path.exists(stem + s))
        spec = spec_from_loader(name, ExtensionFileLoader(name, path))
        module = module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return sys.modules[name]


class TridiagonalLU:
    """LU factors of a tridiagonal matrix from LAPACK dgttrf, solved by dgttrs.

    Takes the CSC arrays (data, indices, indptr) of the matrix and reads
    its sub-, main and super-diagonals from them.  A nonzero entry off the
    three diagonals raises LinearSolveError, and so does a zero pivot.
    scipy's wrappers reject fewer than three unknowns, so a smaller matrix
    is padded with identity rows.  Both routines are the very objects
    `scipy.linalg.lapack` exports, from the extension module
    `scipy.linalg._flapack`, loaded without that package.
    """

    def __init__(self, data: np.ndarray, indices: np.ndarray, indptr: np.ndarray):
        self.n = n = indptr.size - 1
        cols = np.repeat(np.arange(n), np.diff(indptr))
        offset = indices - cols
        # two comparisons, not np.abs, which a 1D run calls nowhere else
        near = (-1 <= offset) & (offset <= 1)
        stray = np.flatnonzero(~near & (data != 0.0))
        if stray.size:
            k = stray[0]
            raise LinearSolveError(f"entry ({indices[k]}, {cols[k]}) of a {n}-row system "
                                   f"lies off its three diagonals")
        self.pad = max(0, 3 - n)
        # rows: super-diagonal one column late, diagonal (identity padding), sub-diagonal
        bands = np.zeros((3, n + self.pad))
        bands[1, n:] = 1.0
        bands[offset[near] + 1, cols[near]] = data[near]
        lapack = _scipy_extension("scipy.linalg._flapack")
        *self.factors, info = lapack.dgttrf(bands[2, :-1], bands[1], bands[0, 1:])
        if info != 0:
            raise LinearSolveError(f"tridiagonal LU of a {n}-row system failed: "
                                   f"dgttrf info {info} (positive: a zero pivot)")
        self._dgttrs = lapack.dgttrs

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve for one right-hand side (n,) or for the columns of an (n, L) one."""
        if self.pad:
            b = np.concatenate([b, np.zeros((self.pad,) + b.shape[1:])])
        x, info = self._dgttrs(*self.factors, b)
        if info != 0:
            raise LinearSolveError(f"tridiagonal solve failed: dgttrs info {info}")
        return x[:self.n]


def _csc_arrays(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, size: int):
    """The CSC arrays (data, indices, indptr) of the size-row matrix with these COO
    entries, and the positions of its diagonal in `data`.

    A stable argsort of the keys col * size + row orders the positions column
    by column, rows ascending, `searchsorted` finds each entry's position, and
    one `np.bincount` adds each position's entries in entry order, as scipy's
    COO-to-CSR conversion sums duplicates (with `np.unique`, which touches
    more of numpy, a fresh 1D run peaked 0.3 MB higher and hetero2d 1.7 MB
    higher).  Every diagonal position is stored, as zero where no entry lies
    on it, so the shift by 1/dt is one indexed add that equals scipy's
    `setdiag`.  The keys are int32 while size * size fits: at 128^2 cells
    that lowers a fresh run's peak by 5 MB.
    """
    key = np.int32 if size * size <= np.iinfo(np.int32).max else np.int64
    diagonal = np.arange(size, dtype=key)
    keys = np.concatenate([diagonal * (size + 1), cols.astype(key) * size + rows])
    ordered = keys[np.argsort(keys, kind="stable")]
    positions = ordered[np.append(True, ordered[1:] != ordered[:-1])]
    slots = np.searchsorted(positions, keys)
    data = np.bincount(slots, np.concatenate([np.zeros(size), vals]), minlength=positions.size)
    columns, indices = np.divmod(positions, size)
    indptr = np.searchsorted(columns, np.arange(size + 1, dtype=key))
    return data, indices.astype(np.intc), indptr.astype(np.intc), slots[:size].copy()


def _csc_array(*args, **kwargs):
    """scipy.sparse.csc_array, imported only if a factor's L or U is ever read."""
    from scipy.sparse import csc_array

    return csc_array(*args, **kwargs)


def _sparse_lu(data: np.ndarray, indices: np.ndarray, indptr: np.ndarray):
    """SuperLU's factors of the square matrix with these CSC arrays (indices intc).

    The arguments of SuperLU's `gstrf` are the ones scipy's `splu` hands it
    for a canonical CSC matrix with permc_spec="MMD_AT_PLUS_A" and
    panel_size=1, so the factors are `splu`'s.  A failed factorization
    raises LinearSolveError.
    """
    size = indptr.size - 1
    options = dict(DiagPivotThresh=None,
                   # 664k L + U nonzeros per 128^2 species, against 1.22M for COLAMD
                   ColPerm="MMD_AT_PLUS_A",
                   # a two-species 128^2 run peaked 11 MB lower than with the default
                   PanelSize=1, Relax=None)
    try:
        return _scipy_extension("scipy.sparse.linalg._dsolve._superlu").gstrf(
            size, data.size, data, indices, indptr,
            csc_construct_func=_csc_array, ilu=False, options=options)
    except RuntimeError as exc:
        raise LinearSolveError(f"sparse LU of a {size}-row system failed: {exc}") from None


class TransportOperators:
    """The assembled transport operator of every species for one coefficient epoch.

    A is the block-diagonal operator of all species, summed from one
    `_transport_entries` walk into `csc`, its CSC arrays (data, indices,
    indptr) with the positions of its diagonal in data; no scipy.sparse
    matrix is built.  The system I/dt + A is data with 1/dt added at those
    positions, factorized by a TridiagonalLU in 1D, where every block is
    tridiagonal, and by SuperLU (`_sparse_lu`) in 2D.  Each system is
    factorized the first time its dt is solved and cached per dt value, so
    every step is a direct solve.  At 128^2 cells the 2D L + U hold 664k
    nonzeros per species (about 7 MB resident): a factorization takes
    30-50 ms and a solve about 1.5 ms.  A singular system raises
    LinearSolveError.
    """

    def __init__(self, problem: Problem, t: float):
        self.problem = problem
        grid, coeff = problem.grid, problem.coefficients
        entries = _transport_entries(grid, coeff, problem.boundary, t)
        self.csc = _csc_arrays(*entries, coeff.m * grid.ncells)
        self._systems: dict[float, object] = {}

    def _system(self, dt: float):
        cached = self._systems.get(dt)
        if cached is None:
            data, indices, indptr, diagonal = self.csc
            data = data.copy()
            data[diagonal] += 1.0 / dt
            factorize = TridiagonalLU if self.problem.grid.dim == 1 else _sparse_lu
            cached = self._systems[dt] = factorize(data, indices, indptr)
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


def run(initial: SimState, cfg: SolverConfig, problem: Problem,
        on_steps=None) -> Trajectory:
    """Integrate to t_end, recording snapshots and streaming per-step reduced summaries.

    Epochs and snapshots follow `_march`: operators are reassembled
    whenever a coefficient schedule switch is crossed.  Each accepted step
    is one row (t | masses | sup-norms | min | dt | halvings) of a block of
    `_CSV_CHUNK_ROWS` rows, after the initial state's row, whose dt and
    halvings are 0.  Each time the block fills, and once at the end with
    the rows left, `on_steps` receives the filled rows as one (n, 2m + 4)
    array; the block is then overwritten, so a consumer that keeps rows
    copies them.  The Trajectory holds the snapshots and the totals: the
    accepted steps, the minimum over the initial state and every step, and
    the halvings.
    """
    grid = problem.grid
    _check_initial(initial, cfg, problem)

    m = problem.system.m
    # step rows: t | masses | sup-norms | min | dt, halvings
    mass, sup, low, dt_col = 1, 1 + m, 1 + 2 * m, 2 + 2 * m
    block = np.zeros((_CSV_CHUNK_ROWS, dt_col + 2))

    vol = grid.cell_volumes
    snap_times = [initial.t]
    snapshots = [initial.fields.copy()]
    row = block[0]
    row[0] = initial.t
    row[mass:sup] = initial.fields @ vol
    row[sup:low] = np.abs(initial.fields).max(axis=1)
    row[low] = min_value = float(initial.fields.min())
    n, steps, halvings = 1, 0, 0

    for state, report, recorded in _march(initial, cfg, problem):
        if n == len(block):
            if on_steps is not None:
                on_steps(block)
            n = 0
        row = block[n]
        row[0] = state.t
        row[mass:sup] = state.fields @ vol
        row[sup:low] = np.abs(state.fields).max(axis=1)
        row[low] = report.min_value
        row[dt_col:] = report.dt, report.halvings
        n += 1
        steps += 1
        halvings += report.halvings
        # the first of equal minima is kept, so a tie of 0.0 and -0.0 keeps the earlier
        min_value = min(min_value, report.min_value)
        if recorded:
            snap_times.append(state.t)
            snapshots.append(state.fields.copy())

    if on_steps is not None:
        on_steps(block[:n])
    return Trajectory(
        grid=grid,
        times=np.asarray(snap_times),
        states=np.stack(snapshots),
        steps=steps,
        min_value=min_value,
        halvings_total=halvings,
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
