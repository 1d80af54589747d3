"""Post-processing of trajectories into norm series, energy traces and budgets.

A trajectory holds the field snapshots at the recording cadence and the
run's totals.  The per-step reduced summaries (per-species masses and
sup-norms, the global minimum, dt and the halvings) are rows that
`integrator.run` hands to its caller a block at a time; the budgets read
them as plain arrays, one block after another, and `windowed_sup` reads
a time column and a sup-norm table.  Time integrals in budgets use
trapezoidal accumulation over whichever series is passed.

An energy trace is the plain (nspecs, ntimes) array of each energy
functional at each snapshot.  Whether a series is non-growing is a trend
test (last value against the early maximum), which is also what the
windowed sup-norm criterion uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import energy_functional
from .grid import StructuredGrid, discrete_norm

__all__ = [
    "Trajectory",
    "norm_series",
    "energy_trace",
    "windowed_sup",
    "mass_budget",
    "no_growth",
]

DEFAULT_WINDOW = 2.0
DEFAULT_GROWTH_TOL = 0.05


@dataclass
class Trajectory:
    """Recorded simulation history: snapshots plus the run's totals.

    The snapshots are one (ntimes, m, ncells) float array, so every
    per-snapshot diagnostic is a reduction over its trailing axes; a list
    of (m, ncells) arrays is stacked on construction.  `steps`,
    `min_value` (over every accepted step and the initial state) and
    `halvings_total` are the totals of the run that recorded it; a
    trajectory reloaded from checkpoints has none.
    """

    grid: StructuredGrid
    times: np.ndarray          # snapshot times, strictly increasing
    states: np.ndarray         # (ntimes, m, ncells) snapshot fields
    steps: int | None = None
    min_value: float | None = None
    halvings_total: int | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if (self.times.ndim != 1 or self.states.ndim != 3
                or self.states.shape[::2] != (self.times.size, self.grid.ncells)):
            raise ValueError(f"snapshot states of shape {self.states.shape} must align "
                             f"with {self.times.size} times on {self.grid.ncells} cells")
        if self.times.size and np.any(np.diff(self.times) <= 0):
            raise ValueError("snapshot times must be strictly increasing")

    @property
    def m(self) -> int:
        return self.states.shape[1]


def norm_series(traj: Trajectory, p_list) -> dict:
    """Per-species discrete norms at every snapshot, for each p and for inf.

    Each table has shape (m, ntimes).
    """
    orders = list(dict.fromkeys(list(p_list) + [np.inf]))
    return {"times": traj.times.copy(),
            "norms": {p: discrete_norm(traj.states, traj.grid, p).T for p in orders}}


def no_growth(series: np.ndarray, tol: float = DEFAULT_GROWTH_TOL) -> bool:
    """Trend test: the last value stays within (1 + tol) of the early maximum.

    The early maximum is taken over the first three entries (or all of a
    shorter series).  A series with an inf or NaN is not bounded.
    """
    series = np.asarray(series, dtype=float)
    if series.size == 0:
        return True
    head = series[: min(3, series.size)]
    return bool(np.isfinite(series).all() and series[-1] <= np.max(head) * (1.0 + tol))


def energy_trace(traj: Trajectory, specs) -> np.ndarray:
    """Energy functional values at every snapshot, one row per spec.

    Returns an (nspecs, ntimes) float array.  Each snapshot is evaluated
    on its own, so the temporaries stay one snapshot's size.
    """
    specs = list(specs)
    values = np.empty((len(specs), traj.times.size))
    for k, spec in enumerate(specs):
        values[k] = [energy_functional(state, traj.grid, spec) for state in traj.states]
    return values


def windowed_sup(times: np.ndarray, supnorms: np.ndarray, window: float = DEFAULT_WINDOW,
                 tol: float = DEFAULT_GROWTH_TOL) -> dict:
    """Per-species sup-norm maxima over sliding windows (tau, tau + window].

    `times` (n,) are strictly increasing and `supnorms` (n, m) holds each
    species' sup-norm at those times: the step rows of a run, or a
    trajectory's snapshots reduced by `np.abs(states).max(axis=2)`.
    Window anchors are the integer times tau >= floor(t0) with tau + window
    in (t0, t1]: 0, 1 and 2 for window 2.0 on [0, 4].  The no-growth flags
    compare the last window against the early maximum, the uniform-in-time
    boundedness surrogate.  Raises if the series is shorter than one window.
    """
    times, sups = np.asarray(times, dtype=float), np.asarray(supnorms, dtype=float)
    t0, t1 = float(times[0]), float(times[-1])
    if t1 - t0 < window:
        raise ValueError(f"trajectory of length {t1 - t0} is shorter than one window {window}")
    anchors = []
    tau = float(np.floor(t0))
    while tau + window <= t1 + 1e-12:
        if tau + window > t0:
            anchors.append(tau)
        tau += 1.0
    values = np.empty((sups.shape[1], len(anchors)))
    for k, tau in enumerate(anchors):
        mask = (times > tau) & (times <= tau + window + 1e-12)
        if not mask.any():
            raise ValueError(f"no recorded times inside window ({tau}, {tau + window}]")
        values[:, k] = sups[mask].max(axis=0)
    flags = [no_growth(values[i], tol) for i in range(values.shape[0])]
    return {"anchors": np.asarray(anchors), "values": values, "no_growth": flags,
            "window": window, "tol": tol}


def _budget_block(times, masses, carry, level, rate):
    """One block of a budget: its levels, the initial level and the running integral.

    `level` and `rate` map a (n, m) masses table to one value per row.  A
    block after the first is computed after the previous block's last row,
    which `carry` holds as (t, masses, initial level, integral), so that
    its first trapezoid pair straddles the boundary.  The integral is one
    np.cumsum seeded with the carried value, which adds in row order, so
    any split into blocks gives the bits of one block (adding the carry to
    an unseeded cumsum afterwards would not).  The first block's seed is
    -0.0, the additive identity, which keeps a first increment of -0.0 as
    it is.  Returns the block's levels, the initial level, the block's
    integrals and the carry for the next block.
    """
    if carry is None:
        first, seed = 0, -0.0
    else:
        first, (t_prev, m_prev, level0, seed) = 1, carry
        times = np.concatenate([[t_prev], times])
        masses = np.concatenate([m_prev[None, :], masses])
    # a one-row matrix product sums in another order than the rows of a taller one
    levels = level(masses if len(masses) > 1 else np.concatenate([masses, masses]))
    if carry is None:
        level0 = levels[0]
    f = rate(masses)
    integral = np.cumsum(np.concatenate([[seed], 0.5 * np.diff(times) * (f[1:] + f[:-1])]))
    return (levels[first:len(masses)], level0, integral[first:],
            (times[-1], masses[-1].copy(), level0, integral[-1]))


def mass_budget(times: np.ndarray, masses: np.ndarray, system, domain_volume: float,
                carry=None) -> tuple[np.ndarray, tuple]:
    """Residual of the weighted-mass budget against its linear bound, a block at a time.

    residual(t) = sum_i c_i m_i(t) - sum_i c_i m_i(0)
                  - int_0^t (K1 sum_i m_i + K2 |Omega|) ds

    with m_i the species masses and the time integral accumulated by
    trapezoid.  `times` (n,) and `masses` (n, m) are consecutive rows of a
    run's step series (or a trajectory's snapshot times and masses); a
    later block passes the `carry` the previous call returned, and any
    split gives the bits of one call.  Returns (residual, carry).  Under
    exact mass dissipation (K1 = K2 = 0) and conservative walls the
    residual stays at the level of accumulated rounding, since every
    transport solve is direct; under outflow walls it is non-positive.
    """
    c = np.asarray(system.mass_weights, dtype=float)
    k1, k2 = system.mass_constants
    weighted, weighted0, accum, carry = _budget_block(
        times, masses, carry, lambda ms: ms @ c,
        lambda ms: k1 * ms.sum(axis=1) + k2 * domain_volume)
    return weighted - weighted0 - accum, carry
