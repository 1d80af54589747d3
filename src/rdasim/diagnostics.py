"""Post-processing of trajectories into norm series, energy traces and budgets.

A trajectory carries two granularities: full field snapshots at the
recording cadence, and dense per-step reduced summaries (per-species
masses and sup-norms, the global minimum, dt and the halvings).  Time
integrals in budgets use trapezoidal accumulation over whichever series
is used.

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
    """Recorded simulation history: snapshots plus dense step summaries.

    The snapshots are one (ntimes, m, ncells) float array, so every
    per-snapshot diagnostic is a reduction over its trailing axes; a list
    of (m, ncells) arrays is stacked on construction.  Reloaded
    trajectories may carry only the snapshot series; the step arrays are
    then None, and the mass and sup-norm diagnostics fall back to values
    computed from the snapshots.
    """

    grid: StructuredGrid
    times: np.ndarray          # snapshot times, strictly increasing
    states: np.ndarray         # (ntimes, m, ncells) snapshot fields
    step_times: np.ndarray | None = None
    step_masses: np.ndarray | None = None        # (nsteps + 1, m)
    step_supnorms: np.ndarray | None = None      # (nsteps + 1, m)
    step_minima: np.ndarray | None = None
    step_dts: np.ndarray | None = None
    step_halvings: np.ndarray | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if (self.times.ndim != 1 or self.states.ndim != 3
                or self.states.shape[::2] != (self.times.size, self.grid.ncells)):
            raise ValueError(f"snapshot states of shape {self.states.shape} must align "
                             f"with {self.times.size} times on {self.grid.ncells} cells")
        if self.times.size and np.any(np.diff(self.times) <= 0):
            raise ValueError("snapshot times must be strictly increasing")
        if self.step_times is not None:
            self.step_times = np.asarray(self.step_times, dtype=float)
            if np.any(np.diff(self.step_times) <= 0):
                raise ValueError("step times must be strictly increasing")

    @property
    def m(self) -> int:
        return self.states.shape[1]

    def _dense_series(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-step (times, masses); falls back to snapshot-derived masses."""
        if self.step_times is not None and self.step_masses is not None:
            return self.step_times, self.step_masses
        return self.times, self.states @ self.grid.cell_volumes

    def _dense_supnorms(self) -> tuple[np.ndarray, np.ndarray]:
        if self.step_times is not None and self.step_supnorms is not None:
            return self.step_times, self.step_supnorms
        return self.times, np.abs(self.states).max(axis=2)


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
    shorter series).
    """
    series = np.asarray(series, dtype=float)
    if series.size == 0:
        return True
    head = series[: min(3, series.size)]
    return bool(series[-1] <= np.max(head) * (1.0 + tol))


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


def windowed_sup(traj: Trajectory, window: float = DEFAULT_WINDOW,
                 tol: float = DEFAULT_GROWTH_TOL) -> dict:
    """Per-species sup-norm maxima over sliding windows (tau, tau + window].

    Window anchors are the integer times tau >= floor(t0) with tau + window
    in (t0, t1]: 0, 1 and 2 for window 2.0 on [0, 4].  The no-growth flags
    compare the last window against the early maximum, the uniform-in-time
    boundedness surrogate.  Raises if the trajectory is shorter than one window.
    """
    times, sups = traj._dense_supnorms()
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


def mass_budget(traj: Trajectory, system) -> tuple[np.ndarray, np.ndarray]:
    """Residual of the weighted-mass budget against its linear bound.

    residual(t) = sum_i c_i m_i(t) - sum_i c_i m_i(0)
                  - int_0^t (K1 sum_i m_i + K2 |Omega|) ds

    with m_i the species masses and the time integral accumulated by
    trapezoid over the dense step series.  Under exact mass dissipation
    (K1 = K2 = 0) and conservative walls the residual stays at the level
    of accumulated rounding, since every transport solve is direct; under
    outflow walls it is non-positive.
    """
    times, masses = traj._dense_series()
    c = np.asarray(system.mass_weights, dtype=float)
    k1, k2 = system.mass_constants
    weighted = masses @ c
    total = masses.sum(axis=1)
    integrand = k1 * total + k2 * traj.grid.domain_volume
    dt = np.diff(times)
    accum = np.concatenate([[0.0], np.cumsum(0.5 * dt * (integrand[1:] + integrand[:-1]))])
    residual = weighted - weighted[0] - accum
    return times.copy(), residual
