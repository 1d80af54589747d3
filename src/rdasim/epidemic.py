"""Spatial host-pathogen scenario: three host compartments plus free pathogen.

Species order is (susceptible, infected, recovered, pathogen).  The host
compartments diffuse; the pathogen additionally drifts and is shed by the
infected class.  Reactions per cell:

    F_s = -sigma_I s i - sigma_B s b + gamma_w r
    F_i = +sigma_I s i + sigma_B s b - (lambda_r + alpha_m) i
    F_r = lambda_r i - gamma_w r
    F_b = phi i - delta_b b

with per-cell transmission rates sigma_I (direct contact), sigma_B
(environmental uptake) and shedding phi, and scalar waning, recovery,
mortality and pathogen-decay rates.  All walls are total-flux-zero, so
summing the three host equations gives the exact budget

    host_mass(t) + mortality * int_0^t infected_mass = host_mass(0),

and when the shedding rate never exceeds the mortality rate the infected,
recovered and pathogen masses decay while the susceptible field settles at
the limit  initial host mass - mortality * cumulative infected mass.

The budget and the decay diagnostics read a run's step rows, which
`EpiSteps` folds one block at a time as `integrator.run` hands them over;
`decay_report` returns the body of `epi_report.json` as a plain dict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagnostics import _budget_block
from .grid import BoundarySpec, CoefficientField, NoFluxWithDrift, StructuredGrid, discrete_norm
from .reactions import ReactionSystem

__all__ = [
    "SPECIES",
    "EpiParams",
    "EpiSteps",
    "AssumptionViolation",
    "validate_params",
    "build_epi_system",
    "build_epi_coefficients",
    "conservation_residual",
    "s_infinity",
    "decay_report",
]

SPECIES = ("susceptible", "infected", "recovered", "pathogen")

# share of the step series, from its end, that the infected-mass tail fit uses
_TAIL_FIT_FRACTION = 0.5

# the most step rows EpiSteps allocates room for before the first step
_RESERVED_ROWS = 1 << 20

# final fraction of its peak mass at or below which a compartment has decayed
DECAY_THRESHOLD = 0.01


class AssumptionViolation(RuntimeError):
    """A structural assumption of the scenario fails; carries the report."""

    def __init__(self, violations: list):
        names = ", ".join(sorted({v["assumption"] for v in violations}))
        super().__init__(f"scenario assumptions violated: {names}")
        self.violations = violations


def _cellwise(grid: StructuredGrid, value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return np.full(grid.ncells, float(arr))
    arr = arr.ravel()
    if arr.size != grid.ncells:
        raise ValueError(f"{name} has {arr.size} values for {grid.ncells} cells")
    return arr


@dataclass
class EpiParams:
    """Parameter pack for the host-pathogen scenario.

    Per-cell fields accept scalars (broadcast) or length-ncells arrays.
    The pathogen drift is a (dim, ncells) field, a per-axis list, or a
    scalar.
    """

    grid: StructuredGrid
    diffusivities: object            # (4, ncells) or per-species scalars
    contact_rate: object             # sigma_I
    uptake_rate: object              # sigma_B
    shedding: object                 # phi
    waning_rate: float               # recovered -> susceptible
    recovery_rate: float             # infected -> recovered
    mortality: float                 # infected removal
    pathogen_decay: float
    drift: object = 0.0              # pathogen drift

    def __post_init__(self):
        g = self.grid
        diff = self.diffusivities
        if np.asarray(diff, dtype=object).ndim == 0:
            diff = [diff] * 4
        if len(diff) != 4:
            raise ValueError("need one diffusivity per species (4)")
        self.diffusivities = np.stack([_cellwise(g, d, f"diffusivity[{k}]")
                                       for k, d in enumerate(diff)])
        self.contact_rate = _cellwise(g, self.contact_rate, "contact_rate")
        self.uptake_rate = _cellwise(g, self.uptake_rate, "uptake_rate")
        self.shedding = _cellwise(g, self.shedding, "shedding")
        self.drift = self._drift_field(self.drift)
        for name in ("waning_rate", "recovery_rate", "mortality", "pathogen_decay"):
            val = float(getattr(self, name))
            if not val > 0:
                raise ValueError(f"{name} must be positive, got {val}")
            setattr(self, name, val)

    def _drift_field(self, value) -> np.ndarray:
        g = self.grid
        arr = np.asarray(value, dtype=float)
        if arr.ndim == 0:
            return np.full((g.dim, g.ncells), float(arr))
        if arr.ndim == 1 and arr.size == g.dim:
            return np.repeat(arr[:, None], g.ncells, axis=1)
        if arr.shape == (g.dim, g.ncells):
            return arr
        raise ValueError(f"drift must be scalar, per-axis, or (dim, ncells); got {arr.shape}")


def validate_params(params: EpiParams) -> None:
    """Check the scenario assumptions cellwise; raise on any violation.

    Checked: a positive lower bound for every diffusivity, finiteness of
    the drift, two-sided positive bounds for both transmission rates, and
    the shedding bound (shedding never exceeds the mortality rate, the
    hypothesis behind the decay of the epidemic).  The raised error lists
    every violation with its cell locations.
    """
    violations = []

    def flag(assumption, message, cells):
        violations.append({
            "assumption": assumption,
            "message": message,
            "cells": np.asarray(cells).ravel()[:20].tolist(),
        })

    bad = np.nonzero(~(params.diffusivities > 0.0) | ~np.isfinite(params.diffusivities))[1]
    if bad.size:
        flag("diffusivity-lower-bound", "diffusivities must have a positive lower bound", bad)
    if not np.all(np.isfinite(params.drift)):
        flag("drift-bound", "drift must be uniformly bounded",
             np.nonzero(~np.isfinite(params.drift))[1])
    for name, arr in (("contact", params.contact_rate), ("uptake", params.uptake_rate)):
        bad = np.nonzero(~(arr > 0.0) | ~np.isfinite(arr))[0]
        if bad.size:
            flag("transmission-rate-bounds", f"{name} rate must be positive and bounded", bad)
    bad = np.nonzero(~(params.shedding >= 0.0))[0]
    if bad.size:
        flag("shedding-bound", "shedding must be non-negative", bad)
    over = np.nonzero(params.shedding > params.mortality)[0]
    if over.size:
        flag("shedding-bound",
             f"shedding exceeds the mortality rate {params.mortality} "
             f"(max {params.shedding.max():.6g})", over)
    if violations:
        raise AssumptionViolation(violations)


def build_epi_system(params: EpiParams) -> tuple[ReactionSystem, BoundarySpec]:
    """Reaction system and boundary conditions for the scenario.

    Walls are total-flux-zero for every species (the pathogen genuinely
    needs the combined diffusive + advective flux to vanish; the host
    compartments carry no drift, so the same wall reduces to a diffusive
    no-flux condition).  The evaluator applies the scalar-rate exchange
    (waning, recovery, mortality, pathogen decay) as one constant 4x4
    matrix and adds the infection and shedding terms with their per-cell
    rates.  The grid's own cell-center array gets the per-cell rate
    arrays, and uniform rates are used as scalars at any positions (the
    products have the same bits); only spatially varying rates at other
    positions are resolved by locating those positions on the grid.
    """
    validate_params(params)
    grid = params.grid
    sigma_i = params.contact_rate
    sigma_b = params.uptake_rate
    phi = params.shedding
    gamma_w = params.waning_rate
    lam = params.recovery_rate
    alpha = params.mortality
    delta_b = params.pathogen_decay

    uniform_rates = all(np.ptp(arr) == 0.0 for arr in (sigma_i, sigma_b, phi))
    exchange = np.array([
        [0.0, 0.0, gamma_w, 0.0],
        [0.0, -(lam + alpha), 0.0, 0.0],
        [0.0, lam, -gamma_w, 0.0],
        [0.0, 0.0, 0.0, -delta_b],
    ])

    def evaluate(x, t, u):
        u = np.asarray(u, dtype=float)
        single = u.ndim == 1
        if single:
            u = u[:, None]
        if x is grid.cell_centers and u.shape[1] == grid.ncells:
            si, sb, sh = sigma_i, sigma_b, phi
        elif uniform_rates:
            si, sb, sh = sigma_i[0], sigma_b[0], phi[0]
        elif x is None:
            raise ValueError("spatially varying rates need query positions")
        else:
            cells = grid.locate(x)
            si, sb, sh = sigma_i[cells], sigma_b[cells], phi[cells]
        s, i, _, b = u
        infection = s * (si * i + sb * b)
        out = exchange @ u
        out[0] -= infection
        out[1] += infection
        out[3] += sh * i
        return out[:, 0] if single else out

    rate_scale = max(float(sigma_i.max()), float(sigma_b.max()), gamma_w, lam + alpha,
                     float(phi.max()) + delta_b)
    system = ReactionSystem(
        m=4,
        evaluate=evaluate,
        mass_weights=np.ones(4),
        mass_constants=(0.0, 0.0),
        sum_matrix=np.tril(np.ones((4, 4))),
        intermediate_order=2.0,
        growth_order=2.0,
        growth_constant=2.0 * rate_scale,
        sample_positions=grid.cell_centers,
    )
    boundary = BoundarySpec.uniform(4, grid.dim, NoFluxWithDrift())
    return system, boundary


def build_epi_coefficients(params: EpiParams) -> CoefficientField:
    """Coefficient field: isotropic per-species diffusion, drift on the pathogen."""
    grid = params.grid
    diffusion = np.repeat(params.diffusivities[:, None, :], grid.dim, axis=1)

    drift = np.zeros((4, grid.dim, grid.ncells))
    drift[3] = params.drift
    return CoefficientField(grid, diffusion, drift)


def conservation_residual(times: np.ndarray, masses: np.ndarray, params: EpiParams,
                          carry=None) -> tuple[np.ndarray, tuple]:
    """Residual of the exact host budget along rows of the step series, a block at a time.

    residual(t) = host_mass(t) + mortality * trapz(infected_mass, 0..t)
                  - host_mass(0);
    host mass sums the susceptible, infected and recovered compartments.
    `times` (n,) and `masses` (n, 4) are consecutive step rows; as in
    `diagnostics.mass_budget`, a later block continues from the `carry` the
    previous call returned, and any split gives the bits of one call.
    Returns (residual, carry).
    """
    host, host0, cum, carry = _budget_block(times, masses, carry,
                                            lambda ms: ms[:, :3].sum(axis=1),
                                            lambda ms: ms[:, 1])
    return host + params.mortality * cum - host0, carry


def s_infinity(times: np.ndarray, infected: np.ndarray, host0: float,
               params: EpiParams) -> dict:
    """Estimate the limiting susceptible mass and bound the horizon truncation.

    `times` and `infected` are the step series' time and infected-mass
    columns, and `host0` the initial host mass.  estimate = host0 -
    mortality * trapz(infected mass over the run).  The tail beyond the
    horizon is bounded by fitting an exponential to the late infected-mass
    series (its last `_TAIL_FIT_FRACTION`): tail <= mortality *
    infected_mass(T) * fitted decay time.  A failed fit (non-decaying or
    too-short tail) is reported through fit_ok - the estimate itself is
    still returned.  Returns {"estimate", "tail_bound", "decay_time",
    "fit_ok"}.
    """
    # the tail fit first: the trapezoid's smaller temporaries then reuse the
    # memory that the fit's larger ones free
    start = int(len(times) * (1.0 - _TAIL_FIT_FRACTION))
    tail_t = times[start:]
    tail_i = infected[start:]
    good = tail_i > 0
    if not good.all():
        # the common all-positive tail is fitted without copies of its columns
        tail_t, tail_i = tail_t[good], tail_i[good]
    fit_ok = False
    decay_time = float("inf")
    if tail_i.size >= 3:
        coeffs = np.polyfit(tail_t, np.log(tail_i), 1)
        if coeffs[0] < 0:
            decay_time = float(-1.0 / coeffs[0])
            fit_ok = True
    tail_bound = params.mortality * float(infected[-1]) * decay_time

    total_infected = float(np.trapezoid(infected, times))
    estimate = host0 - params.mortality * total_infected
    return {"estimate": float(estimate), "tail_bound": float(tail_bound),
            "decay_time": decay_time, "fit_ok": fit_ok}


class EpiSteps:
    """What `decay_report` reads of a run's step series, folded one block at a time.

    `add(times, masses)` takes the next consecutive rows of the series,
    times (n,) and masses (n, 4), and returns their host-budget residual
    (`conservation_residual`).  It keeps the residual's largest magnitude,
    the initial host mass, each compartment's peak and last mass, and the
    time and infected-mass columns whole, 16 bytes a step: `s_infinity`
    integrates them with np.trapezoid, whose pairwise sum no running sum
    reproduces bit for bit, and fits their last half.  Room for
    `expected_rows` rows of the columns (at most `_RESERVED_ROWS`) is
    allocated up front, so they are not copied unless the run outgrows it,
    as when dt is halved; each time it does, the room doubles.
    """

    def __init__(self, params: EpiParams, expected_rows: int = 0):
        self.params = params
        self.conservation_max_abs = 0.0
        self.host0 = self.peaks = self.final = self._carry = None
        # time and infected mass, one column per step row
        self._columns = np.empty((2, min(expected_rows, _RESERVED_ROWS)))
        self._rows = 0

    def add(self, times: np.ndarray, masses: np.ndarray) -> np.ndarray:
        residual, self._carry = conservation_residual(times, masses, self.params, self._carry)
        self.conservation_max_abs = np.maximum(self.conservation_max_abs,
                                               np.max(np.abs(residual)))
        peaks = masses.max(axis=0)
        if self.host0 is None:
            self.host0, self.peaks = float(masses[0, :3].sum()), peaks
        else:
            self.peaks = np.maximum(self.peaks, peaks)
        self.final = masses[-1].copy()
        n, k = self._rows, len(times)
        if n + k > self._columns.shape[1]:
            grown = np.empty((2, 2 * (n + k)))
            grown[:, :n] = self._columns[:, :n]
            self._columns = grown
        self._columns[0, n:n + k] = times
        self._columns[1, n:n + k] = masses[:, 1]
        self._rows = n + k
        return residual


def decay_report(traj, steps: EpiSteps) -> dict:
    """The body of `epi_report.json` of one run, as a plain dict.

    conservation_max_abs, final_fractions (each of the infected, recovered
    and pathogen compartments' final mass over its peak), decayed (that
    fraction at or below DECAY_THRESHOLD) and s_infinity come from the step
    series that `steps` folded; s_fluctuation_final is the last of the
    susceptible fluctuations ||s - mean(s)||_L2 over the stacked snapshots,
    whose bits a one-row matrix product would not reproduce.
    """
    grid = traj.grid
    s = traj.states[:, 0]
    s_fluct = discrete_norm(s - (s @ grid.cell_volumes)[:, None] / grid.domain_volume, grid, 2)
    peaks = steps.peaks[1:]
    fractions = np.divide(steps.final[1:], peaks, out=np.zeros(peaks.size), where=peaks > 0)
    final_fractions = dict(zip(SPECIES[1:], fractions.tolist()))
    times, infected = steps._columns[:, :steps._rows]
    return {
        "conservation_max_abs": float(steps.conservation_max_abs),
        "final_fractions": final_fractions,
        "decayed": {name: frac <= DECAY_THRESHOLD for name, frac in final_fractions.items()},
        "s_fluctuation_final": float(s_fluct[-1]),
        "s_infinity": s_infinity(times, infected, steps.host0, steps.params),
    }
