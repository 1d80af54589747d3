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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import BoundarySpec, CoefficientField, NoFluxWithDrift, StructuredGrid, discrete_norm
from .reactions import ReactionSystem

__all__ = [
    "SPECIES",
    "EpiParams",
    "EpiReport",
    "SInfinityEstimate",
    "AssumptionViolation",
    "validate_params",
    "build_epi_system",
    "build_epi_coefficients",
    "conservation_residual",
    "s_infinity",
    "decay_report",
]

SPECIES = ("susceptible", "infected", "recovered", "pathogen")

# share of the dense series, from its end, that the infected-mass tail fit uses
_TAIL_FIT_FRACTION = 0.5

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


def validate_params(params: EpiParams) -> list:
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
    return violations


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


def conservation_residual(traj, params: EpiParams) -> tuple[np.ndarray, np.ndarray]:
    """Residual of the exact host budget along the dense step series.

    residual(t) = host_mass(t) + mortality * trapz(infected_mass, 0..t)
                  - host_mass(0);
    host mass sums the susceptible, infected and recovered compartments.
    """
    times, masses = traj._dense_series()
    host = masses[:, :3].sum(axis=1)
    infected = masses[:, 1]
    dt = np.diff(times)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * dt * (infected[1:] + infected[:-1]))])
    return times.copy(), host + params.mortality * cum - host[0]


@dataclass
class SInfinityEstimate:
    """Finite-horizon estimate of the limiting susceptible mass."""

    estimate: float
    tail_bound: float
    decay_time: float
    fit_ok: bool


def s_infinity(traj, params: EpiParams) -> SInfinityEstimate:
    """Estimate the limiting susceptible mass and bound the horizon truncation.

    estimate = initial host mass - mortality * trapz(infected mass over the
    run).  The tail beyond the horizon is bounded by fitting an exponential
    to the late infected-mass series (its last `_TAIL_FIT_FRACTION`):
    tail <= mortality * infected_mass(T) * fitted decay time.  A failed fit
    (non-decaying or too-short tail) is reported through fit_ok - the
    estimate itself is still returned.
    """
    times, masses = traj._dense_series()
    host0 = float(masses[0, :3].sum())
    infected = masses[:, 1]
    total_infected = float(np.trapezoid(infected, times))
    estimate = host0 - params.mortality * total_infected

    start = int(len(times) * (1.0 - _TAIL_FIT_FRACTION))
    tail_t = times[start:]
    tail_i = infected[start:]
    good = tail_i > 0
    fit_ok = False
    decay_time = float("inf")
    if good.sum() >= 3:
        coeffs = np.polyfit(tail_t[good], np.log(tail_i[good]), 1)
        if coeffs[0] < 0:
            decay_time = float(-1.0 / coeffs[0])
            fit_ok = True
    tail_bound = params.mortality * float(infected[-1]) * decay_time
    return SInfinityEstimate(estimate=float(estimate), tail_bound=float(tail_bound),
                             decay_time=decay_time, fit_ok=fit_ok)


@dataclass
class EpiReport:
    """Series and flags of one scenario run; the snapshot times stay on the trajectory."""

    conservation_times: np.ndarray
    conservation_residual: np.ndarray
    s_fluctuation: np.ndarray         # ||s - mean(s)||_L2 snapshots
    s_inf: SInfinityEstimate
    final_fractions: dict             # species name -> final L1 / max L1
    decayed: dict                     # species name -> final fraction <= DECAY_THRESHOLD


def decay_report(traj, params: EpiParams) -> EpiReport:
    """Decay diagnostics for the infected, recovered and pathogen compartments.

    The final fractions come from the dense step masses (the fields are
    non-negative); the susceptible fluctuation around its volume average
    uses the snapshots.
    """
    grid = traj.grid
    _, masses = traj._dense_series()
    s = traj.states[:, 0]
    s_fluct = discrete_norm(s - (s @ grid.cell_volumes)[:, None] / grid.domain_volume, grid, 2)
    ct, cres = conservation_residual(traj, params)
    peaks = masses[:, 1:].max(axis=0)
    fractions = np.divide(masses[-1, 1:], peaks, out=np.zeros(peaks.size), where=peaks > 0)
    final_fractions = dict(zip(SPECIES[1:], fractions.tolist()))
    return EpiReport(
        conservation_times=ct,
        conservation_residual=cres,
        s_fluctuation=s_fluct,
        s_inf=s_infinity(traj, params),
        final_fractions=final_fractions,
        decayed={name: frac <= DECAY_THRESHOLD for name, frac in final_fractions.items()},
    )
