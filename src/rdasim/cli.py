"""Command-line entry point: check | run | energy-report | epsilon-study.

Exit codes: 0 success, 2 configuration error, 3 hypothesis-check failure,
4 solver failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import ExitStack
from pathlib import Path

import numpy as np

from . import diagnostics, epidemic, output
from .config import (
    ConfigError,
    build_boundary,
    build_coefficients,
    build_epi_params,
    build_grid,
    build_initial,
    build_solver_config,
    build_system,
    canonical_echo,
    config_hash,
    load_config,
)
from .energy import (  # min_eigenvalue: bench/tracing.py wraps it under this name
    EnergySpec,
    IndexBudgetError,
    WeightSearchError,
    certify_weights,
    min_eigenvalue,
    select_weights,
)
from .epidemic import AssumptionViolation, build_epi_coefficients, build_epi_system
from .integrator import (
    Problem,
    SimState,
    SolverError,
    dump_state,
    epsilon_refinement_study,
    load_state,
    run,
)
from .grid import StructuredGrid, face_diffusivities
from .output import (
    write_energy_csv,
    write_json,
    write_norm_series_csv,
    write_step_series_csv,
    write_vtk_structured_points,
)
from .reactions import (
    check_intermediate_sum,
    check_mass_control,
    check_polynomial_growth,
    check_quasi_positivity,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CHECK = 3
EXIT_SOLVER = 4


def _say(quiet: bool, message: str) -> None:
    if not quiet:
        print(message)


def _assemble(cfg, base_dir: Path):
    """Shared construction: grid, system, coefficients, bc, initial, params.

    A value the schema cannot see (a missing or non-numeric CSV field, a
    malformed expression, a non-positive diffusivity, an unknown builtin
    argument) fails in the constructors below; it becomes a ConfigError
    naming the cause.  AssumptionViolation passes through unchanged.
    """
    try:
        grid = build_grid(cfg)
        if "scenario" in cfg:
            params = build_epi_params(cfg, grid, base_dir)
            system, boundary = build_epi_system(params)
            coeff = build_epi_coefficients(params)
            initial = build_initial(cfg["scenario"]["epi"]["initial"], grid, 4)
            names = list(epidemic.SPECIES)
        else:
            params = None
            system = build_system(cfg)
            coeff = build_coefficients(cfg, grid, system.m, base_dir)
            boundary = build_boundary(cfg, system.m, grid.dim)
            initial = None
            if "initial" in cfg.get("system", {}):
                initial = build_initial(cfg["system"]["initial"], grid, system.m)
            names = [f"u{i + 1}" for i in range(system.m)]
    except ConfigError:
        raise
    except (ValueError, TypeError, OSError) as exc:
        raise ConfigError(f"{type(exc).__name__}: {exc}") from None
    return grid, system, coeff, boundary, initial, params, names


def _energy_entries(cfg, m: int) -> list:
    """The diagnostics.energy entries; an explicit weight list needs one entry per species."""
    entries = cfg.get("diagnostics", {}).get("energy", [])
    for k, entry in enumerate(entries):
        weights = entry.get("weights", "auto")
        if weights != "auto" and len(weights) != m:
            raise ConfigError(f"diagnostics.energy[{k}].weights has {len(weights)} "
                              f"entries for {m} species")
    return entries


def _certified_energy(entry, system, faces, seed: int) -> tuple:
    """One diagnostics.energy entry's spec and certificate record; 'auto' runs the search.

    An order whose multi-indices exceed the enumeration cap is a ConfigError.
    """
    p, weights = entry["p"], entry.get("weights", "auto")
    record = {"p": p}
    try:
        if weights == "auto":
            weights, record["bound_constant"] = select_weights(system, faces, p, seed=seed)
        spec = EnergySpec(p, weights)
    except IndexBudgetError as exc:
        raise ConfigError(f"diagnostics.energy entry with p={p}: {exc}") from None
    record.update(certify_weights(faces, spec.weights), weights=spec.weights.tolist())
    return spec, record


def _resolve_energy_specs(cfg, system, coeff, seed: int):
    """Energy specs from the diagnostics block, and the records of the 'auto' searches."""
    faces = face_diffusivities(coeff.grid, coeff)
    resolved = [_certified_energy(entry, system, faces, seed)
                for entry in _energy_entries(cfg, system.m)]
    return ([spec for spec, _ in resolved],
            [record for _, record in resolved if "bound_constant" in record])


def _energy_records(traj, specs, csv_path: Path, meta: dict) -> list:
    """Trace each energy along the snapshots, write the CSV, return one record per spec.

    `bounded_no_growth` is the trend test on the latter half of the series:
    a series that rises through a transient and then plateaus is bounded;
    one still climbing is not.
    """
    values = diagnostics.energy_trace(traj, specs)
    write_energy_csv(csv_path, traj.times, specs, values, meta)
    return [{"p": spec.p, "weights": spec.weights.tolist(),
             "bounded_no_growth": diagnostics.no_growth(series[series.size // 2:]),
             "sup_value": float(series.max()), "initial_value": float(series[0])}
            for spec, series in zip(specs, values)]


def cmd_check(cfg, base_dir: Path, out_dir: Path, seed: int, quiet: bool) -> int:
    """Run every structural hypothesis check plus the dissipativity certificate."""
    report = {"config_sha256": config_hash(cfg), "seed": seed, "checks": []}
    failures = []

    try:
        grid, system, coeff, boundary, _, params, _ = _assemble(cfg, base_dir)
    except AssumptionViolation as exc:
        report["checks"].append({
            "name": "scenario_assumptions",
            "passed": False,
            "violations": [
                {"assumption": v["assumption"], "message": v["message"], "cells": v["cells"]}
                for v in exc.violations
            ],
        })
        write_json(out_dir / "check_report.json", report)
        _say(quiet, f"FAIL scenario_assumptions: {exc}")
        return EXIT_CHECK
    energy_entries = _energy_entries(cfg, system.m) or [{"p": 2}]

    for checker in (check_quasi_positivity, check_mass_control, check_intermediate_sum,
                    check_polynomial_growth):
        result = checker(system, seed=seed)
        entry = {
            "name": result.check,
            "passed": result.passed,
            "samples_tested": result.samples_tested,
            "violation_count": result.violation_count,
            "estimated_constant": result.estimated_constant,
            "details": result.details,
        }
        if not result.passed:
            entry["witnesses"] = [
                {"u": list(u), "x": None if x is None else list(np.atleast_1d(x)),
                 "t": t, "residual": res}
                for u, x, t, res in result.violations[:5]
            ]
            failures.append(result.check)
        report["checks"].append(entry)
        _say(quiet, f"{'ok  ' if result.passed else 'FAIL'} {result.check} "
                    f"({result.samples_tested} samples)")

    faces = face_diffusivities(grid, coeff)
    for entry in energy_entries:
        name = f"dissipativity_p{entry['p']}"
        try:
            _, record = _certified_energy(entry, system, faces, seed)
        except WeightSearchError as exc:
            record = {"passed": False, "error": str(exc)}
        report["checks"].append({"name": name, **record})
        detail = record.get("error") or "weights {weights}, margin {margin:.3g}".format(**record)
        _say(quiet, f"{'ok  ' if record['passed'] else 'FAIL'} {name} ({detail})")
        if not record["passed"]:
            failures.append(name)

    report["passed"] = not failures
    write_json(out_dir / "check_report.json", report)
    if failures:
        _say(quiet, f"failed checks: {', '.join(failures)}")
        return EXIT_CHECK
    return EXIT_OK


def cmd_run(cfg, base_dir: Path, out_dir: Path, seed: int, quiet: bool) -> int:
    """Integrate, streaming the step series and folding its budgets a block at a time.

    `series_steps.csv` and, for the epidemic, `epi_conservation.csv` are
    written from each block of step rows `run` hands over, and renamed
    into place once the run has finished: a failed run leaves neither.
    """
    grid, system, coeff, boundary, initial, params, names = _assemble(cfg, base_dir)
    if initial is None:
        raise ConfigError("an initial state is required to run (system.initial)")
    solver_cfg = build_solver_config(cfg)
    if solver_cfg.record_dt is None and "record_dt" not in cfg["solver"]:
        solver_cfg.record_dt = solver_cfg.t_end / 200.0
    eps = cfg["solver"].get("epsilon", 1e-6)
    problem = Problem(grid, system, coeff, boundary)
    meta = {"config_sha256": config_hash(cfg), "seed": seed}
    # a failing weight search stops the command before the integration
    specs, searches = _resolve_energy_specs(cfg, system, coeff, seed)

    epi_steps = None
    if params is not None:
        # the initial row, one per step of dt and one per clipped epoch end
        epochs = len(coeff.switch_times()) + 1
        expected = int(np.ceil(solver_cfg.t_end / solver_cfg.dt)) + epochs + 1
        epi_steps = epidemic.EpiSteps(params, expected)
    budget_carry, budget_max_abs = None, 0.0

    def on_steps(rows):
        nonlocal budget_carry, budget_max_abs
        write_steps(rows)
        times, masses = rows[:, 0], np.ascontiguousarray(rows[:, 1:1 + system.m])
        residual, budget_carry = diagnostics.mass_budget(times, masses, system,
                                                         grid.domain_volume, budget_carry)
        budget_max_abs = np.maximum(budget_max_abs, np.max(np.abs(residual)))
        if epi_steps is not None:
            write_host(np.column_stack([times, epi_steps.add(times, masses)]))

    started = time.perf_counter()
    with ExitStack() as streams:
        write_steps = streams.enter_context(
            write_step_series_csv(out_dir / "series_steps.csv", names, meta))
        if epi_steps is not None:
            write_host = streams.enter_context(output.csv_stream(
                out_dir / "epi_conservation.csv", ["time", "residual"], meta))
        traj = run(SimState(0.0, initial, eps), solver_cfg, problem, on_steps=on_steps)
    elapsed = time.perf_counter() - started
    _say(quiet, f"integrated to t={traj.times[-1]:.6g} "
                f"({traj.steps} steps, {elapsed:.2f}s)")

    if epi_steps is not None:
        # before the snapshot diagnostics, which then reuse the memory that
        # the tail fit over the step columns frees
        epi_report = epidemic.decay_report(traj, epi_steps)
        write_json(out_dir / "epi_report.json", {
            "config_sha256": meta["config_sha256"],
            "seed": seed,
            "conservation_max_abs": epi_report.conservation_max_abs,
            "final_fractions": epi_report.final_fractions,
            "decayed": epi_report.decayed,
            "s_fluctuation_final": float(epi_report.s_fluctuation[-1]),
            "s_infinity": {
                "estimate": epi_report.s_inf.estimate,
                "tail_bound": epi_report.s_inf.tail_bound,
                "decay_time": epi_report.s_inf.decay_time,
                "fit_ok": epi_report.s_inf.fit_ok,
            },
        })

    p_list = cfg.get("diagnostics", {}).get("p_list", [1.0, 2.0])
    series = diagnostics.norm_series(traj, p_list)
    write_norm_series_csv(out_dir / "series_norms.csv", series, names, meta)

    summary = {
        "config_sha256": meta["config_sha256"],
        "seed": seed,
        "config_echo": canonical_echo(cfg),
        "final_time": float(traj.times[-1]),
        "steps": traj.steps,
        "min_value": traj.min_value,
        "halvings_total": traj.halvings_total,
        "mass_budget_max_abs": float(budget_max_abs),
    }

    if specs:
        summary["energy"] = _energy_records(traj, specs, out_dir / "series_energy.csv", meta)
        if searches:
            summary["weight_searches"] = searches

    if cfg["output"].get("checkpoints", True):
        traj_dir = out_dir / "trajectory"
        files = [f"state_{k:06d}.ck" for k in range(traj.times.size)]
        for name, t, fields in zip(files, traj.times, traj.states):
            dump_state(SimState(float(t), fields, eps), grid, traj_dir / name)
        write_json(traj_dir / "trajectory.json", {
            "config_sha256": meta["config_sha256"],
            "seed": seed,
            "m": system.m,
            "epsilon": eps,
            "times": [float(t) for t in traj.times],
            "files": files,
            "grid": {
                "origin": list(grid.origin),
                "widths": [w.tolist() for w in grid.widths],
            },
        })

    if cfg["output"].get("vtk", False):
        for k, t in enumerate(traj.times):
            fields = {names[i]: traj.states[k][i] for i in range(system.m)}
            write_vtk_structured_points(out_dir / "vtk" / f"snapshot_{k:06d}.vtk",
                                        grid, fields, title=f"t={float(t)!r}")

    write_json(out_dir / "summary.json", summary)
    return EXIT_OK


def load_trajectory(traj_dir: Path):
    """Rebuild a snapshot-only trajectory from a checkpoint index.

    The index times must equal the times stored in the checkpoint headers.
    A checkpoint that `load_state` rejects (cut short, a non-finite value or
    one below -STATE_TOL) makes the trajectory corrupt: a ConfigError
    naming the file.
    """
    index_path = Path(traj_dir) / "trajectory.json"
    if not index_path.exists():
        raise ConfigError(f"no trajectory index at {index_path}")
    try:
        index = json.loads(index_path.read_text())
        grid = StructuredGrid([np.asarray(w) for w in index["grid"]["widths"]],
                              origin=index["grid"]["origin"])
        loaded = [load_state(Path(traj_dir) / name, grid) for name in index["files"]]
        traj = diagnostics.Trajectory(grid=grid, times=index["times"],
                                      states=np.stack([state.fields for state in loaded]))
        for name, t, state in zip(index["files"], traj.times, loaded):
            if state.t != t:
                raise ValueError(f"checkpoint {name} holds t={state.t!r}, "
                                 f"but the index lists t={float(t)!r}")
    except (KeyError, ValueError, OSError) as exc:
        raise ConfigError(f"corrupt trajectory at {traj_dir}: {exc}") from None
    return traj, index


def cmd_energy_report(cfg, base_dir: Path, out_dir: Path, seed: int, quiet: bool) -> int:
    traj, index = load_trajectory(out_dir / "trajectory")
    grid, system, coeff, *_ = _assemble(cfg, base_dir)
    specs, searches = _resolve_energy_specs(cfg, system, coeff, seed)
    if not specs:
        specs = [EnergySpec(2, np.ones(system.m))]
    meta = {"config_sha256": config_hash(cfg), "seed": seed}
    payload = {
        "config_sha256": meta["config_sha256"],
        "seed": seed,
        "trajectory_sha256": index.get("config_sha256"),
        "energies": _energy_records(traj, specs, out_dir / "energy_report.csv", meta),
    }
    if searches:
        payload["weight_searches"] = searches
    write_json(out_dir / "energy_report.json", payload)
    for entry in payload["energies"]:
        _say(quiet, f"p={entry['p']}: bounded={entry['bounded_no_growth']} "
                    f"sup={entry['sup_value']!r} initial={entry['initial_value']!r}")
    return EXIT_OK


def cmd_epsilon_study(cfg, base_dir: Path, out_dir: Path, seed: int, quiet: bool) -> int:
    grid, system, coeff, boundary, initial, _, _ = _assemble(cfg, base_dir)
    if initial is None:
        raise ConfigError("an initial state is required for the epsilon study")
    solver_cfg = build_solver_config(cfg)
    if solver_cfg.record_dt is None and "record_dt" not in cfg["solver"]:
        solver_cfg.record_dt = solver_cfg.t_end / 50.0
    eps_list = cfg.get("diagnostics", {}).get("epsilon_study", [1e-2, 1e-3, 1e-4])
    problem = Problem(grid, system, coeff, boundary)
    report = epsilon_refinement_study(problem, initial, eps_list, solver_cfg)
    report["config_sha256"] = config_hash(cfg)
    report["seed"] = seed
    write_json(out_dir / "epsilon_study.json", report)
    _say(quiet, f"distances: {report['pair_distances']} "
                f"(monotone={report['monotone_shrinking']})")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rdasim",
        description="Finite-volume reaction-diffusion-advection simulator and diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("check", "run structural hypothesis checks and the dissipativity certificate"),
        ("run", "integrate the configured problem and write diagnostics"),
        ("energy-report", "recompute energy traces for a stored trajectory"),
        ("epsilon-study", "compare trajectories across truncation strengths"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=None, help="output directory (default: config output.dir)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        base_dir = Path(args.config).resolve().parent
        seed = args.seed if args.seed is not None else cfg.get("seed", 0)
        out_dir = Path(args.out) if args.out else Path(cfg["output"]["dir"])
        out_dir.mkdir(parents=True, exist_ok=True)
        dispatch = {
            "check": cmd_check,
            "run": cmd_run,
            "energy-report": cmd_energy_report,
            "epsilon-study": cmd_epsilon_study,
        }
        return dispatch[args.command](cfg, base_dir, out_dir, seed, args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (AssumptionViolation, WeightSearchError) as exc:
        print(f"hypothesis failure: {exc}", file=sys.stderr)
        return EXIT_CHECK
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
