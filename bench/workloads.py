"""Benchmark workloads: their CLI commands, generated inputs and correctness gates.

Three workloads, chosen to stress different layers:

* ``epi-desk``: ``run`` on the shipped 1D epidemic (40,000 tiny steps), where
  per-step costs (reaction, truncation, the banded solve, bookkeeping) and
  the dense step-series CSV dominate.
* ``hetero2d``: ``run`` on a generated 128x128 problem with blocky
  discontinuous diffusivities and one scheduled coefficient switch, where
  the 2D transport solve, operator assembly and VTK output dominate.
* ``reversible-session``: ``check``, ``run``, ``energy-report`` and
  ``epsilon-study`` on the shipped reversible config, each in a fresh
  process, where interpreter import, schema validation, the sampled checkers,
  the checkpoint read path and the epsilon ladder show.

Only the generated ``hetero2d`` inputs depend on the seed's content; the
shipped-config workloads receive the seed as ``--seed``.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

WORKLOADS = ("epi-desk", "hetero2d", "reversible-session")

EPIDEMIC_CONFIG = Path("configs") / "epidemic.json"
REVERSIBLE_CONFIG = Path("configs") / "reversible.json"

# hetero2d geometry and schedule
HETERO_CELLS = 128
HETERO_BLOCKS = 8
HETERO_LEVELS = (1e-3, 1e-2, 1e-1)
HETERO_DT = 0.01
HETERO_STEPS = 60
HETERO_SNAPSHOTS = 10
HETERO_DRIFTS = ([[0.2, 0.1], [0.1, -0.2]], [[-0.1, 0.2], [-0.2, -0.1]])

# correctness gates, the acceptance suite's tolerances
MIN_VALUE_FLOOR = -1e-12
MASS_BUDGET_TOL = 1e-8
EPI_CONSERVATION_RTOL = 1e-6
EPI_STEPS = 40_000
EPI_T_END = 200.0
REVERSIBLE_STEPS = 4_000


def _block_pattern(rng: random.Random) -> list[float]:
    """Per-cell diffusivity from an 8x8 block pattern over three levels.

    Every pattern uses each level on the same number of blocks (a seeded
    permutation of a fixed multiset), so seeds change where the jumps are
    but not how much of the domain is slow.
    """
    nblocks = HETERO_BLOCKS * HETERO_BLOCKS
    levels = [HETERO_LEVELS[k % len(HETERO_LEVELS)] for k in range(nblocks)]
    rng.shuffle(levels)
    side = HETERO_CELLS // HETERO_BLOCKS
    values = []
    # flat cell index is i * ny + j (the last axis runs fastest)
    for i in range(HETERO_CELLS):
        for j in range(HETERO_CELLS):
            values.append(levels[(i // side) * HETERO_BLOCKS + j // side])
    return values


def _write_field_csv(path: Path, values: list[float]) -> None:
    lines = [f"{k},{v!r}" for k, v in enumerate(values)]
    path.write_text("\n".join(lines) + "\n")


def generate_hetero2d(seed: int, directory: Path) -> Path:
    """Write the hetero2d config and its coefficient CSVs; return the config path.

    The same seed gives byte-identical files.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    epochs = []
    for epoch in range(2):
        entries = []
        for species in range(2):
            name = f"diffusion_e{epoch}_u{species + 1}.csv"
            _write_field_csv(directory / name, _block_pattern(rng))
            entries.append({"csv": name})
        epochs.append(entries)
    t_end = HETERO_DT * HETERO_STEPS
    cfg = {
        "grid": {"cells": [HETERO_CELLS, HETERO_CELLS], "extents": [[0.0, 1.0], [0.0, 1.0]]},
        "system": {
            "expressions": ["u2^2 - u1*u2", "u1*u2 - u2^2"],
            "mass_weights": [1.0, 1.0],
            "mass_constants": [0.0, 0.0],
            "sum_matrix": [[1.0, 0.0], [0.0, 1.0]],
            "intermediate_order": 2.0,
            "growth_order": 2.0,
            "growth_constant": 1.0,
            "initial": [
                "0.2 + exp(0 - 30*((x - 0.3)^2 + (y - 0.6)^2))",
                "0.5 + 0.5*exp(0 - 30*((x - 0.7)^2 + (y - 0.4)^2))",
            ],
        },
        "coefficients": {
            "diffusion": epochs[0],
            "drift": HETERO_DRIFTS[0],
            "schedule": [
                {"t": t_end / 2, "diffusion": epochs[1], "drift": HETERO_DRIFTS[1]},
            ],
        },
        "bc": {"all": "noflux"},
        "solver": {
            "dt": HETERO_DT,
            "t_end": t_end,
            "epsilon": 1e-6,
            "record_dt": t_end / HETERO_SNAPSHOTS,
        },
        "diagnostics": {"p_list": [1, 2], "energy": [{"p": 4, "weights": "auto"}]},
        "output": {"dir": "out", "vtk": True, "checkpoints": True},
        "seed": seed,
    }
    path = directory / "hetero2d.json"
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    return path


def prepare(workload: str, seed: int, inputs_dir: Path) -> Path:
    """Return the config a workload runs on, generating it when needed."""
    if workload == "epi-desk":
        return EPIDEMIC_CONFIG
    if workload == "hetero2d":
        return generate_hetero2d(seed, inputs_dir)
    if workload == "reversible-session":
        return REVERSIBLE_CONFIG
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def commands(workload: str, config: Path, out_dir: Path, seed: int) -> list[list[str]]:
    """CLI argument lists of one pass over the workload, in order."""
    names = ["check", "run", "energy-report", "epsilon-study"] \
        if workload == "reversible-session" else ["run"]
    return [[name, "--config", str(config), "--out", str(out_dir),
             "--seed", str(seed), "--quiet"] for name in names]


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _run_gate(out_dir: Path, steps: int, mass_budget: bool = True) -> list[str]:
    summary = _read_json(out_dir / "summary.json")
    problems = []
    if summary["steps"] != steps:
        problems.append(f"steps {summary['steps']} != {steps}")
    if not summary["min_value"] >= MIN_VALUE_FLOOR:
        problems.append(f"min_value {summary['min_value']} < {MIN_VALUE_FLOOR}")
    if mass_budget and not summary["mass_budget_max_abs"] <= MASS_BUDGET_TOL:
        problems.append(f"mass budget {summary['mass_budget_max_abs']} > {MASS_BUDGET_TOL}")
    return problems


def _epi_gate(out_dir: Path) -> list[str]:
    # the epidemic loses host mass to mortality: its budget is the host-mass
    # conservation residual of epi_report.json, not the weighted-mass budget
    problems = _run_gate(out_dir, EPI_STEPS, mass_budget=False)
    final_time = _read_json(out_dir / "summary.json")["final_time"]
    if abs(final_time - EPI_T_END) > 1e-9 * EPI_T_END:
        problems.append(f"final_time {final_time} != {EPI_T_END}")
    # initial host mass: susceptible + infected + recovered at t = 0
    with open(out_dir / "series_steps.csv") as fh:
        rows = [line for line in fh if not line.startswith("#")]
    first = dict(zip(rows[0].strip().split(","), map(float, rows[1].split(","))))
    host0 = sum(first[f"mass_{n}"] for n in ("susceptible", "infected", "recovered"))
    residual = _read_json(out_dir / "epi_report.json")["conservation_max_abs"]
    if not residual <= EPI_CONSERVATION_RTOL * host0:
        problems.append(f"conservation {residual} > {EPI_CONSERVATION_RTOL} * {host0}")
    return problems


def gate(workload: str, command: str, out_dir: Path) -> list[str]:
    """Problems with the outputs of one finished command; empty when it passed."""
    out_dir = Path(out_dir)
    try:
        if workload == "epi-desk":
            return _epi_gate(out_dir)
        if workload == "hetero2d":
            return _run_gate(out_dir, HETERO_STEPS)
        if command == "check":
            if _read_json(out_dir / "check_report.json")["passed"]:
                return []
            return ["check_report.json: passed is false"]
        if command == "run":
            return _run_gate(out_dir, REVERSIBLE_STEPS)
        if command == "energy-report":
            energies = _read_json(out_dir / "energy_report.json")["energies"]
            if energies and all(e["bounded_no_growth"] for e in energies):
                return []
            return ["energy_report.json: an energy is not bounded"]
        if _read_json(out_dir / "epsilon_study.json")["monotone_shrinking"]:
            return []
        return ["epsilon_study.json: distances are not monotone shrinking"]
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]


def digest_outputs(out_dir: Path) -> str:
    """SHA-256 over every deterministic output file, by relative path.

    summary.json is left out: its runtime_seconds is a wall-clock reading.
    """
    out_dir = Path(out_dir)
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        rel = path.relative_to(out_dir).as_posix()
        if rel == "summary.json":
            continue
        h.update(rel.encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()
