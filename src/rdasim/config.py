"""Run configuration: JSON schema, validation, and object construction.

A run is described by a single JSON document.  The schema rejects unknown
keys everywhere; values representing per-cell fields accept a number
(uniform), an inline expression over the space symbols, or a two-column
CSV file mapping cell index to value.  A configuration carries either a
generic `system` block (builtin name or one expression per species) or an
epidemic `scenario` block, never both.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .epidemic import EpiParams
from .grid import (
    BoundarySpec,
    CoefficientField,
    Dirichlet,
    NoFluxWithDrift,
    Robin,
    StructuredGrid,
    _sides,
)
from .integrator import SolverConfig
from .reactions import BUILTIN_SYSTEMS, compile_expression, system_from_expressions
from .schema import _violation

__all__ = [
    "ConfigError",
    "CONFIG_SCHEMA",
    "load_config",
    "validate_config",
    "canonical_echo",
    "config_hash",
    "build_grid",
    "build_system",
    "build_coefficients",
    "build_boundary",
    "build_initial",
    "build_epi_params",
    "build_solver_config",
]


class ConfigError(ValueError):
    """The configuration document is invalid."""


_FIELD_SPEC = {
    "oneOf": [
        {"type": "number"},
        {
            "type": "object",
            "properties": {"expr": {"type": "string"}},
            "required": ["expr"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {"csv": {"type": "string"}},
            "required": ["csv"],
            "additionalProperties": False,
        },
    ]
}

_VECTOR_SPEC = {
    "oneOf": [
        {"type": "number"},
        {"type": "array", "items": _FIELD_SPEC, "minItems": 1, "maxItems": 2},
    ]
}

# a scalar, per-axis entries, or one field for all axes
_DIFFUSION_SPEC = {"oneOf": _VECTOR_SPEC["oneOf"] + _FIELD_SPEC["oneOf"][1:]}

_INITIAL_SPEC = {"oneOf": [{"type": "number"}, {"type": "string"}]}

_BC_KIND = {"enum": ["dirichlet", "noflux", "robin"]}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["grid", "solver", "output"],
    "properties": {
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "required": ["cells", "extents"],
            "properties": {
                "cells": {"type": "array", "items": {"type": "integer", "minimum": 1},
                          "minItems": 1, "maxItems": 2},
                "extents": {
                    "type": "array",
                    "items": {"type": "array", "items": {"type": "number"},
                              "minItems": 2, "maxItems": 2},
                    "minItems": 1, "maxItems": 2,
                },
            },
        },
        "system": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "builtin": {"type": "string"},
                "builtin_args": {"type": "object"},
                "expressions": {"type": "array", "items": {"type": "string"}, "minItems": 1},
                "mass_weights": {"type": "array", "items": {"type": "number"}},
                "mass_constants": {"type": "array", "items": {"type": "number"},
                                   "minItems": 2, "maxItems": 2},
                "sum_matrix": {"type": "array",
                               "items": {"type": "array", "items": {"type": "number"}}},
                "intermediate_order": {"type": "number"},
                "growth_order": {"type": "number"},
                "growth_constant": {"type": "number"},
                "initial": {"type": "array", "items": _INITIAL_SPEC},
            },
        },
        "coefficients": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "diffusion": {"type": "array", "items": _DIFFUSION_SPEC},
                "drift": {"type": "array", "items": _VECTOR_SPEC},
                "schedule": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "additionalProperties": False,
                        "required": ["t"],
                        "properties": {
                            "t": {"type": "number"},
                            "diffusion": {"type": "array", "items": _DIFFUSION_SPEC},
                            "drift": {"type": "array", "items": _VECTOR_SPEC},
                        },
                    },
                },
            },
            "required": ["diffusion"],
        },
        "bc": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "all": _BC_KIND,
                "alpha": {"type": "number", "minimum": 0},
                "species": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "additionalProperties": False,
                        "properties": {
                            "all": _BC_KIND,
                            "alpha": {"type": "number", "minimum": 0},
                            "sides": {
                                "type": "object",
                                "additionalProperties": False,
                                "properties": {
                                    side: {
                                        "type": "object",
                                        "additionalProperties": False,
                                        "required": ["kind"],
                                        "properties": {
                                            "kind": _BC_KIND,
                                            "alpha": {"type": "number", "minimum": 0},
                                        },
                                    }
                                    for side in _sides(2)
                                },
                            },
                        },
                    },
                },
            },
        },
        "solver": {
            "type": "object",
            "additionalProperties": False,
            "required": ["dt", "t_end"],
            "properties": {
                "dt": {"type": "number", "exclusiveMinimum": 0},
                "t_end": {"type": "number", "exclusiveMinimum": 0},
                "epsilon": {"type": "number", "exclusiveMinimum": 0},
                "max_halvings": {"type": "integer", "minimum": 0},
                # null records every step
                "record_dt": {"type": ["number", "null"], "exclusiveMinimum": 0},
            },
        },
        "diagnostics": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "p_list": {"type": "array", "items": {"type": "number", "minimum": 1}},
                "energy": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "additionalProperties": False,
                        "required": ["p"],
                        "properties": {
                            "p": {"type": "integer", "minimum": 1},
                            "weights": {
                                "oneOf": [
                                    {"const": "auto"},
                                    {"type": "array",
                                     "items": {"type": "number", "exclusiveMinimum": 0}},
                                ]
                            },
                        },
                    },
                },
                "epsilon_study": {
                    "type": "array",
                    "items": {"type": "number", "exclusiveMinimum": 0},
                    "minItems": 2,
                },
            },
        },
        "scenario": {
            "type": "object",
            "additionalProperties": False,
            "required": ["epi"],
            "properties": {
                "epi": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["diffusivities", "contact_rate", "uptake_rate",
                                 "shedding", "waning_rate", "recovery_rate",
                                 "mortality", "pathogen_decay", "initial"],
                    "properties": {
                        "diffusivities": {"type": "array", "items": _FIELD_SPEC,
                                          "minItems": 4, "maxItems": 4},
                        "drift": _VECTOR_SPEC,
                        "contact_rate": _FIELD_SPEC,
                        "uptake_rate": _FIELD_SPEC,
                        "shedding": _FIELD_SPEC,
                        "waning_rate": {"type": "number", "exclusiveMinimum": 0},
                        "recovery_rate": {"type": "number", "exclusiveMinimum": 0},
                        "mortality": {"type": "number", "exclusiveMinimum": 0},
                        "pathogen_decay": {"type": "number", "exclusiveMinimum": 0},
                        "initial": {"type": "array", "items": _INITIAL_SPEC,
                                    "minItems": 4, "maxItems": 4},
                    },
                },
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "required": ["dir"],
            "properties": {
                "dir": {"type": "string"},
                "vtk": {"type": "boolean"},
                "checkpoints": {"type": "boolean"},
            },
        },
        "seed": {"type": "integer", "minimum": 0},
    },
}


def validate_config(cfg: dict) -> dict:
    """Schema (`_violation`) plus cross-field validation; returns the config unchanged."""
    if bad := _violation(cfg, CONFIG_SCHEMA):
        raise ConfigError(f"invalid config at {'/'.join(map(str, bad[0])) or '<root>'}: {bad[1]}")
    grid = cfg["grid"]
    if len(grid["cells"]) != len(grid["extents"]):
        raise ConfigError("grid cells and extents must have the same dimension")
    has_system = "system" in cfg
    has_scenario = "scenario" in cfg
    if has_system == has_scenario:
        raise ConfigError("exactly one of 'system' or 'scenario' must be present")
    if has_system:
        sys_block = cfg["system"]
        if ("builtin" in sys_block) == ("expressions" in sys_block):
            raise ConfigError("system needs exactly one of 'builtin' or 'expressions'")
        if "builtin" in sys_block and sys_block["builtin"] not in BUILTIN_SYSTEMS:
            raise ConfigError(
                f"unknown builtin system {sys_block['builtin']!r}; "
                f"available: {sorted(BUILTIN_SYSTEMS)}"
            )
        if "coefficients" not in cfg or "bc" not in cfg:
            raise ConfigError("system configs need 'coefficients' and 'bc' blocks")
    return cfg


def load_config(path) -> dict:
    path = Path(path)
    try:
        cfg = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return validate_config(cfg)


def canonical_echo(cfg: dict) -> str:
    """Canonical serialization; reparsing it reproduces the config exactly."""
    return json.dumps(cfg, sort_keys=True, separators=(",", ":"))


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(canonical_echo(cfg).encode()).hexdigest()


def build_grid(cfg: dict) -> StructuredGrid:
    block = cfg["grid"]
    return StructuredGrid.uniform(block["extents"], block["cells"])


def _scalar_field(spec, grid: StructuredGrid, base_dir: Path) -> np.ndarray:
    """Per-cell scalar field from a number, expression, or CSV spec."""
    if isinstance(spec, (int, float)):
        return np.full(grid.ncells, float(spec))
    if "expr" in spec:
        fn = compile_expression(spec["expr"], 0, allow_time=False)
        return np.broadcast_to(
            np.asarray(fn(grid.cell_centers, 0.0, None), dtype=float), (grid.ncells,)
        ).copy()
    try:
        data = np.loadtxt(base_dir / spec["csv"], delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"CSV field {spec['csv']!r}: {exc}") from None
    if data.shape[1] != 2:
        raise ConfigError(f"CSV field {spec['csv']!r} must have two columns (index, value)")
    order = np.argsort(data[:, 0])
    idx = data[order, 0].astype(int)
    if not np.array_equal(idx, np.arange(grid.ncells)):
        raise ConfigError(
            f"CSV field {spec['csv']!r} must cover cell indices 0..{grid.ncells - 1}"
        )
    return data[order, 1].copy()


def _vector_field(spec, grid: StructuredGrid, base_dir: Path) -> np.ndarray:
    """Per-cell vector field (dim, ncells) from a scalar or per-axis list."""
    if isinstance(spec, (int, float)):
        return np.full((grid.dim, grid.ncells), float(spec))
    if len(spec) != grid.dim:
        raise ConfigError(f"vector field needs {grid.dim} per-axis entries, got {len(spec)}")
    return np.stack([_scalar_field(s, grid, base_dir) for s in spec])


def build_system(cfg: dict):
    block = cfg["system"]
    if "builtin" in block:
        factory = BUILTIN_SYSTEMS[block["builtin"]]
        return factory(**block.get("builtin_args", {}))
    exprs = block["expressions"]
    m = len(exprs)
    kwargs = {
        "mass_weights": block.get("mass_weights", np.ones(m)),
        "mass_constants": tuple(block.get("mass_constants", (0.0, 0.0))),
        "intermediate_order": block.get("intermediate_order", 1.0),
        "growth_order": block.get("growth_order", 1.0),
        "growth_constant": block.get("growth_constant", 1.0),
    }
    if "sum_matrix" in block:
        kwargs["sum_matrix"] = np.asarray(block["sum_matrix"], dtype=float)
    return system_from_expressions(exprs, **kwargs)


def build_coefficients(cfg: dict, grid: StructuredGrid, m: int,
                       base_dir: Path) -> CoefficientField:
    block = cfg["coefficients"]
    diffusion = _diffusion_array(block["diffusion"], grid, m, base_dir)
    drift = None
    if "drift" in block:
        drift = _drift_array(block["drift"], grid, m, base_dir)
    schedule = []
    for entry in block.get("schedule", []):
        diff_e = (_diffusion_array(entry["diffusion"], grid, m, base_dir)
                  if "diffusion" in entry else diffusion)
        drift_e = (_drift_array(entry["drift"], grid, m, base_dir)
                   if "drift" in entry else drift)
        schedule.append((entry["t"], diff_e, drift_e))
    return CoefficientField(grid, diffusion, drift, schedule=schedule)


def _diffusion_array(entries, grid: StructuredGrid, m: int, base_dir: Path) -> np.ndarray:
    if len(entries) != m:
        raise ConfigError(f"need one diffusion entry per species ({m}), got {len(entries)}")
    out = np.empty((m, grid.dim, grid.ncells))
    for i, spec in enumerate(entries):
        if isinstance(spec, list):
            out[i] = _vector_field(spec, grid, base_dir)
        else:
            out[i] = _scalar_field(spec, grid, base_dir)[None, :]
    return out


def _drift_array(entries, grid: StructuredGrid, m: int, base_dir: Path) -> np.ndarray:
    if len(entries) != m:
        raise ConfigError(f"need one drift entry per species ({m}), got {len(entries)}")
    return np.stack([_vector_field(spec, grid, base_dir) for spec in entries])


def _bc_from_kind(kind: str, alpha: float):
    if kind == "dirichlet":
        return Dirichlet()
    if kind == "robin":
        return Robin(alpha)
    return NoFluxWithDrift()


def build_boundary(cfg: dict, m: int, dim: int) -> BoundarySpec:
    block = cfg.get("bc", {"all": "noflux"})
    sides = _sides(dim)
    default = _bc_from_kind(block.get("all", "noflux"), block.get("alpha", 0.0))
    species_blocks = block.get("species")
    conditions = []
    for i in range(m):
        if species_blocks is None:
            conditions.append({s: default for s in sides})
            continue
        if len(species_blocks) != m:
            raise ConfigError(f"bc.species needs {m} entries, got {len(species_blocks)}")
        sb = species_blocks[i]
        base = (_bc_from_kind(sb["all"], sb.get("alpha", 0.0))
                if "all" in sb else default)
        mapping = {s: base for s in sides}
        for side, sspec in sb.get("sides", {}).items():
            if side not in sides:
                raise ConfigError(f"side {side!r} does not exist on a {dim}D grid")
            mapping[side] = _bc_from_kind(sspec["kind"], sspec.get("alpha", 0.0))
        conditions.append(mapping)
    return BoundarySpec(tuple(conditions), dim)


def build_initial(entries, grid: StructuredGrid, m: int) -> np.ndarray:
    if len(entries) != m:
        raise ConfigError(f"need {m} initial entries, got {len(entries)}")
    # an initial entry is a number or a bare expression string, never a CSV
    fields = np.stack([
        _scalar_field(e if isinstance(e, (int, float)) else {"expr": e}, grid, None)
        for e in entries
    ])
    if np.any(fields < 0) or not np.all(np.isfinite(fields)):
        raise ConfigError("initial data must be non-negative and finite")
    return fields


def build_epi_params(cfg: dict, grid: StructuredGrid, base_dir: Path) -> EpiParams:
    block = cfg["scenario"]["epi"]
    return EpiParams(
        grid=grid,
        diffusivities=np.stack([_scalar_field(d, grid, base_dir) for d in block["diffusivities"]]),
        contact_rate=_scalar_field(block["contact_rate"], grid, base_dir),
        uptake_rate=_scalar_field(block["uptake_rate"], grid, base_dir),
        shedding=_scalar_field(block["shedding"], grid, base_dir),
        drift=_vector_field(block.get("drift", 0.0), grid, base_dir),
        waning_rate=float(block["waning_rate"]),
        recovery_rate=float(block["recovery_rate"]),
        mortality=float(block["mortality"]),
        pathogen_decay=float(block["pathogen_decay"]),
    )


def build_solver_config(cfg: dict) -> SolverConfig:
    # only the keys the config sets, so SolverConfig's defaults apply;
    # epsilon is the truncation strength, which the state carries
    try:
        return SolverConfig(**{k: v for k, v in cfg["solver"].items() if k != "epsilon"})
    except ValueError as exc:  # the schema leaves only a t_end within rounding of 0
        raise ConfigError(f"invalid config at solver/t_end: {exc}") from None
