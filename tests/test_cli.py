"""Config validation, command dispatch, serialization, determinism."""

import contextlib
import copy
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rdasim import integrator, output
from rdasim.cli import load_trajectory, main
from rdasim.config import (
    CONFIG_SCHEMA,
    ConfigError,
    canonical_echo,
    config_hash,
    load_config,
    validate_config,
)
from rdasim.grid import discrete_norm
from rdasim.schema import _violation


REPO = Path(__file__).resolve().parents[1]
REVERSIBLE = REPO / "configs" / "reversible.json"


@pytest.fixture(scope="module")
def reversible_out(tmp_path_factory):
    """Output directory of one `run` of the shipped reversible config."""
    out = tmp_path_factory.mktemp("reversible")
    assert main(["run", "--config", str(REVERSIBLE), "--out", str(out), "--quiet"]) == 0
    return out


@pytest.fixture(scope="module")
def heat_out(tmp_path_factory):
    """Output directory of one `run` of the shipped heat config."""
    out = tmp_path_factory.mktemp("heat")
    assert main(["run", "--config", str(REPO / "configs" / "heat.json"), "--out", str(out),
                 "--quiet"]) == 0
    return out


def read_vtk(path):
    """Text lines and decoded big-endian float64 fields of a binary VTK snapshot."""
    raw, pos, npoints = path.read_bytes(), 0, 0
    lines, fields = [], {}
    while pos < len(raw):
        end = raw.index(b"\n", pos)
        line, pos = raw[pos:end].decode(), end + 1
        lines.append(line)
        if line.startswith("POINT_DATA "):
            npoints = int(line.split()[1])
        elif line == "LOOKUP_TABLE default":
            name = lines[-2].split()[1]
            fields[name] = np.frombuffer(raw, ">f8", count=npoints, offset=pos)
            pos += 8 * npoints
            assert raw[pos:pos + 1] == b"\n"
            pos += 1
    return lines, fields


def heat_config(out_dir, cells=32, t_end=0.05):
    return {
        "grid": {"cells": [cells], "extents": [[0.0, 1.0]]},
        "system": {
            "expressions": ["0*u1"],
            "mass_weights": [1.0],
            "mass_constants": [0.0, 0.0],
            "intermediate_order": 1.0,
            "growth_order": 1.0,
            "growth_constant": 1.0,
            "initial": ["exp(0 - 50*(x - 0.5)^2)"],
        },
        "coefficients": {"diffusion": [1.0]},
        "bc": {"all": "dirichlet"},
        "solver": {"dt": 0.001, "t_end": t_end, "epsilon": 1e-8},
        "diagnostics": {"p_list": [1, 2], "energy": [{"p": 2, "weights": [1.0]}]},
        "output": {"dir": str(out_dir)},
        "seed": 0,
    }


def epi_config(out_dir, shedding=0.25, t_end=2.0):
    return {
        "grid": {"cells": [32], "extents": [[0.0, 1.0]]},
        "scenario": {"epi": {
            "diffusivities": [0.05, 0.05, 0.05, 0.05],
            "drift": 0.05,
            "contact_rate": 1.0,
            "uptake_rate": 1.0,
            "shedding": shedding,
            "waning_rate": 0.1,
            "recovery_rate": 0.2,
            "mortality": 0.3,
            "pathogen_decay": 0.5,
            "initial": [0.3, "0.001*exp(0 - (x - 0.25)^2/0.005)", 0.0, 0.0],
        }},
        "solver": {"dt": 0.01, "t_end": t_end, "epsilon": 1e-9},
        "output": {"dir": str(out_dir)},
        "seed": 1,
    }


def cubic_config(out_dir):
    cfg = heat_config(out_dir)
    cfg["system"]["expressions"] = ["u1^3"]
    cfg["system"]["intermediate_order"] = 2.0
    cfg["system"]["growth_order"] = 3.0
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1))
    return path


class TestConfigValidation:
    def test_round_trip_identity(self, tmp_path):
        cfg = heat_config(tmp_path / "out")
        echo = canonical_echo(cfg)
        reparsed = validate_config(json.loads(echo))
        assert canonical_echo(reparsed) == echo
        assert config_hash(reparsed) == config_hash(cfg)

    def test_unknown_key_rejected(self, tmp_path):
        cfg = heat_config(tmp_path / "out")
        cfg["grdi"] = {}
        with pytest.raises(ConfigError, match="grdi"):
            validate_config(cfg)

    def test_nested_unknown_key_rejected(self, tmp_path):
        cfg = heat_config(tmp_path / "out")
        cfg["solver"]["dts"] = 0.1
        with pytest.raises(ConfigError):
            validate_config(cfg)

    def test_system_and_scenario_exclusive(self, tmp_path):
        cfg = heat_config(tmp_path / "out")
        cfg["scenario"] = epi_config(tmp_path / "out")["scenario"]
        with pytest.raises(ConfigError, match="exactly one"):
            validate_config(cfg)

    def test_unknown_builtin(self, tmp_path):
        cfg = heat_config(tmp_path / "out")
        del cfg["system"]["expressions"]
        cfg["system"]["builtin"] = "nope"
        with pytest.raises(ConfigError, match="nope"):
            validate_config(cfg)

    def test_schema_is_valid_under_its_metaschema(self):
        jsonschema.validators.validator_for(CONFIG_SCHEMA).check_schema(CONFIG_SCHEMA)

    @pytest.mark.parametrize("block, key, value", [
        (None, "grdi", {}),
        ("solver", "dts", 0.1),
        ("solver", "dt", "fast"),
        ("grid", "cells", [0]),
        ("diagnostics", "energy", [{"p": 2, "weights": "manual"}]),
    ])
    def test_message_matches_jsonschema_validate(self, tmp_path, block, key, value):
        cfg = heat_config(tmp_path / "out")
        (cfg if block is None else cfg[block])[key] = value
        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(cfg, CONFIG_SCHEMA)
        path = "/".join(str(p) for p in expected.value.absolute_path) or "<root>"
        with pytest.raises(ConfigError) as got:
            validate_config(cfg)
        assert str(got.value) == f"invalid config at {path}: {expected.value.message}"

    @pytest.mark.parametrize("command", ["check", "run"])
    @pytest.mark.parametrize("key, value", [("linear_tol", 1e-10), ("max_linear_iter", 500),
                                            ("positivity_tol", 1e-6)])
    def test_removed_solver_key_exits_2(self, tmp_path, capsys, command, key, value):
        # every transport solve is direct: the iterative solver's keys are unknown;
        # a step halves below the fixed -1e-12 floor, so there is no positivity_tol
        cfg = heat_config(tmp_path / "out")
        cfg["solver"][key] = value
        path = write_config(tmp_path, cfg)
        assert main([command, "--config", str(path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert f"'{key}' was unexpected" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "epsilon-study"])
    @pytest.mark.parametrize("record_dt", [-0.05, 0])
    def test_non_positive_record_dt_exits_2(self, tmp_path, capsys, command, record_dt):
        # the next snapshot time would never pass t, so the run would not end
        cfg = load_config(REPO / "configs" / "heat.json")
        cfg["solver"]["record_dt"] = record_dt
        path = write_config(tmp_path, cfg)
        with pytest.raises(ConfigError, match="^invalid config at solver/record_dt: "):
            load_config(path)
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out"),
                     "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "invalid config at solver/record_dt" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config, path, value, message", [
        ("reversible", ("solver", "epsilon"), float("nan"), "solver/epsilon: nan"),
        ("reversible", ("solver", "dt"), float("nan"), "solver/dt: nan"),
        ("heat", ("solver", "t_end"), float("inf"), "solver/t_end: inf"),
        ("epidemic", ("solver", "t_end"), float("nan"), "solver/t_end: nan"),
        # the schema names builtin_args an object and nothing more
        ("reversible", ("system",), {"builtin": "linear_decay", "builtin_args": {
            "rate": float("nan")}, "initial": [1.0, 0.7]}, "system/builtin_args/rate: nan"),
    ], ids=["epsilon-nan", "dt-nan", "t_end-inf", "epidemic-t_end-nan", "builtin-arg-nan"])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, config, path, value, message):
        # Python's json reads NaN and Infinity; every number must be finite
        cfg = json.loads((REPO / "configs" / f"{config}.json").read_text())
        *head, key = path
        value_at(cfg, head)[key] = value
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out),
                     "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: invalid config at {message} is not a finite number\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "epsilon-study"])
    @pytest.mark.parametrize("t_end", [1e-12, 1e-300])
    def test_t_end_within_rounding_of_zero_exits_2(self, tmp_path, capsys, command, t_end):
        # a run stops within rounding of t_end, so it would take no step
        cfg = json.loads(REVERSIBLE.read_text())
        cfg["solver"]["t_end"] = t_end
        out = tmp_path / "out"
        assert main([command, "--config", str(write_config(tmp_path, cfg)), "--out", str(out),
                     "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: invalid config at solver/t_end: ")
        assert "Traceback" not in err
        assert list(out.iterdir()) == []

    def test_null_record_dt_is_valid(self, tmp_path):
        cfg = heat_config(tmp_path / "out")
        cfg["solver"]["record_dt"] = None
        assert validate_config(cfg) is cfg

    def test_diagnostics_window_exits_2(self, tmp_path, capsys):
        cfg = heat_config(tmp_path / "out")
        cfg["diagnostics"]["window"] = 2.0
        path = write_config(tmp_path, cfg)
        assert main(["check", "--config", str(path), "--quiet"]) == 2
        assert "window" in capsys.readouterr().err

    def test_missing_file_is_config_error(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/config.json")

    def test_bad_json_is_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="valid JSON"):
            load_config(path)


def schema_nodes(schema):
    """Every subschema of `schema`, itself included."""
    yield schema
    subs = [*schema.get("properties", {}).values(), *schema.get("oneOf", [])]
    for sub in subs + ([schema["items"]] if "items" in schema else []):
        yield from schema_nodes(sub)


def instance_paths(node, prefix=()):
    """The path to every value in a JSON document, the root's () first."""
    yield prefix
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from instance_paths(child, prefix + (key,))


SCHEMA_VALIDATOR = jsonschema.validators.validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)
SCHEMA_KEYS = sorted({key for node in schema_nodes(CONFIG_SCHEMA)
                      for key in node.get("properties", {})} | {"bogus"})
# the values at and next to the schema's bounds, and strings it names or not
JSON_SCALARS = (st.sampled_from([None, True, False, 0, 1, 2, -1, 0.0, 1.0, 2.0, 0.5, -0.5,
                                 2000000, float("nan"), float("inf")])
                | st.floats()
                | st.sampled_from(["auto", "dirichlet", "noflux", "robin", "reversible", ""])
                | st.text(max_size=4))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(SCHEMA_KEYS), inner, max_size=3),
    max_leaves=8,
)


def value_at(document, path):
    for part in path:
        document = document[part]
    return document


# a value at, next to or across each bound and type the schema draws
EDGE_VALUES = [None, True, False, 0, 1, -1, 0.0, 1.0, 1.5, -0.5, float("nan"), float("inf"),
               "", "auto", "noflux", [], {}]


def non_finite_paths(document):
    """The path to every NaN or infinite number in a JSON document."""
    return [path for path in instance_paths(document)
            if isinstance(value_at(document, path), float)
            and not math.isfinite(value_at(document, path))]


def error_pairs(errors):
    """(path, message) of every jsonschema error, and of every error in their contexts."""
    for error in errors:
        yield tuple(error.absolute_path), error.message
        yield from error_pairs(error.context)


def best_match(cfg):
    """(path, message) of jsonschema's best-matching error for `cfg`, or None."""
    error = jsonschema.exceptions.best_match(SCHEMA_VALIDATOR.iter_errors(cfg))
    return None if error is None else (tuple(error.absolute_path), error.message)


def single_edits(cfg):
    """Every config one edit away from `cfg`.

    Each value is set to each of EDGE_VALUES and deleted; each object gains
    an unknown key, and each non-empty array repeats its last item.
    """
    for path in list(instance_paths(cfg))[1:]:
        *head, key = path
        for value in EDGE_VALUES:
            edited = copy.deepcopy(cfg)
            value_at(edited, head)[key] = value
            yield edited
        edited = copy.deepcopy(cfg)
        del value_at(edited, head)[key]
        yield edited
        edited = copy.deepcopy(cfg)
        node = value_at(edited, path)
        if isinstance(node, dict):
            node["bogus"] = 1
            yield edited
        elif isinstance(node, list) and node:
            node.append(node[-1])
            yield edited


@st.composite
def mutated_configs(draw, bases):
    """A base config with one to three values replaced, keys deleted or keys added.

    A new value is random JSON or a copy of any value in the bases, which
    often fits where it lands, so valid and invalid results both occur.
    """
    pool = [value_at(cfg, path) for cfg in bases for path in instance_paths(cfg)]
    values = JSON_VALUES | st.sampled_from(pool).map(copy.deepcopy)
    cfg = copy.deepcopy(draw(st.sampled_from(bases)))
    for _ in range(draw(st.sampled_from([1, 1, 2, 3]))):
        *head, key = draw(st.sampled_from(list(instance_paths(cfg))[1:]))
        parent = value_at(cfg, head)
        action = draw(st.sampled_from(["replace", "replace", "delete", "add"]))
        if action == "delete":
            del parent[key]
        elif action == "add" and isinstance(parent[key], dict):
            parent[key][draw(st.sampled_from(SCHEMA_KEYS))] = draw(values)
        elif action == "add" and isinstance(parent[key], list):
            parent[key].append(draw(values))
        else:
            parent[key] = draw(values)
    return cfg


@pytest.fixture(scope="module")
def base_configs(tmp_path_factory):
    """The three shipped configs and the config of the hetero2d benchmark at seed 461."""
    spec = importlib.util.spec_from_file_location("workloads", REPO / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    hetero2d = workloads.generate_hetero2d(461, tmp_path_factory.mktemp("hetero2d"))
    paths = [REPO / "configs" / f"{name}.json" for name in ("epidemic", "reversible", "heat")]
    return [json.loads(path.read_text()) for path in paths + [hetero2d]]


class TestSchemaWalker:
    """`_violation` rejects a config if and only if jsonschema does or the config
    holds a non-finite number, and names a violation as jsonschema does."""

    def test_walks_every_keyword_the_schema_uses(self):
        walked = {"type", "enum", "const", "required", "properties", "additionalProperties",
                  "items", "minItems", "maxItems", "minimum", "exclusiveMinimum", "oneOf"}
        nodes = list(schema_nodes(CONFIG_SCHEMA))
        assert set().union(*nodes) <= walked
        assert all(node["additionalProperties"] is False
                   for node in nodes if "additionalProperties" in node)
        # the walker compares enum members and consts with ==, exact for strings only
        assert all(isinstance(member, str) for node in nodes
                   for member in node.get("enum", []) + [node.get("const", "")])
        # "is too long" is jsonschema's wording for a positive maxItems only
        assert all(node.get("maxItems", 1) > 0 for node in nodes)

    def test_shipped_configs_conform(self, base_configs):
        assert all(_violation(cfg, CONFIG_SCHEMA) is None for cfg in base_configs)

    def test_agrees_with_jsonschema_one_edit_from_a_shipped_config(self, base_configs):
        # with finite numbers the walker names best_match's path and message;
        # an edit to NaN or inf is rejected at the number it wrote
        verdicts = {True: 0, False: 0, "non-finite": 0}
        for cfg in (edited for base in base_configs for edited in single_edits(base)):
            found = _violation(cfg, CONFIG_SCHEMA)
            if bad := non_finite_paths(cfg):
                [path] = bad
                assert found == (path, f"{value_at(cfg, path)!r} is not a finite number"), cfg
                verdicts["non-finite"] += 1
                continue
            assert found == best_match(cfg), cfg
            verdicts[found is None] += 1
        assert min(verdicts.values()) > 100

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_agrees_with_jsonschema_on_mutated_configs(self, base_configs, data):
        # of several violations the walker names one that jsonschema reports,
        # perhaps inside a oneOf's context, or a non-finite number
        cfg = data.draw(mutated_configs(base_configs))
        found = _violation(cfg, CONFIG_SCHEMA)
        if bad := non_finite_paths(cfg):
            assert found is not None
            path, message = found
            assert (path in bad and message.endswith(" is not a finite number")
                    or found in set(error_pairs(SCHEMA_VALIDATOR.iter_errors(cfg)))), cfg
            return
        assert (found is None) == SCHEMA_VALIDATOR.is_valid(cfg)
        if found is not None:
            assert found in set(error_pairs(SCHEMA_VALIDATOR.iter_errors(cfg)))

    @pytest.mark.parametrize("path, value, valid", [
        # under draft 2020-12 a float with no fractional part is an integer
        (("diagnostics", "energy", 0, "p"), 1.0, True),
        (("diagnostics", "energy", 0, "p"), 1.5, False),
        (("seed",), 3.0, True),
        # a bool is neither a number nor an integer
        (("diagnostics", "energy", 0, "p"), True, False),
        (("solver", "dt"), True, False),
        (("grid", "cells", 0), True, False),
        (("seed",), False, False),
        # const and enum members match only a value of the same JSON type
        (("diagnostics", "energy", 0, "weights"), "auto", True),
        (("diagnostics", "energy", 0, "weights"), 1, False),
        (("diagnostics", "energy", 0, "weights"), True, False),
        (("bc", "all"), 1, False),
        (("bc", "all"), True, False),
        # minimum constrains numbers only; a NaN passes it in jsonschema,
        # but the walker rejects every non-finite number
        (("solver", "record_dt"), None, True),
        (("solver", "dt"), float("nan"), False),
        (("solver", "dt"), 0, False),
    ])
    def test_draft_2020_12_traps(self, tmp_path, path, value, valid):
        cfg = heat_config(tmp_path / "out")
        *head, key = path
        value_at(cfg, head)[key] = value
        if non_finite_paths(cfg):
            assert SCHEMA_VALIDATOR.is_valid(cfg)
            assert _violation(cfg, CONFIG_SCHEMA) == (path, "nan is not a finite number")
        else:
            assert SCHEMA_VALIDATOR.is_valid(cfg) == valid
            assert _violation(cfg, CONFIG_SCHEMA) == best_match(cfg)
        assert (_violation(cfg, CONFIG_SCHEMA) is None) == valid

    @pytest.mark.parametrize("value, valid", [(1, False), (1.5, True), ("1", False)])
    def test_one_of_needs_exactly_one_branch(self, value, valid):
        # CONFIG_SCHEMA's branches are disjoint, so this schema overlaps them
        schema = {"oneOf": [{"type": "number"}, {"type": "integer"}]}
        validator = jsonschema.validators.validator_for(schema)(schema)
        assert validator.is_valid(value) == valid
        error = jsonschema.exceptions.best_match(validator.iter_errors(value))
        assert _violation(value, schema) == (None if valid else ((), error.message))


def reversible_config(out_dir, diffusion, weights, cells=32):
    cfg = heat_config(out_dir, cells=cells)
    cfg["system"] = {"builtin": "reversible", "initial": [1.0, 0.5]}
    cfg["coefficients"] = {"diffusion": diffusion}
    cfg["bc"] = {"all": "noflux"}
    cfg["diagnostics"]["energy"] = [{"p": 2, "weights": weights}]
    return cfg


class TestCheckCommand:
    def test_builtin_reversible_passes(self, tmp_path):
        out = tmp_path / "out"
        # one weight per species: the heat config's single weight fails with exit 2
        path = write_config(tmp_path, reversible_config(out, [0.1, 0.1], [1.0, 2.0]))
        assert main(["check", "--config", str(path), "--quiet"]) == 0
        report = json.loads((out / "check_report.json").read_text())
        assert report["passed"]
        names = {c["name"] for c in report["checks"]}
        assert {"quasi_positivity", "mass_control", "intermediate_sum",
                "polynomial_growth"} <= names

    @pytest.mark.parametrize("diffusion, margin", [([0.1, 0.1], 0.0), ([1.0, 0.01], -0.164)],
                             ids=["singular", "indefinite"])
    def test_explicit_weights_are_certified(self, tmp_path, capsys, diffusion, margin):
        # check certifies the weights run uses: (1, 1) with equal diffusivities
        # gives a singular block matrix, with [1.0, 0.01] an eigenvalue of -0.202
        out = tmp_path / "out"
        path = write_config(tmp_path, reversible_config(out, diffusion, [1.0, 1.0], cells=8))
        assert main(["check", "--config", str(path)]) == 3
        assert "FAIL dissipativity_p2 (weights [1.0, 1.0], margin" in capsys.readouterr().out
        report = json.loads((out / "check_report.json").read_text())
        entry = next(c for c in report["checks"] if c["name"] == "dissipativity_p2")
        assert not entry["passed"] and entry["weights"] == [1.0, 1.0]
        assert entry["margin"] == pytest.approx(margin, abs=1e-3)
        assert entry["face_column"] == pytest.approx(diffusion)

    def test_shipped_epidemic_certifies_its_searched_weights(self, tmp_path):
        # four equal diffusivities: (1, 1, 2, 2) is singular, so the search goes on
        out = tmp_path / "out"
        assert main(["check", "--config", str(REPO / "configs" / "epidemic.json"),
                     "--out", str(out), "--quiet"]) == 0
        report = json.loads((out / "check_report.json").read_text())
        entry = next(c for c in report["checks"] if c["name"] == "dissipativity_p2")
        assert entry["passed"] and entry["weights"] == [1.0, 2.0, 2.0, 2.0]
        assert entry["bound_constant"] == pytest.approx(4.419, rel=1e-3)
        assert entry["margin"] > 1e-12

    @pytest.mark.parametrize("declared, code", [(0.5, 3), (1.0, 0)])
    def test_declared_growth_constant_is_checked(self, tmp_path, declared, code):
        # (1 - u1) / (1 + u1) has supremum 1, at u1 = 0
        out = tmp_path / "out"
        cfg = heat_config(out)
        cfg["system"].update(expressions=["1 - u1"], mass_constants=[0.0, 1.0],
                             growth_constant=declared)
        assert main(["check", "--config", str(write_config(tmp_path, cfg)), "--quiet"]) == code
        report = json.loads((out / "check_report.json").read_text())
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        assert failed == (["polynomial_growth"] if code else [])

    def test_shedding_violation_exits_3_and_names_assumption(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, epi_config(out, shedding=0.6))
        assert main(["check", "--config", str(path), "--quiet"]) == 3
        report = json.loads((out / "check_report.json").read_text())
        entry = report["checks"][0]
        assert not entry["passed"]
        assert any(v["assumption"] == "shedding-bound" for v in entry["violations"])

    def test_cubic_growth_exits_3_naming_intermediate_sum(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, cubic_config(out))
        assert main(["check", "--config", str(path), "--quiet"]) == 3
        report = json.loads((out / "check_report.json").read_text())
        failed = {c["name"] for c in report["checks"] if not c["passed"]}
        assert "intermediate_sum" in failed

    def test_epi_fixture_check_passes(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, epi_config(out))
        assert main(["check", "--config", str(path), "--quiet"]) == 0


class TestRunCommand:
    def test_heat_run_outputs(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, heat_config(out))
        assert main(["run", "--config", str(path), "--quiet"]) == 0
        for name in ("series_steps.csv", "series_norms.csv", "series_energy.csv",
                     "summary.json", "trajectory/trajectory.json"):
            assert (out / name).exists(), name
        # diffusion with pinned walls: sup-norm column decays monotonically
        lines = [l for l in (out / "series_steps.csv").read_text().splitlines()
                 if not l.startswith("#")]
        header = lines[0].split(",")
        sup_col = header.index("sup_u1")
        sups = [float(l.split(",")[sup_col]) for l in lines[1:]]
        assert all(b <= a + 1e-14 for a, b in zip(sups, sups[1:]))
        summary = json.loads((out / "summary.json").read_text())
        assert summary["min_value"] >= -1e-12
        assert summary["config_sha256"] == config_hash(load_config(path))

    def test_rerun_is_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg = heat_config(out1)
        p1 = write_config(tmp_path, cfg, "c1.json")
        cfg2 = dict(cfg)
        cfg2["output"] = {"dir": str(out2)}
        p2 = write_config(tmp_path, cfg2, "c2.json")
        assert main(["run", "--config", str(p1), "--quiet"]) == 0
        assert main(["run", "--config", str(p2), "--quiet"]) == 0
        for name in ("series_steps.csv", "series_norms.csv", "series_energy.csv"):
            a = (out1 / name).read_bytes()
            b = (out2 / name).read_bytes()
            # provenance hashes differ only through the output dir; strip comments
            a_data = b"\n".join(l for l in a.splitlines() if not l.startswith(b"#"))
            b_data = b"\n".join(l for l in b.splitlines() if not l.startswith(b"#"))
            assert a_data == b_data, name

    def test_identical_config_identical_bytes(self, tmp_path):
        path = write_config(tmp_path, heat_config(tmp_path / "out"))
        outputs = []
        for out in (tmp_path / "a", tmp_path / "b"):
            assert main(["run", "--config", str(path), "--out", str(out), "--quiet"]) == 0
            outputs.append({f.relative_to(out): f.read_bytes()
                            for f in sorted(out.rglob("*")) if f.is_file()})
        assert Path("summary.json") in outputs[0]
        assert outputs[0] == outputs[1]

    def test_epi_scenario_outputs(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, epi_config(out))
        assert main(["run", "--config", str(path), "--quiet"]) == 0
        assert (out / "epi_report.json").exists()
        assert (out / "epi_conservation.csv").exists()
        report = json.loads((out / "epi_report.json").read_text())
        assert report["conservation_max_abs"] < 1e-6
        # the final snapshot's susceptible field, less its volume average
        traj, _ = load_trajectory(out / "trajectory")
        s = traj.states[-1, 0]
        mean = (s @ traj.grid.cell_volumes) / traj.grid.domain_volume
        expected = discrete_norm(s - mean, traj.grid, 2)
        assert report["s_fluctuation_final"] == pytest.approx(expected, rel=1e-12, abs=1e-300)

    def test_vtk_snapshots(self, tmp_path):
        # 2D and not square, so the x-fastest point order differs from the
        # cell order and from its transpose
        out = tmp_path / "out"
        cfg = heat_config(out, t_end=0.01)
        cfg["grid"] = {"cells": [4, 3], "extents": [[0.0, 1.0], [0.0, 1.0]]}
        cfg["system"]["initial"] = ["exp(0 - 50*(x - 0.5)^2) * (1 + y)"]
        cfg["output"]["vtk"] = True
        cfg["solver"]["record_dt"] = 0.005
        path = write_config(tmp_path, cfg)
        assert main(["run", "--config", str(path), "--quiet"]) == 0
        vtks = sorted((out / "vtk").glob("*.vtk"))
        from rdasim.cli import load_trajectory
        traj, index = load_trajectory(out / "trajectory")
        assert len(vtks) == len(index["files"]) == 3
        # the title is the snapshot time as a plain float
        assert read_vtk(vtks[0])[0][1] == "t=0.0"
        for k, vtk in enumerate(vtks):
            lines, fields = read_vtk(vtk)
            assert lines[:3] == ["# vtk DataFile Version 3.0", f"t={index['times'][k]!r}",
                                 "BINARY"]
            assert "DATASET STRUCTURED_POINTS" in lines
            assert "DIMENSIONS 4 3 1" in lines
            assert list(fields) == ["u1"]
            # back into cell order: the flat cell index is ix * ny + iy
            cells = fields["u1"].reshape(3, 4).T.astype("<f8")
            assert cells.tobytes() == traj.states[k][0].astype("<f8").tobytes()

    def test_missing_initial_is_config_error(self, tmp_path):
        out = tmp_path / "out"
        cfg = heat_config(out)
        del cfg["system"]["initial"]
        path = write_config(tmp_path, cfg)
        assert main(["run", "--config", str(path), "--quiet"]) == 2


class TestUnbuildableConfig:
    """Faults the schema cannot see surface as config errors, not tracebacks."""

    @pytest.mark.parametrize("command", ["check", "run"])
    @pytest.mark.parametrize("path, value, cause", [
        (("coefficients", "diffusion"), [{"csv": "absent.csv"}], "absent.csv"),
        (("coefficients", "diffusion"), [{"csv": "words.csv"}], "'words.csv': could not convert"),
        (("coefficients", "diffusion"), [{"expr": "1 +"}], "cannot parse '1 +'"),
        (("coefficients", "diffusion"), [{"expr": "x - 0.5"}], "positive"),
        (("coefficients", "diffusion"), [{"expr": "t"}], "unknown symbol 't'"),
        (("system", "initial"), ["exp(x"], "cannot parse 'exp(x'"),
        (("system", "initial"), ["u1 + 1"], "unknown symbol 'u1'"),
        (("system", "expressions"), ["u1 +* 2"], "cannot parse 'u1 +* 2'"),
        (("system",), {"builtin": "reversible", "builtin_args": {"nope": 1.0},
                       "initial": [1.0, 0.5]}, "nope"),
    ], ids=["missing-csv", "non-numeric-csv", "malformed-coefficient", "nonpositive-diffusion",
            "time-in-coefficient", "malformed-initial", "state-in-initial", "malformed-reaction",
            "unknown-builtin-arg"])
    def test_exits_2_naming_the_cause(self, tmp_path, capsys, command, path, value, cause):
        (tmp_path / "words.csv").write_text("0,one\n")
        cfg = heat_config(tmp_path / "out")
        target = cfg
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        config = write_config(tmp_path, cfg)
        assert main([command, "--config", str(config), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert cause in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["check", "run", "epsilon-study"])
    @pytest.mark.parametrize("key", ["expressions", "initial"])
    def test_arithmetic_error_exits_2_naming_the_expression(self, tmp_path, capsys, command,
                                                             key):
        # Python divides two int constants itself, so 1/0 raises where numpy gives inf
        out = tmp_path / "out"
        cfg = heat_config(out, cells=8, t_end=0.01)
        cfg["system"][key] = ["1/0"]
        config = write_config(tmp_path, cfg)
        assert main([command, "--config", str(config), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "division by zero in '1/0'" in err
        assert "Traceback" not in err
        assert list(out.iterdir()) == []


def outputs_without_config_identity(out):
    """Every file under `out`, with the config's hash and echo left out of the reports."""
    files = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        raw = path.read_bytes()
        if path.suffix == ".json":
            raw = {k: v for k, v in json.loads(raw).items()
                   if k not in ("config_sha256", "config_echo")}
        elif path.suffix == ".csv":
            raw = [line for line in raw.splitlines() if not line.startswith(b"# config_sha256=")]
        files[str(path.relative_to(out))] = raw
    return files


class TestCommandLineFaults:
    """Bad seeds and unusable paths exit 2 naming the cause, before anything is written."""

    @pytest.mark.parametrize("command, config", [
        ("check", "reversible"), ("run", "reversible"), ("check", "heat"), ("run", "heat"),
    ])
    def test_negative_seed_exits_2(self, tmp_path, capsys, command, config):
        out = tmp_path / "out"
        code = main([command, "--config", str(REPO / "configs" / f"{config}.json"),
                     "--out", str(out), "--seed", "-1", "--quiet"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: seed must be non-negative, got -1")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["check", "run"])
    def test_integral_floats_read_as_integers(self, tmp_path, command):
        # draft 2020-12 counts 3.0 as an integer: the seed and the energy
        # order are read as ints, so only the config's own hash and echo differ
        outputs = []
        for seed, p in ((3, 4), (3.0, 4.0)):
            cfg = json.loads(REVERSIBLE.read_text())
            cfg["seed"], cfg["diagnostics"]["energy"][0]["p"] = seed, p
            cfg["solver"]["t_end"] = 1.0
            out = tmp_path / f"out-{seed!r}"
            path = write_config(tmp_path, cfg, name=f"config-{seed!r}.json")
            assert main([command, "--config", str(path), "--out", str(out), "--quiet"]) == 0
            outputs.append(outputs_without_config_identity(out))
        assert outputs[0] and outputs[0] == outputs[1]

    @pytest.mark.parametrize("case", ["directory", "not-utf8"])
    def test_unreadable_config_exits_2_naming_it(self, tmp_path, capsys, case):
        path = tmp_path / "config.json"
        if case == "directory":
            path.mkdir()
        else:
            path.write_bytes(json.dumps(heat_config(tmp_path / "out")).encode("utf-16"))
        assert main(["check", "--config", str(path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert str(path) in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["check", "run"])
    def test_out_naming_a_file_exits_2_naming_it(self, tmp_path, capsys, command):
        out = tmp_path / "taken"
        out.write_text("not a directory")
        config = write_config(tmp_path, heat_config(tmp_path / "unused"))
        assert main([command, "--config", str(config), "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot create output directory {out}")
        assert "Traceback" not in err
        assert out.read_text() == "not a directory"


class TestNonFiniteReaction:
    @pytest.mark.parametrize("cells, extents", [
        ([16], [[0.0, 1.0]]),
        ([6, 6], [[0.0, 1.0], [0.0, 1.0]]),
    ])
    def test_overflowing_reaction_exits_4(self, tmp_path, capsys, cells, extents):
        cfg = heat_config(tmp_path / "out")
        cfg["grid"] = {"cells": cells, "extents": extents}
        cfg["system"]["expressions"] = ["u1^2*exp(u1)"]
        cfg["system"]["initial"] = ["800"]
        path = write_config(tmp_path, cfg)
        assert main(["run", "--config", str(path), "--quiet"]) == 4
        err = capsys.readouterr().err
        assert "non-finite reaction inf for species 1 in cell 0 at t=0" in err
        assert "halvings" not in err
        assert "Traceback" not in err

    def test_late_overflow_leaves_no_series(self, tmp_path, capsys):
        # exp(u1) from u1 = 0 between no-flux walls blows up near t = 1, about
        # 1,000 steps of dt = 0.001 in: blocks of step rows have been streamed
        # by then, and the failed run must leave none of them behind
        out = tmp_path / "out"
        cfg = heat_config(out, cells=16, t_end=2.0)
        cfg["system"]["expressions"] = ["exp(u1)"]
        cfg["system"]["initial"] = ["0"]
        cfg["bc"] = {"all": "noflux"}
        path = write_config(tmp_path, cfg)
        with np.errstate(over="ignore"):
            assert main(["run", "--config", str(path), "--quiet"]) == 4
        err = capsys.readouterr().err
        assert "non-finite reaction inf for species 1 in cell 0" in err
        failed_at = float(re.search(r" at t=(\S+) ", err).group(1))
        assert failed_at > output._CSV_CHUNK_ROWS * cfg["solver"]["dt"]
        assert list(out.iterdir()) == []

    def test_failed_epidemic_run_leaves_no_series(self, tmp_path, monkeypatch):
        # the 301st step of the epidemic fails, after a block of 256 rows has
        # gone to both series_steps.csv and epi_conservation.csv
        taken = []

        def step_then_fail(*args, **kwargs):
            taken.append(None)
            if len(taken) > 300:
                raise integrator.NonFiniteError("injected failure")
            return original(*args, **kwargs)

        original = integrator.step
        monkeypatch.setattr(integrator, "step", step_then_fail)
        out = tmp_path / "out"
        path = write_config(tmp_path, epi_config(out, t_end=5.0))
        assert main(["run", "--config", str(path), "--quiet"]) == 4
        assert len(taken) == 301
        assert list(out.iterdir()) == []


    @pytest.mark.parametrize("expressions", [["0*u2/u1", "0*u1"], ["0/(u1-u1)", "0*u2"]],
                             ids=["nan-on-a-face", "nan-everywhere"])
    def test_nan_reaction_fails_check_with_exit_3(self, tmp_path, expressions):
        out = tmp_path / "out"
        cfg = heat_config(out)
        cfg["system"].update(expressions=expressions, mass_weights=[1.0, 1.0], initial=["1", "1"])
        cfg["coefficients"] = {"diffusion": [1.0, 1.0]}
        cfg["diagnostics"] = {"p_list": [1]}
        path = write_config(tmp_path, cfg)
        with np.errstate(divide="ignore", invalid="ignore"):
            assert main(["check", "--config", str(path), "--quiet"]) == 3
        report = json.loads((out / "check_report.json").read_text())
        entry = next(c for c in report["checks"] if c["name"] == "quasi_positivity")
        assert not entry["passed"]
        assert entry["witnesses"][0]["residual"] == "nan"

    def test_nan_reaction_fails_the_weight_search_naming_it(self, tmp_path):
        out = tmp_path / "out"
        cfg = heat_config(out)
        cfg["system"].update(expressions=["0/(u1-u1)", "0*u2"], mass_weights=[1.0, 1.0],
                             initial=["1", "1"])
        cfg["coefficients"] = {"diffusion": [1.0, 1.0]}
        cfg["diagnostics"] = {"p_list": [1]}
        path = write_config(tmp_path, cfg)
        with np.errstate(divide="ignore", invalid="ignore"):
            assert main(["check", "--config", str(path), "--quiet"]) == 3
        report = json.loads((out / "check_report.json").read_text())
        entry = next(c for c in report["checks"] if c["name"] == "dissipativity_p2")
        assert not entry["passed"]
        assert entry["error"].startswith("non-finite reaction nan at u=")


class TestWeightSearchFailure:
    """A failing "auto" weight search exits 3 before writing the command's outputs."""

    @pytest.mark.parametrize("command", ["run", "energy-report"])
    def test_exits_3_without_traceback(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        cfg = heat_config(out)
        cfg["system"].update(expressions=["u1^3", "0*u2"], mass_weights=[1.0, 1.0],
                             initial=["1", "1"], growth_order=3.0)
        cfg["coefficients"] = {"diffusion": [1.0, 1.0]}
        if command == "energy-report":
            # the trajectory comes from a run whose weights need no search
            cfg["diagnostics"]["energy"] = [{"p": 2, "weights": [1.0, 1.0]}]
            assert main(["run", "--config", str(write_config(tmp_path, cfg)), "--quiet"]) == 0
        cfg["diagnostics"]["energy"] = [{"p": 2, "weights": "auto"}]
        before = sorted(out.rglob("*")) if out.exists() else []
        path = write_config(tmp_path, cfg)
        assert main([command, "--config", str(path), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("hypothesis failure: no admissible weights")
        assert "Traceback" not in err
        # no summary.json, energy_report.json or anything else was written
        assert sorted(out.rglob("*")) == before


class TestEnergyWeightLength:
    """Explicit energy weights need one entry per species; otherwise exit 2 up front."""

    @pytest.mark.parametrize("weights", [[], [1.0], [1.0, 2.0, 3.0]],
                             ids=["empty", "short", "long"])
    @pytest.mark.parametrize("command", ["check", "run", "energy-report"])
    def test_exits_2_before_writing(self, tmp_path, capsys, reversible_out, command, weights):
        cfg = json.loads(REVERSIBLE.read_text())
        cfg["diagnostics"]["energy"] = [{"p": 4, "weights": weights}]
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        if command == "energy-report":
            # a stored trajectory, so the command gets as far as the energies
            out = reversible_out
        before = sorted(out.rglob("*")) if out.exists() else []
        assert main([command, "--config", str(path), "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: diagnostics.energy[0].weights has "
                              f"{len(weights)} entries for 2 species")
        assert "Traceback" not in err
        # no check_report.json, series file, energy report or anything else
        assert sorted(out.rglob("*")) == before


class TestEnergyOrderBudget:
    """An energy order too large to enumerate is a config error, with exit 2."""

    @pytest.mark.parametrize("config, p, weights", [
        ("reversible", 2000000, [1.0, 2.0]),
        ("reversible", 2000000, "auto"),
        # one species has one multi-index of any order, but p + 1 factorials;
        # 2^63 would overflow the int64 index table
        ("heat", 2**63, [1.0]),
    ], ids=["explicit", "auto", "one-species"])
    @pytest.mark.parametrize("command", ["check", "run", "energy-report"])
    def test_exits_2_naming_the_order(self, tmp_path, capsys, request, command, config, p,
                                      weights):
        cfg = json.loads((REPO / "configs" / f"{config}.json").read_text())
        cfg["diagnostics"]["energy"] = [{"p": p, "weights": weights}]
        path = write_config(tmp_path, cfg)
        # energy-report reads a stored trajectory, so it gets as far as the energies
        out = (request.getfixturevalue(f"{config}_out") if command == "energy-report"
               else tmp_path / "out")
        before = sorted(out.rglob("*")) if out.exists() else []
        assert main([command, "--config", str(path), "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        count = math.comb(p + len(cfg["system"]["initial"]) - 1, p)
        assert err.startswith(f"config error: diagnostics.energy entry with p={p}: "
                              f"enumeration of {count} multi-indices and {p + 1} factorials")
        assert "Traceback" not in err
        assert sorted(out.rglob("*")) == before


def fuzz_base(name):
    """A shipped config cut to 8 cells and 50 steps of its dt."""
    cfg = json.loads((REPO / "configs" / f"{name}.json").read_text())
    cfg["grid"]["cells"] = [8]
    cfg["solver"]["t_end"] = 50 * cfg["solver"]["dt"]
    return cfg


FUZZ_BASES = {name: fuzz_base(name) for name in ("epidemic", "heat", "reversible")}
# beyond the schema's bounds and float range, and strings that do not parse or evaluate
FUZZ_VALUES = [0, -1, 1e300, -1e300, 2**63, float("nan"), float("inf"), float("-inf"), "",
               "1/0", "0/0", "exp(1000)", [], {}, None, True]


@st.composite
def fuzzed_configs(draw):
    """A base's name and one or two of its leaves, each with an edge value."""
    name = draw(st.sampled_from(sorted(FUZZ_BASES)))
    base = FUZZ_BASES[name]
    leaves = [path for path in instance_paths(base)
              if not isinstance(value_at(base, path), (dict, list))]
    return name, draw(st.lists(st.tuples(st.sampled_from(leaves), st.sampled_from(FUZZ_VALUES)),
                               min_size=1, max_size=2))


def within_budget(cfg):
    """Whether a config is invalid, or runs on at most 8 cells for at most 50 steps of dt."""
    try:
        validate_config(cfg)
    except ConfigError:
        return True
    solver = cfg["solver"]
    return math.prod(cfg["grid"]["cells"]) <= 8 and solver["t_end"] <= 50 * solver["dt"]


class TestFuzzedConfigs:
    """Every edited config exits 0, 2, 3 or 4 without a traceback, and a run that
    exits 0 took steps and reports finite solver numbers."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(case=fuzzed_configs())
    @example(case=("heat", [(("diagnostics", "energy"), [{"p": 2**63, "weights": [1.0]}])]))
    @example(case=("reversible", [(("solver", "t_end"), 1e-12)]))
    @example(case=("heat", [(("grid", "extents"), [[0.0, 1e-300]])]))
    @example(case=("reversible", [(("diagnostics", "energy"),
                                   [{"p": 4, "weights": [1.0, 1e20]}])]))
    # found by this fuzzer: K1 * mass overflows float range
    @example(case=("heat", [(("system", "mass_constants", 0), 1e300),
                            (("system", "initial", 0), 1e300)]))
    def test_check_and_run_exit_cleanly(self, case):
        name, edits = case
        cfg = copy.deepcopy(FUZZ_BASES[name])
        for (*head, key), value in edits:
            value_at(cfg, head)[key] = value
        assume(within_budget(cfg))
        with tempfile.TemporaryDirectory() as tmp, np.errstate(all="ignore"):
            path = write_config(Path(tmp), cfg)
            out = Path(tmp) / "out"
            for command in ("check", "run"):
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = main([command, "--config", str(path), "--out", str(out), "--quiet"])
                assert code in (0, 2, 3, 4), (command, err.getvalue())
                assert "Traceback" not in err.getvalue()
            if code == 0:
                summary = json.loads((out / "summary.json").read_text())
                assert summary["steps"] > 0
                assert all(math.isfinite(float(summary[key])) for key in (
                    "final_time", "min_value", "mass_budget_max_abs", "halvings_total"))


def fresh_peak_mb(*argv):
    """The peak resident MB of `main(argv)`, which must return 0, in a fresh
    process with BLAS on one thread, as the benchmark runs it.

    The peak is the process's VmHWM.  Its ru_maxrss would not do: Linux
    carries the spawning process's peak across exec, so under pytest every
    child would read the test runner's peak.
    """
    script = ("import sys; from rdasim.cli import main; "
              "assert main(sys.argv[1:]) == 0; "
              "print(next(l for l in open('/proc/self/status') if l.startswith('VmHWM:')))")
    src = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
                 OMP_NUM_THREADS="1", MKL_NUM_THREADS="1"),
        capture_output=True, text=True, check=True)
    return int(done.stdout.split()[-2]) / 1024


@pytest.mark.skipif(sys.platform != "linux", reason="VmHWM is read from /proc/self/status")
class TestConstantMemory:
    def test_peak_memory_does_not_grow_with_the_step_count(self, tmp_path):
        # the shipped epidemic with dt = 0.05 to t = 200 and t = 2000: 4,000 and
        # 40,000 steps, no halvings and 201 snapshots each
        def peak_mb(t_end):
            cfg = json.loads((REPO / "configs" / "epidemic.json").read_text())
            cfg["solver"].update(dt=0.05, t_end=t_end, record_dt=t_end / 200)
            path = write_config(tmp_path, cfg, f"epidemic_{t_end}.json")
            peak = fresh_peak_mb("run", "--config", str(path),
                                 "--out", str(tmp_path / f"out_{t_end}"), "--quiet")
            summary = json.loads((tmp_path / f"out_{t_end}" / "summary.json").read_text())
            assert (summary["steps"], summary["halvings_total"]) == (round(t_end / 0.05), 0)
            return peak

        short, long = peak_mb(200.0), peak_mb(2000.0)
        assert abs(long - short) < 2.0, (short, long)

    def test_1d_run_peaks_near_check(self, tmp_path):
        # a 1D run loads scipy's LAPACK extension and not the scipy.linalg
        # package (about 22 MB), so a fresh run of the shipped reversible
        # config peaks within 8 MB of a fresh check of it (4 MB measured)
        check, run = (fresh_peak_mb(command, "--config", str(REVERSIBLE),
                                    "--out", str(tmp_path / command), "--quiet")
                      for command in ("check", "run"))
        assert run - check < 8.0, (check, run)

    def test_2d_run_peaks_near_check(self, tmp_path):
        # a 2D run loads SuperLU's extension and neither scipy.sparse nor
        # scipy.linalg (about 25 MB together), so a fresh run of a 16 x 16
        # heat config peaks within 8 MB of a fresh check of it (2 MB measured)
        cfg = heat_config(tmp_path / "out", t_end=0.01)
        cfg["grid"] = {"cells": [16, 16], "extents": [[0.0, 1.0], [0.0, 1.0]]}
        path = write_config(tmp_path, cfg)
        check, run = (fresh_peak_mb(command, "--config", str(path),
                                    "--out", str(tmp_path / command), "--quiet")
                      for command in ("check", "run"))
        assert run - check < 8.0, (check, run)


class TestEnergyReportCommand:
    def test_recompute_after_run(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, heat_config(out))
        assert main(["run", "--config", str(path), "--quiet"]) == 0
        assert main(["energy-report", "--config", str(path), "--quiet"]) == 0
        payload = json.loads((out / "energy_report.json").read_text())
        entry = payload["energies"][0]
        assert entry["p"] == 2
        assert entry["bounded_no_growth"]
        assert "fit" not in entry

    def test_run_and_report_share_one_record(self, reversible_out):
        # energy-report recomputes from the checkpoints what run wrote
        assert main(["energy-report", "--config", str(REVERSIBLE), "--out",
                     str(reversible_out), "--quiet"]) == 0
        summary = json.loads((reversible_out / "summary.json").read_text())
        payload = json.loads((reversible_out / "energy_report.json").read_text())
        assert summary["energy"] == payload["energies"]
        rows = [l for l in (reversible_out / "energy_report.csv").read_text().splitlines()
                if not l.startswith("#")][1:]
        values = [float(r.split(",")[1]) for r in rows]
        (entry,) = payload["energies"]
        assert entry["sup_value"] == max(values)
        assert entry["initial_value"] == values[0]

    def test_zero_trajectory_zero_energies(self, tmp_path):
        out = tmp_path / "out"
        cfg = heat_config(out, cells=8, t_end=0.01)
        cfg["system"]["initial"] = [0.0]
        path = write_config(tmp_path, cfg)
        assert main(["run", "--config", str(path), "--quiet"]) == 0
        assert main(["energy-report", "--config", str(path), "--quiet"]) == 0
        rows = [l for l in (out / "energy_report.csv").read_text().splitlines()
                if not l.startswith("#")][1:]
        assert all(float(r.split(",")[1]) == 0.0 for r in rows)

    def test_rounding_below_zero_is_an_energy_state(self, tmp_path):
        # u1 decays into u2 so fast that the solves leave u1 about -1e-15,
        # which the stepper accepts: the energies must accept it as well
        out = tmp_path / "out"
        cfg = heat_config(out, cells=16, t_end=1.0)
        cfg["system"] = {"expressions": ["0 - 10*u1", "10*u1"], "mass_weights": [1, 1],
                         "initial": ["0.3 + x*x*7.77", "1"]}
        cfg["coefficients"] = {"diffusion": [0.01, 0.01]}
        cfg["bc"] = {"all": "noflux"}
        cfg["solver"] = {"dt": 0.1, "t_end": 1, "epsilon": 1e-300}
        cfg["diagnostics"] = {"energy": [{"p": 2, "weights": [1, 1]}]}
        path = write_config(tmp_path, cfg)
        assert main(["run", "--config", str(path), "--quiet"]) == 0
        assert (out / "summary.json").is_file()
        rows = [l for l in (out / "series_steps.csv").read_text().splitlines()
                if not l.startswith("#")][1:]
        assert min(float(r.split(",")[-1]) for r in rows) < 0.0
        assert main(["energy-report", "--config", str(path), "--quiet"]) == 0

    def test_missing_trajectory_is_error(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, heat_config(out))
        assert main(["energy-report", "--config", str(path), "--quiet"]) == 2

    @pytest.mark.parametrize("keep, expected", [
        (20, "20-byte header, expected 40 bytes"),  # cut inside the header
        (40 + 8 * 7 + 3, "holds 59 data bytes, expected 64"),  # cut inside the data
    ])
    def test_truncated_checkpoint_exits_2(self, tmp_path, capsys, keep, expected):
        out = tmp_path / "out"
        path = write_config(tmp_path, heat_config(out, cells=8, t_end=0.01))
        assert main(["run", "--config", str(path), "--quiet"]) == 0
        checkpoint = out / "trajectory" / "state_000001.ck"
        checkpoint.write_bytes(checkpoint.read_bytes()[:keep])
        assert main(["energy-report", "--config", str(path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "state_000001.ck" in err
        assert expected in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("offset, value, expected", [
        (40 + 8 * 3, float("nan"), "state_000005.ck holds a non-finite value"),
        (40 + 8 * 3, -1.0, "state_000005.ck: state has component -1.0 below -1e-12"),
        (32, 0.0, "state_000005.ck: epsilon must be positive"),  # the header's eps
    ])
    def test_corrupt_checkpoint_value_exits_2(self, tmp_path, capsys, offset, value, expected):
        out = tmp_path / "out"
        path = write_config(tmp_path, heat_config(out, cells=8, t_end=0.01))
        assert main(["run", "--config", str(path), "--quiet"]) == 0
        checkpoint = out / "trajectory" / "state_000005.ck"
        raw = bytearray(checkpoint.read_bytes())
        raw[offset:offset + 8] = np.float64(value).astype("<f8").tobytes()
        checkpoint.write_bytes(bytes(raw))
        assert main(["energy-report", "--config", str(path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: corrupt trajectory at ")
        assert expected in err
        assert "Traceback" not in err
        assert not (out / "energy_report.json").exists()

    @pytest.mark.parametrize("edit, expected", [
        (lambda times: times[:-1], "must align"),
        (lambda times: times[:1] * len(times), "strictly increasing"),
        (lambda times: [10 * t for t in times], "holds t=0.001, but the index lists t=0.01"),
    ], ids=["times-cut-short", "times-repeated", "times-scaled"])
    def test_inconsistent_index_times_exit_2(self, tmp_path, capsys, edit, expected):
        out = tmp_path / "out"
        path = write_config(tmp_path, heat_config(out, cells=8, t_end=0.01))
        assert main(["run", "--config", str(path), "--quiet"]) == 0
        index_path = out / "trajectory" / "trajectory.json"
        index = json.loads(index_path.read_text())
        index["times"] = edit(index["times"])
        index_path.write_text(json.dumps(index))
        assert main(["energy-report", "--config", str(path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: corrupt trajectory")
        assert expected in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("edit", [
        lambda index: [],
        lambda index: None,
        lambda index: {**index, "grid": []},
        lambda index: {**index, "grid": {**index["grid"], "widths": 5}},
    ], ids=["empty-list", "null", "grid-a-list", "widths-a-number"])
    def test_malformed_index_exits_2(self, tmp_path, capsys, edit):
        # valid JSON of the wrong shape is a corrupt trajectory, not a TypeError
        out = tmp_path / "out"
        path = write_config(tmp_path, heat_config(out, cells=8, t_end=0.01))
        assert main(["run", "--config", str(path), "--quiet"]) == 0
        index_path = out / "trajectory" / "trajectory.json"
        index_path.write_text(json.dumps(edit(json.loads(index_path.read_text()))))
        assert main(["energy-report", "--config", str(path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: corrupt trajectory at ")
        assert "Traceback" not in err
        assert not (out / "energy_report.json").exists()

    @staticmethod
    def report_on_trajectory_of(other, tmp_path, capsys):
        """energy-report with the 32-cell heat config on the trajectory `other` ran."""
        out = Path(other["output"]["dir"])
        assert main(["run", "--config", str(write_config(tmp_path, other, "other.json")),
                     "--quiet"]) == 0
        path = write_config(tmp_path, heat_config(out))
        assert main(["energy-report", "--config", str(path), "--quiet"]) == 2
        # it stops before any weight search or write
        assert not (out / "energy_report.json").exists()
        assert not (out / "energy_report.csv").exists()
        err = capsys.readouterr().err
        assert err.startswith("config error: the trajectory holds ")
        assert "Traceback" not in err
        return err

    def test_trajectory_with_another_species_count_exits_2(self, tmp_path, capsys):
        other = heat_config(tmp_path / "out")
        other["system"].update(expressions=["0*u1", "0*u2"], mass_weights=[1.0, 1.0],
                               initial=["1", "1"])
        other["coefficients"]["diffusion"] = [1.0, 1.0]
        other["diagnostics"]["energy"] = [{"p": 2, "weights": [1.0, 1.0]}]
        err = self.report_on_trajectory_of(other, tmp_path, capsys)
        assert ("holds 2 species on grid (32,) (hash " in err
                and "but the config has 1 species on grid (32,) (hash " in err)

    def test_trajectory_on_another_grid_exits_2(self, tmp_path, capsys):
        other = heat_config(tmp_path / "out", cells=64)
        err = self.report_on_trajectory_of(other, tmp_path, capsys)
        assert ("holds 1 species on grid (64,) (hash " in err
                and "but the config has 1 species on grid (32,) (hash " in err)

    def test_checkpoint_roundtrip_through_reload(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, heat_config(out, cells=16, t_end=0.01))
        assert main(["run", "--config", str(path), "--quiet"]) == 0
        from rdasim.cli import load_trajectory
        traj, index = load_trajectory(out / "trajectory")
        assert traj.times.size == len(index["files"])
        assert traj.states[0].shape == (1, 16)
        assert np.all(traj.states[0] >= 0)


class TestEpsilonStudyCommand:
    def test_study_writes_report(self, tmp_path):
        out = tmp_path / "out"
        cfg = epi_config(out, t_end=1.0)
        cfg["diagnostics"] = {"epsilon_study": [1e-2, 1e-3, 1e-4]}
        path = write_config(tmp_path, cfg)
        assert main(["epsilon-study", "--config", str(path), "--quiet"]) == 0
        report = json.loads((out / "epsilon_study.json").read_text())
        assert len(report["pair_distances"]) == 2
        assert report["monotone_shrinking"]


    def test_halving_ladder_shares_one_snapshot_grid(self, tmp_path, capsys):
        # against the stiff sink, solo eps = 1 and eps = 1e-4 runs halve dt in
        # different steps; the batch halves for both, so they share one grid
        out = tmp_path / "out"
        cfg = json.loads((REPO / "configs" / "heat.json").read_text())
        cfg["system"]["expressions"] = ["0 - 1000*u1"]
        cfg["solver"].update(dt=0.01, t_end=1, record_dt=0.1)
        cfg["diagnostics"]["epsilon_study"] = [1.0, 1e-4]
        cfg["output"]["dir"] = str(out)
        path = write_config(tmp_path, cfg)
        assert main(["epsilon-study", "--config", str(path), "--quiet"]) == 0
        assert capsys.readouterr().err == ""
        report = json.loads((out / "epsilon_study.json").read_text())
        assert report["epsilons"] == [1.0, 1e-4]
        assert len(report["pair_distances"]) == 1


class TestGrowthFixtureFlag:
    def test_energy_report_flags_growth(self, tmp_path):
        out = tmp_path / "out"
        cfg = heat_config(out, cells=16, t_end=3.0)
        cfg["system"]["expressions"] = ["u1"]  # linear production: unbounded
        cfg["system"]["mass_constants"] = [1.0, 0.0]
        cfg["bc"] = {"all": "noflux"}
        cfg["solver"]["dt"] = 0.01
        cfg["solver"]["record_dt"] = 0.1
        path = write_config(tmp_path, cfg)
        assert main(["run", "--config", str(path), "--quiet"]) == 0
        assert main(["energy-report", "--config", str(path), "--quiet"]) == 0
        payload = json.loads((out / "energy_report.json").read_text())
        assert payload["energies"][0]["bounded_no_growth"] is False


class TestInfiniteEnergy:
    # numpy's overflow warning must not reach stderr: the record says inf
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_run_flags_an_infinite_energy_unbounded(self, tmp_path):
        # weights the certificate rejects: 1e20^16 overflows at every snapshot
        out = tmp_path / "out"
        cfg = json.loads(REVERSIBLE.read_text())
        cfg["diagnostics"]["energy"] = [{"p": 4, "weights": [1.0, 1e20]}]
        cfg["solver"]["t_end"] = 1.0
        assert main(["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out),
                     "--quiet"]) == 0
        (record,) = json.loads((out / "summary.json").read_text())["energy"]
        assert record["sup_value"] == record["initial_value"] == "inf"
        assert record["bounded_no_growth"] is False


class TestNonFiniteOperator:
    @pytest.mark.parametrize("cells, extents", [
        ([8], [[0.0, 1e-300]]),
        ([4, 4], [[0.0, 1e-300], [0.0, 1.0]]),
    ], ids=["1d", "2d"])
    # numpy's overflow warnings must not reach stderr ahead of the named error
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_exits_4_naming_the_entry(self, tmp_path, capsys, cells, extents):
        # D/h^2 overflows to inf: unchecked, 1D would halve 20 times over a NaN
        # state and 2D's SuperLU would call the system singular
        out = tmp_path / "out"
        cfg = heat_config(out, t_end=0.01)
        cfg["grid"] = {"cells": cells, "extents": extents}
        assert main(["run", "--config", str(write_config(tmp_path, cfg)), "--quiet"]) == 4
        err = capsys.readouterr().err
        assert err == "solver failure: entry (0, 0) of the transport operator at t=0 is inf\n"
        assert list(out.iterdir()) == []


class TestOverflowingMassBudget:
    @pytest.mark.parametrize("system, length", [
        ({"mass_constants": [1e300, 0.0], "initial": [1e300]}, 1.0),  # K1 * mass
        ({"initial": [1e300]}, 2.0**63),                              # the mass itself
        ({"mass_constants": [0.0, 1e300]}, 1e300),                    # K2 * |domain|
    ], ids=["k1-mass", "mass", "k2-volume"])
    def test_exits_4_leaving_no_outputs(self, tmp_path, capsys, system, length):
        # each product overflows float range, so the budget would read inf or NaN
        out = tmp_path / "out"
        cfg = heat_config(out, cells=8, t_end=0.01)
        cfg["grid"]["extents"] = [[0.0, length]]
        cfg["system"].update(system)
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["run", "--config", str(write_config(tmp_path, cfg)), "--quiet"]) == 4
        err = capsys.readouterr().err
        assert err == "solver failure: the mass budget overflows float range by t=0.01\n"
        assert list(out.iterdir()) == []


class TestVtkOrdering:
    def test_2d_points_iterate_x_fastest(self, tmp_path):
        from rdasim.grid import StructuredGrid
        from rdasim.output import write_vtk_structured_points

        grid = StructuredGrid.uniform([(0.0, 1.0), (0.0, 1.0)], [2, 3])
        values = np.arange(6, dtype=float)  # flat order: last axis fastest
        path = tmp_path / "snap.vtk"
        write_vtk_structured_points(path, grid, {"f": values})
        raw = path.read_bytes()
        start = raw.index(b"LOOKUP_TABLE default\n") + len(b"LOOKUP_TABLE default\n")
        data = np.frombuffer(raw, ">f8", count=6, offset=start)
        assert raw[start + data.nbytes:] == b"\n"
        # VTK iterates x fastest: (ix, iy) = (0,0),(1,0),(0,1),(1,1),(0,2),(1,2)
        assert data.tolist() == [0.0, 3.0, 1.0, 4.0, 2.0, 5.0]


def modules_after(package, *argvs, exit_code=0):
    """The modules of one top-level package a fresh interpreter holds after each stage.

    The stages are `import rdasim`, `import rdasim.cli`, then `main(argv)`
    for each argv (each must return `exit_code`); one sorted list of names
    per stage.
    """
    script = "\n".join([
        "import json, sys",
        "package, code, argvs = json.loads(sys.argv[1])",
        "def loaded():",
        "    return sorted(m for m in sys.modules if m.split('.')[0] == package)",
        "import rdasim",
        "stages = [loaded()]",
        "import rdasim.cli",
        "stages.append(loaded())",
        "for argv in argvs:",
        "    assert rdasim.cli.main(argv) == code, argv",
        "    stages.append(loaded())",
        "print(json.dumps(stages))",
    ])
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script,
                           json.dumps([package, exit_code, argvs])],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


class TestImportContract:
    """scipy is loaded only by the commands that assemble or solve, and
    jsonschema by none: the config's own walker explains a violation."""

    def test_valid_config_loads_no_jsonschema(self, tmp_path):
        argvs = [[command, "--config", str(REVERSIBLE), "--out", str(tmp_path), "--quiet"]
                 for command in ("check", "run", "energy-report", "epsilon-study")]
        assert modules_after("jsonschema", *argvs) == [[]] * (2 + len(argvs))

    def test_invalid_config_exits_2_and_loads_no_jsonschema(self, tmp_path):
        cfg = json.loads(REVERSIBLE.read_text())
        cfg["grid"]["bogus"] = 1
        argv = ["check", "--config", str(write_config(tmp_path, cfg)), "--quiet"]
        assert modules_after("jsonschema", argv, exit_code=2) == [[], [], []]

    def test_check_and_energy_report_load_no_scipy(self, tmp_path, reversible_out):
        argvs = [["check", "--config", str(REPO / "configs" / f"{name}.json"),
                  "--out", str(tmp_path / name), "--quiet"]
                 for name in ("epidemic", "reversible", "heat")]
        argvs.append(["energy-report", "--config", str(REVERSIBLE),
                      "--out", str(reversible_out), "--quiet"])
        stages = modules_after("scipy", *argvs)
        assert stages == [[]] * (2 + len(argvs))

    def test_1d_run_and_ladder_load_the_lapack_extension_not_scipy_linalg(self, tmp_path):
        path = write_config(tmp_path, heat_config(tmp_path / "out", cells=8, t_end=0.01))
        for command in ("run", "epsilon-study"):
            *_, after = modules_after("scipy", [command, "--config", str(path), "--quiet"])
            assert "scipy.linalg._flapack" in after
            assert "scipy.linalg" not in after
            assert [name for name in after if name.startswith("scipy.sparse")] == []

    def test_2d_run_and_ladder_load_the_superlu_extension_only(self, tmp_path):
        cfg = heat_config(tmp_path / "out", t_end=0.002)
        cfg["grid"] = {"cells": [6, 6], "extents": [[0.0, 1.0], [0.0, 1.0]]}
        path = write_config(tmp_path, cfg)
        for command in ("run", "epsilon-study"):
            *_, after = modules_after("scipy", [command, "--config", str(path), "--quiet"])
            assert [name for name in after if name.startswith(("scipy.sparse", "scipy.linalg"))
                    ] == ["scipy.sparse.linalg._dsolve._superlu"]
