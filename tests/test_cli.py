"""Config validation, command dispatch, serialization, determinism."""

import json

import numpy as np
import pytest

from rdasim.cli import main
from rdasim.config import (
    ConfigError,
    canonical_echo,
    config_hash,
    load_config,
    validate_config,
)


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

    def test_missing_file_is_config_error(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/config.json")

    def test_bad_json_is_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="valid JSON"):
            load_config(path)


class TestCheckCommand:
    def test_builtin_reversible_passes(self, tmp_path):
        out = tmp_path / "out"
        cfg = heat_config(out)
        cfg["system"] = {"builtin": "reversible",
                         "initial": [1.0, 0.5]}
        cfg["coefficients"] = {"diffusion": [0.1, 0.1]}
        cfg["bc"] = {"all": "noflux"}
        path = write_config(tmp_path, cfg)
        assert main(["check", "--config", str(path), "--quiet"]) == 0
        report = json.loads((out / "check_report.json").read_text())
        assert report["passed"]
        names = {c["name"] for c in report["checks"]}
        assert {"quasi_positivity", "mass_control", "intermediate_sum",
                "polynomial_growth"} <= names

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
        out = tmp_path / "out"
        path = write_config(tmp_path, heat_config(out))
        assert main(["run", "--config", str(path), "--quiet"]) == 0
        first = (out / "series_steps.csv").read_bytes()
        assert main(["run", "--config", str(path), "--quiet"]) == 0
        assert (out / "series_steps.csv").read_bytes() == first

    def test_epi_scenario_outputs(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, epi_config(out))
        assert main(["run", "--config", str(path), "--quiet"]) == 0
        assert (out / "epi_report.json").exists()
        assert (out / "epi_conservation.csv").exists()
        report = json.loads((out / "epi_report.json").read_text())
        assert report["conservation_max_abs"] < 1e-6

    def test_vtk_snapshots(self, tmp_path):
        out = tmp_path / "out"
        cfg = heat_config(out, cells=8, t_end=0.01)
        cfg["output"]["vtk"] = True
        cfg["solver"]["record_dt"] = 0.005
        path = write_config(tmp_path, cfg)
        assert main(["run", "--config", str(path), "--quiet"]) == 0
        vtks = sorted((out / "vtk").glob("*.vtk"))
        assert vtks
        text = vtks[0].read_text().splitlines()
        assert text[0].startswith("# vtk DataFile")
        assert "DATASET STRUCTURED_POINTS" in text
        assert "DIMENSIONS 8 1 1" in text
        values = text[text.index("LOOKUP_TABLE default") + 1:]
        assert len(values) == 8

    def test_missing_initial_is_config_error(self, tmp_path):
        out = tmp_path / "out"
        cfg = heat_config(out)
        del cfg["system"]["initial"]
        path = write_config(tmp_path, cfg)
        assert main(["run", "--config", str(path), "--quiet"]) == 2


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
        assert entry["sup_value"] <= max(entry["initial_value"],
                                         entry["fit"]["plateau"]) * (1 + 1e-6)

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


class TestVtkOrdering:
    def test_2d_points_iterate_x_fastest(self, tmp_path):
        from rdasim.grid import StructuredGrid
        from rdasim.output import write_vtk_structured_points

        grid = StructuredGrid.uniform([(0.0, 1.0), (0.0, 1.0)], [2, 3])
        values = np.arange(6, dtype=float)  # flat order: last axis fastest
        path = tmp_path / "snap.vtk"
        write_vtk_structured_points(path, grid, {"f": values})
        lines = path.read_text().splitlines()
        data = [float(v) for v in lines[lines.index("LOOKUP_TABLE default") + 1:]]
        # VTK iterates x fastest: (ix, iy) = (0,0),(1,0),(0,1),(1,1),(0,2),(1,2)
        assert data == [0.0, 3.0, 1.0, 4.0, 2.0, 5.0]
