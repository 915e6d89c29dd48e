import hashlib
import json
import math
import os
import sys
from dataclasses import replace

import pytest

from rislink import milp
from rislink.cli import EXIT_INFEASIBLE, main
from rislink.harness import CSV_HEADER
from rislink.lpio import export_model
from rislink.milp import build_model
from rislink.scenario import (EXPERIMENT_CONFIG, _config_to_dict, ScenarioConfig, deserialize, generate,
                              precompute, serialize)

from highs_read import highs


def run_cli(*args):
    return main(list(args))


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    rc = run_cli("generate", "--seed", "7", "--robots", "3", "--slots", "5",
                 "--ris", "2", "--obstacles", "3", "--k-window", "3", "4",
                 "--capacity", "2", "--output", str(path))
    assert rc == 0
    return path


class TestGenerateSolveValidate:
    def test_round_trip_exit_codes(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "schedule.json"
        rc = run_cli("solve", str(scenario_file), "--output", str(out))
        captured = capsys.readouterr()
        assert rc == 0
        assert "satisfies all constraints" in captured.err
        doc = json.loads(out.read_text())
        assert doc["objective"] >= 0
        assert len(doc["assignments"]) == 3

    def test_generate_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("generate", "--seed", "3", "--output", str(a))
        run_cli("generate", "--seed", "3", "--output", str(b))
        assert a.read_text() == b.read_text()

    def test_heuristic_subcommand(self, scenario_file, tmp_path, capsys):
        rc = run_cli("heuristic", str(scenario_file), "--seed", "1",
                     "--output", str(tmp_path / "h.json"))
        assert rc == 0
        err = capsys.readouterr().err
        assert err.startswith("feasible") or err.startswith("service failure")

    def test_timeout_exit_code(self, scenario_file):
        # HiGHS cannot finish in a nanosecond
        assert run_cli("solve", str(scenario_file), "--timeout", "1e-9") == 3

    @pytest.mark.parametrize("command, flag, value", [
        ("solve", "--timeout", "-1"), ("solve", "--timeout", "nan"),
    ])
    def test_bad_numeric_option_is_error(self, scenario_file, command, flag, value, capsys):
        rc = run_cli(command, str(scenario_file), flag, value)
        assert rc == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "heuristic"])
    def test_impossible_robot_data_is_error(self, scenario_file, command, capsys):
        # a zero outage window once made solve report infeasible and the
        # heuristic report feasible on the same file
        doc = json.loads(scenario_file.read_text())
        doc["outage_window_slots"][0] = 0
        scenario_file.write_text(json.dumps(doc))
        assert run_cli(command, str(scenario_file)) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command", ["solve", "heuristic"])
    def test_nonpositive_threshold_in_file_is_error(self, scenario_file, command, capsys):
        # a negative threshold once made every interferer harmless to the encoder
        doc = json.loads(scenario_file.read_text())
        doc["sinr_thresholds"][0] = -3.0
        scenario_file.write_text(json.dumps(doc))
        assert run_cli(command, str(scenario_file)) == 1
        assert capsys.readouterr().err.startswith("error: sinr_thresholds must be > 0")

    @pytest.mark.parametrize("args", [
        ["solve", "SCENARIO", "--backend", "nope"],
        ["solve", "SCENARIO", "--backend", "bnb"],
        ["solve", "SCENARIO", "--backend", "external:"],
        ["solve", "SCENARIO", "--timeout", "soon"],
        ["sweep"],
        ["frobnicate"],
        [],
    ], ids=["unknown-backend", "removed-backend", "empty-external-command", "non-numeric-timeout",
            "sweep-without-spec", "unknown-command", "no-command"])
    def test_usage_error_exits_1(self, scenario_file, args, capsys):
        argv = [str(scenario_file) if a == "SCENARIO" else a for a in args]
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("args", [["--help"], ["solve", "--help"]])
    def test_help_exits_0(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(*args)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage:")

    def test_fractional_threshold_range_is_error(self, tmp_path, capsys):
        # thresholds are drawn as integers, so 9.5..9.9 would yield 9.0
        out = tmp_path / "s.json"
        assert run_cli("generate", "--psi", "9.5", "9.9", "--output", str(out)) == 1
        assert "psi_range" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("lo, hi", [("-3", "-2"), ("0", "10")])
    def test_nonpositive_threshold_range_is_error(self, tmp_path, capsys, lo, hi):
        out = tmp_path / "s.json"
        assert run_cli("generate", "--psi", lo, hi, "--output", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "psi_range" in err
        assert not out.exists()

    def test_dark_run_is_reported_without_a_model(self, tmp_path, monkeypatch, capsys):
        # seed 1004 of the calibrated floor at R=14: robot 1 has no live link
        # in slots 31-44, which is K_r slots in a row
        path = tmp_path / "dark.json"
        path.write_text(serialize(generate(replace(EXPERIMENT_CONFIG, n_robots=14), 1004)))

        def build_model(*args):
            raise AssertionError("build_model called on a certified instance")
        monkeypatch.setattr(milp, "build_model", build_model)
        assert run_cli("solve", str(path)) == EXIT_INFEASIBLE
        assert capsys.readouterr().err == "infeasible: robot 1 has no live link in slots 31-44\n"
        # a malformed option is still an error, not a verdict
        assert run_cli("solve", str(path), "--timeout", "-1") == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("value", ["nan", "1"])
    def test_external_solver_garbage_is_error(self, scenario_file, value, capsys):
        # a solver that reports every variable at one value: NaN is no 0/1
        # value, and all ones breaks every serve row
        solver = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fake_lp_solver.py")
        backend = f"external:{sys.executable} {solver} {{model}} {{solution}} {value}"
        assert run_cli("solve", str(scenario_file), "--backend", backend) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("edit, named", [
        (lambda d: d.__setitem__("obstacle", []), "obstacle"),
        (lambda d: d["ris_mounts"][0].__setitem__("tilt_rad", 0.1), "tilt_rad"),
        (lambda d: d["obstacles_m"].pop(), "obstacles_m"),
        (lambda d: d["config"].__setitem__("obstacle_size_m", [6.0, 3.0]), "obstacle_size"),
        (lambda d: d["config"].__setitem__("ris_fov_half_angle_rad", 3.0), "ris_fov_half_angle"),
        (lambda d: d["ris_mounts"][0].pop("normal"), "error: bad scenario body: missing key 'normal'\n"),
        (lambda d: d["config"].pop("n_bs"), "error: bad config block: missing key 'n_bs'\n"),
    ], ids=["unknown-key", "unknown-mount-key", "obstacle-count", "reversed-obstacle-size",
            "wide-field-of-view", "missing-mount-key", "missing-config-key"])
    def test_malformed_scenario_file_is_error(self, scenario_file, edit, named, capsys):
        # the message is plain text, never the repr of the reader's exception
        doc = json.loads(scenario_file.read_text())
        edit(doc)
        scenario_file.write_text(json.dumps(doc))
        assert run_cli("solve", str(scenario_file)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err and "Error(" not in err

    @pytest.mark.parametrize("size", [("6", "3"), ("-1", "2")], ids=["reversed", "negative"])
    def test_bad_obstacle_size_is_error(self, tmp_path, capsys, size):
        out = tmp_path / "s.json"
        assert run_cli("generate", "--obstacle-size", *size, "--output", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "obstacle_size" in err
        assert not out.exists()

    def test_malformed_file_is_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{1 not json")
        rc = run_cli("solve", str(bad))
        assert rc == 1
        assert "error" in capsys.readouterr().err


# generate flags of small scenarios whose schedules name BS links, relayed
# links and outages
PINNED_SCENARIOS = {
    "r4-seed1": ["--seed", "1", "--robots", "4", "--slots", "6", "--ris", "3", "--obstacles", "6",
                 "--k-window", "2", "3", "--capacity", "2"],
    "r4-seed7": ["--seed", "7", "--robots", "4", "--slots", "6", "--ris", "3", "--obstacles", "6",
                 "--k-window", "2", "3", "--capacity", "2"],
    "r5-seed6": ["--seed", "6", "--robots", "5", "--slots", "6", "--ris", "4", "--obstacles", "10",
                 "--k-window", "3", "4", "--capacity", "2"],
}
# scenario -> sha256 prefix of the stdout of `solve` and of `heuristic --seed 1`
SCHEDULE_JSON_PINS = {
    "r4-seed1": ("daaeb8faa1bd0c2d", "e0f1afa72caccc91"),
    "r4-seed7": ("7bf38ca5451d349c", "f47db94d48db6dd6"),
    "r5-seed6": ("a40c494e4005d5ba", "d11cf88274241c72"),
}


def test_schedule_json_pinned(tmp_path, capsys):
    got, kinds = {}, set()
    for name, flags in PINNED_SCENARIOS.items():
        path = tmp_path / f"{name}.json"
        assert run_cli("generate", *flags, "--output", str(path)) == 0
        outputs = []
        for args in (["solve", str(path)], ["heuristic", str(path), "--seed", "1"]):
            assert run_cli(*args) == 0
            out = capsys.readouterr().out
            kinds |= {kind for row in json.loads(out)["assignments"] for kind, _ in row}
            outputs.append(hashlib.sha256(out.encode()).hexdigest()[:16])
        got[name] = tuple(outputs)
    assert kinds == {"bs", "ris", None}
    assert got == SCHEDULE_JSON_PINS


class TestExportModel:
    @pytest.mark.parametrize("fmt", ["lp", "mps"])
    def test_export_formats(self, scenario_file, tmp_path, capsys, fmt):
        scenario = deserialize(scenario_file.read_text())
        expected = export_model(build_model(precompute(scenario), scenario), fmt).encode()
        out = tmp_path / f"model.{fmt}"
        assert run_cli("export-model", str(scenario_file), "--format", fmt, "--output", str(out)) == 0
        assert out.read_bytes() == expected
        capsys.readouterr()
        assert run_cli("export-model", str(scenario_file), "--format", fmt, "-o", "-") == 0
        assert capsys.readouterr().out.encode() == expected

    @pytest.mark.parametrize("fmt", ["lp", "mps"])
    def test_highs_reads_the_export(self, scenario_file, tmp_path, fmt):
        # four-field MPS marker lines once read as kWarning with two extra columns
        scenario = deserialize(scenario_file.read_text())
        model = build_model(precompute(scenario), scenario)
        out = tmp_path / f"model.{fmt}"
        assert run_cli("export-model", str(scenario_file), "--format", fmt, "--output", str(out)) == 0
        h, status = highs(out)
        assert (status, h.getNumCol()) == ("kOk", model.n_vars)


class TestSweepCommand:
    def test_sweep_produces_csv(self, tmp_path):
        cfg = ScenarioConfig(n_robots=3, n_slots=5, n_ris=2, n_obstacles=3,
                             u_override=2, k_range=(3, 4))
        spec = {
            "format": "rislink-sweep",
            "version": 1,
            "axis": "robots",
            "values": [2, 3],
            "trials": 2,
            "methods": ["heuristic", "ilp"],
            "seed0": 0,
            "timeout": 60.0,
            "config": _config_to_dict(cfg),
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "sweep.csv"
        rc = run_cli("sweep", str(spec_path), "--output", str(out))
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2 * 2

    @pytest.mark.parametrize("fields, flags", [
        ({"timeout": "60"}, []),
        ({"workers": 0}, []),
        ({"workers": -1}, []),
        ({}, ["--workers", "0"]),
        ({"trials": 2.7}, []),
        ({"trials": "2"}, []),
        ({"seed0": True}, []),
        ({"seed0": 0.5}, []),
        ({"axis": "k_window", "values": [[1, 5], [3, 3]]}, []),
        ({"values": [2.5]}, []),
        ({"config": dict(_config_to_dict(ScenarioConfig(n_robots=2, n_slots=4)), robot_step_m=math.nan)}, []),
        ({"axis": "sinr_threshold", "values": [[9, 10], [9.5, 9.9]]}, []),
        ({"axis": "sinr_threshold", "values": [[-3, -2]]}, []),
        ({"methods": []}, []),
        ({"methods": ["heuristic", "heuristic"]}, []),
        ({"trails": 2}, []),
    ], ids=["string-timeout", "zero-workers", "negative-workers", "zero-workers-flag",
            "fractional-trials", "string-trials", "boolean-seed0", "fractional-seed0",
            "shared-midpoint", "fractional-robots", "nan-step", "fractional-threshold",
            "negative-threshold", "no-methods", "repeated-method", "misspelt-trials"])
    def test_malformed_spec_is_error(self, tmp_path, capsys, fields, flags):
        spec = {
            "format": "rislink-sweep",
            "version": 1,
            "axis": "robots",
            "values": [2],
            "methods": ["heuristic", "ilp"],
            "config": _config_to_dict(ScenarioConfig(n_robots=2, n_slots=4, n_ris=2, n_obstacles=2)),
            **fields,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", str(spec_path), "--output", str(out), *flags) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_removed_config_key_is_error(self, tmp_path, capsys):
        config = dict(_config_to_dict(ScenarioConfig(n_robots=2, n_slots=4)), sinr_threshold_db=False)
        spec = {"format": "rislink-sweep", "version": 1, "axis": "robots", "values": [2],
                "methods": ["heuristic"], "config": config}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        assert run_cli("sweep", str(spec_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "sinr_threshold_db" in err

    def test_full_axis_row_count(self, tmp_path):
        # seven robot counts, one cheap method: 7 rows plus the header
        cfg = ScenarioConfig(n_robots=2, n_slots=4, n_ris=2, n_obstacles=2, k_range=(3, 4))
        spec = {
            "format": "rislink-sweep",
            "version": 1,
            "axis": "robots",
            "values": [8, 9, 10, 11, 12, 13, 14],
            "trials": 1,
            "methods": ["heuristic"],
            "config": _config_to_dict(cfg),
        }
        spec_path = tmp_path / "spec7.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "sweep7.csv"
        assert run_cli("sweep", str(spec_path), "--output", str(out)) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 7 * 1
