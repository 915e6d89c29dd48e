import json

import pytest

from rislink.cli import main
from rislink.harness import CSV_HEADER
from rislink.scenario import _config_to_dict, ScenarioConfig


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
        ("solve", "--mu", "nan"), ("solve", "--mu", "inf"), ("export-model", "--mu", "nan"),
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

    def test_malformed_file_is_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{1 not json")
        rc = run_cli("solve", str(bad))
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestExportModel:
    @pytest.mark.parametrize("fmt", ["lp", "mps"])
    def test_export_formats(self, scenario_file, tmp_path, fmt):
        out = tmp_path / f"model.{fmt}"
        rc = run_cli("export-model", str(scenario_file), "--format", fmt,
                     "--output", str(out))
        assert rc == 0
        text = out.read_text()
        if fmt == "lp":
            assert text.startswith("\\")
            assert "Minimize" in text
        else:
            assert text.startswith("NAME")
            assert "ENDATA" in text


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
    ], ids=["string-timeout", "zero-workers", "negative-workers", "zero-workers-flag",
            "fractional-trials", "string-trials", "boolean-seed0", "fractional-seed0"])
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
