import json
import math
from dataclasses import replace

import numpy as np
import pytest

from rislink import harness
from rislink.harness import SweepSpec, apply_axis, load_sweep_spec, run_sweep, run_trial, sweep_to_csv
from rislink.scenario import EXPERIMENT_CONFIG, ScenarioConfig, ScenarioFormatError, _config_to_dict

from conftest import recording_pool, tiny_config

FAST_CFG = ScenarioConfig(n_robots=4, n_slots=8, n_ris=3, n_obstacles=3,
                          u_override=2, k_range=(3, 4))


class TestRunTrial:
    def test_heuristic_only_is_fast_and_complete(self):
        tr = run_trial(FAST_CFG, 3, methods=("heuristic",))
        mr = tr.methods["heuristic"]
        assert mr.runtime_s < 1.0
        assert mr.feasible in (True, False)
        if mr.feasible:
            assert 0.0 <= mr.outage_pct <= 100.0

    def test_no_ris_never_beats_ilp(self):
        for seed in range(4):
            tr = run_trial(FAST_CFG, seed, methods=("ilp", "no-ris"))
            ilp, bare = tr.methods["ilp"], tr.methods["no-ris"]
            if ilp.feasible and bare.feasible:
                assert bare.outage_pct >= ilp.outage_pct - 1e-9
            if bare.feasible:
                assert ilp.feasible  # removing surfaces never repairs a scenario

    def test_heuristic_never_beats_ilp_feasibility(self):
        for seed in range(6):
            tr = run_trial(FAST_CFG, seed, methods=("ilp", "heuristic"))
            if tr.methods["heuristic"].feasible:
                assert tr.methods["ilp"].feasible


    def test_dark_run_is_infeasible_without_a_model(self, monkeypatch):
        # seed 1004 of the calibrated floor at R=14 holds a robot with no
        # live link for K_r slots in a row: robot 1 in slots 31-44
        def build_model(*args):
            raise AssertionError("build_model called on a certified instance")
        monkeypatch.setattr(harness.milp, "build_model", build_model)
        ilp = run_trial(replace(EXPERIMENT_CONFIG, n_robots=14), 1004, methods=("ilp",)).methods["ilp"]
        assert not ilp.feasible and not ilp.timed_out and ilp.outage_pct is None
        assert ilp.dark_run == (1, 31, 44)

    def test_solved_trial_has_no_dark_run(self):
        ilp = run_trial(FAST_CFG, 0, methods=("ilp",)).methods["ilp"]
        assert ilp.feasible and ilp.dark_run is None


class TestApplyAxis:
    def test_each_axis(self):
        base = FAST_CFG
        assert apply_axis(base, "robots", 9).n_robots == 9
        assert apply_axis(base, "delay", 4).d_reconfig == 4
        assert apply_axis(base, "k_window", (7, 8)).k_range == (7, 8)
        assert apply_axis(base, "sinr_threshold", (29, 30)).psi_range == (29.0, 30.0)
        assert apply_axis(base, "capacity", 3).u_override == 3
        with pytest.raises(ValueError):
            apply_axis(base, "bogus", 1)

    def test_axis_labels(self):
        assert harness.axis_label("robots", 9) == 9.0
        assert harness.axis_label("k_window", (4, 5)) == 4.5
        assert harness.axis_label("sinr_threshold", (9, 10)) == 9.5


def small_spec(**kw):
    args = dict(base=FAST_CFG, axis="robots", values=[3, 4], trials=3,
                methods=("ilp", "heuristic"), seed0=11, timeout=60.0)
    args.update(kw)
    return SweepSpec(**args)


class TestRunSweep:
    def test_row_count_and_schema(self):
        table = run_sweep(small_spec())
        assert len(table.rows) == 2 * 2  # axis points x methods
        csv = sweep_to_csv(table)
        lines = csv.strip().split("\n")
        assert lines[0] == harness.CSV_HEADER
        assert len(lines) == 1 + len(table.rows)
        for line in lines[1:]:
            assert len(line.split(",")) == 9

    def test_deterministic_apart_from_runtime(self):
        a = sweep_to_csv(run_sweep(small_spec()))
        b = sweep_to_csv(run_sweep(small_spec()))

        def strip_runtime(text):
            rows = [line.split(",") for line in text.strip().split("\n")]
            return [r[:7] + r[8:] for r in rows]

        assert strip_runtime(a) == strip_runtime(b)

    def test_single_trial_ci_is_zero(self):
        table = run_sweep(small_spec(trials=1, methods=("heuristic",)))
        for row in table.rows:
            assert row.ci95_outage == 0.0

    @pytest.mark.parametrize("cpus, started", [(64, [6]), (2, [2]), (None, [])])
    def test_pool_bounded_by_jobs_and_cpus(self, monkeypatch, cpus, started):
        # 10,000 workers on 6 jobs ask for no more processes than jobs or
        # CPUs; the pool is a stand-in, so no process starts
        sizes = []
        monkeypatch.setattr(harness, "ProcessPoolExecutor", recording_pool(sizes))
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        serial = run_sweep(small_spec(methods=("heuristic",)))
        bounded = run_sweep(small_spec(methods=("heuristic",), workers=10_000))
        assert sizes == started
        assert [r.feasible_pct for r in bounded.rows] == [r.feasible_pct for r in serial.rows]

    def test_parallel_workers_match_serial(self):
        serial = run_sweep(small_spec())
        parallel = run_sweep(small_spec(workers=2))

        def strip(table):
            return [(r.axis_value, r.method, r.feasible_pct, r.mean_outage_pct, r.ci95_outage)
                    for r in table.rows]

        a, b = strip(serial), strip(parallel)
        assert [x[:2] for x in a] == [x[:2] for x in b]
        for x, y in zip(a, b):
            for u, v in zip(x[2:], y[2:]):
                if np.isnan(u):
                    assert np.isnan(v)
                else:
                    assert u == pytest.approx(v)

    def test_shared_seeds_across_points(self):
        table = run_sweep(small_spec())
        seeds_at = {}
        for (label, seed) in table.trials:
            seeds_at.setdefault(label, set()).add(seed)
        assert len(set(map(frozenset, seeds_at.values()))) == 1


def _spec_doc(**overrides):
    doc = {
        "format": "rislink-sweep",
        "version": 1,
        "axis": "k_window",
        "values": [[4, 5], [7, 8]],
        "trials": 2,
        "methods": ["heuristic"],
        "seed0": 5,
        "config": _config_to_dict(FAST_CFG),
    }
    doc.update(overrides)
    return doc


class TestSweepSpecFile:
    def test_load_round_trip(self):
        spec = load_sweep_spec(json.dumps(_spec_doc()))
        assert spec.axis == "k_window"
        assert spec.values == [(4, 5), (7, 8)]
        assert spec.base == FAST_CFG
        table = run_sweep(spec)
        assert len(table.rows) == 2

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            load_sweep_spec("{}")
        with pytest.raises(ValueError):
            load_sweep_spec("not json")

    @pytest.mark.parametrize("doc", [
        [_spec_doc()],
        _spec_doc(timeout="60"),
        _spec_doc(timeout=0),
        _spec_doc(timeout=math.inf),
        _spec_doc(values=[3]),
        _spec_doc(values=[[4, 5, 6]]),
        _spec_doc(values=[[4, None]]),
        _spec_doc(values=4),
        _spec_doc(axis="robots", values=[[3]]),
        _spec_doc(trials=None),
        _spec_doc(methods=5),
        _spec_doc(workers=0),
        _spec_doc(workers=-1),
        _spec_doc(workers=1.5),
        _spec_doc(workers="2"),
        _spec_doc(workers=True),
        _spec_doc(trials=2.7),
        _spec_doc(trials=True),
        _spec_doc(trials="3"),
        _spec_doc(seed0=2.5),
        _spec_doc(seed0=True),
        _spec_doc(seed0="1000"),
        _spec_doc(methods=[]),
        _spec_doc(methods=["heuristic", "heuristic"]),
    ], ids=["not-an-object", "string-timeout", "zero-timeout", "infinite-timeout",
            "scalar-on-range-axis", "triple-on-range-axis", "null-in-range", "values-not-a-list",
            "pair-on-scalar-axis", "null-trials", "scalar-methods", "zero-workers",
            "negative-workers", "fractional-workers", "string-workers", "boolean-workers",
            "fractional-trials", "boolean-trials", "string-trials",
            "fractional-seed0", "boolean-seed0", "string-seed0", "no-methods", "repeated-method"])
    def test_malformed_spec_rejected(self, doc):
        with pytest.raises(ValueError):
            load_sweep_spec(json.dumps(doc))

    def test_removed_config_key_rejected(self):
        # a version-1 config could switch thresholds to dB; reading it as linear would be wrong
        doc = _spec_doc()
        doc["config"]["sinr_threshold_db"] = True
        with pytest.raises(ScenarioFormatError, match="unknown config keys: sinr_threshold_db"):
            load_sweep_spec(json.dumps(doc))

    def test_timeout_validated(self):
        assert SweepSpec(base=FAST_CFG, axis="robots", values=[1], timeout=None).timeout is None
        for bad in ("60", -1.0, math.nan, True):
            with pytest.raises(ValueError, match="timeout"):
                SweepSpec(base=FAST_CFG, axis="robots", values=[1], timeout=bad)

    @pytest.mark.parametrize("axis, values", [
        ("k_window", [(1, 5), (3, 3)]),
        ("sinr_threshold", [(8.0, 10.0), (9.0, 9.0)]),
        ("robots", [3, 3.0]),
    ])
    def test_values_sharing_a_label_rejected(self, axis, values):
        # a CSV row names its point by the label alone, and trial results
        # are keyed by it, so one point's results would stand for both
        with pytest.raises(ValueError, match="share a CSV label"):
            SweepSpec(base=FAST_CFG, axis=axis, values=values)

    @pytest.mark.parametrize("axis, values", [
        ("robots", [2.5]),
        ("delay", [2, 1.5]),
        ("capacity", [math.inf]),
        ("k_window", [(3, 4.5)]),
    ])
    def test_fractional_value_on_integer_axis_rejected(self, axis, values):
        with pytest.raises(ValueError, match="takes integers"):
            SweepSpec(base=FAST_CFG, axis=axis, values=values)

    def test_fractional_threshold_rejected(self):
        # thresholds are drawn as integers, so (9.5, 9.9) would run at 9
        with pytest.raises(ValueError, match="psi_range"):
            SweepSpec(base=FAST_CFG, axis="sinr_threshold", values=[(9.0, 10.0), (9.5, 9.9)])

    def test_integral_float_on_integer_axis_accepted(self):
        spec = load_sweep_spec(json.dumps(_spec_doc(axis="robots", values=[2.0, 3])))
        assert [apply_axis(spec.base, spec.axis, v).n_robots for v in spec.values] == [2, 3]

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="axis"):
            SweepSpec(base=FAST_CFG, axis="power", values=[1])
