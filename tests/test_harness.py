import json
import math
from dataclasses import replace

import numpy as np
import pytest

from rislink import harness
from rislink.harness import SweepSpec, apply_axis, load_sweep_spec, run_sweep, run_trial, sweep_to_csv
from rislink.scenario import ScenarioConfig, _config_to_dict

from conftest import tiny_config

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
    ], ids=["not-an-object", "string-timeout", "zero-timeout", "infinite-timeout",
            "scalar-on-range-axis", "triple-on-range-axis", "null-in-range", "values-not-a-list",
            "pair-on-scalar-axis", "null-trials", "scalar-methods", "zero-workers",
            "negative-workers", "fractional-workers", "string-workers", "boolean-workers",
            "fractional-trials", "boolean-trials", "string-trials",
            "fractional-seed0", "boolean-seed0", "string-seed0"])
    def test_malformed_spec_rejected(self, doc):
        with pytest.raises(ValueError):
            load_sweep_spec(json.dumps(doc))

    def test_timeout_validated(self):
        assert SweepSpec(base=FAST_CFG, axis="robots", values=[1], timeout=None).timeout is None
        for bad in ("60", -1.0, math.nan, True):
            with pytest.raises(ValueError, match="timeout"):
                SweepSpec(base=FAST_CFG, axis="robots", values=[1], timeout=bad)

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="axis"):
            SweepSpec(base=FAST_CFG, axis="power", values=[1])
