"""Self-tests of the benchmark's statistics, self-time, checks and tracing.

    python3 -m pytest -q perfbench
"""

import json
import os
import random
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from stats import hd_percentile, merge_intervals, percentile, self_time, tail, tail_percentile  # noqa: E402

from rislink import harness, lpio, milp, scenario as scen  # noqa: E402


class TestPercentiles:
    def test_matches_numpy_linear_interpolation(self):
        rng = random.Random(3)
        for n in (1, 2, 7, 50):
            xs = [rng.expovariate(1.0) for _ in range(n)]
            for p in (0, 10, 50, 90, 99, 100):
                assert percentile(xs, p) == pytest.approx(np.percentile(xs, p))

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    @pytest.mark.parametrize("n,p", [(1, 50), (10, 50), (19, 50), (20, 52), (25, 62), (100, 90), (1000, 99), (2000, 99)])
    def test_tail_percentile(self, n, p):
        assert tail_percentile(n) == p

    def test_tail_leaves_ten_samples_beyond(self):
        for n in (20, 33, 100, 250, 1001):
            xs = list(range(n))
            value, p, count = tail(xs)
            assert count == n
            assert value == pytest.approx(hd_percentile(xs, p))
            assert sum(x > percentile(xs, p) for x in xs) >= 10
            # one percentile higher would leave fewer than ten beyond it
            if p < 100:
                assert sum(x > percentile(xs, p + 1) for x in xs) < 10 or tail_percentile(n) == 50

    def test_harrell_davis_matches_scipy(self):
        from scipy.stats.mstats import hdquantiles

        rng = random.Random(5)
        for n in (2, 7, 16, 200):
            xs = [rng.lognormvariate(0.0, 0.5) for _ in range(n)]
            for p in (10, 50, 94):
                assert hd_percentile(xs, p) == pytest.approx(float(hdquantiles(xs, prob=[p / 100])[0]))
        assert hd_percentile([3.0], 50) == 3.0
        with pytest.raises(ValueError):
            hd_percentile([1.0, 2.0], 100)

    def test_harrell_davis_median_moves_less_when_neighbours_swap(self):
        # ranks 8 and 9 of 16 sit across a gap; one sample crossing it
        xs = [0.6] * 6 + [1.2, 1.3, 1.5, 1.7, 1.7, 2.0, 2.1, 2.1, 2.2, 2.5]
        moved = xs[:7] + [1.6] + xs[8:]
        assert abs(hd_percentile(moved, 50) - hd_percentile(xs, 50)) < \
            abs(percentile(moved, 50) - percentile(xs, 50)) / 2


class TestSelfTime:
    def test_no_children(self):
        assert self_time(1.0, 3.0, []) == pytest.approx(2.0)

    def test_disjoint_children(self):
        assert self_time(0.0, 10.0, [(1.0, 2.0), (4.0, 7.0)]) == pytest.approx(6.0)

    def test_overlapping_children_count_once(self):
        assert self_time(0.0, 10.0, [(1.0, 5.0), (3.0, 6.0), (5.5, 6.5)]) == pytest.approx(4.5)

    def test_children_clipped_to_parent(self):
        assert self_time(2.0, 4.0, [(0.0, 3.0), (3.5, 9.0)]) == pytest.approx(0.5)

    def test_folded_time_subtracted(self):
        assert self_time(0.0, 10.0, [(1.0, 2.0)], folded=3.0) == pytest.approx(6.0)

    def test_merge_intervals(self):
        assert merge_intervals([(3, 4), (1, 2), (1.5, 3), (5, 5)]) == [(1, 4)]

    def test_self_times_of_a_span_tree(self):
        # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3]
        tree = [
            ["root", 0.0, 10.0, None, "t", 0.0, None],
            ["a", 1.0, 4.0, 0, "t", 0.5, None],
            ["c", 2.0, 3.0, 1, "t", 0.0, None],
            ["b", 5.0, 9.0, 0, "t", 0.0, None],
        ]
        assert spans.self_times(tree) == pytest.approx([3.0, 1.5, 1.0, 4.0])


class TestHostSpeed:
    def test_reference_seconds_scale_with_the_kernel_times_around_a_unit(self):
        ref = hostspeed.REF_S
        assert hostspeed.to_reference(2.0, ref, ref) == pytest.approx(2.0)
        # a host running the kernel at half speed runs the unit at half speed too
        assert hostspeed.to_reference(2.0, 2 * ref, 2 * ref) == pytest.approx(1.0)
        assert hostspeed.to_reference(3.0, ref, 2 * ref) == pytest.approx(2.0)

    def test_reference_durations_pair_each_unit_with_its_neighbours(self):
        ref = hostspeed.REF_S
        got = hostspeed.reference_durations([1.0, 1.0], [ref, 3 * ref, ref])
        assert got == pytest.approx([0.5, 0.5])
        with pytest.raises(ValueError):
            hostspeed.reference_durations([1.0, 1.0], [ref, ref])

    def test_kernel_time_is_positive(self):
        assert hostspeed.measure() > 0


class TestClosedLoop:
    def test_runs_whole_passes_with_a_kernel_time_around_every_unit(self, monkeypatch):
        monkeypatch.setattr(hostspeed, "measure", lambda: hostspeed.REF_S)
        visited = []

        def unit(k):
            visited.append(k)
            return 0.01

        # the first pass outlasts the run, yet runs to its end
        durations, calibrations = run.closed_loop(unit, 0.0, 7)
        assert visited == list(range(7))
        assert len(durations) == 7 and len(calibrations) == 8
        visited.clear()
        durations, _ = run.closed_loop(unit, 0.05, 3)
        assert len(durations) % 3 == 0 and len(durations) >= 3


class TestReferences:
    REF = {"ilp": {"1000": 26, "1001": None}}

    def test_match_and_mismatch(self):
        assert checks.compare_reference(self.REF, "ilp", 1000, 26) is None
        assert checks.compare_reference(self.REF, "ilp", 1001, None) is None
        assert "pinned 26" in checks.compare_reference(self.REF, "ilp", 1000, 27)
        assert checks.compare_reference(self.REF, "ilp", 1001, 3) is not None
        assert checks.compare_reference(self.REF, "ilp", "1000", 26) is None

    def test_unpinned_keys_pass(self):
        assert checks.compare_reference(self.REF, "ilp", 5, 99) is None
        assert checks.compare_reference(self.REF, "heuristic", 1000, 99) is None

    def test_pins_apply_only_to_the_default_seed_base(self):
        from workloads import IlpR14

        assert IlpR14(checks.DEFAULT_SEED_BASE, 3, self.REF).reference is self.REF
        assert IlpR14(7, 3, self.REF).reference == {}

    def test_pinned_file_covers_every_seed_list(self):
        from workloads import HeuristicR14, IlpR14

        ref = checks.load_reference()
        base = checks.DEFAULT_SEED_BASE
        assert ref["seed_base"] == base
        assert set(ref["ilp"]) == {str(base + k) for k in range(IlpR14.SEEDS)}
        assert set(ref["heuristic"]) == {str(base + k) for k in range(HeuristicR14.SEEDS)}
        assert set(ref) == {"seed_base", "ilp", "heuristic"}

    def test_every_pass_visits_the_whole_suite_in_a_seeded_order(self):
        from workloads import IlpR14

        a, b = IlpR14(1000, 1, {}), IlpR14(1000, 2, {})
        n = IlpR14.SEEDS
        passes = [[a.instance(k) for k in range(p * n, (p + 1) * n)] for p in range(3)]
        assert all(sorted(order) == list(range(n)) for order in passes)
        assert passes[0] != passes[1]
        assert [IlpR14(1000, 1, {}).instance(k) for k in range(2 * n)] == passes[0] + passes[1]
        assert [b.instance(k) for k in range(n)] != passes[0]


def _trial(ilp, heur, bare=None):
    methods = {"ilp": ilp, "heuristic": heur}
    if bare is not None:
        methods["no-ris"] = bare
    return harness.TrialResult(seed=1, methods=methods)


def _m(feasible, outage_pct=None, objective=None, timed_out=False):
    return harness.MethodResult(feasible, outage_pct, 0.1, timed_out=timed_out, objective=objective)


class TestTrialChecks:
    # 2 robots x 50 slots: 1 % is one outage cell
    def test_consistent_trial_passes(self):
        assert checks.check_trial(_trial(_m(True, 3.0, 3.0), _m(True, 5.0), _m(True, 9.0)), 2, 50) is None
        assert checks.check_trial(_trial(_m(False), _m(False)), 2, 50) is None

    def test_objective_must_equal_outage_count(self):
        assert "outage count" in checks.check_trial(_trial(_m(True, 3.0, 4.0), _m(False)), 2, 50)

    def test_heuristic_must_not_beat_ilp(self):
        assert "heuristic" in checks.check_trial(_trial(_m(True, 6.0, 6.0), _m(True, 5.0)), 2, 50)
        assert "ILP infeasible" in checks.check_trial(_trial(_m(False), _m(True, 5.0)), 2, 50)

    def test_no_ris_must_not_beat_ilp(self):
        assert "no-RIS" in checks.check_trial(_trial(_m(True, 6.0, 6.0), _m(False), _m(True, 4.0)), 2, 50)

    def test_timeout_fails(self):
        assert "timed out" in checks.check_trial(_trial(_m(False, timed_out=True), _m(False)), 2, 50)


class TestInterchange:
    @pytest.fixture(scope="class")
    def model(self):
        config = scen.ScenarioConfig(n_bs=1, n_ris=2, n_robots=3, n_slots=6, k_range=(2, 3), u_override=1)
        s = scen.generate(config, 5)
        return milp.build_model(scen.precompute(s), s)

    def test_exports_parse_back(self, model):
        lp, mps = lpio.export_model(model, "lp"), lpio.export_model(model, "mps")
        assert checks.check_interchange(model, lp, mps) is None
        rows, _, _ = checks.parse_lp_rows(lp)
        want = lpio.parse_lp(lp).coefficient_multiset()
        assert lpio.ParsedModel([], {}, rows).coefficient_multiset() == want

    def test_corrupted_exports_fail(self, model):
        lp, mps = lpio.export_model(model, "lp"), lpio.export_model(model, "mps")
        assert "LP" in checks.check_interchange(model, lp.replace(" <= ", " >= ", 1), mps)
        assert "MPS" in checks.check_interchange(model, lp, mps.replace(" 1.0\n", " 3.0\n", 1))


class TestBenchmarkFile:
    def test_metric_names_and_units_match_the_runner(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
        assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
        from workloads import WORKLOADS

        assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def _run(*args):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), *args]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    return done, [line for line in done.stdout.splitlines() if line.strip()]


class TestEndToEnd:
    def test_traced_export_reports_per_layer_metrics(self):
        done, lines = _run("--workload", "export_r14", "--seed", "1000", "--seconds", "1", "--trace", "1")
        assert done.returncode == 0, done.stderr
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        metrics = result["metrics"]
        assert set(metrics) == set(run.PER_LAYER)
        assert metrics["milp.build_model.s"]["value"] > 0
        assert metrics["lpio.bytes"]["value"] > 0
        # the export path builds models but never solves one
        assert metrics["solvers.optimal"]["value"] + metrics["solvers.infeasible"]["value"] == 0
        trace = json.loads(lines[-2])["detail"]["trace_file"]
        [(span_list, _)] = spans.read_sets(os.path.join(ROOT, trace))
        assert {span[spans.TRIAL] for span in span_list} == {f"unit{k}" for k in range(result["attempted"])}

    def test_untraced_run_reports_end_to_end_metrics(self):
        done, lines = _run("--workload", "heuristic_r14", "--seed", "1000", "--seconds", "1", "--trace", "0")
        assert done.returncode == 0, done.stderr
        result = json.loads(lines[-1])
        assert result["correct"] and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
        detail = json.loads(lines[-2])["detail"]
        assert detail["environment"]["seed_base"] == 1000
        assert len(detail["setup_runs_s"]) == run.SETUP_REPEATS

    def test_fails_without_the_program_sources(self):
        # a directory holding only BENCHMARK.json and the benchmark's files
        bare = os.path.join(HERE, "out", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ilp_r14", "--seed", "1",
                                   "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True,
                                  text=True, timeout=60)
        finally:
            shutil.rmtree(bare)
        assert done.returncode != 0
        assert done.stdout == ""
