"""Acceptance suite: one test per criterion, one printed PASS line each.

Heavy sweeps honor RISLINK_ACCEPT_SEEDS (default 30 seeds per axis point;
raise to 100 for the full-size run when time allows).  Everything else is
fixed-seed and deterministic.
"""

import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from rislink import channel, harness, heuristic, solvers
from rislink.allocation import AllocationSchedule, validate
from rislink.milp import build_model, extract_schedule
from rislink.scenario import EXPERIMENT_CONFIG, generate, precompute

from conftest import build_showcase_scenario, tiny_config
from oracle import brute_force_optimum
from scalar_geometry import footprint_diameter

SEEDS = int(os.environ.get("RISLINK_ACCEPT_SEEDS", "30"))
# the no-RIS models are tiny, so that baseline always runs at full size
BASELINE_SEEDS = int(os.environ.get("RISLINK_ACCEPT_BASELINE_SEEDS", "100"))
# Per-solve budget.  A solve that runs out of it counts as infeasible, as in
# any sweep.  The slowest solve that finishes in these sweeps takes about
# 23 s on 2 CPUs (D=4, seed 2026); one delay-sweep instance (D=4, seed 2022)
# is still open after 300 s, so a longer budget only adds waiting, not results.
TIMEOUT = float(os.environ.get("RISLINK_ACCEPT_TIMEOUT", "60"))
WORKERS = int(os.environ.get("RISLINK_ACCEPT_WORKERS", "2"))

# The sweeps run on rislink.scenario.EXPERIMENT_CONFIG: Table II values, with
# the QoS draws and the per-surface concurrency pinned, on the calibrated
# experiment floor defined there.


def report(num, text):
    print(f"[criterion {num}] PASS: {text}")


def ci_of(row):
    return row.ci95_outage if np.isfinite(row.ci95_outage) else 0.0


class TestCriterion1OracleEquivalence:
    def test_solver_matches_brute_force_on_100_instances(self):
        start = time.perf_counter()
        checked = 0
        for seed in range(100):
            cfg = tiny_config(
                n_bs=1 + seed % 2,
                n_ris=1 + (seed // 2) % 2,
                n_robots=1 + seed % 3 if seed % 7 == 0 else 3,
                n_slots=4,
                d_reconfig=1 + seed % 3,
                u_override=1 + seed % 2,
                n_obstacles=2 + seed % 4,
                k_range=(2 + seed % 2, 3),
            )
            scenario = generate(cfg, seed)
            tables = precompute(scenario)
            bf_obj, bf_sched = brute_force_optimum(tables, scenario)
            res = solvers.solve(build_model(tables, scenario), "highs")
            got = round(res.objective) if res.status == "optimal" else None
            assert got == bf_obj, f"seed {seed}: solver {got} vs enumeration {bf_obj}"
            checked += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 120, f"oracle suite took {elapsed:.0f}s (budget 120s)"
        report(1, f"solver == exhaustive optimum on {checked}/100 instances in {elapsed:.0f}s")


class TestCriterion3ClosedForms:
    def test_channel_reference_values(self):
        assert channel.antenna_gain(math.radians(10)) == pytest.approx(525.58, abs=0.01)
        assert channel.noise_power(290.0, 20e6) == pytest.approx(8.008e-14, rel=1e-3, abs=0)
        assert channel.path_gain(28e9, 10.0) == pytest.approx(8.52e-5, rel=1e-3)
        assert footprint_diameter(math.radians(10), 10.0) == pytest.approx(1.7498, abs=1e-4)
        report(3, "antenna gain, noise power, path transfer, footprint all match")


class TestCriterion4NarrativeInstance:
    @pytest.fixture(scope="class")
    def solved(self):
        scenario = build_showcase_scenario()
        tables = precompute(scenario)
        model = build_model(tables, scenario)
        res = solvers.solve(model, "highs")
        return scenario, tables, model, res

    def test_coverage_matches_story(self, solved):
        scenario, tables, _, _ = solved
        surface = scenario.config.n_bs   # link of surface 0
        assert np.flatnonzero(tables.covered[1, :, surface]).tolist() == [0, 1, 2, 3]
        assert np.flatnonzero(tables.covered[1, :, surface + 1]).tolist() == [3, 4, 5]
        assert np.argwhere(tables.conflicts[1, 0]).tolist() == [[0, 1]]
        assert np.argwhere(tables.conflicts[1, 1]).tolist() == [[3, 4], [3, 5], [4, 5]]

    def test_optimum_serves_the_pocket_through_i1(self, solved):
        scenario, tables, model, res = solved
        assert res.status == "optimal"
        assert round(res.objective) == 2
        sched = extract_schedule(model, res.values)
        assert validate(scenario, tables, sched).ok
        surface = scenario.config.n_bs   # link of surface 0
        assert sched.link[0, 1] == sched.link[2, 1] == surface
        assert sched.link[1, 1] == -1

    def test_blocking_the_forced_robot_is_infeasible(self, solved):
        scenario, tables, _, _ = solved
        model = build_model(tables, scenario)
        col = model.columns["X"][scenario.config.n_bs, 0, 1]
        model.lb[col] = model.ub[col] = 0  # forbid robot 0 on surface 0 in slot 1
        res = solvers.solve(model, "highs")
        assert res.status == "infeasible"

    def test_interference_terms_of_relayed_robot(self, solved):
        scenario, tables, _, _ = solved
        surface = scenario.config.n_bs   # link of surface 0
        alloc = AllocationSchedule.all_outage(6, 2)
        alloc.link[2, 1] = surface      # companion on the same surface: nulled
        alloc.link[3, 1] = surface      # the probed robot
        alloc.link[4, 1] = surface + 1
        alloc.link[5, 1] = 1            # BS 1
        total = channel.interference_sum(tables, alloc, 3, 1, own_link=surface)
        via_i2 = float(tables.interference[1, 3, 4, scenario.config.n_bs + 1])
        via_b2 = float(tables.interference[1, 3, 5, 1])
        assert via_i2 > 0 and via_b2 > 0
        assert total == pytest.approx(via_i2 + via_b2, rel=1e-12, abs=0)
        report(4, "pocket optimum {r1,r3} on i1 forced; relayed robot hears exactly r5/i2 and r6/b2")


@pytest.fixture(scope="module")
def robot_sweep():
    spec = harness.SweepSpec(
        base=EXPERIMENT_CONFIG,
        axis="robots",
        values=[8, 10, 12, 14],
        trials=SEEDS,
        methods=("ilp", "heuristic"),
        seed0=1000,
        timeout=TIMEOUT,
        workers=WORKERS,
    )
    return spec, harness.run_sweep(spec)


@pytest.fixture(scope="module")
def baseline_sweep():
    spec = harness.SweepSpec(
        base=EXPERIMENT_CONFIG,
        axis="robots",
        values=[8, 10, 12, 14],
        trials=BASELINE_SEEDS,
        methods=("no-ris",),
        seed0=1000,
        timeout=TIMEOUT,
        workers=WORKERS,
    )
    return spec, harness.run_sweep(spec)


def rows_for(table, method):
    return sorted((r for r in table.rows if r.method == method), key=lambda r: r.axis_value)


class TestCriterion5RobotSweep:
    def test_no_ris_band_and_flatness(self, baseline_sweep):
        _, table = baseline_sweep
        rows = rows_for(table, "no-ris")
        for row in rows:
            assert np.isfinite(row.mean_outage_pct), f"no feasible no-ris trial at R={row.axis_value}"
            assert 40.0 <= row.mean_outage_pct <= 70.0, (
                f"no-ris outage {row.mean_outage_pct:.1f}% at R={row.axis_value} outside [40, 70]")
        for a, b in zip(rows, rows[1:]):
            gap = abs(a.mean_outage_pct - b.mean_outage_pct)
            assert gap <= ci_of(a) + ci_of(b), (
                f"no-ris outage not flat: {a.mean_outage_pct:.1f} vs {b.mean_outage_pct:.1f}")
        report(5, "no-RIS outage sits in band and stays flat across |R| "
                  + str([round(r.mean_outage_pct, 1) for r in rows]))

    def test_solver_dominates_heuristic_outage(self, robot_sweep):
        spec, table = robot_sweep
        for value in spec.values:
            label = harness.axis_label(spec.axis, value)
            shared = []
            for t in range(spec.trials):
                tr = table.trials[(label, spec.seed0 + t)]
                ilp, heur = tr.methods["ilp"], tr.methods["heuristic"]
                if ilp.feasible and heur.feasible:
                    shared.append((ilp.outage_pct, heur.outage_pct))
                    assert ilp.outage_pct <= heur.outage_pct + 1e-9
            assert shared, f"no shared feasible seeds at {label}"
            a = float(np.mean([s[0] for s in shared]))
            b = float(np.mean([s[1] for s in shared]))
            assert a <= b + 1e-9
        report(5, "optimal outage <= heuristic outage at every robot count (shared seeds)")

    def test_feasibility_ordering_and_bands(self, robot_sweep):
        _, table = robot_sweep
        ilp = rows_for(table, "ilp")
        heur = rows_for(table, "heuristic")
        for i_row, h_row in zip(ilp, heur):
            assert i_row.feasible_pct >= h_row.feasible_pct - 1e-9
        assert ilp[-1].axis_value == 14
        assert ilp[-1].feasible_pct >= 90.0, f"ILP feasibility {ilp[-1].feasible_pct}% at R=14"
        assert heur[-1].feasible_pct <= 80.0, f"heuristic feasibility {heur[-1].feasible_pct}% at R=14"
        report(5, f"feasibility at R=14: solver {ilp[-1].feasible_pct:.0f}% vs "
                  f"heuristic {heur[-1].feasible_pct:.0f}%")


def monotone(values, cis, direction, what):
    slack_pairs = zip(values, values[1:], cis, cis[1:])
    for a, b, ca, cb in slack_pairs:
        slack = max(ca, cb)
        if direction == "non-decreasing":
            assert b >= a - slack, f"{what} not {direction}: {values}"
        else:
            assert b <= a + slack, f"{what} not {direction}: {values}"


def assert_nested(spec, table, tightening):
    """Check each seed's ILP results along the axis values in ``tightening`` order.

    Each step only adds or tightens constraints of the same scenario, so a
    seed's optimum never falls and its feasibility never comes back.  A
    timed-out trial proves nothing and is skipped.
    """
    for seed in range(spec.seed0, spec.seed0 + spec.trials):
        last = None
        for value in tightening:
            ilp = table.trials[(harness.axis_label(spec.axis, value), seed)].methods["ilp"]
            if ilp.timed_out:
                continue
            if last is not None:
                where = f"seed {seed}: {spec.axis} {last[0]} -> {value}"
                assert last[1].feasible or not ilp.feasible, f"{where}: feasible again"
                if ilp.feasible:
                    assert ilp.objective >= last[1].objective, (
                        f"{where}: optimum falls from {last[1].objective:g} to {ilp.objective:g}")
            last = value, ilp


def sweep(axis, values, base=None, methods=("ilp", "heuristic"), seed0=2000):
    spec = harness.SweepSpec(
        base=base or replace(EXPERIMENT_CONFIG, n_robots=12),
        axis=axis,
        values=values,
        trials=SEEDS,
        methods=methods,
        seed0=seed0,
        timeout=TIMEOUT,
        workers=WORKERS,
    )
    return spec, harness.run_sweep(spec)


class TestCriterion6Trends:
    def test_reconfiguration_delay_hurts(self):
        spec, table = sweep("delay", [1, 2, 3, 4], seed0=2000)
        assert_nested(spec, table, spec.values)
        rows = rows_for(table, "ilp")
        monotone([r.mean_outage_pct for r in rows], [ci_of(r) for r in rows],
                 "non-decreasing", "outage vs delay")
        monotone([100 - r.feasible_pct for r in rows], [5.0] * len(rows),
                 "non-decreasing", "infeasibility vs delay")
        report(6, "outage and infeasibility grow with the reconfiguration delay, seed by seed")

    def test_longer_outage_budget_helps_solver_not_heuristic(self):
        spec, table = sweep("k_window", [(4, 5), (7, 8), (9, 10), (14, 15)], seed0=3000)
        assert_nested(spec, table, spec.values[::-1])
        ilp = rows_for(table, "ilp")
        monotone([r.mean_outage_pct for r in ilp], [ci_of(r) for r in ilp],
                 "non-increasing", "solver outage vs outage budget")
        monotone([100 - r.feasible_pct for r in ilp], [5.0] * len(ilp),
                 "non-increasing", "solver infeasibility vs outage budget")
        # The heuristic never plans for the outage window and generate draws
        # the budgets after everything else, so a seed's heuristic schedule
        # must be the same at every budget; only its verdict may change.
        for t in range(spec.trials):
            seed = spec.seed0 + t
            schedules = []
            for value in spec.values:
                scenario = generate(harness.apply_axis(spec.base, spec.axis, value), seed)
                schedules.append(heuristic.allocate(precompute(scenario), scenario, seed=seed).schedule)
            counts = [s.outage_count() for s in schedules]
            assert all(s == schedules[0] for s in schedules), (
                f"seed {seed}: heuristic schedule changes with the outage budget "
                f"(outage counts {counts})")
        heur = rows_for(table, "heuristic")
        monotone([r.feasible_pct for r in heur], [0.0] * len(heur),
                 "non-decreasing", "heuristic feasibility vs outage budget")
        # mean outage is taken over feasible trials, so it is compared between
        # the neighbouring budgets at which it and its CI are defined
        defined = [r for r in heur if sum(
            table.trials[(r.axis_value, spec.seed0 + t)].methods["heuristic"].feasible
            for t in range(spec.trials)) >= 2]
        for a, b in zip(defined, defined[1:]):
            assert abs(a.mean_outage_pct - b.mean_outage_pct) <= ci_of(a) + ci_of(b), (
                "heuristic outage is not flat in the outage budget")
        report(6, "larger outage budgets help the solver; the heuristic stays flat")

    def test_stricter_quality_threshold_hurts(self):
        spec, table = sweep("sinr_threshold", [(9, 10), (29, 30), (49, 50), (69, 70)],
                            methods=("ilp",), seed0=4000)
        assert_nested(spec, table, spec.values)
        rows = rows_for(table, "ilp")
        monotone([100 - r.feasible_pct for r in rows], [5.0] * len(rows),
                 "non-decreasing", "infeasibility vs quality threshold")
        report(6, "each seed's optimum and infeasibility grow with the quality threshold")

    def test_more_concurrency_helps(self):
        base = replace(EXPERIMENT_CONFIG, n_robots=14)
        spec, table = sweep("capacity", [1, 2, 3], base=base, seed0=5000)
        assert_nested(spec, table, spec.values[::-1])
        rows = rows_for(table, "ilp")
        monotone([r.mean_outage_pct for r in rows], [ci_of(r) for r in rows],
                 "non-increasing", "outage vs concurrency")
        monotone([100 - r.feasible_pct for r in rows], [5.0] * len(rows),
                 "non-increasing", "infeasibility vs concurrency")
        assert rows[-1].feasible_pct >= 95.0, (
            f"solver feasibility at U=3 is {rows[-1].feasible_pct}%, expected 100 +- 5")
        report(6, f"concurrency trend holds; feasibility at U=3 is {rows[-1].feasible_pct:.0f}%")


class TestCriterion2EncoderSoundness:
    def test_every_feasible_solve_validates(self, robot_sweep):
        # run_trial aborts on any feasible-flagged schedule that fails
        # validation, so a completed sweep is itself the evidence; re-check a
        # sample of solved instances here explicitly at tolerance 1e-9.
        _, table = robot_sweep
        solved = sum(1 for tr in table.trials.values() if tr.methods["ilp"].feasible)
        assert solved > 0
        checked = 0
        for seed in range(12):
            cfg = replace(EXPERIMENT_CONFIG, n_robots=8, n_slots=12)
            scenario = generate(cfg, 9000 + seed)
            tables = precompute(scenario)
            model = build_model(tables, scenario)
            res = solvers.solve(model, "highs", time_budget=TIMEOUT)
            if res.status != "optimal":
                continue
            sched = extract_schedule(model, res.values)
            rep = validate(scenario, tables, sched)
            assert rep.ok, rep.render()
            checked += 1
        assert checked >= 8
        report(2, f"zero validation violations across {solved} sweep solves "
                  f"and {checked} re-checked instances")


class TestCriterion7PropertySuites:
    def test_property_modules_present_and_heuristic_dominance(self):
        # the standalone suites live in the sibling test modules; this spot
        # check reruns the cross-method dominance bound on shared instances
        here = os.path.dirname(__file__)
        for mod in ("test_geometry.py", "test_allocation.py", "test_heuristic.py",
                    "test_lpio.py", "test_scenario.py"):
            assert os.path.exists(os.path.join(here, mod))
        from rislink.heuristic import allocate
        worse = 0
        for seed in range(50):
            cfg = tiny_config(n_robots=3, n_slots=3, k_range=(4, 4),
                              n_obstacles=2 + seed % 3, d_reconfig=1 + seed % 2)
            scenario = generate(cfg, 500 + seed)
            tables = precompute(scenario)
            out = allocate(tables, scenario, seed=seed)
            res = solvers.solve(build_model(tables, scenario), "highs")
            assert res.status == "optimal"
            assert out.schedule.outage_count() >= round(res.objective)
            worse += out.schedule.outage_count() > round(res.objective)
        report(7, f"property suites standalone; heuristic dominated on 50/50 instances "
                  f"(strictly worse on {worse})")
