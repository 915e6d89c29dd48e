from dataclasses import replace

import numpy as np
import pytest

from rislink import solvers
from rislink.geometry import Obstacle
from rislink.milp import build_model, extract_schedule
from rislink.scenario import EXPERIMENT_CONFIG, ScenarioConfig, generate, precompute

from conftest import tiny_config


def walled_in(seed=0, n_slots=3, k_range=(4, 4)):
    """Scenario whose single robot can never be served."""
    cfg = tiny_config(n_bs=1, n_ris=0, n_robots=1, n_slots=n_slots, k_range=k_range)
    s = generate(cfg, seed)
    s.obstacles = [Obstacle(0.5, 0.5, 24.5, 24.5)]
    return s, precompute(s)


def empty_model():
    """Model of a scenario with no robots: no variables at all."""
    s = generate(ScenarioConfig(n_bs=0, n_ris=0, n_robots=0, n_slots=1, n_obstacles=0), 0)
    return build_model(precompute(s), s)


class TestBackendContract:
    def test_forced_outage_objective(self):
        s, t = walled_in()
        model = build_model(t, s)
        res = solvers.solve(model, "highs")
        assert res.status == "optimal"
        assert res.objective == pytest.approx(3.0)
        sched = extract_schedule(model, res.values)
        assert sched.outage_count() == 3

    def test_uncoverable_window_is_infeasible(self):
        s, t = walled_in(k_range=(2, 2))
        assert solvers.solve(build_model(t, s), "highs").status == "infeasible"

    def test_unknown_backend_rejected(self):
        s, t = walled_in()
        for model in (build_model(t, s), empty_model()):
            with pytest.raises(solvers.BackendError):
                solvers.solve(model, "cplex")

    def test_empty_model_short_circuits(self):
        res = solvers.solve(empty_model())
        assert res.status == "optimal" and res.objective == 0.0

    def test_timeout_reported(self):
        cfg = tiny_config(n_robots=3, n_slots=4)
        s = generate(cfg, 1)
        model = build_model(precompute(s), s)
        res = solvers.solve(model, "highs", time_budget=1e-9)
        assert res.status == "timeout"
        assert res.values is None

    @pytest.mark.parametrize("budget", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_time_budget_rejected(self, budget):
        s = generate(tiny_config(n_robots=3, n_slots=4), 1)
        model = build_model(precompute(s), s)
        with pytest.raises(ValueError, match="time budget"):
            solvers.solve(model, "highs", time_budget=budget)


class TestSolverStatistics:
    @pytest.fixture(scope="class")
    def r14_model(self):
        s = generate(replace(EXPERIMENT_CONFIG, n_robots=14), 1002)
        return build_model(precompute(s), s)

    def test_optimal_solve_closes_the_gap(self, r14_model):
        res = solvers.solve(r14_model, "highs")
        assert res.status == "optimal"
        # the bound is an LP value: on some seeds it sits 3e-14 below the integer optimum
        assert res.gap == pytest.approx(0.0, abs=1e-9)
        assert res.dual_bound == pytest.approx(res.objective, abs=1e-9)
        assert isinstance(res.nodes, int) and res.nodes >= 0

    def test_timeout_bound_never_above_incumbent(self, r14_model):
        res = solvers.solve(r14_model, "highs", time_budget=1e-9)
        assert res.status == "timeout"
        if res.dual_bound is not None and res.incumbent_objective is not None:
            assert res.dual_bound <= res.incumbent_objective


class TestRounding:
    def test_far_from_integer_rejected(self):
        with pytest.raises(solvers.BackendError):
            solvers._round_binary(np.array([0.4, 1.0]))

    def test_tolerance_accepted(self):
        out = solvers._round_binary(np.array([1e-7, 1 - 1e-7]))
        assert list(out) == [0.0, 1.0]
