import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize._highspy import _core

from rislink import solvers
from rislink.geometry import Obstacle
from rislink.milp import build_model, extract_schedule, fold_usage, settled_bounds
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
        assert isinstance(res.lp_iterations, int) and res.lp_iterations > 0

    def test_solved_size_is_the_undecided_part(self, r14_model):
        res = solvers.solve(r14_model, "highs")
        lb, ub = settled_bounds(r14_model)
        folded_ub, twin, _ = fold_usage(r14_model, lb, ub)
        columns, rows, nonzeros = res.solved_size
        assert columns == ((lb < folded_ub) & (twin == np.arange(r14_model.n_vars))).sum()
        assert columns < (lb < ub).sum() < (r14_model.lb < r14_model.ub).sum()
        assert 0 < rows < r14_model.n_rows and 0 < nonzeros < r14_model.matrix.nnz

    def test_timeout_bound_never_above_incumbent(self, r14_model):
        res = solvers.solve(r14_model, "highs", time_budget=1e-9)
        assert res.status == "timeout"
        if res.dual_bound is not None and res.incumbent_objective is not None:
            assert res.dual_bound <= res.incumbent_objective


class TestSettledSolve:
    def test_all_settled_model_never_reaches_highs(self, monkeypatch):
        # a lone robot in the open sees its BS in every slot, and that link
        # sits in no row but the serve row
        cfg = ScenarioConfig(n_bs=1, n_ris=0, n_robots=1, n_slots=4, n_obstacles=0, k_range=(2, 2))
        s = generate(cfg, 0)
        model = build_model(precompute(s), s)
        lb, ub = settled_bounds(model)
        assert (lb == ub).all() and (lb[model.columns["X"][0, 0]] == 1).all()

        def refuse(*args, **kwargs):
            raise AssertionError("HiGHS called on a settled model")

        monkeypatch.setattr(_core, "_Highs", refuse)
        res = solvers.solve(model, "highs")
        assert res.status == "optimal" and res.objective == 0.0
        assert len(res.values) == model.n_vars and res.solved_size == (0, 0, 0)
        assert extract_schedule(model, res.values).outage_count() == 0

    def test_wrong_fold_is_caught_before_it_is_returned(self, monkeypatch):
        # a fold that fixes every usage bit at 0 and drops all its used_*
        # rows lets a surface link serve with its usage bit at 0
        s = generate(replace(EXPERIMENT_CONFIG, n_robots=14), 1002)
        model = build_model(precompute(s), s)
        ys = model.columns["Y"][model.columns["Y"] >= 0]

        def fix_every_usage_bit(model, lb, ub):
            ub = ub.copy()
            ub[ys] = 0.0
            return ub, np.arange(model.n_vars), model.matrix[:, ys].min(axis=1).toarray().ravel() < 0

        monkeypatch.setattr(solvers, "fold_usage", fix_every_usage_bit)
        with pytest.raises(solvers.BackendError, match="breaks row used_"):
            solvers.solve(model, "highs")


def test_cli_import_leaves_the_optimizer_out():
    # solvers imports scipy.optimize on the first HiGHS solve, not at import
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(root, "src"), env.get("PYTHONPATH")]))
    code = "import sys, rislink.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True, timeout=60)
    assert out.stdout.strip() == "False"


class TestRounding:
    def test_far_from_integer_rejected(self):
        with pytest.raises(solvers.BackendError):
            solvers._round_binary(np.array([0.4, 1.0]))

    def test_tolerance_accepted(self):
        out = solvers._round_binary(np.array([1e-7, 1 - 1e-7]))
        assert list(out) == [0.0, 1.0]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 2.0, -1.0])
    def test_non_binary_rejected(self, value):
        with pytest.raises(solvers.BackendError, match="not within 1e-6 of 0 or 1"):
            solvers._round_binary(np.array([0.0, value]))


class TestCheckPoint:
    def test_optimum_passes(self):
        s = generate(tiny_config(n_robots=2, n_slots=3), 1)
        model = build_model(precompute(s), s)
        solvers._check_point(model, solvers.solve(model, "highs").values)

    def test_bit_outside_its_bounds_rejected(self):
        # the walled-in robot's outage bits are fixed at 1
        s, t = walled_in()
        model = build_model(t, s)
        with pytest.raises(solvers.BackendError, match="O_0_0 to 0, outside its bounds"):
            solvers._check_point(model, np.zeros(model.n_vars))

    def test_broken_row_rejected(self):
        s = generate(tiny_config(n_robots=2, n_slots=3), 1)
        model = build_model(precompute(s), s)
        with pytest.raises(solvers.BackendError, match="breaks row serve_0_0 by 3"):
            solvers._check_point(model, np.ones(model.n_vars))
