import os
import sys
from dataclasses import replace

import numpy as np
import pytest

from rislink import solvers
from rislink.lpio import export_model, parse_lp, parse_mps, parse_solution, write_lp, write_mps, write_solution
from rislink.milp import build_model, brute_force_optimum
from rislink.scenario import EXPERIMENT_CONFIG, ScenarioConfig, generate, precompute

from conftest import tiny_config

HERE = os.path.dirname(__file__)
FAKE_SOLVER = [sys.executable, os.path.join(HERE, "fake_lp_solver.py"), "{model}", "{solution}"]


def model_multiset(model):
    """Rounded (sense, rhs, sorted terms) view of a built model, for comparison."""
    out = []
    for k in range(model.n_rows):
        terms = tuple(sorted(
            (model.var_names[j], round(float(c), 12))
            for j, c in zip(model.row_cols[k], model.row_coefs[k])
        ))
        out.append((model.row_sense[k], round(float(model.row_rhs[k]), 12), terms))
    return sorted(out)


@pytest.fixture(scope="module")
def small_model():
    s = generate(tiny_config(), 5)
    return build_model(precompute(s), s)


class TestLpRoundTrip:
    def test_constraint_count_and_coefficients(self, small_model):
        parsed = parse_lp(write_lp(small_model))
        assert len(parsed.rows) == small_model.n_rows
        assert parsed.coefficient_multiset() == [
            (sense, rhs, tuple((v, c) for v, c in terms))
            for (sense, rhs, terms) in model_multiset(small_model)
        ]

    def test_variable_catalog_preserved(self, small_model):
        parsed = parse_lp(write_lp(small_model))
        assert set(parsed.binaries) == set(small_model.var_names)
        fixed = {small_model.var_names[j] for j in range(small_model.n_vars)
                 if small_model.lb[j] == small_model.ub[j]}
        assert set(parsed.fixed) == fixed

    def test_objective_preserved(self, small_model):
        parsed = parse_lp(write_lp(small_model))
        expected = {small_model.var_names[j]: 1.0
                    for j in np.nonzero(small_model.objective)[0]}
        assert parsed.objective == expected


class TestMpsRoundTrip:
    def test_constraint_count_and_coefficients(self, small_model):
        parsed = parse_mps(write_mps(small_model))
        assert len(parsed.rows) == small_model.n_rows
        assert parsed.coefficient_multiset() == [
            (sense, rhs, tuple((v, c) for v, c in terms))
            for (sense, rhs, terms) in model_multiset(small_model)
        ]

    def test_full_precision_coefficients(self, small_model):
        parsed = parse_mps(write_mps(small_model))
        by_name = {name: (terms, sense, rhs) for (name, terms, sense, rhs) in parsed.rows}
        for k in range(small_model.n_rows):
            terms, _, _ = by_name[small_model.row_names[k]]
            for j, c in zip(small_model.row_cols[k], small_model.row_coefs[k]):
                assert terms[small_model.var_names[j]] == float(c)  # bit-exact


class TestExperimentScaleRoundTrip:
    def test_lp_and_mps_parse_back_alike(self):
        s = generate(replace(EXPERIMENT_CONFIG, n_robots=14), 1000)
        model = build_model(precompute(s), s)
        lp = parse_lp(write_lp(model))
        mps = parse_mps(write_mps(model))
        assert lp.coefficient_multiset() == mps.coefficient_multiset() == [
            (sense, rhs, tuple(terms)) for (sense, rhs, terms) in model_multiset(model)
        ]
        assert lp.objective == mps.objective == {
            model.var_names[j]: 1.0 for j in np.nonzero(model.objective)[0]}
        fixed = {model.var_names[j]: int(model.lb[j]) for j in np.flatnonzero(model.lb == model.ub)}
        assert lp.fixed == mps.fixed == fixed


class TestEmptyModel:
    def test_empty_scenario_exports(self):
        cfg = ScenarioConfig(n_bs=0, n_ris=0, n_robots=0, n_slots=1, n_obstacles=0)
        s = generate(cfg, 0)
        model = build_model(precompute(s), s)
        lp = export_model(model, "lp")
        mps = export_model(model, "mps")
        assert "Minimize" in lp and "End" in lp
        assert parse_lp(lp).rows == []
        assert parse_mps(mps).rows == []

    def test_unknown_format_rejected(self, small_model):
        with pytest.raises(ValueError):
            export_model(small_model, "sav")


class TestSolutionFormat:
    def test_round_trip(self):
        text = write_solution("optimal", {"X_1": 1.0, "O_0": 0.0})
        status, values = parse_solution(text)
        assert status == "optimal"
        assert values == {"X_1": 1.0, "O_0": 0.0}

    def test_status_only(self):
        assert parse_solution(write_solution("infeasible")) == ("infeasible", {})

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_solution("927 whatever\n")


class TestExternalAdapter:
    @pytest.mark.parametrize("fmt", ["lp", "mps"])
    def test_cross_solver_objective_matches(self, fmt):
        s = generate(tiny_config(n_slots=3), 2)
        t = precompute(s)
        model = build_model(t, s)
        highs = solvers.solve(model, "highs")
        external = solvers.solve(model, solvers.ExternalBackend(FAKE_SOLVER, file_format=fmt))
        assert external.status == highs.status == "optimal"
        assert round(external.objective) == round(highs.objective)
        bf_obj, _ = brute_force_optimum(t, s)
        assert round(external.objective) == bf_obj
        assert external.nodes is external.dual_bound is external.gap is None

    def test_empty_command_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            solvers.ExternalBackend([])

    def test_missing_binary_reported(self, small_model):
        backend = solvers.ExternalBackend(["/nonexistent/solver", "{model}", "{solution}"])
        with pytest.raises(solvers.BackendError, match="not found"):
            backend.solve(small_model)
