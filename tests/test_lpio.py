import hashlib
import os
import sys
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from rislink import solvers
from rislink.lpio import export_model, parse_lp, parse_solution, write_lp, write_mps, write_solution
from rislink.milp import MilpModel, build_model
from rislink.scenario import EXPERIMENT_CONFIG, ScenarioConfig, generate, precompute

from conftest import tiny_config
from highs_read import model_by_name, read_model
from oracle import brute_force_optimum

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


def hand_built_model():
    """Eight columns Xb_0_0_0 .. O_0_1 and four rows covering the writers' edge cases:
    a row with no terms, a column with neither entries nor objective (and an
    objective of -0.0), columns with an objective only, -0.0 as a coefficient
    and as a right-hand side, negative leading coefficients and right-hand
    sides, unsorted column indices, and variables fixed at 1, 0 and -0.0."""
    matrix = sp.csr_matrix((
        np.array([-1.5, 0.1, -0.0, 1e-08, 3.0, 2.0]),
        np.array([0, 2, 3, 4, 0, 1]),
        np.array([0, 3, 3, 5, 6]),
    ), shape=(4, 8))
    lb, ub = np.zeros(8), np.ones(8)
    lb[1] = 1.0
    ub[4] = 0.0
    lb[6], ub[6] = -0.0, 0.0
    return MilpModel(
        n_bs=1, n_ris=1, n_robots=1, n_slots=2, dense=np.arange(8), lb=lb, ub=ub,
        objective=np.array([-2.0, 0.0, 0.0, 0.0, 0.0, -0.0, 1.0, 0.25]), matrix=matrix,
        row_sense=np.array([">", "<", "=", "<"]), row_rhs=np.array([-2.25, -0.0, 1.0, 0.0]),
        make_row_names=lambda: ["a", "empty", "b", "c"])


def empty_model():
    s = generate(ScenarioConfig(n_bs=0, n_ris=0, n_robots=0, n_slots=1, n_obstacles=0), 0)
    return build_model(precompute(s), s)


def experiment_model():
    s = generate(replace(EXPERIMENT_CONFIG, n_robots=14), 1000)
    return build_model(precompute(s), s)


@pytest.fixture(scope="module")
def golden_models(small_model):
    return {"small": small_model, "empty": empty_model(), "experiment": experiment_model(),
            "hand_built": hand_built_model()}


class TestGoldenText:
    """sha256 of the exported text; any change to a byte of either format
    fails.  The hand_built and empty LP digests were pinned from the per-row
    writers the array writers replaced, the small and experiment LP digests
    from the lean model with only live columns: no allocation bit of a link
    that is not live and no usage bit without a used row, one serve row per
    robot and slot with a live link, no capacity rows, no ready row over U or
    fewer usage bits and no SINR row that holds with all its columns at 1.
    All four MPS digests were re-pinned when the integer-section marker
    lines took their standard three fields (``M1 'MARKER' 'INTORG'``); the
    earlier four-field lines read as an extra column named MARKER."""

    DIGESTS = {
        ("small", "lp"):
            "af0f98d8ed32cbcdbac4ad296988c9990c0ba07df573cb695e3c72c8dc6d3b6a",
        ("small", "mps"):
            "f8d8f505fd4b92e273778fdaa73e0ceb842c0df85ba204ec1ee9e03ae90894d2",
        ("empty", "lp"):
            "051ca5e7118a92605bdc2da8aae7836cf650004f81a2396139a1f12ee5d90176",
        ("empty", "mps"):
            "521c46204b500c9349d7985069647b9be18c5c3cd620d9a4dff4cf5c62b29502",
        ("experiment", "lp"):
            "8d9be8dfa05a1a14e580f5ed997e695c5a5b08f418c9152476f9adfb2621273d",
        ("experiment", "mps"):
            "d827c60dd9126d25b7a1b8234db71e4ef41beb3ede7291ce87c37249802bffbb",
        ("hand_built", "lp"):
            "b5fe0ad2c2aeb0fb0151d7e1f222fb8e00b6aa1bfdeafb8d1fd1f6b4001d9db6",
        ("hand_built", "mps"):
            "b2b59189b2c2b64c7959d8a4d461888ac1c3fcc764d28b9d7f813cad8c137898",
    }

    @pytest.mark.parametrize("case, fmt", list(DIGESTS))
    def test_text_matches_pinned_digest(self, golden_models, case, fmt):
        text = export_model(golden_models[case], fmt)
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGESTS[case, fmt]

    def test_hand_built_text(self):
        model = hand_built_model()
        lp, mps = write_lp(model), write_mps(model)
        assert " obj: - 2.0 Xb_0_0_0 + 1.0 O_0_0 + 0.25 O_0_1\n" in lp
        assert " a: - 1.5 Xb_0_0_0 + 0.1 Xi_0_0_0 + 0.0 Xi_0_0_1 >= -2.25\n" in lp
        assert " empty: 0 <= -0.0\n" in lp
        assert " b: 1e-08 Y_0_0_0 + 3.0 Xb_0_0_0 = 1.0\n" in lp
        assert " Xi_0_0_1 a -0.0\n" in mps
        assert " Y_0_0_1 obj 0.0\n" in mps
        assert " O_0_0 obj 1.0\n" in mps
        assert " FX BND O_0_0 -0.0\n" in mps
        assert " RHS empty" not in mps


def read_back(model, fmt, tmp_path):
    """HiGHS's status and model, by name, for ``model`` exported as ``fmt``."""
    path = tmp_path / f"model.{fmt}"
    path.write_text(export_model(model, fmt))
    return read_model(path)


class TestHighsReadBack:
    """HiGHS, an independent reader, reads every golden model in both formats
    to exactly the model: names, matrix without explicit zeros, costs,
    bounds, row sides and all-integer columns."""

    @pytest.mark.parametrize("case, fmt", list(TestGoldenText.DIGESTS))
    def test_reads_back_the_model(self, golden_models, case, fmt, tmp_path):
        model = golden_models[case]
        assert read_back(model, fmt, tmp_path) == ("kOk", model_by_name(model))

    @pytest.mark.parametrize("fmt, old, new", [("lp", " <= ", " >= "), ("mps", " 1.0\n", " 3.0\n")])
    def test_corrupted_text_reads_back_otherwise(self, small_model, fmt, old, new, tmp_path):
        path = tmp_path / f"model.{fmt}"
        path.write_text(export_model(small_model, fmt).replace(old, new, 1))
        status, got = read_model(path)
        assert status == "kOk" and got != model_by_name(small_model)


class TestLpRoundTrip:
    """``parse_lp`` reads ``write_lp``'s text back to the model."""

    def test_constraint_count_and_coefficients(self, small_model):
        parsed = parse_lp(write_lp(small_model))
        assert len(parsed.rows) == small_model.n_rows
        assert parsed.coefficient_multiset() == [
            (sense, rhs, tuple((v, c) for v, c in terms))
            for (sense, rhs, terms) in model_multiset(small_model)
        ]

    def test_variable_catalog_preserved(self, small_model):
        assert parse_lp(write_lp(small_model)).var_names == list(small_model.var_names)

    def test_objective_preserved(self, small_model):
        parsed = parse_lp(write_lp(small_model))
        expected = {small_model.var_names[j]: 1.0
                    for j in np.nonzero(small_model.objective)[0]}
        assert parsed.objective == expected

    @pytest.mark.parametrize("text", [
        "\\ x\nMinimize\n obj: 0\nSubject To\n r: x + 1.0 y <= 1.0\nEnd\n",
        "\\ x\nMinimize\n obj: 0\nSubject To\n r: 1.0 x <> 1.0\nEnd\n",
        "\\ x\nMaximize\n obj: 0\nEnd\n",
        "\\ x\nMinimize\n obj: 0\nEnd\n y\n",
    ], ids=["bare-name", "bad-sense", "foreign-section", "after-end"])
    def test_foreign_text_rejected(self, text):
        with pytest.raises(ValueError):
            parse_lp(text)


class TestMpsRoundTrip:
    """HiGHS reads ``write_mps``'s text back to the model's rows and terms."""

    def test_constraint_count_and_coefficients(self, small_model, tmp_path):
        status, got = read_back(small_model, "mps", tmp_path)
        assert status == "kOk"
        assert len(got["rows"]) == small_model.n_rows
        assert got["rows"] == model_by_name(small_model)["rows"]

    def test_full_precision_coefficients(self, small_model, tmp_path):
        _, got = read_back(small_model, "mps", tmp_path)
        for k in range(small_model.n_rows):
            terms = got["rows"][small_model.row_names[k]][2]
            for j, c in zip(small_model.row_cols[k], small_model.row_coefs[k]):
                if c != 0.0:
                    assert terms[small_model.var_names[j]] == float(c)  # bit-exact


class TestExperimentScaleRoundTrip:
    def test_lp_and_mps_parse_back_alike(self, golden_models, tmp_path):
        model = golden_models["experiment"]
        assert read_back(model, "lp", tmp_path) == read_back(model, "mps", tmp_path)
        assert parse_lp(write_lp(model)).coefficient_multiset() == [
            (sense, rhs, tuple(terms)) for (sense, rhs, terms) in model_multiset(model)]


class TestEmptyModel:
    def test_empty_scenario_exports(self, golden_models):
        lp = export_model(golden_models["empty"], "lp")
        assert "Minimize" in lp and "End" in lp
        assert parse_lp(lp).rows == []

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
    def test_cross_solver_objective_matches(self):
        s = generate(tiny_config(n_slots=3), 2)
        t = precompute(s)
        model = build_model(t, s)
        highs = solvers.solve(model, "highs")
        external = solvers.solve(model, solvers.ExternalBackend(FAKE_SOLVER))
        assert external.status == highs.status == "optimal"
        assert round(external.objective) == round(highs.objective)
        bf_obj, _ = brute_force_optimum(t, s)
        assert round(external.objective) == bf_obj
        assert external.nodes is external.dual_bound is external.gap is external.solved_size is None

    def test_trimmed_model_round_trip_matches_highs(self):
        # seed 9 leaves 44 of 63 bits, fixes a dark cell's outage bit at 1 and
        # writes one single-link serve row O + X >= 1
        s = generate(tiny_config(n_slots=3), 9)
        t = precompute(s)
        model = build_model(t, s)
        assert model.n_vars < model.n_robots * model.n_slots * (model.n_bs + 2 * model.n_ris + 1)
        assert (model.lb == 1).any() and (model.row_sense == ">").any()
        highs = solvers.solve(model, "highs")
        external = solvers.solve(model, solvers.ExternalBackend(FAKE_SOLVER))
        assert external.status == highs.status == "optimal"
        assert external.objective == highs.objective == brute_force_optimum(t, s)[0] == 1
        assert (external.values[model.lb == 1] == 1).all()

    def test_unknown_variable_refused(self):
        # the bit of a link that is not live is no column of the model
        s = generate(tiny_config(n_slots=3), 9)
        model = build_model(precompute(s), s)
        b, r, n = np.argwhere(model.columns["X"][:model.n_bs] < 0)[0]
        absent = f"Xb_{b}_{r}_{n}"
        assert absent not in model.var_names
        writer = [sys.executable, "-c", "import sys; open(sys.argv[2], 'w').write(sys.argv[3])",
                  "{model}", "{solution}", f"optimal\n{absent} 1.0\n"]
        with pytest.raises(solvers.BackendError, match=f"unknown variable '{absent}'"):
            solvers.solve(model, solvers.ExternalBackend(writer))

    def test_empty_command_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            solvers.ExternalBackend([])

    def test_missing_binary_reported(self, small_model):
        backend = solvers.ExternalBackend(["/nonexistent/solver", "{model}", "{solution}"])
        with pytest.raises(solvers.BackendError, match="not found"):
            backend.solve(small_model)
