"""Pins the parts of scipy's private HiGHS binding that ``highs_read`` and
``rislink.solvers`` use.

``scipy.optimize._highspy._core`` is no public API and may move in a scipy
upgrade.  These tests then fail first and name what moved.
"""

import importlib
import math

import pytest
import scipy

PIN_LP = """\\ pin
Minimize
 obj: 1.0 x + 2.0 y
Subject To
 r: 1.0 x + 1.0 y >= 1.0
Bounds
 y = 0
Binaries
 x
 y
End
"""

PIN_MPS = """NAME pin
ROWS
 N obj
 G r
COLUMNS
 M1 'MARKER' 'INTORG'
 x obj 1.0
 x r 1.0
 y obj 2.0
 y r 1.0
 M2 'MARKER' 'INTEND'
RHS
 RHS r 1.0
BOUNDS
 BV BND x
 FX BND y 0.0
ENDATA
"""

PIN_MODEL = {"columns": {"x": (1.0, 0.0, 1.0, True), "y": (2.0, 0.0, 0.0, True)},
             "rows": {"r": (1.0, math.inf, {"x": 1.0, "y": 1.0})}}


def _moved(what):
    return (f"scipy {scipy.__version__}'s private HiGHS binding moved ({what}); "
            "update tests/highs_read.py and src/rislink/solvers.py")


def test_binding_has_what_highs_read_uses():
    try:
        core = importlib.import_module("scipy.optimize._highspy._core")
    except ImportError as exc:
        pytest.fail(_moved(f"no scipy.optimize._highspy._core: {exc}"))
    missing = [f"_core.{name}" for name in ("_Highs", "MatrixFormat", "HighsVarType") if not hasattr(core, name)]
    assert not missing, _moved(f"missing {missing}")
    h = core._Highs()
    lp = h.getLp()
    missing = [f"_Highs.{name}" for name in ("setOptionValue", "readModel", "getLp", "run", "getModelStatus",
                                              "getSolution") if not hasattr(h, name)]
    missing += [f"HighsLp.{name}" for name in ("num_col_", "num_row_", "col_names_", "row_names_", "a_matrix_",
                                               "col_cost_", "col_lower_", "col_upper_", "row_lower_",
                                               "row_upper_", "integrality_") if not hasattr(lp, name)]
    missing += [f"HighsSparseMatrix.{name}" for name in ("format_", "start_", "index_", "value_")
                if not hasattr(lp.a_matrix_, name)]
    missing += [f"HighsSolution.{name}" for name in ("col_value",) if not hasattr(h.getSolution(), name)]
    missing += [f"MatrixFormat.{name}" for name in ("kColwise",) if not hasattr(core.MatrixFormat, name)]
    missing += [f"HighsVarType.{name}" for name in ("kInteger",) if not hasattr(core.HighsVarType, name)]
    assert not missing, _moved(f"missing {missing}")


@pytest.mark.parametrize("suffix, text", [("lp", PIN_LP), ("mps", PIN_MPS)])
def test_reads_and_solves_a_pinned_model(tmp_path, suffix, text):
    import highs_read

    path = tmp_path / f"pin.{suffix}"
    path.write_text(text)
    assert highs_read.read_model(path) == ("kOk", PIN_MODEL), _moved("the pinned model reads back otherwise")
    assert highs_read.solve(path) == ("kOptimal", {"x": 1.0, "y": 0.0}), _moved("the pinned model solves otherwise")


def test_binding_has_what_solvers_uses():
    from scipy.optimize._highspy import _core

    missing = [f"_core.{name}" for name in ("HighsLp", "HighsStatus", "HighsModelStatus", "SolutionStatus")
               if not hasattr(_core, name)]
    assert not missing, _moved(f"missing {missing}")
    h = _core._Highs()
    missing = [f"_Highs.{name}" for name in ("passModel", "getInfo", "modelStatusToString")
               if not hasattr(h, name)]
    missing += [f"HighsInfo.{name}" for name in ("mip_node_count", "mip_dual_bound", "mip_gap",
                                                 "simplex_iteration_count", "primal_solution_status")
                if not hasattr(h.getInfo(), name)]
    missing += [f"HighsModelStatus.{name}" for name in ("kOptimal", "kTimeLimit", "kInfeasible")
                if not hasattr(_core.HighsModelStatus, name)]
    missing += [f"HighsStatus.{name}" for name in ("kOk", "kError") if not hasattr(_core.HighsStatus, name)]
    missing += [f"SolutionStatus.{name}" for name in ("kSolutionStatusFeasible",)
                if not hasattr(_core.SolutionStatus, name)]
    missing += [f"HighsSparseMatrix.{name}" for name in ("num_col_", "num_row_")
                if not hasattr(_core.HighsLp().a_matrix_, name)]
    assert not missing, _moved(f"missing {missing}")
    for option, value in (("log_to_console", False), ("mip_rel_gap", 0.0), ("time_limit", 5.0)):
        assert h.setOptionValue(option, value) == _core.HighsStatus.kOk, _moved(f"no option {option}")


def test_passes_and_solves_a_pinned_model():
    # the pinned model, as solvers hands a program to HiGHS
    from scipy.optimize._highspy import _core

    lp = _core.HighsLp()
    lp.num_col_, lp.num_row_ = 2, 1
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = [1.0, 2.0], [0.0, 0.0], [1.0, 1.0]
    lp.row_lower_, lp.row_upper_ = [1.0], [math.inf]
    a = lp.a_matrix_
    a.format_, a.num_col_, a.num_row_ = _core.MatrixFormat.kColwise, 2, 1
    a.start_, a.index_, a.value_ = [0, 1, 2], [0, 0], [1.0, 1.0]
    lp.integrality_ = [_core.HighsVarType.kInteger] * 2
    h = _core._Highs()
    h.setOptionValue("log_to_console", False)
    assert h.passModel(lp) == _core.HighsStatus.kOk, _moved("passModel refuses the pinned model")
    assert h.run() == _core.HighsStatus.kOk, _moved("the pinned model does not run")
    info = h.getInfo()
    assert h.getModelStatus() == _core.HighsModelStatus.kOptimal, _moved("the pinned model solves otherwise")
    assert info.primal_solution_status == _core.SolutionStatus.kSolutionStatusFeasible, _moved("no solution")
    assert list(h.getSolution().col_value) == [1.0, 0.0], _moved("the pinned model solves otherwise")
    assert (info.mip_dual_bound, info.mip_gap) == (1.0, 0.0), _moved("the pinned model's bound reads otherwise")
    assert isinstance(info.mip_node_count, int) and isinstance(info.simplex_iteration_count, int), \
        _moved("the node and iteration counts are no integers")
