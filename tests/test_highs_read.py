"""Pins the parts of scipy's private HiGHS binding that ``highs_read`` uses.

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
    return f"scipy {scipy.__version__}'s private HiGHS binding moved ({what}); update tests/highs_read.py"


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
