"""Read LP and MPS files with HiGHS, the solver bundled with scipy.

HiGHS's own reader is the independent check of what ``rislink.lpio``
writes: a file is right when HiGHS reads it with ``kOk`` to exactly the
model.  The reader lives in scipy's private ``_highspy`` binding, so every
use of it goes through this module, and ``test_highs_read.py`` pins the
parts of that binding used here.
"""

import numpy as np
import scipy.sparse as sp
from scipy.optimize._highspy import _core


def highs(path):
    """A silent HiGHS instance holding the model read from ``path``, and the read's status name."""
    h = _core._Highs()
    h.setOptionValue("output_flag", False)
    status = h.readModel(str(path))
    return h, status.name


def read_model(path):
    """HiGHS's status name for reading ``path``, and the model it read, by
    name (see ``by_name``); the model is None unless the status is ``kOk``."""
    h, status = highs(path)
    if status != "kOk":
        return status, None
    lp = h.getLp()
    a = lp.a_matrix_
    compressed = sp.csc_matrix if a.format_ == _core.MatrixFormat.kColwise else sp.csr_matrix
    matrix = compressed((a.value_, a.index_, a.start_), shape=(lp.num_row_, lp.num_col_))
    integer = [kind == _core.HighsVarType.kInteger for kind in lp.integrality_] or [False] * lp.num_col_
    return status, by_name(lp.col_names_, lp.row_names_, matrix, lp.col_cost_, lp.col_lower_, lp.col_upper_,
                           integer, lp.row_lower_, lp.row_upper_)


def model_by_name(model):
    """A ``rislink.milp.MilpModel`` by name, in the form ``read_model`` returns."""
    lower = np.where(model.row_sense == "<", -np.inf, model.row_rhs)
    upper = np.where(model.row_sense == ">", np.inf, model.row_rhs)
    return by_name(model.var_names, model.row_names, model.matrix, model.objective, model.lb, model.ub,
                   [True] * model.n_vars, lower, upper)


def by_name(col_names, row_names, matrix, cost, col_lower, col_upper, integer, row_lower, row_upper):
    """``{"columns": {name: (cost, lower, upper, integer)}, "rows": {name:
    (lower, upper, {column name: coefficient})}}``, explicit zeros dropped."""
    coo = sp.coo_matrix(matrix)
    columns = {name: (float(cost[j]), float(col_lower[j]), float(col_upper[j]), bool(integer[j]))
               for j, name in enumerate(col_names)}
    rows = {name: (float(row_lower[k]), float(row_upper[k]), {}) for k, name in enumerate(row_names)}
    for k, j, v in zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()):
        if v != 0.0:
            rows[row_names[k]][2][col_names[j]] = v
    return {"columns": columns, "rows": rows}


def solve(path):
    """Solve the model in ``path`` with HiGHS: its model status name and ``{column name: value}``."""
    h, status = highs(path)
    if status != "kOk":
        raise ValueError(f"HiGHS read {path} with {status}")
    h.run()
    names = h.getLp().col_names_
    return h.getModelStatus().name, dict(zip(names, h.getSolution().col_value))
