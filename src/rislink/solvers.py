"""The HiGHS solve of a model.

``solve`` hands the undecided part of the matrix to the HiGHS MILP engine
shipped with scipy; it is tested against the brute-force oracle in
``tests/oracle.py``.  ``lpio.export_model`` writes the whole model as LP or
MPS text for any other solver.

Before HiGHS runs, ``milp.dominated_bounds`` fixes at 0 every link that
another open link of its robot-slot dominates, settling each robot-slot
with a link that no row but its serve row holds, and ``milp.fold_usage``
fixes at 0 each usage bit whose ``used_*`` rows hold no allocation bit that
can be 1 and replaces one whose rows hold exactly one by that bit, dropping
those rows.  The two alternate until neither changes a bound.  The columns
then fixed, and those the model fixes itself, leave the program with their
value folded into the row sides, and so does every row that holds
everywhere in the remaining 0/1 box (``milp.restrict``).  HiGHS gets the
rest through scipy's bundled binding (``scipy.optimize._highspy._core``,
whose parts used here ``tests/test_highs_read.py`` pins); a program with
no column left is decided without it.  Every optimum, HiGHS's or one the
reductions decide alone, is checked against the bounds and every row of
the whole model before ``solve`` returns it.  The binding is imported on the first HiGHS solve,
so a path that never solves does not pay for it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .milp import MilpModel, dominated_bounds, fold_usage, restrict

INT_TOL = 1e-6
ROW_TOL = 1e-6

__all__ = ["SolveResult", "BackendError", "solve"]


class BackendError(RuntimeError):
    """HiGHS failed, or returned a point that is not a 0/1 solution of the model."""


@dataclass
class SolveResult:
    status: str                     # "optimal" | "infeasible" | "timeout"
    objective: float | None
    values: np.ndarray | None       # rounded 0/1 vector, present iff optimal
    runtime: float
    incumbent_objective: float | None = None
    # HiGHS branch-and-bound statistics; None where HiGHS did not run or reports none
    nodes: int | None = None
    dual_bound: float | None = None
    gap: float | None = None
    lp_iterations: int | None = None
    # (columns, rows, nonzeros) left for HiGHS once reduced and folded
    # ((0, 0, 0) where no column is left)
    solved_size: tuple | None = None


def _round_binary(x: np.ndarray) -> np.ndarray:
    """``x`` rounded to 0/1; a value farther than 1e-6 from 0 and 1, NaN and
    infinities included, raises ``BackendError``."""
    bad = ~(np.minimum(np.abs(x), np.abs(x - 1.0)) <= INT_TOL)
    if bad.any():
        raise BackendError(f"solver returned {float(x[bad][0])!r}, which is not within 1e-6 of 0 or 1")
    return (x > 0.5).astype(float)


def _check_point(model: MilpModel, values: np.ndarray) -> None:
    """Raise ``BackendError`` unless the 0/1 point ``values`` lies within
    every column's bounds and breaks no row by more than ``ROW_TOL``."""
    outside = np.flatnonzero((values < model.lb) | (values > model.ub))
    if len(outside):
        j = outside[0]
        raise BackendError(f"solver set {model.var_names[j]} to {values[j]:g}, "
                           f"outside its bounds [{model.lb[j]:g}, {model.ub[j]:g}]")
    gap = model.matrix @ values - model.row_rhs
    excess = np.select([model.row_sense == "<", model.row_sense == ">"], [gap, -gap], np.abs(gap))
    broken = np.flatnonzero(excess > ROW_TOL)
    if len(broken):
        k = broken[0]
        raise BackendError(f"solver's solution breaks row {model.row_names[k]} by {excess[k]:g}")


def solve(model: MilpModel, time_budget: float | None = None) -> SolveResult:
    """Solve a model with HiGHS.

    ``time_budget`` is None (no limit) or a positive, finite number of seconds.
    """
    if time_budget is not None and not (math.isfinite(time_budget) and time_budget > 0):
        raise ValueError(f"time budget must be positive and finite, got {time_budget!r}")
    start = time.perf_counter()
    if model.n_vars == 0:
        return SolveResult("optimal", 0.0, np.zeros(0), time.perf_counter() - start, solved_size=(0, 0, 0))
    return _solve_highs(model, time_budget)


def _solve_highs(model: MilpModel, time_budget) -> SolveResult:
    from scipy.optimize._highspy import _core

    start = time.perf_counter()
    # fix dominated links and fold usage bits until neither changes a bound
    lb, ub = model.lb, model.ub
    twin, dropped = np.arange(model.n_vars), np.zeros(model.n_rows, dtype=bool)
    while True:
        new_lb, new_ub = dominated_bounds(model, lb, ub, twin, dropped)
        new_ub, twin, dropped = fold_usage(model, new_lb, new_ub)
        if np.array_equal(new_lb, lb) and np.array_equal(new_ub, ub):
            break
        lb, ub = new_lb, new_ub
    values, free, lower, upper, kept = restrict(model, lb, ub, twin, dropped)
    folded = twin != np.arange(model.n_vars)
    offset = float(model.objective @ values)
    # the kept rows over the free columns, built once and column-major, as
    # HiGHS takes them; a folded bit's entries go to its twin's column
    entry_row = np.repeat(np.arange(model.n_rows), np.diff(model.matrix.indptr))
    col = twin[model.matrix.indices]
    entry = kept[entry_row] & free[col]
    n_free, n_kept = int(free.sum()), int(kept.sum())
    reduced = sp.csc_matrix((model.matrix.data[entry], ((np.cumsum(kept) - 1)[entry_row[entry]],
                                                        (np.cumsum(free) - 1)[col[entry]])),
                            shape=(n_kept, n_free))
    size = (n_free, n_kept, reduced.nnz)
    if not free.any():
        # every kept row is violated at the fixed point, and nothing can move
        runtime = time.perf_counter() - start
        if kept.any():
            return SolveResult("infeasible", None, None, runtime, solved_size=size)
        _check_point(model, values)
        return SolveResult("optimal", offset, values, runtime, solved_size=size)
    lp = _core.HighsLp()
    lp.num_col_, lp.num_row_ = n_free, n_kept
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = model.objective[free], lb[free], ub[free]
    lp.row_lower_, lp.row_upper_ = lower[kept], upper[kept]
    a = lp.a_matrix_
    a.format_, a.num_col_, a.num_row_ = _core.MatrixFormat.kColwise, n_free, n_kept
    a.start_, a.index_, a.value_ = reduced.indptr, reduced.indices, reduced.data
    lp.integrality_ = [_core.HighsVarType.kInteger] * n_free
    h = _core._Highs()
    h.setOptionValue("log_to_console", False)
    h.setOptionValue("mip_rel_gap", 0.0)
    if time_budget is not None:
        h.setOptionValue("time_limit", float(time_budget))
    if h.passModel(lp) == _core.HighsStatus.kError or h.run() == _core.HighsStatus.kError:
        raise BackendError(f"HiGHS failed: {h.modelStatusToString(h.getModelStatus())}")
    runtime = time.perf_counter() - start
    status, info = h.getModelStatus(), h.getInfo()
    bound = info.mip_dual_bound + offset
    stats = {"nodes": info.mip_node_count, "dual_bound": bound if math.isfinite(bound) else None,
             "gap": info.mip_gap if math.isfinite(info.mip_gap) else None,
             "lp_iterations": info.simplex_iteration_count, "solved_size": size}
    incumbent = None
    if info.primal_solution_status == _core.SolutionStatus.kSolutionStatusFeasible:
        values[free] = _round_binary(np.asarray(h.getSolution().col_value))
        values[folded] = values[twin[folded]]
        incumbent = float(model.objective @ values)
        if stats["dual_bound"] is not None and incumbent:
            # HiGHS's relative gap, taken on the full objective
            stats["gap"] = abs(incumbent - stats["dual_bound"]) / abs(incumbent)
    if status == _core.HighsModelStatus.kOptimal:
        _check_point(model, values)
        return SolveResult("optimal", incumbent, values, runtime, **stats)
    if status == _core.HighsModelStatus.kTimeLimit:
        return SolveResult("timeout", None, None, runtime, incumbent, **stats)
    if status == _core.HighsModelStatus.kInfeasible:
        return SolveResult("infeasible", None, None, runtime, **stats)
    raise BackendError(f"HiGHS failed: {h.modelStatusToString(status)}")
