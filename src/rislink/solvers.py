"""Solver backends behind a common contract.

Two ways to solve a model: "highs" hands the undecided part of the matrix to
the HiGHS MILP engine shipped with scipy; an ``ExternalBackend`` writes the
whole model as an LP file and shells out to any solver command.  Both are
tested against the brute-force oracle in ``tests/oracle.py``; the external
path runs ``tests/fake_lp_solver.py``, which reads the LP file with HiGHS.

Before HiGHS runs, ``milp.settled_bounds`` settles every robot-slot with a
link that no row but its serve row holds, and ``milp.fold_usage`` then fixes
at 0 each usage bit whose ``used_*`` rows hold no free allocation bit and
replaces one whose rows hold exactly one by that bit, dropping those rows.
The columns then fixed, and those the model fixes itself, leave the program
with their value folded into the row sides, and so does every row that holds
everywhere in the remaining 0/1 box.  HiGHS gets the rest through scipy's
bundled binding (``scipy.optimize._highspy._core``, whose parts used here
``tests/test_highs_read.py`` pins); a program with no column left is decided
without it.  Every optimum HiGHS returns is checked against the bounds and
every row of the whole model before ``solve`` returns it.  The binding is
imported on the first HiGHS solve, so a path that never solves does not pay
for it.
"""

from __future__ import annotations

import math
import os
import subprocess
import tempfile
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import lpio
from .milp import MilpModel, fold_usage, settled_bounds

INT_TOL = 1e-6
ROW_TOL = 1e-6

__all__ = ["SolveResult", "BackendError", "ExternalBackend", "solve"]


class BackendError(RuntimeError):
    """The requested backend is unavailable or returned garbage."""


@dataclass
class SolveResult:
    status: str                     # "optimal" | "infeasible" | "timeout"
    objective: float | None
    values: np.ndarray | None       # rounded 0/1 vector, present iff optimal
    runtime: float
    incumbent_objective: float | None = None
    # HiGHS branch-and-bound statistics; None where the solver reports none
    nodes: int | None = None
    dual_bound: float | None = None
    gap: float | None = None
    lp_iterations: int | None = None
    # (columns, rows, nonzeros) left for HiGHS once settled and folded; None for an external backend
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


def solve(model: MilpModel, backend="highs", time_budget: float | None = None) -> SolveResult:
    """Solve a model with "highs" or an ExternalBackend.

    ``time_budget`` is None (no limit) or a positive, finite number of seconds.
    """
    if time_budget is not None and not (math.isfinite(time_budget) and time_budget > 0):
        raise ValueError(f"time budget must be positive and finite, got {time_budget!r}")
    if not (backend == "highs" or isinstance(backend, ExternalBackend)):
        raise BackendError(f"unknown backend {backend!r}")
    start = time.perf_counter()
    if model.n_vars == 0:
        return SolveResult("optimal", 0.0, np.zeros(0), time.perf_counter() - start)
    if isinstance(backend, ExternalBackend):
        return backend.solve(model, time_budget)
    return _solve_highs(model, time_budget)


def _solve_highs(model: MilpModel, time_budget) -> SolveResult:
    from scipy.optimize._highspy import _core

    start = time.perf_counter()
    lb, ub = settled_bounds(model)
    ub, twin, dropped = fold_usage(model, lb, ub)
    folded = twin != np.arange(model.n_vars)
    free = (lb < ub) & ~folded
    values = np.where(lb < ub, 0.0, lb)    # fixed columns at their value, the rest at 0
    offset = float(model.objective @ values)
    matrix, sense, rhs = model.matrix, model.row_sense, model.row_rhs
    activity = matrix @ values
    lower = np.where(sense == "<", -np.inf, rhs) - activity
    upper = np.where(sense == ">", np.inf, rhs) - activity
    # each entry's column in the program HiGHS gets: a folded bit's is its
    # twin's, a fixed column has none
    solved = np.where(free[twin], np.cumsum(free)[twin] - 1, -1)[matrix.indices]
    on_free = solved >= 0
    # a row whose least and greatest activity over the free columns' 0/1 box
    # lie within its sides holds everywhere in the box; exact comparisons,
    # since keeping a row that holds is harmless
    entry_row = np.repeat(np.arange(model.n_rows), np.diff(matrix.indptr))
    coefs = np.where(on_free, matrix.data, 0.0)
    least = np.bincount(entry_row, np.minimum(coefs, 0.0), model.n_rows)
    most = np.bincount(entry_row, np.maximum(coefs, 0.0), model.n_rows)
    kept = ((lower > least) | (upper < most)) & ~dropped
    # the kept rows over the free columns, built once and column-major, as HiGHS takes them
    entry = kept[entry_row] & on_free
    n_free, n_kept = int(free.sum()), int(kept.sum())
    reduced = sp.csc_matrix((matrix.data[entry], ((np.cumsum(kept) - 1)[entry_row[entry]], solved[entry])),
                            shape=(n_kept, n_free))
    size = (n_free, n_kept, reduced.nnz)
    if not free.any():
        # every kept row is violated at the fixed point, and nothing can move
        runtime = time.perf_counter() - start
        if kept.any():
            return SolveResult("infeasible", None, None, runtime, solved_size=size)
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


# ----------------------------------------------------------------------------
# external solver adapter
# ----------------------------------------------------------------------------


class ExternalBackend:
    """Shells a model out to a solver command through an LP file.

    ``command`` is a list of argv strings where "{model}" and "{solution}"
    are replaced by file paths.  The solver must write a solution file whose
    first line is the status (optimal/infeasible/timeout) followed by one
    "name value" line per nonzero or listed variable.  An optimal solution
    must set every variable to 0 or 1 within its bounds and keep every row;
    anything else raises ``BackendError``.
    """

    def __init__(self, command):
        self.command = list(command)
        if not self.command:
            raise ValueError("external solver command is empty")

    def solve(self, model: MilpModel, time_budget=None) -> SolveResult:
        start = time.perf_counter()
        text = lpio.write_lp(model)
        with tempfile.TemporaryDirectory(prefix="rislink-") as tmp:
            model_path = os.path.join(tmp, "model.lp")
            solution_path = os.path.join(tmp, "solution.txt")
            with open(model_path, "w") as fh:
                fh.write(text)
            argv = [arg.format(model=model_path, solution=solution_path) for arg in self.command]
            try:
                proc = subprocess.run(
                    argv, capture_output=True, text=True,
                    timeout=None if time_budget is None else float(time_budget) + 5.0,
                )
            except FileNotFoundError as exc:
                raise BackendError(f"external solver not found: {argv[0]}") from exc
            except subprocess.TimeoutExpired:
                return SolveResult("timeout", None, None, time.perf_counter() - start)
            if proc.returncode != 0:
                raise BackendError(
                    f"external solver exited with {proc.returncode}: {proc.stderr.strip()[:500]}")
            try:
                with open(solution_path) as fh:
                    status, assignment = lpio.parse_solution(fh.read())
            except OSError as exc:
                raise BackendError("external solver wrote no solution file") from exc
        runtime = time.perf_counter() - start
        if status == "infeasible":
            return SolveResult("infeasible", None, None, runtime)
        if status == "timeout":
            return SolveResult("timeout", None, None, runtime)
        values = np.zeros(model.n_vars)
        index = {name: j for j, name in enumerate(model.var_names)}
        for name, v in assignment.items():
            if name not in index:
                raise BackendError(f"solution references unknown variable {name!r}")
            values[index[name]] = v
        values = _round_binary(values)
        _check_point(model, values)
        return SolveResult("optimal", float(model.objective @ values), values, runtime)
