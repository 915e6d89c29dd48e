"""Solver backends behind a common contract.

Three ways to solve a model: "bnb" is a self-contained depth-first branch
and bound with bound propagation but no LP relaxation, exact but meant for
desk-scale models only; "highs" hands the matrix to the HiGHS MILP engine
shipped with scipy; an ``ExternalBackend`` writes an interchange file and
shells out to any solver command.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np
from scipy.optimize import Bounds, LinearConstraint
from scipy.optimize import milp as scipy_milp

from . import lpio
from .milp import MilpModel

INT_TOL = 1e-6

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
    incumbent_values: np.ndarray | None = None


def _round_binary(x: np.ndarray) -> np.ndarray:
    rounded = np.round(x)
    if np.abs(x - rounded).max(initial=0.0) > INT_TOL:
        raise BackendError("solver returned a value farther than 1e-6 from an integer")
    return rounded


def solve(model: MilpModel, backend="highs", time_budget: float | None = None) -> SolveResult:
    """Solve a model with the named backend ("highs", "bnb", or an ExternalBackend).

    ``time_budget`` is None (no limit) or a positive, finite number of seconds.
    """
    if time_budget is not None and not (math.isfinite(time_budget) and time_budget > 0):
        raise ValueError(f"time budget must be positive and finite, got {time_budget!r}")
    start = time.perf_counter()
    if model.n_vars == 0:
        return SolveResult("optimal", 0.0, np.zeros(0), time.perf_counter() - start)
    if isinstance(backend, ExternalBackend):
        return backend.solve(model, time_budget)
    if backend == "highs":
        return _solve_highs(model, time_budget)
    if backend == "bnb":
        return _solve_bnb(model, time_budget)
    raise BackendError(f"unknown backend {backend!r}")


def _constraint_matrix(model: MilpModel):
    sense, rhs = model.row_sense, model.row_rhs
    return model.matrix, np.where(sense == "<", -np.inf, rhs), np.where(sense == ">", np.inf, rhs)


def _solve_highs(model: MilpModel, time_budget) -> SolveResult:
    start = time.perf_counter()
    a, lower, upper = _constraint_matrix(model)
    options = {"mip_rel_gap": 0.0}
    if time_budget is not None:
        options["time_limit"] = float(time_budget)
    res = scipy_milp(
        c=model.objective,
        constraints=LinearConstraint(a, lower, upper) if model.n_rows else None,
        integrality=np.ones(model.n_vars),
        bounds=Bounds(model.lb, model.ub),
        options=options,
    )
    runtime = time.perf_counter() - start
    if res.status == 0:
        values = _round_binary(res.x)
        return SolveResult("optimal", float(model.objective @ values), values, runtime)
    if res.status == 1:
        incumbent = None
        inc_obj = None
        if res.x is not None:
            incumbent = _round_binary(res.x)
            inc_obj = float(model.objective @ incumbent)
        return SolveResult("timeout", None, None, runtime, inc_obj, incumbent)
    if res.status == 2:
        return SolveResult("infeasible", None, None, runtime)
    raise BackendError(f"HiGHS failed: status {res.status} ({res.message})")


# ----------------------------------------------------------------------------
# bundled branch and bound
# ----------------------------------------------------------------------------

_UNFIXED = -1


def _slices(indptr, index, data) -> list:
    """[(index, value) pairs of each compressed line] of a CSR or CSC matrix."""
    pairs = list(zip(index.tolist(), data.tolist()))
    bounds = indptr.tolist()
    return [pairs[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def _solve_bnb(model: MilpModel, time_budget) -> SolveResult:
    start = time.perf_counter()
    deadline = None if time_budget is None else start + float(time_budget)
    n = model.n_vars
    obj = model.objective

    # rows as parallel lists; activity bounds maintained incrementally
    a = model.matrix
    n_rows = model.n_rows
    row_sense = model.row_sense.tolist()
    row_rhs = model.row_rhs.tolist()
    row_terms = _slices(a.indptr, a.indices, a.data)
    csc = a.tocsc()
    var_rows = _slices(csc.indptr, csc.indices, csc.data)  # (row, coef) incidence
    row_of = np.repeat(np.arange(n_rows), np.diff(a.indptr))
    lo_act = np.bincount(row_of, weights=np.minimum(a.data, 0.0), minlength=n_rows)
    hi_act = np.bincount(row_of, weights=np.maximum(a.data, 0.0), minlength=n_rows)

    value = np.full(n, _UNFIXED, dtype=np.int8)
    trail = []

    def apply_fix(j, v):
        value[j] = v
        trail.append(j)
        for (k, coef) in var_rows[j]:
            if v == 1:
                if coef > 0:
                    lo_act[k] += coef
                else:
                    hi_act[k] += coef
            else:
                if coef > 0:
                    hi_act[k] -= coef
                else:
                    lo_act[k] -= coef

    def undo(mark):
        while len(trail) > mark:
            j = trail.pop()
            v = value[j]
            value[j] = _UNFIXED
            for (k, coef) in var_rows[j]:
                if v == 1:
                    if coef > 0:
                        lo_act[k] -= coef
                    else:
                        hi_act[k] -= coef
                else:
                    if coef > 0:
                        hi_act[k] += coef
                    else:
                        lo_act[k] += coef

    def propagate(queue) -> bool:
        """Fix all implied variables; False on contradiction."""
        while queue:
            k = queue.pop()
            sense = row_sense[k]
            rhs = row_rhs[k]
            if sense in ("<", "=") and lo_act[k] > rhs + 1e-9:
                return False
            if sense in (">", "=") and hi_act[k] < rhs - 1e-9:
                return False
            for j, coef in row_terms[k]:
                if value[j] != _UNFIXED:
                    continue
                force = None
                if sense in ("<", "="):
                    if coef > 0 and lo_act[k] + coef > rhs + 1e-9:
                        force = 0
                    elif coef < 0 and lo_act[k] - coef > rhs + 1e-9:
                        force = 1
                if force is None and sense in (">", "="):
                    if coef > 0 and hi_act[k] - coef < rhs - 1e-9:
                        force = 1
                    elif coef < 0 and hi_act[k] + coef < rhs - 1e-9:
                        force = 0
                if force is not None:
                    apply_fix(j, force)
                    for (kk, _) in var_rows[j]:
                        queue.add(kk)
        return True

    # branch on allocation bits first, then outage bits, then the bookkeeping
    col = model.columns
    first = np.concatenate([col["Xb"], col["Xi"], col["O"][None]]).transpose(2, 1, 0).ravel()  # slot, robot
    rest = np.ones(n, dtype=bool)
    rest[first] = False
    order = np.concatenate([first, np.nonzero(rest)[0]]).tolist()
    # allocation bits try 1 first (serve if possible); everything else 0 first
    first_value = np.zeros(n, dtype=np.int8)
    first_value[col["Xb"]] = first_value[col["Xi"]] = 1

    best = {"obj": None, "values": None}
    timed_out = {"flag": False}

    for j in range(n):
        if model.lb[j] == model.ub[j]:
            apply_fix(j, int(model.lb[j]))
    if not propagate(set(range(n_rows))):
        return SolveResult("infeasible", None, None, time.perf_counter() - start)

    def lower_bound():
        fixed = obj[value == 1].sum() if n else 0.0
        return fixed

    nodes = {"count": 0}

    def dfs():
        nodes["count"] += 1
        if deadline is not None and time.perf_counter() > deadline:
            timed_out["flag"] = True
            return
        if best["obj"] is not None and lower_bound() >= best["obj"] - 1e-9:
            return
        j = next((v for v in order if value[v] == _UNFIXED), None)
        if j is None:
            cand = float(obj @ (value == 1))
            if best["obj"] is None or cand < best["obj"] - 1e-9:
                best["obj"] = cand
                best["values"] = value.astype(float).copy()
            return
        for v in (first_value[j], 1 - first_value[j]):
            if timed_out["flag"]:
                return
            mark = len(trail)
            apply_fix(j, int(v))
            if propagate({k for (k, _) in var_rows[j]}):
                dfs()
            undo(mark)

    sys.setrecursionlimit(max(sys.getrecursionlimit(), 2 * n + 1000))
    dfs()
    runtime = time.perf_counter() - start
    if timed_out["flag"]:
        inc = best["values"]
        inc_obj = best["obj"]
        return SolveResult("timeout", None, None, runtime, inc_obj, inc)
    if best["obj"] is None:
        return SolveResult("infeasible", None, None, runtime)
    return SolveResult("optimal", best["obj"], best["values"], runtime)


# ----------------------------------------------------------------------------
# external solver adapter
# ----------------------------------------------------------------------------


class ExternalBackend:
    """Shells a model out to a solver command through interchange files.

    ``command`` is a list of argv strings where "{model}" and "{solution}"
    are replaced by file paths.  The solver must write a solution file whose
    first line is the status (optimal/infeasible/timeout) followed by one
    "name value" line per nonzero or listed variable.
    """

    def __init__(self, command, file_format="lp"):
        if file_format not in ("lp", "mps"):
            raise ValueError("file_format must be 'lp' or 'mps'")
        self.command = list(command)
        self.file_format = file_format

    def solve(self, model: MilpModel, time_budget=None) -> SolveResult:
        start = time.perf_counter()
        text = lpio.write_lp(model) if self.file_format == "lp" else lpio.write_mps(model)
        with tempfile.TemporaryDirectory(prefix="rislink-") as tmp:
            model_path = os.path.join(tmp, "model." + self.file_format)
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
        return SolveResult("optimal", float(model.objective @ values), values, runtime)
