"""Solver backends behind a common contract.

Two ways to solve a model: "highs" hands the matrix to the HiGHS MILP engine
shipped with scipy; an ``ExternalBackend`` writes an LP file and shells
out to any solver command.  Both are tested against the brute-force
oracle in ``tests/oracle.py``.
"""

from __future__ import annotations

import math
import os
import subprocess
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
    # HiGHS branch-and-bound statistics; None where the solver reports none
    nodes: int | None = None
    dual_bound: float | None = None
    gap: float | None = None


def _round_binary(x: np.ndarray) -> np.ndarray:
    rounded = np.round(x)
    if np.abs(x - rounded).max(initial=0.0) > INT_TOL:
        raise BackendError("solver returned a value farther than 1e-6 from an integer")
    return rounded


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


def _stat(res, name, kind):
    value = res.get(name)
    return None if value is None else kind(value)


def _solve_highs(model: MilpModel, time_budget) -> SolveResult:
    start = time.perf_counter()
    sense, rhs = model.row_sense, model.row_rhs
    lower, upper = np.where(sense == "<", -np.inf, rhs), np.where(sense == ">", np.inf, rhs)
    options = {"mip_rel_gap": 0.0}
    if time_budget is not None:
        options["time_limit"] = float(time_budget)
    res = scipy_milp(
        c=model.objective,
        constraints=LinearConstraint(model.matrix, lower, upper) if model.n_rows else None,
        integrality=np.ones(model.n_vars),
        bounds=Bounds(model.lb, model.ub),
        options=options,
    )
    runtime = time.perf_counter() - start
    stats = {"nodes": _stat(res, "mip_node_count", int), "dual_bound": _stat(res, "mip_dual_bound", float),
             "gap": _stat(res, "mip_gap", float)}
    if res.status == 0:
        values = _round_binary(res.x)
        return SolveResult("optimal", float(model.objective @ values), values, runtime, **stats)
    if res.status == 1:
        inc_obj = None if res.x is None else float(model.objective @ _round_binary(res.x))
        return SolveResult("timeout", None, None, runtime, inc_obj, **stats)
    if res.status == 2:
        return SolveResult("infeasible", None, None, runtime, **stats)
    raise BackendError(f"HiGHS failed: status {res.status} ({res.message})")


# ----------------------------------------------------------------------------
# external solver adapter
# ----------------------------------------------------------------------------


class ExternalBackend:
    """Shells a model out to a solver command through an LP file.

    ``command`` is a list of argv strings where "{model}" and "{solution}"
    are replaced by file paths.  The solver must write a solution file whose
    first line is the status (optimal/infeasible/timeout) followed by one
    "name value" line per nonzero or listed variable.
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
        return SolveResult("optimal", float(model.objective @ values), values, runtime)
