"""Stand-in external solver: parses an LP file, solves it, writes a solution.

Invoked as: python fake_lp_solver.py MODEL_PATH SOLUTION_PATH [VALUE]
Exercises the whole file-based adapter path end to end.  With VALUE it
solves nothing and reports every variable at VALUE, as a broken solver might.
"""

import os
import sys

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

# a process of its own: find the package the way pytest's pythonpath does
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))
from rislink.lpio import parse_lp, write_solution  # noqa: E402


def main():
    model_path, solution_path = sys.argv[1], sys.argv[2]
    with open(model_path) as fh:
        parsed = parse_lp(fh.read())

    names = parsed.var_names
    if len(sys.argv) > 3:
        with open(solution_path, "w") as fh:
            fh.write(write_solution("optimal", {v: float(sys.argv[3]) for v in names}))
        return
    index = {v: j for j, v in enumerate(names)}
    c = np.zeros(len(names))
    for v, coef in parsed.objective.items():
        c[index[v]] = coef
    lb = np.zeros(len(names))
    ub = np.ones(len(names))
    for v, val in parsed.fixed.items():
        lb[index[v]] = ub[index[v]] = val

    rows = []
    lo = []
    hi = []
    for (_, terms, sense, rhs) in parsed.rows:
        row = np.zeros(len(names))
        for v, coef in terms.items():
            row[index[v]] = coef
        rows.append(row)
        lo.append(-np.inf if sense == "<" else rhs)
        hi.append(np.inf if sense == ">" else rhs)

    kwargs = {}
    if rows:
        kwargs["constraints"] = LinearConstraint(np.array(rows), np.array(lo), np.array(hi))
    res = milp(c=c, integrality=np.ones(len(names)), bounds=Bounds(lb, ub), **kwargs)

    if res.status == 0:
        assignment = {v: float(round(res.x[index[v]])) for v in names}
        out = write_solution("optimal", assignment)
    elif res.status == 2:
        out = write_solution("infeasible")
    else:
        out = write_solution("timeout")
    with open(solution_path, "w") as fh:
        fh.write(out)


if __name__ == "__main__":
    main()
