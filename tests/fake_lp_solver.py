"""Stand-in external solver: reads an LP file with HiGHS, solves it, writes a solution.

Invoked as: python fake_lp_solver.py MODEL_PATH SOLUTION_PATH [VALUE]
Exercises the whole file-based adapter path end to end.  With VALUE it
solves nothing and reports every variable at VALUE, as a broken solver might.
"""

import os
import sys

from highs_read import highs, solve

# a process of its own: find the package the way pytest's pythonpath does
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))
from rislink.lpio import write_solution  # noqa: E402


def main():
    model_path, solution_path = sys.argv[1], sys.argv[2]
    if len(sys.argv) > 3:
        names = highs(model_path)[0].getLp().col_names_
        out = write_solution("optimal", {v: float(sys.argv[3]) for v in names})
    else:
        status, values = solve(model_path)
        if status == "kOptimal":
            out = write_solution("optimal", {v: float(round(x)) for v, x in values.items()})
        elif status == "kInfeasible":
            out = write_solution("infeasible")
        else:
            out = write_solution("timeout")
    with open(solution_path, "w") as fh:
        fh.write(out)


if __name__ == "__main__":
    main()
