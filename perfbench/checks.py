"""Correctness checks the benchmark applies to the program's outputs.

Each check returns None when the output is right and a one-line reason when
it is not.  They run outside the timed region.
"""

from __future__ import annotations

import json
import os

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
DEFAULT_SEED_BASE = 1000


def outage_count(outage_pct, n_robots: int, n_slots: int) -> int | None:
    """Outage cells behind an `outage_percentage`, or None when there is none."""
    if outage_pct is None:
        return None
    return round(outage_pct * n_robots * n_slots / 100.0)


def check_trial(trial, n_robots: int, n_slots: int) -> str | None:
    """Independent checks on one `harness.TrialResult`.

    The ILP objective must be the extracted schedule's outage count, must not
    exceed the heuristic's, and a feasible heuristic implies a feasible ILP.
    Removing the surfaces (no-ris) can only make the optimum worse.
    """
    methods = trial.methods
    ilp = methods.get("ilp")
    for name, result in methods.items():
        if result.timed_out:
            return f"seed {trial.seed}: {name} timed out"
    if ilp is None:
        return None
    if ilp.feasible:
        count = outage_count(ilp.outage_pct, n_robots, n_slots)
        if ilp.objective is None or abs(ilp.objective - count) > 1e-6:
            return f"seed {trial.seed}: ILP objective {ilp.objective} != schedule outage count {count}"
    heur = methods.get("heuristic")
    if heur is not None and heur.feasible:
        h_count = outage_count(heur.outage_pct, n_robots, n_slots)
        if not ilp.feasible:
            return f"seed {trial.seed}: heuristic feasible but ILP infeasible"
        if ilp.objective > h_count + 1e-6:
            return f"seed {trial.seed}: ILP objective {ilp.objective} > heuristic outage {h_count}"
    bare = methods.get("no-ris")
    if bare is not None and bare.feasible:
        if not ilp.feasible:
            return f"seed {trial.seed}: no-RIS feasible but ILP infeasible"
        bare_count = outage_count(bare.outage_pct, n_robots, n_slots)
        if ilp.objective > bare_count + 1e-6:
            return f"seed {trial.seed}: ILP objective {ilp.objective} > no-RIS outage {bare_count}"
    return None


def trial_summary(trial, n_robots: int, n_slots: int) -> dict:
    """Pinned form of a trial: ILP objective and heuristic outage count (None if infeasible)."""
    out = {}
    for name, result in trial.methods.items():
        if name == "ilp":
            out[name] = None if not result.feasible else round(result.objective)
        else:
            out[name] = outage_count(result.outage_pct, n_robots, n_slots) if result.feasible else None
    return out


# -- pinned references -------------------------------------------------------

def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def compare_reference(reference: dict, workload: str, key, got) -> str | None:
    """Compare an output with its pinned value; keys with no pin pass."""
    pins = reference.get(workload, {})
    key = str(key)
    if key not in pins:
        return None
    want = pins[key]
    if want != got:
        return f"{workload} {key}: got {got!r}, pinned {want!r}"
    return None


# -- model interchange files -------------------------------------------------

def _sum_terms(pairs) -> dict:
    terms = {}
    for var, coef in pairs:
        terms[var] = terms.get(var, 0.0) + coef
    return {v: c for v, c in terms.items() if c != 0.0}


def model_rows(model) -> list:
    """(name, {var: coef}, sense, rhs) rows of a built model."""
    names = model.var_names
    return [(model.row_names[k],
             _sum_terms((names[j], c) for j, c in zip(model.row_cols[k].tolist(), model.row_coefs[k].tolist())),
             model.row_sense[k], float(model.row_rhs[k]))
            for k in range(model.n_rows)]


def _lp_terms(tokens) -> dict:
    """Terms of `[+|-] coef name ...` as `lpio.write_lp` spaces them; a lone number is a constant."""
    pairs, sign, coef = [], 1.0, None
    for tok in tokens:
        if tok in ("+", "-"):
            sign = -1.0 if tok == "-" else 1.0
        elif coef is None:
            coef = float(tok)
        else:
            pairs.append((tok, sign * coef))
            sign, coef = 1.0, None
    return _sum_terms(pairs)


def parse_lp_rows(text: str):
    """Rows, objective and fixed variables of an LP file written by `lpio.write_lp`."""
    section, rows, objective, fixed = None, [], {}, {}
    for raw in text.splitlines():
        line = raw.split("\\")[0].strip()
        key = line.lower()
        if key in ("minimize", "subject to", "bounds", "binaries", "end"):
            section = key
        elif not line:
            continue
        elif section == "minimize":
            objective = _lp_terms(line.partition(":")[2].split())
        elif section == "subject to":
            name, _, body = line.partition(":")
            toks = body.split()
            rows.append((name.strip(), _lp_terms(toks[:-2]), {"<=": "<", ">=": ">", "=": "="}[toks[-2]],
                         float(toks[-1])))
        elif section == "bounds":
            var, _, value = line.partition("=")
            fixed[var.strip()] = int(float(value))
    return rows, objective, fixed


def parse_mps_rows(text: str):
    """Rows, objective and fixed columns of an MPS file, in linear time."""
    sense_of = {"L": "<", "G": ">", "E": "="}
    section = objective_row = None
    order = []
    sense = {}
    pairs = {}
    rhs = {}
    objective = []
    fixed = {}
    for raw in text.splitlines():
        if not raw.strip() or raw.startswith("*"):
            continue
        toks = raw.split()
        if not raw[0].isspace():
            section = toks[0].upper()
            continue
        if section == "ROWS":
            if toks[0].upper() == "N":
                objective_row = toks[1]
            else:
                sense[toks[1]] = sense_of[toks[0].upper()]
                order.append(toks[1])
                pairs[toks[1]] = []
        elif section == "COLUMNS":
            if "'MARKER'" in toks:
                continue
            for pos in range(1, len(toks) - 1, 2):
                row, coef = toks[pos], float(toks[pos + 1])
                (objective if row == objective_row else pairs[row]).append((toks[0], coef))
        elif section == "RHS":
            for pos in range(1, len(toks) - 1, 2):
                rhs[toks[pos]] = float(toks[pos + 1])
        elif section == "BOUNDS" and toks[0].upper() == "FX":
            fixed[toks[2]] = int(float(toks[3]))
    rows = [(name, _sum_terms(pairs[name]), sense[name], rhs.get(name, 0.0)) for name in order]
    return rows, _sum_terms(objective), fixed


def check_interchange(model, lp_text: str, mps_text: str) -> str | None:
    """LP and MPS text parse back to exactly the model's rows, objective and fixings.

    Rows are compared by name, term by term, which is stricter than
    `lpio.ParsedModel.coefficient_multiset` equality and implies it.  Both
    parsers are the benchmark's own: `lpio.parse_mps` builds each row by
    scanning every column and takes about 45 s on an R=14 model.
    """
    names = model.var_names
    want = (
        model_rows(model),
        {names[j]: float(model.objective[j]) for j in range(model.n_vars) if model.objective[j]},
        {names[j]: int(model.lb[j]) for j in range(model.n_vars) if model.lb[j] == model.ub[j]},
    )
    for label, text, parse in (("LP", lp_text, parse_lp_rows), ("MPS", mps_text, parse_mps_rows)):
        got = parse(text)
        for part, got_part, want_part in zip(("rows", "objective", "fixings"), got, want):
            if got_part != want_part:
                return f"{label} text does not parse back to the model's {part}"
    return None
