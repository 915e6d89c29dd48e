"""Model interchange: LP and MPS writers, matching parsers, solution files.

Writers emit full-precision coefficients (``repr`` round-trips floats), so an
exported file reconstructs the exact model.  Their text is stable to the
byte: each distinct value, told apart by its bit pattern (so -0.0 keeps its
sign), is formatted with ``repr`` once, and each section is one table of
text pieces built from the model's CSR/CSC arrays and joined once.  They
read ``model.row_names``, which the model makes only on demand.  The parsers
cover the subset the writers produce, which is enough for round-trip checks
and for driving an external solver through files.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ParsedModel",
    "export_model",
    "write_lp",
    "parse_lp",
    "write_mps",
    "parse_mps",
    "write_solution",
    "parse_solution",
]

_LP_SENSE = {"<": " <= ", ">": " >= ", "=": " = "}
_MPS_SENSE = {"<": " L ", ">": " G ", "=": " E "}


@dataclass
class ParsedModel:
    """Solver-agnostic view of a parsed interchange file."""

    var_names: list
    objective: dict                    # name -> coefficient
    rows: list                         # (name, {name: coef}, sense, rhs)
    fixed: dict = field(default_factory=dict)   # name -> 0/1
    binaries: set = field(default_factory=set)

    def coefficient_multiset(self):
        out = []
        for (_, terms, sense, rhs) in self.rows:
            out.append((sense, round(rhs, 12), tuple(sorted((v, round(c, 12)) for v, c in terms.items()))))
        return sorted(out)


def export_model(model, file_format: str) -> str:
    if file_format == "lp":
        return write_lp(model)
    if file_format == "mps":
        return write_mps(model)
    raise ValueError(f"unknown model format {file_format!r}; use 'lp' or 'mps'")


def _texts(values, fmt=repr) -> np.ndarray:
    """``fmt`` of every element, as an object array, called once per distinct
    element.  Floats are told apart by bit pattern, so -0.0 keeps its sign."""
    values = np.ascontiguousarray(values)
    keys = values.view(np.int64) if values.dtype == np.float64 else values
    distinct, inverse = np.unique(keys, return_inverse=True)
    return np.array([fmt(v) for v in distinct.view(values.dtype).tolist()], dtype=object)[inverse]


def _join(*columns) -> str:
    """Text of a table of pieces, read row by row: one row per line or term,
    one column per piece.  A string column repeats on every row."""
    table = np.empty((max(len(c) for c in columns if not isinstance(c, str)), len(columns)), dtype=object)
    for j, column in enumerate(columns):
        table[:, j] = column
    return "".join(table.ravel().tolist())


def _lp_lines(heads, ends, indptr, cols, coefs, names) -> str:
    """Lines ``head a x + b y - c z end`` of compressed rows; a row without terms reads ``head 0 end``."""
    counts = np.diff(indptr)
    width = np.maximum(counts, 1)
    stop = np.cumsum(width)
    term = np.repeat(counts > 0, width)
    minus = np.zeros(len(term), dtype=np.intp)
    minus[term] = coefs < 0
    lead = np.array([" + ", " - "], dtype=object)[minus]
    number, name = np.full(len(term), "0", dtype=object), np.full(len(term), "", dtype=object)
    lead[stop - width] = heads + np.array(["", "- "], dtype=object)[minus[stop - width]]
    number[term], name[term] = _texts(np.abs(coefs)), names[cols]
    name[stop - 1] += ends
    return _join(lead, number, name)


def write_lp(model) -> str:
    names = " " + np.array(model.var_names, dtype=object)
    a, obj_cols = model.matrix, np.flatnonzero(model.objective)
    ends = _texts(model.row_sense, _LP_SENSE.__getitem__) + _texts(model.row_rhs, "{!r}\n".format)
    fixed = np.flatnonzero(model.lb == model.ub)
    return "".join([
        "\\ binary allocation program\nMinimize\n",
        _lp_lines(" obj: ", "\n", [0, len(obj_cols)], obj_cols, model.objective[obj_cols], names),
        "Subject To\n",
        _lp_lines(" " + np.array(model.row_names, dtype=object) + ": ", ends, a.indptr, a.indices, a.data, names),
        "Bounds\n" + _join(names[fixed], _texts(model.lb[fixed].astype(int), " = {}\n".format)) if len(fixed) else "",
        "Binaries\n", _join(names, "\n"), "End\n"])


def _parse_expression(tokens):
    """Consume sign/coef/name terms until a comparison token appears.

    Returns (terms, constant, rest): a bare number is an additive constant.
    """
    terms = {}
    constant = 0.0
    sign = 1.0
    coef = None
    for pos, tok in enumerate(tokens):
        if tok in ("<=", ">=", "=", "<", ">"):
            if coef is not None:
                constant += sign * coef
            return terms, constant, tokens[pos:]
        if tok == "+":
            if coef is not None:
                constant += sign * coef
                coef = None
            sign = 1.0
        elif tok == "-":
            if coef is not None:
                constant += sign * coef
                coef = None
                sign = -1.0
            else:
                sign = -sign
        else:
            try:
                value = float(tok)
            except ValueError:
                name = tok
                terms[name] = terms.get(name, 0.0) + sign * (1.0 if coef is None else coef)
                sign, coef = 1.0, None
            else:
                if coef is not None:
                    raise ValueError("two consecutive numeric tokens")
                coef = value
    if coef is not None:
        constant += sign * coef
    return terms, constant, []


def parse_lp(text: str) -> ParsedModel:
    section = None
    objective = {}
    rows = []
    fixed = {}
    binaries = set()
    order = []
    seen = set()

    def note(names):
        for v in names:
            if v not in seen:
                seen.add(v)
                order.append(v)

    pending = []

    def flush():
        nonlocal pending
        if not pending:
            return
        joined = " ".join(pending)
        pending = []
        name, _, body = joined.partition(":")
        tokens = _retokenize(body)
        if section == "objective":
            terms, _, rest = _parse_expression(tokens)
            if rest:
                raise ValueError("objective must not contain a comparison")
            objective.update(terms)
            note(terms)
        elif section == "constraints":
            terms, constant, rest = _parse_expression(tokens)
            # the right-hand side is a number, maybe after a sign token
            if len(rest) not in (2, 3) or (len(rest) == 3 and rest[1] not in ("+", "-")):
                raise ValueError(f"malformed constraint {name.strip()!r}")
            sense = {"<=": "<", ">=": ">", "=": "="}[rest[0]]
            rows.append((name.strip(), terms, sense, float("".join(rest[1:])) - constant))
            note(terms)

    for raw in text.splitlines():
        line = raw.split("\\")[0].strip()
        if not line:
            continue
        word = line.lower()
        if word in ("minimize", "minimise", "min"):
            flush()
            section = "objective"
            continue
        if word in ("subject to", "st", "s.t."):
            flush()
            section = "constraints"
            continue
        if word == "bounds":
            flush()
            section = "bounds"
            continue
        if word in ("binaries", "binary", "bin"):
            flush()
            section = "binaries"
            continue
        if word == "end":
            flush()
            section = None
            continue
        if section in ("objective", "constraints"):
            if ":" in line and pending:
                flush()
            pending.append(line)
        elif section == "bounds":
            toks = _retokenize(line)
            if len(toks) == 3 and toks[1] == "=":
                fixed[toks[0]] = int(float(toks[2]))
                note([toks[0]])
            else:
                raise ValueError(f"unsupported bound line {line!r}")
        elif section == "binaries":
            for v in line.split():
                binaries.add(v)
                note([v])
    flush()
    return ParsedModel(var_names=order, objective=objective, rows=rows, fixed=fixed, binaries=binaries)


def _retokenize(body: str):
    out = []
    token = ""
    i = 0
    while i < len(body):
        ch = body[i]
        if ch.isspace():
            if token:
                out.append(token)
                token = ""
        elif ch in "+-":
            # sign or part of an exponent like 1e-05
            if token and token[-1] in "eE" and any(c.isdigit() for c in token):
                token += ch
            else:
                if token:
                    out.append(token)
                    token = ""
                out.append(ch)
        elif ch in "<>=":
            if token:
                out.append(token)
                token = ""
            if ch in "<>" and i + 1 < len(body) and body[i + 1] == "=":
                out.append(ch + "=")
                i += 1
            else:
                out.append(ch)
        else:
            token += ch
        i += 1
    if token:
        out.append(token)
    return out


def write_mps(model) -> str:
    names, rows = np.array(model.var_names, dtype=object), np.array(model.row_names, dtype=object)
    csc, objective = model.matrix.tocsc(), model.objective
    counts = np.diff(csc.indptr)
    # a column opens with its objective entry, or with "obj 0.0" when it has no other entry
    opens = (objective != 0) | (counts == 0)
    col = np.concatenate([np.flatnonzero(opens), np.repeat(np.arange(len(counts)), counts)])
    order = np.argsort(col, kind="stable")
    row = np.concatenate([np.full(np.count_nonzero(opens), "obj ", dtype=object), (rows + " ")[csc.indices]])
    value = np.concatenate([np.where(objective != 0, objective, 0.0)[opens], csc.data])
    rhs, fixed = np.flatnonzero(model.row_rhs), model.lb == model.ub
    bound = np.where(fixed, _texts(model.lb, " {!r}\n".format), "\n")
    return "".join([
        "NAME model\nROWS\n N obj\n", _join(_texts(model.row_sense, _MPS_SENSE.__getitem__), rows, "\n"),
        "COLUMNS\n MARKER M1 'MARKER' 'INTORG'\n",
        _join((" " + names + " ")[col[order]], row[order], _texts(value, "{!r}\n".format)[order]),
        " MARKER M2 'MARKER' 'INTEND'\nRHS\n", _join(" RHS ", rows[rhs], _texts(model.row_rhs[rhs], " {!r}\n".format)),
        "BOUNDS\n", _join(np.where(fixed, " FX BND ", " BV BND "), names, bound), "ENDATA\n"])


def parse_mps(text: str) -> ParsedModel:
    """Parse an MPS file, collecting each row's terms while reading COLUMNS."""
    section = None
    objective_row = None
    row_sense = {}
    row_terms = {}
    objective = {}
    rhs = {}
    fixed = {}
    binaries = set()
    order = []
    seen = set()
    integral = False

    for raw in text.splitlines():
        if raw.startswith("*") or not raw.strip():
            continue
        if not raw[0].isspace():
            section = raw.split()[0].upper()
            continue
        toks = raw.split()
        if section == "ROWS":
            kind, name = toks
            if kind.upper() == "N":
                objective_row = name
                continue
            row_sense[name] = {"L": "<", "G": ">", "E": "="}[kind.upper()]
            row_terms[name] = {}
        elif section == "COLUMNS":
            if len(toks) >= 3 and toks[2].strip("'") == "MARKER":
                integral = toks[-1].strip("'") == "INTORG"
                continue
            if "'MARKER'" in toks:
                integral = "'INTORG'" in toks
                continue
            col = toks[0]
            if col not in seen:
                seen.add(col)
                order.append(col)
                if integral:
                    binaries.add(col)
            for pos in range(1, len(toks) - 1, 2):
                row, coef = toks[pos], float(toks[pos + 1])
                if row == objective_row:
                    if coef:
                        objective[col] = objective.get(col, 0.0) + coef
                elif row in row_terms:
                    terms = row_terms[row]
                    terms[col] = terms.get(col, 0.0) + coef
                else:
                    raise ValueError(f"column {col!r} names undeclared row {row!r}")
        elif section == "RHS":
            for pos in range(1, len(toks) - 1, 2):
                rhs[toks[pos]] = float(toks[pos + 1])
        elif section == "BOUNDS":
            kind = toks[0].upper()
            if kind == "FX":
                fixed[toks[2]] = int(float(toks[3]))
            elif kind == "BV":
                binaries.add(toks[2])
            else:
                raise ValueError(f"unsupported bound type {kind}")

    rows = [(name, {col: coef for col, coef in terms.items() if coef != 0.0}, row_sense[name], rhs.get(name, 0.0))
            for name, terms in row_terms.items()]
    return ParsedModel(var_names=order, objective=objective, rows=rows, fixed=fixed, binaries=binaries)


def write_solution(status: str, assignment: dict | None = None) -> str:
    lines = [status]
    for name, value in (assignment or {}).items():
        lines.append(f"{name} {repr(float(value))}")
    return "\n".join(lines) + "\n"


def parse_solution(text: str):
    """Returns (status, {name: value}); status is the first non-empty line."""
    status = None
    assignment = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if status is None:
            status = line.split()[0].lower()
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"malformed solution line {line!r}")
        assignment[parts[0]] = float(parts[1])
    if status not in ("optimal", "infeasible", "timeout"):
        raise ValueError(f"unknown solution status {status!r}")
    return status, assignment
