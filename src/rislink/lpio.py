"""Model interchange: LP and MPS writers, matching parsers, solution files.

Writers emit full-precision coefficients (``repr`` round-trips floats), so an
exported file reconstructs the exact model.  The parsers cover the subset the
writers produce, which is enough for round-trip checks and for driving an
external solver through files.
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

_SENSE_TO_LP = {"<": "<=", ">": ">=", "=": "="}
_SENSE_TO_MPS = {"<": "L", ">": "G", "=": "E"}


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


def _lp_terms(cols, coefs, names) -> str:
    parts = []
    for j, coef in zip(cols, coefs):
        sign = "-" if coef < 0 else "+"
        parts.append(f"{sign} {repr(abs(float(coef)))} {names[j]}")
    if not parts:
        return "0"
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text


def write_lp(model) -> str:
    names = model.var_names
    lines = ["\\ binary allocation program", "Minimize"]
    obj_cols = np.nonzero(model.objective)[0]
    lines.append(" obj: " + _lp_terms(obj_cols.tolist(), model.objective[obj_cols].tolist(), names))
    lines.append("Subject To")
    a = model.matrix
    cols, coefs, bounds = a.indices.tolist(), a.data.tolist(), a.indptr.tolist()
    for name, lo, hi, sense, rhs in zip(model.row_names, bounds[:-1], bounds[1:],
                                        model.row_sense.tolist(), model.row_rhs.tolist()):
        lines.append(f" {name}: {_lp_terms(cols[lo:hi], coefs[lo:hi], names)} {_SENSE_TO_LP[sense]} {rhs!r}")
    fixed = np.flatnonzero(model.lb == model.ub)
    if len(fixed):
        lines.append("Bounds")
        values = model.lb[fixed].astype(int).tolist()
        lines.extend(f" {names[j]} = {value}" for j, value in zip(fixed.tolist(), values))
    lines.append("Binaries")
    lines.extend(f" {name}" for name in names)
    lines.append("End")
    return "\n".join(lines) + "\n"


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
    names = model.var_names
    row_names = model.row_names
    lines = ["NAME model", "ROWS", " N obj"]
    lines.extend(f" {_SENSE_TO_MPS[sense]} {name}" for sense, name in zip(model.row_sense.tolist(), row_names))
    # column-major, straight from the compressed columns
    csc = model.matrix.tocsc()
    rows, coefs, bounds = csc.indices.tolist(), csc.data.tolist(), csc.indptr.tolist()
    objective = model.objective.tolist()
    lines.append("COLUMNS")
    lines.append(" MARKER M1 'MARKER' 'INTORG'")
    for j, name in enumerate(names):
        lo, hi = bounds[j], bounds[j + 1]
        if objective[j]:
            lines.append(f" {name} obj {objective[j]!r}")
        lines.extend(f" {name} {row_names[k]} {coef!r}" for k, coef in zip(rows[lo:hi], coefs[lo:hi]))
        if not objective[j] and lo == hi:
            lines.append(f" {name} obj 0.0")
    lines.append(" MARKER M2 'MARKER' 'INTEND'")
    lines.append("RHS")
    lines.extend(f" RHS {name} {rhs!r}" for name, rhs in zip(row_names, model.row_rhs.tolist()) if rhs)
    lines.append("BOUNDS")
    for name, lo, hi in zip(names, model.lb.tolist(), model.ub.tolist()):
        lines.append(f" FX BND {name} {lo!r}" if lo == hi else f" BV BND {name}")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


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
