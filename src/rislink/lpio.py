"""Model interchange: LP and MPS writers and a reader of the LP text.

Writers emit full-precision coefficients (``repr`` round-trips floats), so an
exported file reconstructs the exact model.  Their text is stable to the
byte: each distinct value, told apart by its bit pattern (so -0.0 keeps its
sign), is formatted with ``repr`` once, and each section is one table of
text pieces built from the model's CSR/CSC arrays and joined once.  They
read ``model.row_names``, which the model makes only on demand.  HiGHS
reads both formats back to exactly the model; ``tests/test_lpio.py`` checks
that.  ``parse_lp`` reads only ``write_lp``'s own text and is kept for the
benchmark's self-test of its interchange check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ParsedModel",
    "export_model",
    "write_lp",
    "parse_lp",
    "write_mps",
]

_LP_SENSE = {"<": " <= ", ">": " >= ", "=": " = "}
_LP_SENSE_OF = {text.strip(): sense for sense, text in _LP_SENSE.items()}
_LP_SECTIONS = ("Minimize", "Subject To", "Bounds", "Binaries", "End")
_MPS_SENSE = {"<": " L ", ">": " G ", "=": " E "}


@dataclass
class ParsedModel:
    """What ``parse_lp`` reads from an LP file."""

    var_names: list
    objective: dict                    # name -> coefficient
    rows: list                         # (name, {name: coef}, sense, rhs)

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


def _lp_terms(tokens) -> dict:
    """{name: coefficient} of ``[-] c name (+|- c name)*``; a lone ``0`` has no terms."""
    if tokens == ["0"]:
        return {}
    if tokens[:1] != ["-"]:
        tokens = ["+", *tokens]
    if len(tokens) % 3 or not set(tokens[::3]) <= {"+", "-"}:
        raise ValueError(f"not a sum of terms: {' '.join(tokens)!r}")
    return {name: float(sign + coef) for sign, coef, name in zip(tokens[::3], tokens[1::3], tokens[2::3])}


def parse_lp(text: str) -> ParsedModel:
    """The objective, rows and variables of text written by ``write_lp``:
    a comment line, then one objective or row per line, ``name: terms
    [sense rhs]``, under the writer's section words.  Bounds lines are
    skipped; any other line raises ``ValueError``."""
    section, objective, rows, var_names = None, {}, [], []
    for line in text.splitlines():
        if line in _LP_SECTIONS:
            section = line
        elif section is None and line.startswith("\\"):
            pass
        elif section == "Binaries":
            var_names.append(line.strip())
        elif section in ("Minimize", "Subject To") and ": " in line:
            name, _, body = line.partition(": ")
            tokens = body.split()
            if section == "Minimize":
                objective = _lp_terms(tokens)
            elif len(tokens) > 2 and tokens[-2] in _LP_SENSE_OF:
                rows.append((name.strip(), _lp_terms(tokens[:-2]), _LP_SENSE_OF[tokens[-2]], float(tokens[-1])))
            else:
                raise ValueError(f"malformed row {line!r}")
        elif section != "Bounds":
            raise ValueError(f"unexpected line {line!r}")
    return ParsedModel(var_names, objective, rows)


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
        "COLUMNS\n M1 'MARKER' 'INTORG'\n",
        _join((" " + names + " ")[col[order]], row[order], _texts(value, "{!r}\n".format)[order]),
        " M2 'MARKER' 'INTEND'\nRHS\n", _join(" RHS ", rows[rhs], _texts(model.row_rhs[rhs], " {!r}\n".format)),
        "BOUNDS\n", _join(np.where(fixed, " FX BND ", " BV BND "), names, bound), "ENDATA\n"])
