"""Span tracing installed from outside the program.

`Tracer.install` replaces public functions of the rislink modules with
wrappers that record one span per call: name, start, end, parent span and
trial id, plus a few counts read from the call's result.  Spans stay in
memory and are written as JSON lines when the run ends.

`channel.sinr` runs about a thousand times per trial, so its calls are folded
into the innermost open span as a count and a total time instead of becoming
spans of their own; self time subtracts that folded time.
"""

from __future__ import annotations

import functools
import json
import sys
import time

from stats import self_time

# field positions in a span record
NAME, START, END, PARENT, TRIAL, FOLDED, ATTRS = range(7)


def _model_size(model):
    return {
        "vars": model.n_vars,
        "rows": model.n_rows,
        "nnz": int(sum(len(c) for c in model.row_cols)),
        "fixed": int((model.lb == model.ub).sum()),
    }


def _solve_status(result):
    return {"status": result.status}


def _violations(report):
    return {"violations": len(report.violations)}


def _feasible(outcome):
    return {"feasible": bool(outcome.feasible)}


def _text_bytes(text):
    return {"bytes": len(text.encode())}


# (module, function, attrs-from-result); the boundaries the per-layer metrics use
SPANNED = (
    ("harness", "run_trial", None),
    ("scenario", "generate", None),
    ("scenario", "deserialize", None),
    ("scenario", "precompute", None),
    ("geometry", "build_coverage", None),
    ("geometry", "build_conflicts", None),
    ("geometry", "los_blocked_batch", None),
    ("milp", "build_model", _model_size),
    ("milp", "extract_schedule", None),
    ("solvers", "solve", _solve_status),
    ("allocation", "validate", _violations),
    ("heuristic", "allocate", _feasible),
    ("lpio", "export_model", _text_bytes),
)
FOLDED_CALLS = (("channel", "sinr"),)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []          # indices of open spans
        self.trial = None        # set by the workload loop
        self.folded = {}         # name -> [calls, seconds]

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        for mod_name, fn_name, attrs in SPANNED:
            fn = getattr(sys.modules[f"rislink.{mod_name}"], fn_name)
            _rebind(fn, self._span_wrapper(f"{mod_name}.{fn_name}", fn, attrs))
        for mod_name, fn_name in FOLDED_CALLS:
            fn = getattr(sys.modules[f"rislink.{mod_name}"], fn_name)
            _rebind(fn, self._fold_wrapper(f"{mod_name}.{fn_name}", fn))

    def _span_wrapper(self, label, fn, attrs):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(label, fn, args, kwargs, attrs)
        return wrapper

    def _fold_wrapper(self, label, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                acc = self.folded.setdefault(label, [0, 0.0])
                acc[0] += 1
                acc[1] += elapsed
                if self.stack:
                    self.spans[self.stack[-1]][FOLDED] += elapsed
        return wrapper

    # -- recording ------------------------------------------------------
    def _call(self, label, fn, args, kwargs, attrs):
        parent = self.stack[-1] if self.stack else None
        trial = self.spans[parent][TRIAL] if parent is not None else self.trial
        span = [label, 0.0, 0.0, parent, trial, 0.0, None]
        index = len(self.spans)
        self.spans.append(span)
        self.stack.append(index)
        span[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[END] = time.perf_counter()
            self.stack.pop()
        if attrs is not None:
            span[ATTRS] = attrs(result)
        return result

    # -- output ---------------------------------------------------------
    def collect(self) -> list:
        """[(spans, folded)] of this process, the form `write_sets` takes."""
        return [(self.spans, self.folded)]


def _rebind(original, wrapper) -> None:
    """Point every rislink module's name for `original` at `wrapper`, imports by name included."""
    for name, module in list(sys.modules.items()):
        if name.startswith("rislink.") and getattr(module, original.__name__, None) is original:
            setattr(module, original.__name__, wrapper)


def write_sets(path: str, sets) -> None:
    """One header line per process, {"process": k, "folded": {...}}, then its spans."""
    with open(path, "w") as fh:
        for k, (spans, folded) in enumerate(sets):
            fh.write(json.dumps({"process": k, "folded": folded}) + "\n")
            for span in spans:
                fh.write(json.dumps(span) + "\n")


def read_sets(path: str) -> list:
    sets = []
    with open(path) as fh:
        for line in fh:
            record = json.loads(line)
            if isinstance(record, dict):
                sets.append(([], record["folded"]))
            else:
                sets[-1][0].append(record)
    return sets


def self_times(spans) -> list:
    """Self time of each span: its duration minus what its children cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    return [self_time(s[START], s[END], children[k], s[FOLDED]) for k, s in enumerate(spans)]
