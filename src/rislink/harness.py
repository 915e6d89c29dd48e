"""Seeded trials, parameter sweeps, aggregation, and CSV output.

A trial is a pure function of (config, seed, methods): generate, precompute,
then run each requested method.  Sweeps vary one axis, run the same seed list
at every point, and aggregate outage over feasible trials with normal 95%
confidence half-widths.  Every produced schedule is re-validated; a feasible
flag with a non-empty report is a soundness bug and aborts the trial.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import allocation, heuristic, milp, scenario as scen, solvers

CSV_HEADER = "axis_name,axis_value,method,trials,feasible_pct,mean_outage_pct,ci95_outage,mean_runtime_s,timeouts"

KNOWN_METHODS = ("ilp", "heuristic", "no-ris")
AXES = ("robots", "delay", "k_window", "sinr_threshold", "capacity")
INTEGER_AXES = ("robots", "delay", "k_window", "capacity")

__all__ = [
    "MethodResult",
    "TrialResult",
    "SweepSpec",
    "SweepRow",
    "SweepTable",
    "SoundnessError",
    "apply_axis",
    "axis_label",
    "run_trial",
    "pool_size",
    "run_sweep",
    "sweep_to_csv",
    "load_sweep_spec",
]


class SoundnessError(RuntimeError):
    """A feasible-flagged schedule failed validation; the encoder is broken."""


@dataclass
class MethodResult:
    feasible: bool
    outage_pct: float | None     # None unless a feasible schedule was produced
    runtime_s: float
    timed_out: bool = False
    objective: float | None = None
    dark_run: tuple | None = None   # (robot, first slot, last slot) that proves the ILP infeasible


@dataclass
class TrialResult:
    seed: int
    methods: dict


@dataclass
class SweepSpec:
    base: scen.ScenarioConfig
    axis: str
    values: list
    trials: int = 100
    methods: tuple = KNOWN_METHODS
    seed0: int = 0
    timeout: float | None = 600.0
    workers: int = 1

    def __post_init__(self):
        if self.axis not in AXES:
            raise ValueError(f"axis must be one of {AXES}")
        if not self.values:
            raise ValueError("axis values must be non-empty")
        if self.axis in INTEGER_AXES and not all(float(v).is_integer() for v in np.ravel(self.values)):
            raise ValueError(f"axis {self.axis!r} takes integers, got {self.values!r}")
        labels = [axis_label(self.axis, v) for v in self.values]
        if len(set(labels)) < len(labels):
            raise ValueError(f"axis values {self.values!r} share a CSV label {labels!r}")
        for name in ("trials", "seed0"):
            value = getattr(self, name)
            if not (isinstance(value, int) and not isinstance(value, bool)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        self.methods = tuple(self.methods)
        for m in self.methods:
            if m not in KNOWN_METHODS:
                raise ValueError(f"unknown method {m!r}")
        if not self.methods or len(set(self.methods)) < len(self.methods):
            raise ValueError(f"methods must be non-empty and distinct, got {list(self.methods)!r}")
        if self.timeout is not None and not (_is_number(self.timeout) and 0 < self.timeout < math.inf):
            raise ValueError(f"timeout must be None or a positive finite number of seconds, got {self.timeout!r}")
        if not (isinstance(self.workers, int) and not isinstance(self.workers, bool) and self.workers >= 1):
            raise ValueError(f"workers must be an integer >= 1, got {self.workers!r}")
        for value in self.values:
            apply_axis(self.base, self.axis, value)  # a point's config checks its own numbers


@dataclass
class SweepRow:
    axis_name: str
    axis_value: float
    method: str
    trials: int
    feasible_pct: float
    mean_outage_pct: float
    ci95_outage: float
    mean_runtime_s: float
    timeouts: int


@dataclass
class SweepTable:
    rows: list = field(default_factory=list)
    trials: dict = field(default_factory=dict)  # (axis_value, seed) -> TrialResult


def apply_axis(base: scen.ScenarioConfig, axis: str, value) -> scen.ScenarioConfig:
    if axis == "robots":
        return replace(base, n_robots=int(value))
    if axis == "delay":
        return replace(base, d_reconfig=int(value))
    if axis == "k_window":
        lo, hi = value
        return replace(base, k_range=(int(lo), int(hi)))
    if axis == "sinr_threshold":
        lo, hi = value
        return replace(base, psi_range=(float(lo), float(hi)))
    if axis == "capacity":
        return replace(base, u_override=int(value))
    raise ValueError(f"unknown axis {axis!r}")


def axis_label(axis: str, value) -> float:
    """Numeric CSV label: range axes are labelled by their midpoint."""
    if axis in ("k_window", "sinr_threshold"):
        return (float(value[0]) + float(value[1])) / 2.0
    return float(value)


def _solve_ilp(scenario, tables, timeout) -> MethodResult:
    # a robot without a live link for K_r slots in a row proves infeasibility
    t0 = time.perf_counter()
    run = milp.dark_run(tables.live, scenario.k_out)
    if run is not None:
        return MethodResult(False, None, time.perf_counter() - t0, dark_run=run)
    model = milp.build_model(tables, scenario)
    result = solvers.solve(model, time_budget=timeout)
    if result.status == "optimal":
        sched = milp.extract_schedule(model, result.values)
        report = allocation.validate(scenario, tables, sched)
        if not report.ok:
            raise SoundnessError(
                "optimal schedule failed validation:\n" + report.render())
        return MethodResult(
            feasible=True,
            outage_pct=allocation.outage_percentage(sched) if scenario.config.n_robots else 0.0,
            runtime_s=result.runtime,
            objective=result.objective,
        )
    if result.status == "timeout":
        return MethodResult(False, None, result.runtime, timed_out=True,
                            objective=result.incumbent_objective)
    return MethodResult(False, None, result.runtime)


def run_trial(config: scen.ScenarioConfig, seed: int, methods=KNOWN_METHODS,
              timeout: float | None = 600.0) -> TrialResult:
    """Generate one scenario and run each requested method on it."""
    scenario = scen.generate(config, seed)
    # the no-RIS baseline alone needs only the stripped scenario's tables
    tables = scen.precompute(scenario) if {"ilp", "heuristic"} & set(methods) else None
    out = {}
    for method in methods:
        if method == "ilp":
            out[method] = _solve_ilp(scenario, tables, timeout)
        elif method == "no-ris":
            bare = scen.strip_ris(scenario)
            out[method] = _solve_ilp(bare, scen.precompute(bare), timeout)
        elif method == "heuristic":
            t0 = time.perf_counter()
            outcome = heuristic.allocate(tables, scenario, seed=seed)
            elapsed = time.perf_counter() - t0
            report = allocation.validate(scenario, tables, outcome.schedule)
            if outcome.feasible and not report.ok:
                raise SoundnessError(
                    "feasible-flagged heuristic schedule failed validation:\n" + report.render())
            if not report.families() <= {"outage_window(17)"}:
                raise SoundnessError(
                    "heuristic schedule violates a per-slot constraint:\n" + report.render())
            outage = None
            if outcome.feasible:
                outage = allocation.outage_percentage(outcome.schedule) if config.n_robots else 0.0
            out[method] = MethodResult(
                feasible=outcome.feasible,
                outage_pct=outage,
                runtime_s=elapsed,
            )
        else:
            raise ValueError(f"unknown method {method!r}")
    return TrialResult(seed=seed, methods=out)


def _trial_job(args):
    return run_trial(*args)


def pool_size(workers: int, jobs: int) -> int:
    """Processes to start for ``jobs`` jobs: at most ``workers``, ``jobs`` and
    the host's CPUs, and at least 1.  A fork-started pool starts every worker
    at its first submit, so it must not be asked for more than can run."""
    return max(1, min(workers, jobs, os.cpu_count() or 1))


def run_sweep(spec: SweepSpec) -> SweepTable:
    """Run trials at every axis point with shared seeds and aggregate."""
    table = SweepTable()
    jobs = []
    for value in spec.values:
        config = apply_axis(spec.base, spec.axis, value)
        for t in range(spec.trials):
            jobs.append((axis_label(spec.axis, value), (config, spec.seed0 + t, spec.methods, spec.timeout)))
    workers = pool_size(spec.workers, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_trial_job, [j[1] for j in jobs]))
    else:
        results = [_trial_job(j[1]) for j in jobs]
    for (label, job), res in zip(jobs, results):
        table.trials[(label, res.seed)] = res

    # deterministic reduction: results keyed and sorted by (axis value, seed)
    for value in spec.values:
        label = axis_label(spec.axis, value)
        per_point = [table.trials[(label, spec.seed0 + t)] for t in range(spec.trials)]
        for method in spec.methods:
            mrs = [tr.methods[method] for tr in per_point]
            outages = np.array([m.outage_pct for m in mrs if m.feasible and m.outage_pct is not None])
            feasible_pct = 100.0 * sum(m.feasible for m in mrs) / len(mrs)
            mean_outage = float(outages.mean()) if outages.size else float("nan")
            if outages.size >= 2:
                ci = 1.96 * float(outages.std(ddof=1)) / float(np.sqrt(outages.size))
            else:
                ci = 0.0  # single-trial convention; runtime column still varies
            table.rows.append(SweepRow(
                axis_name=spec.axis,
                axis_value=label,
                method=method,
                trials=spec.trials,
                feasible_pct=feasible_pct,
                mean_outage_pct=mean_outage,
                ci95_outage=ci,
                mean_runtime_s=float(np.mean([m.runtime_s for m in mrs])),
                timeouts=sum(m.timed_out for m in mrs),
            ))
    return table


def sweep_to_csv(table: SweepTable) -> str:
    lines = [CSV_HEADER]
    for row in table.rows:
        lines.append(
            f"{row.axis_name},{row.axis_value:g},{row.method},{row.trials},"
            f"{row.feasible_pct:.2f},{row.mean_outage_pct:.4f},{row.ci95_outage:.4f},"
            f"{row.mean_runtime_s:.4f},{row.timeouts}"
        )
    return "\n".join(lines) + "\n"


# SweepSpec fields a sweep-spec document may set; it must set the others
_OPTIONAL_SPEC_KEYS = ("trials", "methods", "seed0", "timeout", "workers")


def load_sweep_spec(text: str) -> SweepSpec:
    """Parse a sweep-spec JSON document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"sweep spec is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != "rislink-sweep" or doc.get("version") != 1:
        raise ValueError("expected a rislink-sweep version 1 document")
    for key in ("axis", "values", "config"):
        if key not in doc:
            raise ValueError(f"sweep spec missing {key!r}")
    unknown = doc.keys() - {"format", "version", "axis", "values", "config", *_OPTIONAL_SPEC_KEYS}
    if unknown:
        raise ValueError(f"unknown sweep spec keys: {', '.join(sorted(unknown))}")
    base = scen._config_from_dict(doc["config"])
    values = doc["values"]
    pairs = doc["axis"] in ("k_window", "sinr_threshold")

    def well_formed(v):
        if pairs:
            return isinstance(v, list) and len(v) == 2 and all(map(_is_number, v))
        return _is_number(v)

    if not isinstance(values, list) or not all(map(well_formed, values)):
        raise ValueError(f"sweep spec 'values' must be a list of {'[lo, hi] pairs' if pairs else 'numbers'} "
                         f"for axis {doc['axis']!r}")
    if pairs:
        values = [tuple(v) for v in values]
    try:
        optional = {key: doc[key] for key in _OPTIONAL_SPEC_KEYS if key in doc}
        return SweepSpec(base=base, axis=doc["axis"], values=values, **optional)
    except TypeError as exc:
        raise ValueError(f"bad sweep spec field: {exc}") from exc


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)
