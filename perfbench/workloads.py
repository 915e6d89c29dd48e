"""The benchmark's three workloads.

Each is one process driving the program in a closed loop: the next unit of
work, one trial, starts only when the previous one has returned.

A workload's suite is `SEEDS` instances drawn from the seed base (default
1000): instance j uses seed base + j.  The loop runs whole passes over the
suite, each pass in an order shuffled by the run's seed, so every run
measures the same instances equally often.  Instance difficulty varies a lot
(an R=14 ILP trial takes 0.6-3.5 s), so runs that each measured a different
handful of instances would report the instances, not the program.  `SEEDS`
is sized so that one pass takes at most about 20 s on a 2-CPU x86-64 host
(10 s on heuristic_r14, 4 s on export_r14), since every run measures at
least one whole pass.

All workloads use the acceptance suite's experiment configuration.
"""

from __future__ import annotations

import hashlib
import random
import time
import traceback
import zlib
from dataclasses import replace

from rislink import allocation, harness, heuristic, lpio, milp, scenario as scen

import checks

# Table II values of tests/test_acceptance.py (EXPERIMENT_CFG)
EXPERIMENT_CFG = scen.ScenarioConfig(
    n_bs=2, n_ris=8, n_slots=50,
    psi_range=(9.0, 10.0), k_range=(14, 15),
    d_reconfig=2, u_override=2,
)
ROBOTS = 14
SOLVE_TIMEOUT_S = 60.0  # a solve that hits it counts as failed
WARMUP_CFG = replace(EXPERIMENT_CFG, n_robots=2)


class Workload:
    name = ""
    trials_per_unit = 1
    SEEDS = 1            # instances in the suite

    def __init__(self, seed_base: int, order_seed: int, reference: dict):
        self.seed_base = seed_base
        self.order_seed = order_seed
        self.orders = {}
        # pinned outputs are known only for the default seed list
        self.reference = reference if seed_base == checks.DEFAULT_SEED_BASE else {}
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.heuristic = {}  # instance -> (feasible, outage %), each counted once

    def seed(self, j: int) -> int:
        return self.seed_base + j

    def instance(self, k: int) -> int:
        """Suite index that unit k visits."""
        p, pos = divmod(k, self.SEEDS)
        if p not in self.orders:
            order = list(range(self.SEEDS))
            random.Random(self.order_seed * 1_000_003 + p).shuffle(order)
            self.orders[p] = order
        return self.orders[p][pos]

    def fail(self, message: str, trials: int = 1) -> None:
        self.failed += trials
        self.failures.append(message)

    def note_heuristic(self, key, feasible: bool, outage_pct) -> None:
        self.heuristic[key] = (feasible, outage_pct)

    def guarded(self, label: str, call, trials: int = 1):
        """Run one unit's program calls; return (result, seconds) or (None, seconds) on error."""
        self.attempted += trials
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # a crashing unit is a failed operation; keep measuring
            elapsed = time.perf_counter() - start
            self.fail(f"{label}: {type(exc).__name__}: {exc}\n{traceback.format_exc()}", trials)
            return None, elapsed
        return result, time.perf_counter() - start

    def setup(self) -> None:
        raise NotImplementedError

    def unit(self, k: int) -> float:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks too heavy for the loop; run after peak memory is read."""

    def quality(self) -> dict:
        """Heuristic feasibility and mean outage over feasible instances, as run_sweep's CSV reports them."""
        if not self.heuristic:
            return {}
        pcts = [pct for feasible, pct in self.heuristic.values() if feasible]
        return {
            "heuristic_feasible_pct": 100.0 * len(pcts) / len(self.heuristic),
            "heuristic_outage_pct": sum(pcts) / len(pcts) if pcts else float("nan"),
        }


class IlpR14(Workload):
    """run_trial with ILP and heuristic at R=14, the paper's heaviest sweep point."""

    name = "ilp_r14"
    SEEDS = 16
    METHODS = ("ilp", "heuristic")

    def setup(self):
        self.config = replace(EXPERIMENT_CFG, n_robots=ROBOTS)
        harness.run_trial(WARMUP_CFG, 0, self.METHODS)

    def unit(self, k):
        seed = self.seed(self.instance(k))
        trial, elapsed = self.guarded(
            f"seed {seed}",
            lambda: harness.run_trial(self.config, seed, self.METHODS, timeout=SOLVE_TIMEOUT_S))
        if trial is not None:
            self.check(trial)
        return elapsed

    def check(self, trial):
        cfg = self.config
        problem = checks.check_trial(trial, cfg.n_robots, cfg.n_slots)
        summary = checks.trial_summary(trial, cfg.n_robots, cfg.n_slots)
        for method, value in summary.items():
            problem = problem or checks.compare_reference(self.reference, method, trial.seed, value)
        if problem:
            self.fail(problem)
        heur = trial.methods["heuristic"]
        self.note_heuristic(trial.seed, heur.feasible, heur.outage_pct)


class HeuristicR14(Workload):
    """Generate, precompute, heuristic and validate at R=14, with no ILP."""

    name = "heuristic_r14"
    SEEDS = 100

    def setup(self):
        self.config = replace(EXPERIMENT_CFG, n_robots=ROBOTS)
        self.pipeline(WARMUP_CFG, 0)

    @staticmethod
    def pipeline(config, seed):
        scenario = scen.generate(config, seed)
        tables = scen.precompute(scenario)
        outcome = heuristic.allocate(tables, scenario, seed=seed)
        return outcome, allocation.validate(scenario, tables, outcome.schedule)

    def unit(self, k):
        seed = self.seed(self.instance(k))
        result, elapsed = self.guarded(f"seed {seed}", lambda: self.pipeline(self.config, seed))
        if result is not None:
            outcome, report = result
            outage = allocation.outage_percentage(outcome.schedule)
            problem = None
            if outcome.feasible != report.ok:
                problem = f"seed {seed}: heuristic says feasible={outcome.feasible}, validate says ok={report.ok}"
            elif not report.families() <= {"outage_window(17)"}:
                problem = f"seed {seed}: heuristic schedule violates a per-slot constraint"
            count = outcome.schedule.outage_count() if outcome.feasible else None
            problem = problem or checks.compare_reference(self.reference, "heuristic", seed, count)
            if problem:
                self.fail(problem)
            self.note_heuristic(seed, outcome.feasible, outage)
        return elapsed


class ExportR14(Workload):
    """What `rislink export-model` does: scenario JSON to LP and MPS text, with no solver."""

    name = "export_r14"
    SEEDS = 4  # few, because each file's export is parsed back once, about 1.3 s apiece

    def setup(self):
        self.config = replace(EXPERIMENT_CFG, n_robots=ROBOTS)
        self.originals = [scen.generate(self.config, self.seed(j)) for j in range(self.SEEDS)]
        self.files = [scen.serialize(s) for s in self.originals]
        self.pipeline(scen.serialize(scen.generate(WARMUP_CFG, 0)))
        self.exported = {}   # instance -> (digest, compressed LP, compressed MPS)
        self.units = [0] * self.SEEDS
        self.inconsistent = set()

    @staticmethod
    def pipeline(text):
        scenario = scen.deserialize(text)
        model = milp.build_model(scen.precompute(scenario), scenario)
        return lpio.export_model(model, "lp"), lpio.export_model(model, "mps")

    def unit(self, k):
        j = self.instance(k)
        result, elapsed = self.guarded(f"seed {self.seed(j)}", lambda: self.pipeline(self.files[j]))
        if result is not None:
            self.units[j] += 1
            lp, mps = result
            digest = hashlib.sha256(lp.encode() + b"\0" + mps.encode()).hexdigest()
            if j not in self.exported:
                self.exported[j] = (digest, zlib.compress(lp.encode(), 1), zlib.compress(mps.encode(), 1))
            elif self.exported[j][0] != digest:
                self.inconsistent.add(j)
        return elapsed

    def finish(self):
        for j, (_, lp, mps) in sorted(self.exported.items()):
            scenario = scen.deserialize(self.files[j])
            if j in self.inconsistent:
                problem = "exports of the same file differ"
            elif scenario != self.originals[j] or scen.serialize(scenario) != self.files[j]:
                problem = "scenario file does not round-trip"
            else:
                model = milp.build_model(scen.precompute(scenario), scenario)
                problem = checks.check_interchange(
                    model, zlib.decompress(lp).decode(), zlib.decompress(mps).decode())
            if problem:
                self.fail(f"seed {self.seed(j)}: {problem}", self.units[j])


WORKLOADS = {w.name: w for w in (IlpR14, HeuristicR14, ExportR14)}
