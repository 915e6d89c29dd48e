"""Benchmark of the rislink pipeline, run from the repository root.

One run of one workload:

    python3 perfbench/run.py --workload ilp_r14 --seed 7 --seconds 25 --trace 0

--seed orders the passes over the workload's fixed suite of instances;
--seed-base (default 1000) chooses the suite.  Unit times are reported in
reference seconds, wall seconds corrected for the host's drifting speed (see
hostspeed.py); the wall-clock figures are in the detail line.

The last line of standard output is the result, a JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  The line before it carries
the environment and the figures that are not metrics (failed_pct, the tail's
percentile and sample count, wall-clock throughput and median, heuristic
quality).

    python3 perfbench/run.py --all              # every workload, untraced and traced
    python3 perfbench/run.py --write-reference  # re-pin reference.json (re-baseline)

`--all` prints every metric by name and unit, the tracing overhead per
workload, and writes perfbench/baseline.json.
"""

import time

_START = time.perf_counter()  # set-up is timed from here

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys

import checks
import hostspeed
import spans
from spans import ATTRS, END, NAME, START
from stats import hd_percentile, percentile, tail

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
BASELINE = os.path.join(HERE, "baseline.json")
SETUP_REPEATS = 3            # set-ups per run, this process's own included
SUBPROCESS_TIMEOUT_S = 170

END_TO_END = {
    "trials_per_ref_s": "1/ref_s",
    "trial_ref_s.p50": "ref_s",
    "trial_ref_s.tail": "ref_s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "scenario.generate.s": "s/trial",
    "scenario.precompute.self_s": "s/trial",
    "scenario.deserialize.s": "s/trial",
    "geometry.build_coverage.s": "s/trial",
    "geometry.build_conflicts.s": "s/trial",
    "geometry.los_blocked_batch.s": "s/trial",
    "geometry.los_blocked_batch.calls": "calls/trial",
    "channel.sinr.s": "s/trial",
    "channel.sinr.calls": "calls/trial",
    "milp.build_model.s": "s/trial",
    "milp.extract_schedule.s": "s/trial",
    "milp.vars": "count",
    "milp.rows": "count",
    "milp.nnz": "count",
    "milp.fixed_vars": "count",
    "solvers.solve.s": "s/trial",
    "solvers.infeasible_s": "s/trial",
    "solvers.optimal": "count",
    "solvers.infeasible": "count",
    "solvers.timeout": "count",
    "solvers.useful_ratio": "ratio",
    "allocation.validate.self_s": "s/trial",
    "allocation.violations": "count/trial",
    "heuristic.allocate.self_s": "s/trial",
    "heuristic.feasible_ratio": "ratio",
    "lpio.export_model.s": "s/trial",
    "lpio.bytes": "B/trial",
    "harness.run_trial.self_s": "s/trial",
    "trace.trials_per_ref_s": "1/ref_s",
}


def fail_early(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    if not os.path.isfile(os.path.join(SRC, "rislink", "__init__.py")):
        fail_early(f"no rislink sources under {SRC}; run from the repository root of a checkout")
    sys.path.insert(0, SRC)
    import workloads  # imports rislink, numpy and scipy
    return workloads


def git_commit(root: str) -> str:
    """HEAD's commit id read from .git without running git; 'unknown' outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed_base: int, seed: int) -> dict:
    import multiprocessing

    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "start_method": multiprocessing.get_start_method(),
        "commit": git_commit(ROOT),
        "seed_base": seed_base,
        "seed": seed,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def closed_loop(unit, seconds: float, pass_units: int) -> tuple:
    """Run whole passes of `pass_units` units back to back.

    The first pass always runs to its end, and a further pass starts only if
    a pass as long as the last one would end nearer to `seconds` than the
    run would without it, so every run measures each instance of the suite
    equally often, for about `seconds`.  The host-speed kernel is timed
    before every unit and once after the last.  Returns the unit durations
    and the kernel times, one more than durations.
    """
    durations, calibrations = [], []
    start = time.perf_counter()
    k = 0
    while True:
        pass_start = time.perf_counter()
        for _ in range(pass_units):
            calibrations.append(hostspeed.measure())
            durations.append(unit(k))
            k += 1
        now = time.perf_counter()
        if (now - start) + (now - pass_start) / 2 >= seconds:
            calibrations.append(hostspeed.measure())
            return durations, calibrations


def setup_in_subprocess(args) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload", args.workload,
           "--seed", str(args.seed), "--seed-base", str(args.seed_base)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)
    if done.returncode != 0:
        fail_early(f"set-up subprocess failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def end_to_end(work, durations, calibrations, setup_s: float, rss_mb: float) -> tuple:
    """End-to-end metrics of an untraced run, and the figures that go to `detail`."""
    ref = hostspeed.reference_durations(durations, calibrations)
    trials = len(durations) * work.trials_per_unit
    tail_s, tail_p, n = tail(ref)
    values = {
        "trials_per_ref_s": trials / sum(ref),
        "trial_ref_s.p50": hd_percentile(ref, 50),
        "trial_ref_s.tail": tail_s,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }
    more = {
        "trial_ref_s.tail_percentile": tail_p,
        "trial_ref_s.samples": n,
        "wall_trials_per_s": trials / sum(durations),
        "wall_trial_s.p50": hd_percentile(durations, 50),
        "calibration_s.p50": percentile(calibrations, 50),
    }
    return values, more


def per_layer(sets, trials: int, loop_rate: float) -> dict:
    """Per-layer metrics from the spans of a traced run.

    Times are per trial; model sizes are means per built model; solver
    outcomes are counts over the run.
    """
    total, own, calls = {}, {}, {}
    sizes = {"vars": [], "rows": [], "nnz": [], "fixed": []}
    status = {"optimal": 0, "infeasible": 0, "timeout": 0}
    infeasible_s = violations = lp_bytes = 0.0
    allocations = feasible = 0
    for span_list, folded in sets:
        for span, self_s in zip(span_list, spans.self_times(span_list)):
            name, attrs, duration = span[NAME], span[ATTRS], span[END] - span[START]
            total[name] = total.get(name, 0.0) + duration
            own[name] = own.get(name, 0.0) + self_s
            calls[name] = calls.get(name, 0) + 1
            if name == "milp.build_model":
                for key in sizes:
                    sizes[key].append(attrs[key])
            elif name == "solvers.solve":
                status[attrs["status"]] += 1
                if attrs["status"] == "infeasible":
                    infeasible_s += duration
            elif name == "allocation.validate":
                violations += attrs["violations"]
            elif name == "heuristic.allocate":
                allocations += 1
                feasible += attrs["feasible"]
            elif name == "lpio.export_model":
                lp_bytes += attrs["bytes"]
        for name, (n, secs) in folded.items():
            total[name] = total.get(name, 0.0) + secs
            calls[name] = calls.get(name, 0) + n

    def mean(values):
        return statistics.fmean(values) if values else 0.0

    solves = sum(status.values())
    values = {
        "solvers.infeasible_s": infeasible_s / trials,
        "solvers.optimal": status["optimal"],
        "solvers.infeasible": status["infeasible"],
        "solvers.timeout": status["timeout"],
        "solvers.useful_ratio": status["optimal"] / solves if solves else 0.0,
        "milp.vars": mean(sizes["vars"]),
        "milp.rows": mean(sizes["rows"]),
        "milp.nnz": mean(sizes["nnz"]),
        "milp.fixed_vars": mean(sizes["fixed"]),
        "allocation.violations": violations / trials,
        "heuristic.feasible_ratio": feasible / allocations if allocations else 0.0,
        "lpio.bytes": lp_bytes / trials,
        "trace.trials_per_ref_s": loop_rate,
    }
    # the rest are a span's total, self time or call count, per trial
    for metric in PER_LAYER:
        if metric not in values:
            span_name, _, kind = metric.rpartition(".")
            table = {"s": total, "self_s": own, "calls": calls}[kind]
            values[metric] = table.get(span_name, 0.0) / trials
    return values


def run_one(args, workloads) -> int:
    work = workloads.WORKLOADS[args.workload](args.seed_base, args.seed, checks.load_reference())
    work.setup()
    own_setup = time.perf_counter() - _START
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup}))
        return 0

    tracer = None
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        tracer = spans.Tracer()
        tracer.install()

    def unit(k):
        if tracer is not None:
            tracer.trial = f"unit{k}"
        return work.unit(k)

    durations, calibrations = closed_loop(unit, args.seconds, work.SEEDS)
    rss_mb = peak_rss_mb()
    work.finish()

    detail = {"environment": environment(args.seed_base, args.seed), "workload": args.workload,
              "trace": args.trace, "failed_pct": 100.0 * work.failed / work.attempted, **work.quality()}
    if tracer is None:
        setups = [own_setup] + [setup_in_subprocess(args) for _ in range(SETUP_REPEATS - 1)]
        values, more = end_to_end(work, durations, calibrations, statistics.median(setups), rss_mb)
        detail.update(more, setup_runs_s=setups)
        units = END_TO_END
    else:
        sets = tracer.collect()
        loop_trials = len(durations) * work.trials_per_unit
        loop_rate = loop_trials / sum(hostspeed.reference_durations(durations, calibrations))
        values = per_layer(sets, loop_trials, loop_rate)
        trace_path = os.path.join(OUT, f"trace-{args.workload}.jsonl")
        spans.write_sets(trace_path, sets)
        detail["trace_file"] = os.path.relpath(trace_path, ROOT)
        units = PER_LAYER

    for message in work.failures:
        print(f"perfbench: FAILED {message}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": work.failed == 0,
        "attempted": work.attempted,
        "failed": work.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def run_child(workload: str, seconds: int, trace: int) -> tuple:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", "0",
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        fail_early(f"{workload} (trace {trace}) exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def run_all() -> int:
    with open(SPEC) as fh:
        spec = json.load(fh)
    baseline = {"command": "python3 perfbench/run.py --all", "seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    for entry in spec["workloads"]:
        name = entry["name"]
        detail, plain = run_child(name, spec["run_seconds"], 0)
        _, traced = run_child(name, spec["run_seconds"], 1)
        overhead = (plain["metrics"]["trials_per_ref_s"]["value"]
                    - traced["metrics"]["trace.trials_per_ref_s"]["value"])
        baseline["environment"] = detail.pop("environment")
        baseline["workloads"][name] = {
            "why": entry["why"],
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "end_to_end": plain["metrics"],
            "per_layer": traced["metrics"],
            "detail": detail,
            "tracing_overhead_trials_per_ref_s": overhead,
        }
        ok = ok and baseline["workloads"][name]["correct"]
        print(f"== {name}: attempted {plain['attempted']} + {traced['attempted']} traced, "
              f"failed_pct {detail['failed_pct']:.2f} %")
        for metric, m in list(plain["metrics"].items()) + list(traced["metrics"].items()):
            print(f"  {metric:34s} {m['value']:14.6g} {m['unit']}")
        for key in ("heuristic_outage_pct", "heuristic_feasible_pct"):
            if key in detail:
                print(f"  {key:34s} {detail[key]:14.6g} %")
        for key, unit in (("wall_trials_per_s", "1/s"), ("wall_trial_s.p50", "s"), ("calibration_s.p50", "s")):
            print(f"  {key:34s} {detail[key]:14.6g} {unit}")
        print(f"  {'trial_ref_s.tail percentile':34s} {detail['trial_ref_s.tail_percentile']:14d} "
              f"(of {detail['trial_ref_s.samples']} samples)")
        print(f"  {'tracing overhead':34s} {overhead:14.6g} 1/ref_s")
    print("environment:", json.dumps(baseline["environment"]))
    with open(BASELINE, "w") as fh:
        json.dump(baseline, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(BASELINE, ROOT)}")
    return 0 if ok else 1


def write_reference() -> int:
    workloads = import_program()
    from rislink import harness

    base = checks.DEFAULT_SEED_BASE
    ilp, heur = workloads.IlpR14(base, 0, {}), workloads.HeuristicR14(base, 0, {})
    ilp.setup()
    heur.setup()
    pins = {"ilp": {}, "heuristic": {}}
    for j in range(ilp.SEEDS):
        trial = harness.run_trial(ilp.config, ilp.seed(j), ilp.METHODS, timeout=workloads.SOLVE_TIMEOUT_S)
        if checks.check_trial(trial, ilp.config.n_robots, ilp.config.n_slots):
            fail_early(f"seed {trial.seed} fails its checks; nothing written")
        for method, value in checks.trial_summary(trial, ilp.config.n_robots, ilp.config.n_slots).items():
            pins[method][str(trial.seed)] = value
    for j in range(heur.SEEDS):
        seed = str(heur.seed(j))
        outcome, _ = heur.pipeline(heur.config, heur.seed(j))
        value = outcome.schedule.outage_count() if outcome.feasible else None
        if seed in pins["heuristic"] and pins["heuristic"][seed] != value:
            fail_early(f"seed {seed}: heuristic differs between run_trial and the direct pipeline")
        pins["heuristic"][seed] = value
    with open(checks.REFERENCE_PATH, "w") as fh:
        json.dump({"seed_base": base, **pins}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {checks.REFERENCE_PATH}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0, help="orders each pass over the suite")
    parser.add_argument("--seed-base", type=int, default=checks.DEFAULT_SEED_BASE,
                        help="first seed of every suite; references are pinned for the default")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.all:
        return run_all()
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        parser.error("--workload, --all or --write-reference is required")
    workloads = import_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    return run_one(args, workloads)


if __name__ == "__main__":
    sys.exit(main())
