"""Command-line entry points: generate, solve, heuristic, sweep, export-model."""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

from . import allocation, channel, harness, heuristic, lpio, milp, scenario as scen, solvers

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_TIMEOUT = 3


class UsageError(Exception):
    """A malformed command line; reported like every other error (exit 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage().rstrip()}")


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--robots", type=int, help="number of robots")
    p.add_argument("--slots", type=int, help="number of time slots")
    p.add_argument("--bs", type=int, help="number of base stations")
    p.add_argument("--ris", type=int, help="number of reflecting surfaces")
    p.add_argument("--floor", type=float, nargs=2, metavar=("W", "H"), help="floor size in meters")
    p.add_argument("--obstacles", type=int, help="number of obstacles")
    p.add_argument("--obstacle-size", type=float, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--psi", type=float, nargs=2, metavar=("LO", "HI"), help="SINR threshold range")
    p.add_argument("--k-window", type=int, nargs=2, metavar=("LO", "HI"), help="outage budget range")
    p.add_argument("--d-reconfig", type=int, help="surface reconfiguration delay, slots")
    p.add_argument("--capacity", type=int, help="override concurrent robots per surface")


# config flag (argparse dest) -> ScenarioConfig field; --floor sets two fields
_CONFIG_FLAGS = {
    "robots": "n_robots", "slots": "n_slots", "bs": "n_bs", "ris": "n_ris",
    "obstacles": "n_obstacles", "obstacle_size": "obstacle_size", "psi": "psi_range",
    "k_window": "k_range", "d_reconfig": "d_reconfig", "capacity": "u_override",
}


def _config_from_args(args) -> scen.ScenarioConfig:
    overrides = {name: tuple(value) if isinstance(value, list) else value
                 for flag, name in _CONFIG_FLAGS.items() if (value := getattr(args, flag)) is not None}
    if args.floor is not None:
        overrides["floor_width"], overrides["floor_height"] = args.floor
    return scen.ScenarioConfig(**overrides)


def _seconds(value: str) -> float:
    seconds = float(value)
    if not (math.isfinite(seconds) and seconds > 0):
        raise argparse.ArgumentTypeError(f"must be a positive, finite number of seconds, got {value!r}")
    return seconds


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _load_scenario(path: str) -> scen.Scenario:
    with open(path) as fh:
        return scen.deserialize(fh.read())


# how the schedule JSON names each link kind
_KIND_NAMES = {channel.OUTAGE: None, channel.BS: "bs", channel.RIS: "ris"}


def _schedule_json(schedule, n_bs, objective) -> str:
    """The objective, the outage percentage, and per robot and slot ["bs", b],
    ["ris", i] or [null, null]."""
    kind, index = channel.kind_index_of(schedule.link, n_bs)
    doc = {
        "objective": objective,
        "outage_pct": allocation.outage_percentage(schedule) if schedule.n_robots else 0.0,
        "assignments": [
            [[_KIND_NAMES[k], None if k == channel.OUTAGE else i] for k, i in zip(kinds, indices)]
            for kinds, indices in zip(kind.tolist(), index.tolist())
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def cmd_generate(args) -> int:
    config = _config_from_args(args)
    scenario = scen.generate(config, args.seed)
    _write_output(scen.serialize(scenario), args.output)
    return EXIT_OK


def cmd_solve(args) -> int:
    scenario = _load_scenario(args.scenario)
    tables = scen.precompute(scenario)
    run = milp.dark_run(tables.live, scenario.k_out)
    if run is not None:
        print("infeasible: robot {} has no live link in slots {}-{}".format(*run), file=sys.stderr)
        return EXIT_INFEASIBLE
    model = milp.build_model(tables, scenario)
    result = solvers.solve(model, time_budget=args.timeout)
    if result.status == "infeasible":
        print("infeasible: no schedule satisfies the outage windows", file=sys.stderr)
        return EXIT_INFEASIBLE
    if result.status == "timeout":
        if result.incumbent_objective is not None:
            print(f"timeout: best incumbent objective {result.incumbent_objective:g}", file=sys.stderr)
        else:
            print("timeout: no incumbent found", file=sys.stderr)
        return EXIT_TIMEOUT
    schedule = milp.extract_schedule(model, result.values)
    report = allocation.validate(scenario, tables, schedule)
    _write_output(_schedule_json(schedule, scenario.config.n_bs, result.objective), args.output)
    sys.stderr.write(report.render())
    return EXIT_OK if report.ok else EXIT_ERROR


def cmd_heuristic(args) -> int:
    scenario = _load_scenario(args.scenario)
    tables = scen.precompute(scenario)
    outcome = heuristic.allocate(tables, scenario, seed=args.seed)
    objective = float(outcome.schedule.outage_count())
    _write_output(_schedule_json(outcome.schedule, scenario.config.n_bs, objective), args.output)
    if outcome.feasible:
        sys.stderr.write("feasible: no service failure\n")
    else:
        r, n = outcome.failure_at
        sys.stderr.write(f"service failure: robot {r} exhausts its outage budget at slot {n}\n")
    return EXIT_OK


def cmd_sweep(args) -> int:
    with open(args.spec) as fh:
        spec = harness.load_sweep_spec(fh.read())
    if args.workers is not None:
        spec = replace(spec, workers=args.workers)
    table = harness.run_sweep(spec)
    _write_output(harness.sweep_to_csv(table), args.output)
    return EXIT_OK


def cmd_export_model(args) -> int:
    scenario = _load_scenario(args.scenario)
    tables = scen.precompute(scenario)
    model = milp.build_model(tables, scenario)
    _write_output(lpio.export_model(model, args.format), args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rislink",
        description="Outage-minimal BS/RIS allocation: scenario generator, solvers, and sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a random scenario file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", "-o", default="-")
    _add_config_flags(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", help="solve a scenario to optimality")
    p.add_argument("scenario")
    p.add_argument("--timeout", type=_seconds, default=600.0)
    p.add_argument("--output", "-o", default="-")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("heuristic", help="run the shortest-distance baseline")
    p.add_argument("scenario")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", "-o", default="-")
    p.set_defaults(func=cmd_heuristic)

    p = sub.add_parser("sweep", help="run a parameter sweep from a spec file")
    p.add_argument("spec")
    p.add_argument("--output", "-o", default="-")
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("export-model", help="write the model in LP or MPS form")
    p.add_argument("scenario")
    p.add_argument("--format", choices=("lp", "mps"), default="lp")
    p.add_argument("--output", "-o", default="-")
    p.set_defaults(func=cmd_export_model)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (UsageError, scen.ScenarioFormatError, scen.GenerationError, solvers.BackendError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
