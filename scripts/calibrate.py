"""Scan candidate experiment floors against the acceptance-suite bands.

Each candidate is ``rislink.scenario.EXPERIMENT_CONFIG`` (Table II on the
calibrated floor) with its floor fields replaced.  On seeds disjoint from the
acceptance suite's (those start at 1000) the script reports, per candidate:

* without solving, at R=8 and R=14: the share of scenarios holding a
  blackout (some robot has no live link, one that is covered and whose
  signal alone meets its threshold, for K_r slots in a row; this is
  ``rislink.milp.dark_run``, so no schedule exists at any U), at the base
  ``k_range`` and at the shortest budgets of the outage-budget sweep,
  K=(4, 5), and the share of robot-slots with no BS in sight;
* with ``--solve``, the band metrics at the acceptance points: ILP, heuristic
  and no-RIS feasibility and mean outage at R=8 and R=14 with U=2, ILP
  feasibility at R=14 with U=3, the timeout count and the slowest solve.
  The acceptance bands are no-RIS outage in [40, 70], ILP feasibility at
  R=14 >= 90 (U=2) and >= 95 (U=3), heuristic feasibility at R=14 <= 80.

Usage:
    python scripts/calibrate.py                        # blackout scan, all candidates
    python scripts/calibrate.py --solve chosen dense64  # band metrics too
    python scripts/calibrate.py --seeds 40 --seed0 0 --timeout 120 --workers 2
"""

import argparse
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np

from rislink import harness, milp
from rislink.scenario import EXPERIMENT_CONFIG, ScenarioConfig, generate, precompute

FLOOR_FIELDS = ("bs_positions", "n_obstacles", "obstacle_size", "robot_step",
                "ris_fov_half_angle", "bs_clearance", "wall_clearance")
DEFAULT_FLOOR = {f: getattr(ScenarioConfig(), f) for f in FLOOR_FIELDS}
# wide: default machines, 90 degree surface view, longer steps; dense: many
# small machines around the central mast pair; corner and mid: the masts
# moved into the machine-free band along the walls
WIDE = dict(DEFAULT_FLOOR, ris_fov_half_angle=math.radians(90.0), robot_step=2.0)
DENSE = dict(DEFAULT_FLOOR, obstacle_size=(0.8, 1.4), robot_step=2.2,
             ris_fov_half_angle=math.radians(90.0), bs_clearance=3.0, wall_clearance=2.0)
MID = dict(DENSE, bs_positions=((20.0, 2.0), (20.0, 38.0)), wall_clearance=4.0)

SHORT_K = (4, 5)  # the shortest budgets of the acceptance suite's outage-budget sweep

CANDIDATES = {
    "chosen": {},  # EXPERIMENT_CONFIG itself: mid84-s2.6
    "default": DEFAULT_FLOOR,
    "wide": WIDE,
    "dense56": dict(DENSE, n_obstacles=56),
    "dense64": dict(DENSE, n_obstacles=64),
    "dense72": dict(DENSE, n_obstacles=72),
    "dense64-wc4": dict(DENSE, n_obstacles=64, wall_clearance=4.0),
    "corner80": dict(DENSE, n_obstacles=80, wall_clearance=3.0,
                     bs_positions=((1.5, 1.5), (38.5, 38.5))),
    "mid80": dict(MID, n_obstacles=80),
    "mid80-s2.6": dict(MID, n_obstacles=80, robot_step=2.6),
    "mid88-s2.6": dict(MID, n_obstacles=88, robot_step=2.6),
}


def blackout_probe(args):
    """(blackout at the base budgets, blackout at K=(4, 5), % robot-slots with no BS in sight)."""
    cfg, seed = args
    scenario = generate(cfg, seed)
    tables = precompute(scenario)
    # generate draws the budgets last, so the short-budget scenario differs in them alone
    short = generate(replace(cfg, k_range=SHORT_K), seed).k_out
    bs = tables.covered[:, :, :cfg.n_bs].any(axis=2)     # (slot, robot)
    return (milp.dark_run(tables.live, scenario.k_out) is not None,
            milp.dark_run(tables.live, short) is not None, 100.0 * (1.0 - bs.mean()))


def band(ok: bool) -> str:
    return "" if ok else " (MISS)"


def method_cells(table, label, seeds, methods) -> list:
    cells = []
    for m in methods:
        mrs = [table.trials[(label, s)].methods[m] for s in seeds]
        feas = 100.0 * sum(x.feasible for x in mrs) / len(mrs)
        outs = [x.outage_pct for x in mrs if x.feasible]
        mean = float(np.mean(outs)) if outs else float("nan")
        cells.append((m, feas, mean, sum(x.timed_out for x in mrs),
                      max(x.runtime_s for x in mrs)))
    return cells


def solve_scan(cfg, args) -> None:
    seeds = [args.seed0 + t for t in range(args.seeds)]
    common = dict(trials=args.seeds, seed0=args.seed0, timeout=args.timeout, workers=args.workers)
    robots = harness.run_sweep(harness.SweepSpec(
        base=cfg, axis="robots", values=[8, 14], methods=harness.KNOWN_METHODS, **common))
    u3 = harness.run_sweep(harness.SweepSpec(
        base=replace(cfg, n_robots=14), axis="capacity", values=[3], methods=("ilp",), **common))
    slowest = tmo = 0
    for n_robots in (8, 14):
        cells = method_cells(robots, float(n_robots), seeds, harness.KNOWN_METHODS)
        line = []
        for m, feas, mean, t, s in cells:
            mark = ""
            if m == "no-ris":
                mark = band(40.0 <= mean <= 70.0)
            elif n_robots == 14:
                mark = band(feas >= 90.0 if m == "ilp" else feas <= 80.0)
            line.append(f"{m} feas {feas:.0f}% out {mean:.1f}%{mark}")
            if m != "heuristic":
                slowest, tmo = max(slowest, s), tmo + t
        print(f"  R={n_robots:<2} U=2: " + " | ".join(line), flush=True)
    (_, feas, mean, t, s), = method_cells(u3, 3.0, seeds, ("ilp",))
    slowest, tmo = max(slowest, s), tmo + t
    print(f"  R=14 U=3: ilp feas {feas:.0f}%{band(feas >= 95.0)} out {mean:.1f}% | "
          f"timeouts {tmo} | slowest solve {slowest:.1f}s", flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("candidates", nargs="*", help=f"any of {', '.join(CANDIDATES)} (default: all)")
    ap.add_argument("--seeds", type=int, default=40)
    ap.add_argument("--seed0", type=int, default=0)
    ap.add_argument("--timeout", type=float, default=120.0)
    ap.add_argument("--workers", type=int, default=2)
    ap.add_argument("--solve", action="store_true", help="also solve at the acceptance points")
    args = ap.parse_args()
    unknown = set(args.candidates) - set(CANDIDATES)
    if unknown:
        ap.error(f"unknown candidate(s): {', '.join(sorted(unknown))}")
    if args.seed0 + args.seeds > 1000:
        ap.error("calibration seeds must stay below the acceptance seeds (1000+)")

    for name in args.candidates or CANDIDATES:
        cfg = replace(EXPERIMENT_CONFIG, **CANDIDATES[name])
        print(f"{name}:", flush=True)
        for n_robots in (8, 14):
            jobs = [(replace(cfg, n_robots=n_robots), args.seed0 + t) for t in range(args.seeds)]
            with ProcessPoolExecutor(max_workers=harness.pool_size(args.workers, len(jobs))) as pool:
                res = list(pool.map(blackout_probe, jobs))
            dark, short, blocked = (float(np.mean(col)) for col in zip(*res))
            print(f"  R={n_robots:<2} blackout {100 * dark:.0f}% of scenarios, "
                  f"{100 * short:.0f}% at K={SHORT_K[0]}-{SHORT_K[1]} | "
                  f"BS blocked {blocked:.1f}% of robot-slots", flush=True)
        if args.solve:
            solve_scan(cfg, args)


if __name__ == "__main__":
    main()
