"""Shortest-distance baseline with random conflict and capacity resolution.

Slot by slot, every robot proposes its nearest covered BS or surface; ties
go to the BS, then to the lowest index.  Conflicted proposals at one surface
keep a random survivor, overfull surfaces keep a random subset of U, robots
proposing a surface that would be mid-reconfiguration are dropped, and one
simultaneous SINR pass drops every violator at once.  Outage windows are not
planned for at all; a service failure is only detected afterwards, which is
exactly why this baseline is fragile.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from . import channel
from .allocation import AllocationSchedule, has_service_failure

__all__ = ["HeuristicOutcome", "allocate"]


@dataclass
class HeuristicOutcome:
    schedule: AllocationSchedule
    feasible: bool
    failure_at: tuple | None  # first (robot, slot) hitting its outage budget


def allocate(tables, scenario, seed: int = 0) -> HeuristicOutcome:
    """Run the baseline on precomputed tables; pure in (tables, scenario, seed)."""
    cfg = scenario.config
    rng = random.Random(seed)
    n_r, n_n, n_i = cfg.n_robots, cfg.n_slots, cfg.n_ris
    u = tables.u_effective
    psi = tables.psi_linear
    cov = tables.coverage
    lt = tables.tables

    schedule = AllocationSchedule.all_outage(n_r, n_n)
    # surface usage of the last D-1 slots, one set of robots per surface
    history: list = []

    for n in range(n_n):
        proposals = {}
        sees_bs, sees_ris = cov.bs_robot[n].T.tolist(), cov.ris_robot[n].T.tolist()
        for r in range(n_r):
            pos = scenario.robot_position(r, n)
            candidates = [(scenario.bs_positions[b].distance_to(pos), 0, b, "bs")
                          for b, seen in enumerate(sees_bs[r]) if seen]
            candidates += [(scenario.ris_mounts[i].position.distance_to(pos), 1, i, "ris")
                           for i, seen in enumerate(sees_ris[r]) if seen]
            if candidates:
                dist, _, idx, kind = min(candidates)
                proposals[r] = (kind, idx)

        # conflicts: keep one robot per clashing pair, uniformly at random,
        # visiting pairs by surface, then (ra, rb)
        for i, ra, rb in np.argwhere(tables.conflicts[n]).tolist():
            if proposals.get(ra) == ("ris", i) and proposals.get(rb) == ("ris", i):
                loser = rng.choice([ra, rb])
                del proposals[loser]

        # capacity: keep at most U robots per surface
        for i in range(n_i):
            takers = sorted(r for r, a in proposals.items() if a == ("ris", i))
            if len(takers) > u:
                keep = set(rng.sample(takers, u))
                for r in takers:
                    if r not in keep:
                        del proposals[r]

        # readiness: a surface whose D-window would exceed U distinct robots
        # is reconfiguring and serves nobody this slot
        for i in range(n_i):
            takers = [r for r, a in proposals.items() if a == ("ris", i)]
            if not takers:
                continue
            distinct = set(takers)
            for past in history:
                distinct |= past[i]
            if len(distinct) > u:
                for r in takers:
                    del proposals[r]

        # one simultaneous SINR pass drops every violator at once
        for r, (kind, idx) in proposals.items():
            if kind == "bs":
                schedule.assign_bs(r, n, idx)
            else:
                schedule.assign_ris(r, n, idx)
        violators = [r for r in proposals if channel.sinr(lt, schedule, r, n) < psi[r]]
        for r in violators:
            schedule.assign_outage(r, n)
            del proposals[r]

        used = [set(r for r, a in proposals.items() if a == ("ris", i)) for i in range(n_i)]
        history.append(used)
        if len(history) >= cfg.d_reconfig:
            history.pop(0)

    failed, where = has_service_failure(schedule, scenario.k_out)
    return HeuristicOutcome(schedule=schedule, feasible=not failed, failure_at=where)
