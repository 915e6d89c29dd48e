"""Shortest-distance baseline with random conflict and capacity resolution.

Slot by slot, every robot proposes its nearest covered BS or surface; ties
go to the BS, then to the lowest index.  Conflicted proposals at one surface
keep a random survivor, overfull surfaces keep a random subset of U, robots
proposing a surface that would be mid-reconfiguration are dropped, and one
simultaneous SINR pass drops every violator at once.  Outage windows are not
planned for at all; a service failure is only detected afterwards, which is
exactly why this baseline is fragile.

The proposals of every slot come from ``precompute``'s (N, R, L) distance
array, kept where the link covers the robot, and each slot then runs on an
(R,) array of links on ``channel``'s axis, -1 where a robot is dropped to
outage.  ``random.Random(seed)`` is drawn from in a fixed order: per slot,
once per conflicted pair whose robots both still propose the surface,
visiting pairs by (surface, ra, rb), then once per overfull surface, by
surface, sampling from its robots in index order.  The SINR pass is one
``channel.sinr_batch`` call per slot.
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
    n_r, n_n, n_b, n_i = cfg.n_robots, cfg.n_slots, cfg.n_bs, cfg.n_ris
    u = tables.u_effective
    psi = scenario.psi

    # nearest covered link of every robot in every slot; argmin keeps the
    # first minimum, so ties go to the BS, then to the lowest index
    dist = np.where(tables.covered, tables.distance, np.inf)
    nearest = dist.argmin(axis=2) if n_b + n_i else np.zeros((n_n, n_r), dtype=int)
    want = np.where(np.isfinite(dist).any(axis=2), nearest, -1).astype(np.int16)
    # conflicted pairs whose robots both propose the surface, by (n, i, ra, rb)
    wants = want[:, None, :] == n_b + np.arange(n_i)[:, None]                  # (N, I, R)
    clashes = np.argwhere(tables.conflicts & wants[:, :, :, None] & wants[:, :, None, :]).tolist()
    clash_at = 0

    schedule = AllocationSchedule.all_outage(n_r, n_n)
    used = np.zeros((n_n, n_i, n_r), dtype=bool)  # robots each surface served, per slot

    for n in range(n_n):
        link = want[n].copy()

        # conflicts: keep one robot per clashing pair, uniformly at random
        while clash_at < len(clashes) and clashes[clash_at][0] == n:
            _, i, ra, rb = clashes[clash_at]
            clash_at += 1
            if link[ra] != -1 and link[rb] != -1:
                link[rng.choice([ra, rb])] = -1

        # capacity: keep at most U robots per surface
        on = wants[n] & (link != -1)                                   # (I, R)
        for i in np.flatnonzero(on.sum(axis=1) > u).tolist():
            takers = np.flatnonzero(on[i]).tolist()
            dropped = list(set(takers) - set(rng.sample(takers, u)))
            link[dropped], on[i, dropped] = -1, False

        # readiness: a surface whose D-window would exceed U distinct robots
        # is reconfiguring and serves nobody this slot
        recent = used[max(n - cfg.d_reconfig + 1, 0):n].any(axis=0)
        link[on[(on | recent).sum(axis=1) > u].any(axis=0)] = -1

        # one simultaneous SINR pass drops every violator at once
        link[channel.sinr_batch(tables, link, n) < psi] = -1
        schedule.link[:, n] = link
        used[n] = wants[n] & (link != -1)

    failed, where = has_service_failure(schedule, scenario.k_out)
    return HeuristicOutcome(schedule=schedule, feasible=not failed, failure_at=where)
