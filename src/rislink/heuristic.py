"""Shortest-distance baseline with random conflict and capacity resolution.

Slot by slot, every robot proposes its nearest covered BS or surface; ties
go to the BS, then to the lowest index.  Conflicted proposals at one surface
keep a random survivor, overfull surfaces keep a random subset of U, robots
proposing a surface that would be mid-reconfiguration are dropped, and one
simultaneous SINR pass drops every violator at once.  Outage windows are not
planned for at all; a service failure is only detected afterwards, which is
exactly why this baseline is fragile.

The proposals of every slot come from one (N, R, L) distance array, and each
slot then runs on (R,) link arrays.  ``random.Random(seed)`` is drawn from
in a fixed order: per slot, once per conflicted pair whose robots both still
propose the surface, visiting pairs by (surface, ra, rb), then once per
overfull surface, by surface, sampling from its robots in index order.  The
SINR pass is one ``channel.sinr_batch`` call per slot.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from . import channel
from .allocation import AllocationSchedule, has_service_failure
from .channel import BS, OUTAGE, RIS

__all__ = ["HeuristicOutcome", "allocate", "link_distances"]


@dataclass
class HeuristicOutcome:
    schedule: AllocationSchedule
    feasible: bool
    failure_at: tuple | None  # first (robot, slot) hitting its outage budget


def link_distances(scenario, coverage) -> np.ndarray:
    """(N, R, L) distance from each robot to each link source it is covered
    by, inf elsewhere; the L columns are the BSs, then the surfaces.

    Every entry equals ``Point2D.distance_to`` between the same two points
    bit for bit (``math.hypot``; ``np.hypot`` differs in the last bit).
    """
    sources = [(p.x, p.y) for p in scenario.bs_positions]
    sources += [(m.position.x, m.position.y) for m in scenario.ris_mounts]
    sources = np.array(sources, dtype=float).reshape(-1, 2)
    covered = np.concatenate([coverage.bs_robot, coverage.ris_robot], axis=1).transpose(0, 2, 1)
    n, r, link = np.nonzero(covered)
    delta = sources[link] - scenario.trajectories[r, n]
    dist = np.full(covered.shape, np.inf)
    dist[n, r, link] = list(map(math.hypot, delta[:, 0].tolist(), delta[:, 1].tolist()))
    return dist


def allocate(tables, scenario, seed: int = 0) -> HeuristicOutcome:
    """Run the baseline on precomputed tables; pure in (tables, scenario, seed)."""
    cfg = scenario.config
    rng = random.Random(seed)
    n_r, n_n, n_b, n_i = cfg.n_robots, cfg.n_slots, cfg.n_bs, cfg.n_ris
    u = tables.u_effective
    psi = tables.psi_linear
    surfaces = np.arange(n_i)[:, None]

    # nearest covered link of every robot in every slot; argmin keeps the
    # first minimum, so ties go to the BS, then to the lowest index
    dist = link_distances(scenario, tables.coverage)
    link = dist.argmin(axis=2) if n_b + n_i else np.zeros((n_n, n_r), dtype=int)
    want_kind = np.where(np.isfinite(dist).any(axis=2), np.where(link < n_b, BS, RIS), OUTAGE).astype(np.int8)
    want_index = np.where(link < n_b, link, link - n_b).astype(np.int16)
    # conflicted pairs whose robots both propose the surface, by (n, i, ra, rb)
    wants = (want_kind == RIS)[:, None, :] & (want_index[:, None, :] == surfaces)  # (N, I, R)
    clashes = np.argwhere(tables.conflicts & wants[:, :, :, None] & wants[:, :, None, :]).tolist()
    clash_at = 0

    schedule = AllocationSchedule.all_outage(n_r, n_n)
    used = np.zeros((n_n, n_i, n_r), dtype=bool)  # robots each surface served, per slot

    for n in range(n_n):
        kind, index = want_kind[n].copy(), want_index[n]

        # conflicts: keep one robot per clashing pair, uniformly at random
        while clash_at < len(clashes) and clashes[clash_at][0] == n:
            _, i, ra, rb = clashes[clash_at]
            clash_at += 1
            if kind[ra] == RIS and kind[rb] == RIS:
                kind[rng.choice([ra, rb])] = OUTAGE

        # capacity: keep at most U robots per surface
        on = wants[n] & (kind == RIS)                                  # (I, R)
        for i in np.flatnonzero(on.sum(axis=1) > u).tolist():
            takers = np.flatnonzero(on[i]).tolist()
            dropped = list(set(takers) - set(rng.sample(takers, u)))
            kind[dropped], on[i, dropped] = OUTAGE, False

        # readiness: a surface whose D-window would exceed U distinct robots
        # is reconfiguring and serves nobody this slot
        recent = used[max(n - cfg.d_reconfig + 1, 0):n].any(axis=0)
        kind[on[(on | recent).sum(axis=1) > u].any(axis=0)] = OUTAGE

        # one simultaneous SINR pass drops every violator at once
        kind[channel.sinr_batch(tables.tables, kind, index, n) < psi] = OUTAGE
        schedule.kind[:, n] = kind
        schedule.index[:, n] = np.where(kind == OUTAGE, -1, index)
        used[n] = wants[n] & (kind == RIS)

    failed, where = has_service_failure(schedule, scenario.k_out)
    return HeuristicOutcome(schedule=schedule, feasible=not failed, failure_at=where)
