"""Allocation schedules, constraint validation, and outage metrics.

A schedule stores exactly one link per (robot, slot) on ``channel``'s link
axis: BS b is link b, surface i is link B + i, and -1 is an outage.
``validate`` re-derives every constraint family from the schedule and the
scenario tables, so it is an independent check on whatever produced the
schedule.  It works on whole (robot, slot) arrays: one mask per
violation family, and one ``channel.sinr_batch`` pass for the SINR of every
served link; it never consults the encoder in ``milp``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import channel
from .channel import BS

# Slack absorbing float noise between table construction and re-evaluation.
SINR_REL_TOL = 1e-9

__all__ = [
    "AllocationSchedule",
    "RisHistory",
    "Violation",
    "ValidationReport",
    "derive_history",
    "validate",
    "outage_percentage",
    "has_service_failure",
    "run_ends",
]


@dataclass
class AllocationSchedule:
    """Per-(robot, slot) link: BS b is link b, surface i is link B + i, -1 is an outage."""

    link: np.ndarray  # (R, N) int16

    @classmethod
    def all_outage(cls, n_robots: int, n_slots: int) -> "AllocationSchedule":
        return cls(np.full((n_robots, n_slots), -1, dtype=np.int16))

    @property
    def n_robots(self) -> int:
        return self.link.shape[0]

    @property
    def n_slots(self) -> int:
        return self.link.shape[1]

    def outage_count(self) -> int:
        return int((self.link == -1).sum())

    def __eq__(self, other):
        if not isinstance(other, AllocationSchedule):
            return NotImplemented
        return np.array_equal(self.link, other.link)


@dataclass
class RisHistory:
    """Derived usage history: Y (used within the last D slots) and C
    (surface busy reconfiguring)."""

    y: np.ndarray  # (I, R, N) bool
    c: np.ndarray  # (I, N) bool


def _on_surface(link: np.ndarray, n_bs: int, n_ris: int) -> np.ndarray:
    """(I, ...) mask of the places in ``link`` that each surface serves; links
    outside [n_bs, n_bs + n_ris) appear nowhere."""
    return link == (n_bs + np.arange(n_ris)).reshape((n_ris,) + (1,) * link.ndim)


def derive_history(schedule: AllocationSchedule, n_bs: int, n_ris: int, d_reconfig: int, u: int) -> RisHistory:
    """Recompute the minimal Y/C implied by a schedule.

    Y_{i,r,n} is set when robot r used surface i at least once in the window
    [n-D+1, n]; C_{i,n} when more than U distinct robots have Y set.  A link
    outside [-1, n_bs + n_ris) raises ``ValueError``.
    """
    if ((schedule.link < -1) | (schedule.link >= n_bs + n_ris)).any():
        raise ValueError(f"a link names no BS or surface: outside [-1, {n_bs + n_ris})")
    x = _on_surface(schedule.link, n_bs, n_ris)
    uses = np.concatenate([np.zeros(x.shape[:2] + (1,), dtype=int), np.cumsum(x, axis=2)], axis=2)
    lo = np.maximum(np.arange(schedule.n_slots) + 1 - d_reconfig, 0)
    y = uses[:, :, 1:] > uses[:, :, lo]
    return RisHistory(y=y, c=y.sum(axis=1) > u)


@dataclass(frozen=True)
class Violation:
    family: str
    where: tuple
    measured: float
    required: float
    message: str

    def render(self) -> str:
        return f"[{self.family}] at {self.where}: {self.message} (measured {self.measured:g}, required {self.required:g})"


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def families(self) -> set:
        return {v.family for v in self.violations}

    def render(self) -> str:
        if self.ok:
            return "schedule satisfies all constraints\n"
        lines = [f"{len(self.violations)} violation(s):"]
        lines += [" - " + v.render() for v in self.violations]
        return "\n".join(lines) + "\n"


def validate(scenario, tables, schedule: AllocationSchedule) -> ValidationReport:
    """Check a schedule against every constraint family of the problem.

    Each family is found with array masks over all slots at once.  The
    report lists, slot by slot, coverage violations by robot, then capacity
    and conflict violations by surface; after them every SINR violation
    (by slot, then robot), every readiness violation (by slot, surface,
    robot), and every outage-window violation (by robot, then slot).
    """
    cfg = scenario.config
    if schedule.link.shape != (cfg.n_robots, cfg.n_slots):
        raise ValueError("schedule shape disagrees with scenario")

    psi = scenario.psi
    u = tables.u_effective
    link = schedule.link.T  # (N, R)
    kind, index = channel.kind_index_of(link, cfg.n_bs)
    found = []  # (order key, violation) of the per-slot families

    # a served link must name an existing BS or surface that covers the robot
    served = link != -1
    exists = (link >= 0) & (link < cfg.n_bs + cfg.n_ris)
    ln, lr = np.nonzero(exists)
    covered = exists.copy()
    covered[ln, lr] = tables.covered[ln, lr, link[ln, lr]]
    for n, r in zip(*np.nonzero(served & ~covered)):
        idx = int(index[n, r])
        text = f"BS {idx} without line of sight" if kind[n, r] == BS else f"surface {idx} outside its coverage"
        found.append(((n, 0, r), Violation("coverage", (int(r), int(n)), idx, -1, f"robot {r} assigned to {text}")))

    # capacity and angular conflicts per surface
    on = _on_surface(link, cfg.n_bs, cfg.n_ris).transpose(1, 0, 2)  # (N, I, R)
    load = on.sum(axis=2)
    for n, i in zip(*np.nonzero(load > u)):
        found.append(((n, 1, i, 0), Violation(
            "capacity(12)", (int(i), int(n)), int(load[n, i]), u,
            f"surface {i} serves {load[n, i]} robots, capacity {u}")))
    clash = tables.conflicts & on[:, :, :, None] & on[:, :, None, :]
    for n, i, ra, rb in zip(*np.nonzero(clash)):
        found.append(((n, 1, i, 1, ra, rb), Violation(
            "conflict(11)", (int(i), int(n)), 2, 1,
            f"robots {ra} and {rb} share an arrival angle at surface {i}")))
    report = ValidationReport([v for _, v in sorted(found, key=lambda e: e[0])])

    # A link to a BS or surface that does not exist is reported above; the
    # SINR and readiness checks see it as an outage and never index with it.
    linked = AllocationSchedule(np.where(exists, link, -1).T)

    # SINR of every served link, re-evaluated through the channel model
    value = channel.sinr_batch(tables, linked.link)
    weak = value < psi[:, None] * (1.0 - SINR_REL_TOL)
    for n, r in zip(*np.nonzero(weak.T)):
        family = "sinr_bs(13)" if kind[n, r] == BS else "sinr_ris(14)"
        report.violations.append(Violation(
            family, (int(r), int(n)), float(value[r, n]), float(psi[r]),
            f"robot {r} served below its SINR threshold in slot {n}"))

    # surface readiness: a served robot requires its surface not busy
    hist = derive_history(linked, cfg.n_bs, cfg.n_ris, cfg.d_reconfig, u)
    busy = hist.c.T[:, :, None] & on                                     # (N, I, R)
    for n, i, r in zip(*np.nonzero(busy)):
        report.violations.append(Violation(
            "ris_ready(16,19)", (int(i), int(r), int(n)), 1, 0,
            f"robot {r} served by surface {i} while it is reconfiguring"))

    # outage windows: fewer than K_r outages in every K_r-slot window, so
    # no run of K_r outages
    k = np.asarray(scenario.k_out, dtype=int)
    for r, n in zip(*np.nonzero(run_ends(schedule.link == -1, k))):
        report.violations.append(Violation(
            "outage_window(17)", (int(r), int(n)), int(k[r]), int(k[r]) - 1,
            f"robot {r} reaches {k[r]} outages in its {k[r]}-slot window ending at {n}"))
    return report


def outage_percentage(schedule: AllocationSchedule) -> float:
    """Outage slots as a percentage of all (robot, slot) opportunities."""
    cells = schedule.n_robots * schedule.n_slots
    if cells == 0:
        raise ValueError("outage percentage undefined for an empty schedule")
    return 100.0 * schedule.outage_count() / cells


def has_service_failure(schedule: AllocationSchedule, k_out) -> tuple[bool, tuple | None]:
    """Does any robot accumulate K_r consecutive outages?

    Returns (flag, (r, n)) where n is the slot at which robot r's outage run
    first reaches its budget, for the lowest such robot r.
    """
    hit = np.argwhere(run_ends(schedule.link == -1, k_out))
    if not len(hit):
        return False, None
    return True, tuple(hit[0].tolist())


def run_ends(flags: np.ndarray, k) -> np.ndarray:
    """(R, N) mask of the slots n that end a run of at least k[r] set flags
    of robot r: its flags are set in every slot n-k[r]+1 .. n >= 0."""
    slots = np.arange(flags.shape[1])
    last_clear = np.maximum.accumulate(np.where(flags, -1, slots), axis=1)
    return slots - last_clear >= np.asarray(k, dtype=int)[:, None]
