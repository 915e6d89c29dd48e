"""Allocation schedules, constraint validation, and outage metrics.

A schedule stores exactly one state per (robot, slot): a BS link, a relayed
link, or an outage.  ``validate`` re-derives every constraint family from the
schedule and the scenario tables, so it is an independent check on whatever
produced the schedule.  It works on whole (robot, slot) arrays: one mask per
violation family, and one ``channel.sinr_batch`` pass for the SINR of every
served link; it never consults the encoder in ``milp``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import channel
from .channel import BS, OUTAGE, RIS

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
    """Per-(robot, slot) assignment; ``kind`` in {OUTAGE, BS, RIS}."""

    kind: np.ndarray   # (R, N) int8
    index: np.ndarray  # (R, N) int16, -1 where outage

    @classmethod
    def all_outage(cls, n_robots: int, n_slots: int) -> "AllocationSchedule":
        return cls(
            kind=np.zeros((n_robots, n_slots), dtype=np.int8),
            index=np.full((n_robots, n_slots), -1, dtype=np.int16),
        )

    @property
    def n_robots(self) -> int:
        return self.kind.shape[0]

    @property
    def n_slots(self) -> int:
        return self.kind.shape[1]

    def assign_bs(self, r: int, n: int, b: int) -> None:
        self.kind[r, n] = BS
        self.index[r, n] = b

    def assign_ris(self, r: int, n: int, i: int) -> None:
        self.kind[r, n] = RIS
        self.index[r, n] = i

    def assign_outage(self, r: int, n: int) -> None:
        self.kind[r, n] = OUTAGE
        self.index[r, n] = -1

    def assignment(self, r: int, n: int):
        """("bs", b), ("ris", i), or (None, None)."""
        k = self.kind[r, n]
        if k == BS:
            return "bs", int(self.index[r, n])
        if k == RIS:
            return "ris", int(self.index[r, n])
        return None, None

    def outage_matrix(self) -> np.ndarray:
        return (self.kind == OUTAGE).astype(int)

    def outage_count(self) -> int:
        return int((self.kind == OUTAGE).sum())

    def copy(self) -> "AllocationSchedule":
        return AllocationSchedule(self.kind.copy(), self.index.copy())

    def __eq__(self, other):
        if not isinstance(other, AllocationSchedule):
            return NotImplemented
        return np.array_equal(self.kind, other.kind) and np.array_equal(self.index, other.index)


@dataclass
class RisHistory:
    """Derived usage history: Y (used within the last D slots) and C
    (surface busy reconfiguring)."""

    y: np.ndarray  # (I, R, N) bool
    c: np.ndarray  # (I, N) bool


def _on_surface(schedule: AllocationSchedule, n_ris: int) -> np.ndarray:
    """(I, R, N) mask of the robots each surface serves; links to surfaces
    outside [0, n_ris) appear nowhere."""
    return (schedule.kind == RIS)[None] & (schedule.index[None] == np.arange(n_ris)[:, None, None])


def derive_history(schedule: AllocationSchedule, n_ris: int, d_reconfig: int, u: int) -> RisHistory:
    """Recompute the minimal Y/C implied by a schedule.

    Y_{i,r,n} is set when robot r used surface i at least once in the window
    [n-D+1, n]; C_{i,n} when more than U distinct robots have Y set.  A
    relayed link through a surface outside [0, n_ris) raises ``ValueError``.
    """
    relayed = schedule.index[schedule.kind == RIS]
    if ((relayed < 0) | (relayed >= n_ris)).any():
        raise ValueError(f"a relayed link names a surface outside [0, {n_ris})")
    x = _on_surface(schedule, n_ris)
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
    n_robots, n_slots = cfg.n_robots, cfg.n_slots
    if schedule.kind.shape != (n_robots, n_slots):
        raise ValueError("schedule shape disagrees with scenario")
    if not np.isin(schedule.kind, (OUTAGE, BS, RIS)).all():
        raise ValueError("schedule kinds must be OUTAGE, BS or RIS")

    psi = tables.psi_linear
    u = tables.u_effective
    kind, index = schedule.kind.T, schedule.index.T  # (N, R)
    found = []  # (order key, violation) of the per-slot families

    # a served link must name an existing BS or surface that covers the robot
    served = kind != OUTAGE
    exists = served & (index >= 0) & (index < np.where(kind == BS, cfg.n_bs, cfg.n_ris))
    ln, lr = np.nonzero(exists)
    covered = exists.copy()
    covered[ln, lr] = tables.coverage.covered[ln, lr, channel.link_of(kind[ln, lr], index[ln, lr], cfg.n_bs)]
    for n, r in zip(*np.nonzero(served & ~covered)):
        idx = int(index[n, r])
        text = f"BS {idx} without line of sight" if kind[n, r] == BS else f"surface {idx} outside its coverage"
        found.append(((n, 0, r), Violation("coverage", (int(r), int(n)), idx, -1, f"robot {r} assigned to {text}")))

    # capacity and angular conflicts per surface
    on = _on_surface(schedule, cfg.n_ris).transpose(2, 0, 1)  # (N, I, R)
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
    linked = schedule.copy()
    stray = (served & ~exists).T
    linked.kind[stray], linked.index[stray] = OUTAGE, -1

    # SINR of every served link, re-evaluated through the channel model
    value = channel.sinr_batch(tables.tables, linked.kind, linked.index)
    weak = value < psi[:, None] * (1.0 - SINR_REL_TOL)
    for n, r in zip(*np.nonzero(weak.T)):
        family = "sinr_bs(13)" if linked.kind[r, n] == BS else "sinr_ris(14)"
        report.violations.append(Violation(
            family, (int(r), int(n)), float(value[r, n]), float(psi[r]),
            f"robot {r} served below its SINR threshold in slot {n}"))

    # surface readiness: a served robot requires its surface not busy
    hist = derive_history(linked, cfg.n_ris, cfg.d_reconfig, u)
    busy = (hist.c[:, None, :] & _on_surface(linked, cfg.n_ris)).transpose(2, 0, 1)  # (N, I, R)
    for n, i, r in zip(*np.nonzero(busy)):
        report.violations.append(Violation(
            "ris_ready(16,19)", (int(i), int(r), int(n)), 1, 0,
            f"robot {r} served by surface {i} while it is reconfiguring"))

    # outage windows: fewer than K_r outages in every K_r-slot window, so
    # no run of K_r outages
    k = np.asarray(scenario.k_out, dtype=int)
    for r, n in zip(*np.nonzero(run_ends(schedule.kind == OUTAGE, k))):
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
    hit = np.argwhere(run_ends(schedule.kind == OUTAGE, k_out))
    if not len(hit):
        return False, None
    return True, tuple(hit[0].tolist())


def run_ends(flags: np.ndarray, k) -> np.ndarray:
    """(R, N) mask of the slots n that end a run of at least k[r] set flags
    of robot r: its flags are set in every slot n-k[r]+1 .. n >= 0."""
    slots = np.arange(flags.shape[1])
    last_clear = np.maximum.accumulate(np.where(flags, -1, slots), axis=1)
    return slots - last_clear >= np.asarray(k, dtype=int)[:, None]
