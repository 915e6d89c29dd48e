"""Allocation schedules, constraint validation, and outage metrics.

A schedule stores exactly one state per (robot, slot): a BS link, a relayed
link, or an outage.  ``validate`` re-derives every constraint family from the
schedule and the scenario tables, so it is an independent check on whatever
produced the schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import channel

OUTAGE, BS, RIS = 0, 1, 2

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

    def is_outage(self, r: int, n: int) -> bool:
        return self.kind[r, n] == OUTAGE

    def outage_matrix(self) -> np.ndarray:
        return (self.kind == OUTAGE).astype(int)

    def outage_count(self) -> int:
        return int((self.kind == OUTAGE).sum())

    def robots_on_ris(self, i: int, n: int) -> list:
        return [r for r in range(self.n_robots) if self.kind[r, n] == RIS and self.index[r, n] == i]

    def copy(self) -> "AllocationSchedule":
        return AllocationSchedule(self.kind.copy(), self.index.copy())

    def __eq__(self, other):
        if not isinstance(other, AllocationSchedule):
            return NotImplemented
        return np.array_equal(self.kind, other.kind) and np.array_equal(self.index, other.index)


@dataclass
class RisHistory:
    """Derived usage history: Y (used within the last D slots), C (surface
    busy reconfiguring), W (served through a ready surface)."""

    y: np.ndarray  # (I, R, N) bool
    c: np.ndarray  # (I, N) bool
    w: np.ndarray  # (I, R, N) bool


def derive_history(schedule: AllocationSchedule, n_ris: int, d_reconfig: int, u: int) -> RisHistory:
    """Recompute the minimal Y/C/W implied by a schedule.

    Y_{i,r,n} is set when robot r used surface i at least once in the window
    [n-D+1, n]; C_{i,n} when more than U distinct robots have Y set; W marks
    robots currently served through a surface that is not busy.
    """
    n_robots, n_slots = schedule.n_robots, schedule.n_slots
    x = np.zeros((n_ris, n_robots, n_slots), dtype=bool)
    for r in range(n_robots):
        for n in range(n_slots):
            if schedule.kind[r, n] == RIS:
                x[schedule.index[r, n], r, n] = True
    y = np.zeros_like(x)
    for n in range(n_slots):
        lo = max(n - d_reconfig + 1, 0)
        y[:, :, n] = x[:, :, lo:n + 1].any(axis=2)
    c = y.sum(axis=1) > u
    w = x & ~c[:, None, :]
    return RisHistory(y=y, c=c, w=w)


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
    """Check a schedule against every constraint family of the problem."""
    cfg = scenario.config
    report = ValidationReport()
    n_robots, n_slots = cfg.n_robots, cfg.n_slots
    if schedule.kind.shape != (n_robots, n_slots):
        raise ValueError("schedule shape disagrees with scenario")

    cov = tables.coverage
    psi = tables.psi_linear
    u = tables.u_effective

    for n in range(n_slots):
        for r in range(n_robots):
            kind, idx = schedule.assignment(r, n)
            if kind == "bs" and not (0 <= idx < cfg.n_bs and cov.bs_robot[n, idx, r]):
                report.violations.append(Violation(
                    "coverage", (r, n), idx, -1,
                    f"robot {r} assigned to BS {idx} without line of sight"))
            if kind == "ris" and not (0 <= idx < cfg.n_ris and cov.ris_robot[n, idx, r]):
                report.violations.append(Violation(
                    "coverage", (r, n), idx, -1,
                    f"robot {r} assigned to surface {idx} outside its coverage"))

        # capacity and angular conflicts per surface
        for i in range(cfg.n_ris):
            on_ris = schedule.robots_on_ris(i, n)
            if len(on_ris) > u:
                report.violations.append(Violation(
                    "capacity(12)", (i, n), len(on_ris), u,
                    f"surface {i} serves {len(on_ris)} robots, capacity {u}"))
            if len(on_ris) < 2:
                continue
            clash = tables.conflicts[n, i][np.ix_(on_ris, on_ris)]
            for a, b in np.argwhere(clash).tolist():
                report.violations.append(Violation(
                    "conflict(11)", (i, n), 2, 1,
                    f"robots {on_ris[a]} and {on_ris[b]} share an arrival angle at surface {i}"))

    # A link to a BS or surface that does not exist is reported above; the
    # SINR and readiness checks see it as an outage and never index with it.
    linked = schedule.copy()
    limit = np.where(linked.kind == BS, cfg.n_bs, cfg.n_ris)
    stray = (linked.kind != OUTAGE) & ((linked.index < 0) | (linked.index >= limit))
    linked.kind[stray], linked.index[stray] = OUTAGE, -1

    # SINR of every served link, re-evaluated through the channel model
    for n in range(n_slots):
        for r in range(n_robots):
            if linked.is_outage(r, n):
                continue
            value = channel.sinr(tables.tables, linked, r, n)
            family = "sinr_bs(13)" if linked.kind[r, n] == BS else "sinr_ris(14)"
            if value < psi[r] * (1.0 - SINR_REL_TOL):
                report.violations.append(Violation(
                    family, (r, n), value, float(psi[r]),
                    f"robot {r} served below its SINR threshold in slot {n}"))

    # surface readiness: a served robot requires its surface not busy
    hist = derive_history(linked, cfg.n_ris, cfg.d_reconfig, u)
    for n in range(n_slots):
        for i in range(cfg.n_ris):
            if not hist.c[i, n]:
                continue
            for r in linked.robots_on_ris(i, n):
                report.violations.append(Violation(
                    "ris_ready(16,19)", (i, r, n), 1, 0,
                    f"robot {r} served by surface {i} while it is reconfiguring"))

    # outage windows: fewer than K_r outages in every K_r-slot window
    outage = schedule.outage_matrix()
    for r in range(n_robots):
        k = int(scenario.k_out[r])
        for n in range(n_slots):
            lo = max(n - k + 1, 0)
            s = int(outage[r, lo:n + 1].sum())
            if s >= k:
                report.violations.append(Violation(
                    "outage_window(17)", (r, n), s, k - 1,
                    f"robot {r} reaches {s} outages in its {k}-slot window ending at {n}"))
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
    first reaches its budget; scanning is by robot index, then time.
    """
    k_out = np.asarray(k_out, dtype=int)
    for r in range(schedule.n_robots):
        run = 0
        for n in range(schedule.n_slots):
            if schedule.kind[r, n] == OUTAGE:
                run += 1
                if run >= k_out[r]:
                    return True, (r, n)
            else:
                run = 0
    return False, None
