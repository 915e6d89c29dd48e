"""Planar factory geometry: occlusion, beam cones, coverage and conflict extraction.

Everything here is pure and operates on immutable inputs, so it is safe to
call from parallel trial workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import channel

LOS_BATCH_CELLS = 1 << 16  # rows x obstacles per block of los_blocked_batch

__all__ = [
    "Point2D",
    "Obstacle",
    "RisMount",
    "CoverageMap",
    "link_sources",
    "los_blocked",
    "los_blocked_batch",
    "footprint_diameter",
    "in_beam_cone",
    "angle_between",
    "build_coverage",
    "build_conflicts",
]


@dataclass(frozen=True)
class Point2D:
    """A position on the factory floor, in meters."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite coordinates ({self.x}, {self.y})")

    def distance_to(self, other: "Point2D") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class Obstacle:
    """Axis-aligned rectangular blocker (a machine on the floor)."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self):
        if self.xmin > self.xmax or self.ymin > self.ymax:
            raise ValueError("obstacle min corner must be <= max corner componentwise")


@dataclass(frozen=True)
class RisMount:
    """A wall-mounted reflecting surface with an inward field of view.

    ``normal`` is the unit vector pointing into the room; a robot is inside
    the field of view when the angle between the normal and the direction to
    the robot is at most ``fov_half_angle``.
    """

    position: Point2D
    normal: tuple[float, float]
    fov_half_angle: float

    def __post_init__(self):
        nx, ny = self.normal
        norm = math.hypot(nx, ny)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"mount normal must be unit length, got |n|={norm}")
        if not (0.0 < self.fov_half_angle <= math.pi / 2):
            raise ValueError("fov_half_angle must be in (0, pi/2]")

    def sees(self, p: Point2D) -> bool:
        """Field-of-view test only; occlusion is checked separately."""
        dx, dy = p.x - self.position.x, p.y - self.position.y
        d = math.hypot(dx, dy)
        if d == 0.0:
            return False
        cos_a = (dx * self.normal[0] + dy * self.normal[1]) / d
        cos_a = max(-1.0, min(1.0, cos_a))
        return math.acos(cos_a) <= self.fov_half_angle + 1e-12


def los_blocked(p: Point2D, q: Point2D, obstacles) -> bool:
    """True iff segment pq intersects any obstacle, boundary contact included.

    Slab clipping against the closed rectangle; grazing a corner or running
    along an edge counts as blocked (conservative, deterministic).  Endpoints
    are ordered canonically first so the test is exactly symmetric.
    """
    if p.x == q.x and p.y == q.y:
        raise ValueError("los_blocked requires two distinct points")
    if (q.x, q.y) < (p.x, p.y):
        p, q = q, p
    dx = q.x - p.x
    dy = q.y - p.y
    for ob in obstacles:
        t0, t1 = 0.0, 1.0
        ok = True
        for delta, lo, hi, start in ((dx, ob.xmin, ob.xmax, p.x), (dy, ob.ymin, ob.ymax, p.y)):
            if delta == 0.0:
                if start < lo or start > hi:
                    ok = False
                    break
            else:
                ta = (lo - start) / delta
                tb = (hi - start) / delta
                if ta > tb:
                    ta, tb = tb, ta
                t0 = max(t0, ta)
                t1 = min(t1, tb)
                if t0 > t1:
                    ok = False
                    break
        if ok:
            return True
    return False


def los_blocked_batch(starts: np.ndarray, ends: np.ndarray, obstacles) -> np.ndarray:
    """Vectorized ``los_blocked`` over row-aligned (M, 2) endpoint arrays.

    Agrees with the scalar routine on every input (including boundary
    grazing); degenerate zero-length rows are reported unblocked.
    """
    a = np.asarray(starts, dtype=float)
    b = np.asarray(ends, dtype=float)
    step = max(1, LOS_BATCH_CELLS // max(len(obstacles), 1))
    if len(a) > step:  # bound the (rows, obstacles) work arrays
        return np.concatenate([los_blocked_batch(a[k:k + step], b[k:k + step], obstacles)
                               for k in range(0, len(a), step)])
    # canonical endpoint order per row, matching the scalar routine
    swap = (b[:, 0] < a[:, 0]) | ((b[:, 0] == a[:, 0]) & (b[:, 1] < a[:, 1]))
    starts = np.where(swap[:, None], b, a)
    ends = np.where(swap[:, None], a, b)
    delta = ends - starts
    m = starts.shape[0]
    degenerate = (delta[:, 0] == 0.0) & (delta[:, 1] == 0.0)
    if m == 0 or not obstacles:
        return np.zeros(m, dtype=bool)
    # rows against all obstacles at once: (M, O) slabs, same arithmetic as
    # the per-obstacle scalar routine
    box = np.array([(ob.xmin, ob.xmax, ob.ymin, ob.ymax) for ob in obstacles], dtype=float)
    t0 = np.zeros((m, len(obstacles)))
    t1 = np.ones((m, len(obstacles)))
    ok = np.ones((m, len(obstacles)), dtype=bool)
    for axis in (0, 1):
        lo = box[None, :, 2 * axis]
        hi = box[None, :, 2 * axis + 1]
        d = delta[:, axis, None]
        s = starts[:, axis, None]
        parallel = d == 0.0
        ok &= ~parallel | ((s >= lo) & (s <= hi))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ta = (lo - s) / d
            tb = (hi - s) / d
        lo_t = np.minimum(ta, tb)
        hi_t = np.maximum(ta, tb)
        t0 = np.where(parallel, t0, np.maximum(t0, lo_t))
        t1 = np.where(parallel, t1, np.minimum(t1, hi_t))
    blocked = (ok & (t0 <= t1)).any(axis=1)
    return blocked & ~degenerate


def footprint_diameter(theta: float, d: float) -> float:
    """Cross-section diameter of a conical beam of width ``theta`` at range ``d``."""
    if not 0.0 < theta < math.pi:
        raise ValueError("beamwidth must be in (0, pi)")
    if d < 0.0:
        raise ValueError("distance must be non-negative")
    return 2.0 * math.tan(theta / 2.0) * d


def angle_between(ux: float, uy: float, vx: float, vy: float) -> float:
    """Unsigned angle between two nonzero vectors, in [0, pi]."""
    nu = math.hypot(ux, uy)
    nv = math.hypot(vx, vy)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("angle undefined for zero vector")
    c = (ux * vx + uy * vy) / (nu * nv)
    return math.acos(max(-1.0, min(1.0, c)))


def in_beam_cone(origin: Point2D, target: Point2D, probe: Point2D, theta: float, obstacles) -> bool:
    """Does ``probe`` receive the beam transmitted from ``origin`` toward ``target``?

    True iff probe lies within theta/2 of the beam axis, on the target side of
    the origin, with unobstructed sight from the origin.
    """
    if origin.x == target.x and origin.y == target.y:
        raise ValueError("beam axis undefined: origin == target")
    ax, ay = target.x - origin.x, target.y - origin.y
    px, py = probe.x - origin.x, probe.y - origin.y
    na = math.hypot(ax, ay)
    np_ = math.hypot(px, py)
    if np_ == 0.0:
        return False
    # normalized components avoid underflow on near-degenerate geometry
    ax, ay = ax / na, ay / na
    px, py = px / np_, py / np_
    if px * ax + py * ay <= 0.0:
        return False
    if angle_between(ax, ay, px, py) > theta / 2.0 + 1e-12:
        return False
    return not los_blocked(origin, probe, obstacles)


@dataclass
class CoverageMap:
    """Line-of-sight coverage as boolean arrays indexed (slot, robot, link).

    The links are every BS, then every surface, as ``link_sources`` orders
    their positions.  ``sight[n, r, l]`` is clear sight between link l's
    source and robot r in slot n.  ``covered`` keeps the pairs the link can
    serve: every one of a BS, and those of a surface that are also inside
    its field of view, provided it has a serving BS.  ``bs_ris[b, i]`` is
    the static sight between BS b and mount i; ``serving_bs[i]`` is the
    nearest covering BS of mount i (the BS whose signal it redirects), or -1.
    """

    covered: np.ndarray     # (N, R, L) bool
    sight: np.ndarray       # (N, R, L) bool
    bs_ris: np.ndarray      # (B, I) bool
    serving_bs: np.ndarray  # (I,) int


def link_sources(scenario) -> np.ndarray:
    """(L, 2) positions of the link sources: every BS, then every surface."""
    points = list(scenario.bs_positions) + [m.position for m in scenario.ris_mounts]
    return np.array([[p.x, p.y] for p in points], dtype=float).reshape(len(points), 2)


def build_coverage(scenario) -> CoverageMap:
    """Compute coverage for every slot of a scenario.

    A BS covers a robot with clear sight; a mount covers a robot with clear
    sight inside its field of view, provided the mount itself is covered by
    at least one BS (its serving BS is the nearest covering one).
    """
    obstacles = scenario.obstacles
    n_slots = scenario.config.n_slots
    n_robots = scenario.config.n_robots
    n_bs = len(scenario.bs_positions)
    n_ris = len(scenario.ris_mounts)
    src_xy = link_sources(scenario)                               # (L, 2)
    bs_xy, ris_xy = src_xy[:n_bs], src_xy[n_bs:]

    bs_ris = np.zeros((n_bs, n_ris), dtype=bool)
    if n_bs and n_ris:
        a = np.repeat(bs_xy, n_ris, axis=0)
        b = np.tile(ris_xy, (n_bs, 1))
        bs_ris = (~los_blocked_batch(a, b, obstacles) & ~(a == b).all(axis=1)).reshape(n_bs, n_ris)
    serving_bs = np.full(n_ris, -1, dtype=np.int64)
    for i, mount in enumerate(scenario.ris_mounts):
        covering = np.flatnonzero(bs_ris[:, i]).tolist()
        if covering:
            serving_bs[i] = min(covering, key=lambda b: (scenario.bs_positions[b].distance_to(mount.position), b))

    normals = np.array([m.normal for m in scenario.ris_mounts], dtype=float).reshape(n_ris, 2)
    fov = np.array([m.fov_half_angle for m in scenario.ris_mounts], dtype=float)

    # sight from every link source to every robot in every slot, one batch
    pos = scenario.trajectories.transpose(1, 0, 2)               # (N, R, 2)
    ends = np.broadcast_to(pos[:, :, None], (n_slots, n_robots, n_bs + n_ris, 2))
    starts = np.broadcast_to(src_xy[None, None], ends.shape)
    sight = ~los_blocked_batch(starts.reshape(-1, 2), ends.reshape(-1, 2), obstacles)
    sight = sight.reshape(ends.shape[:3]) & ~(starts == ends).all(axis=3)

    vec = pos[:, :, None] - ris_xy[None, None]                   # (N, R, I, 2)
    dist = np.linalg.norm(vec, axis=3)
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_a = (vec * normals[None, None]).sum(axis=3) / dist
    in_fov = (dist > 0) & (np.arccos(np.clip(cos_a, -1.0, 1.0)) <= fov + 1e-12)
    covered = sight.copy()
    covered[:, :, n_bs:] &= in_fov & (serving_bs >= 0)
    return CoverageMap(covered=covered, sight=sight, bs_ris=bs_ris, serving_bs=serving_bs)


def build_conflicts(scenario, coverage: CoverageMap) -> np.ndarray:
    """(N, I, R, R) mask of robot pairs angularly inseparable at a mount.

    ``[n, i, ra, rb]`` is True, only where ra < rb, when mount i covers both
    robots in slot n and the separation of the two mount-to-robot directions
    is at most the beamwidth.  At most one robot of such a pair may be
    scheduled through the mount.
    """
    ris_xy = np.array([[m.position.x, m.position.y] for m in scenario.ris_mounts],
                      dtype=float).reshape(-1, 2)
    vec = scenario.trajectories.transpose(1, 0, 2)[:, None] - ris_xy[None, :, None]   # (N, I, R, 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        unit = vec / np.linalg.norm(vec, axis=3, keepdims=True)
        sep = np.arccos(np.clip(unit @ unit.swapaxes(2, 3), -1.0, 1.0))
    cov = coverage.covered[:, :, len(scenario.bs_positions):].transpose(0, 2, 1)   # (N, I, R)
    both = cov[..., :, None] & cov[..., None, :]
    return np.triu(both & (sep <= channel.THETA + 1e-12), k=1)
