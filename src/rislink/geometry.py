"""Planar factory geometry: occlusion, coverage and conflict extraction.

The builders read the robot-to-source vectors, distances and pair angles
that ``precompute`` derives once; ``tests/scalar_geometry.py`` holds a
per-pair reference of each test.

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
    "los_blocked_batch",
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


def los_blocked_batch(starts: np.ndarray, ends: np.ndarray, obstacles) -> np.ndarray:
    """True per row iff the segment between row-aligned (M, 2) endpoints
    intersects any obstacle, boundary contact included.

    Slab clipping against the closed rectangle; grazing a corner or running
    along an edge counts as blocked (conservative, deterministic).  Endpoints
    are ordered canonically first so the test is exactly symmetric;
    degenerate zero-length rows are reported unblocked.
    """
    a = np.asarray(starts, dtype=float)
    b = np.asarray(ends, dtype=float)
    step = max(1, LOS_BATCH_CELLS // max(len(obstacles), 1))
    if len(a) > step:  # bound the (rows, obstacles) work arrays
        return np.concatenate([los_blocked_batch(a[k:k + step], b[k:k + step], obstacles)
                               for k in range(0, len(a), step)])
    # canonical endpoint order per row
    swap = (b[:, 0] < a[:, 0]) | ((b[:, 0] == a[:, 0]) & (b[:, 1] < a[:, 1]))
    starts = np.where(swap[:, None], b, a)
    ends = np.where(swap[:, None], a, b)
    delta = ends - starts
    m = starts.shape[0]
    degenerate = (delta[:, 0] == 0.0) & (delta[:, 1] == 0.0)
    if m == 0 or not obstacles:
        return np.zeros(m, dtype=bool)
    # rows against all obstacles at once: (M, O) slabs
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


def build_coverage(scenario, vec: np.ndarray, dist: np.ndarray) -> CoverageMap:
    """Compute coverage for every slot of a scenario.

    ``vec`` (N, R, L, 2) holds each robot's position minus each link
    source's, ``dist`` (N, R, L) their lengths, as ``precompute`` derives
    them once.  A BS covers a robot with clear sight; a mount covers a robot
    with clear sight inside its field of view, provided the mount itself is
    covered by at least one BS (its serving BS is the nearest covering one).
    """
    obstacles = scenario.obstacles
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

    # sight from every link source to every robot in every slot, one batch;
    # a robot standing on a source has none
    ends = np.broadcast_to(scenario.trajectories.transpose(1, 0, 2)[:, :, None], vec.shape)
    starts = np.broadcast_to(src_xy, vec.shape)
    sight = ~los_blocked_batch(starts.reshape(-1, 2), ends.reshape(-1, 2), obstacles)
    sight = sight.reshape(dist.shape) & (vec != 0).any(axis=3)

    with np.errstate(divide="ignore", invalid="ignore"):
        cos_a = (vec[:, :, n_bs:] * normals).sum(axis=3) / dist[:, :, n_bs:]
    in_fov = (dist[:, :, n_bs:] > 0) & (np.arccos(np.clip(cos_a, -1.0, 1.0)) <= fov + 1e-12)
    covered = sight.copy()
    covered[:, :, n_bs:] &= in_fov & (serving_bs >= 0)
    return CoverageMap(covered=covered, sight=sight, bs_ris=bs_ris, serving_bs=serving_bs)


def build_conflicts(coverage: CoverageMap, angle: np.ndarray) -> np.ndarray:
    """(N, I, R, R) mask of robot pairs angularly inseparable at a mount.

    ``angle[n, ra, rb, l]`` is the angle at link l's source between the
    directions to robots ra and rb in slot n, as ``precompute`` derives it
    once (NaN where a robot stands on the source).  ``[n, i, ra, rb]`` is
    True, only where ra < rb, when mount i covers both robots in slot n and
    that angle at the mount is at most the beamwidth.  At most one robot of
    such a pair may be scheduled through the mount.
    """
    n_bs = coverage.bs_ris.shape[0]
    cov = coverage.covered[:, :, n_bs:]                                      # (N, R, I)
    near = cov[:, :, None] & cov[:, None] & (angle[..., n_bs:] <= channel.THETA + 1e-12)
    return np.triu(near.transpose(0, 3, 1, 2), k=1)
