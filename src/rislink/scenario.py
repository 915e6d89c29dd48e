"""Seeded factory scenario generation, derived-table precomputation, and file I/O.

``generate`` is a pure function of (config, seed): the same pair always yields
the same scenario, byte-for-byte after serialization.  ``precompute`` turns a
scenario into the coverage/conflict/power tables every solver consumes.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import channel, geometry
from .channel import LinkPowerTables
from .geometry import CoverageMap, Obstacle, Point2D, RisMount

SCHEMA_NAME = "rislink-scenario"
SCHEMA_VERSION = 3

PLACEMENT_RETRIES = 1000
STEP_RETRIES = 500
DIRECTION_HOLD_SLOTS = 5  # slots a robot keeps its heading before redrawing

__all__ = [
    "ScenarioConfig",
    "EXPERIMENT_CONFIG",
    "Scenario",
    "DerivedTables",
    "GenerationError",
    "ScenarioFormatError",
    "generate",
    "precompute",
    "serialize",
    "deserialize",
    "strip_ris",
]


class GenerationError(RuntimeError):
    """Rejection sampling exhausted its retry budget (overcrowded floor)."""


class ScenarioFormatError(ValueError):
    """A scenario file failed schema validation."""


@dataclass(frozen=True)
class ScenarioConfig:
    floor_width: float = 40.0
    floor_height: float = 40.0
    n_bs: int = 2
    n_ris: int = 8
    n_robots: int = 6
    n_slots: int = 50
    robot_step: float = 1.0         # meters advanced per slot
    n_obstacles: int = 6
    obstacle_size: tuple[float, float] = (3.0, 6.0)
    bs_clearance: float = 4.0       # obstacles keep this distance from BS masts
    wall_clearance: float = 0.0     # obstacles keep this distance from the walls
    psi_range: tuple[float, float] = (9.0, 10.0)  # linear SINR thresholds, drawn as integers
    k_range: tuple[int, int] = (14, 15)
    d_reconfig: int = 2             # slots a retargeted surface stays unavailable
    u_override: int | None = None   # concurrent robots per surface; derived from E if None
    ris_fov_half_angle: float = math.radians(60.0)
    bs_positions: tuple | None = None  # explicit (x, y) pairs; quadrant-center default if None

    def __post_init__(self):
        for name in ("floor_width", "floor_height", "robot_step", "obstacle_size", "bs_clearance",
                     "wall_clearance", "psi_range", "ris_fov_half_angle", "bs_positions"):
            if not np.isfinite(np.asarray(getattr(self, name) or (), dtype=float)).all():
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.floor_width <= 0 or self.floor_height <= 0:
            raise ValueError("floor dimensions must be positive")
        for name in ("n_bs", "n_ris", "n_robots", "n_obstacles"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.n_slots < 1:
            raise ValueError("n_slots must be >= 1")
        if self.psi_range[0] < 1 or not all(float(v).is_integer() for v in self.psi_range):
            raise ValueError(f"psi_range ends must be whole numbers from 1 up, as thresholds are drawn as "
                             f"positive integers, got {self.psi_range!r}")
        if self.psi_range[0] > self.psi_range[1] or self.k_range[0] > self.k_range[1]:
            raise ValueError("psi_range and k_range must be non-empty")
        if self.k_range[0] < 1:
            raise ValueError("outage windows must be >= 1 slot")
        if self.bs_clearance < 0 or self.wall_clearance < 0:
            raise ValueError("clearances must be >= 0")
        if self.d_reconfig < 1:
            raise ValueError("d_reconfig must be >= 1")
        cap = channel.max_concurrent(channel.N_ELEMENTS)
        if self.u_override is not None and not 1 <= self.u_override <= cap:
            raise ValueError(f"u_override must be in [1, {cap}] for E={channel.N_ELEMENTS}")
        if self.bs_positions is not None and len(self.bs_positions) != self.n_bs:
            raise ValueError("bs_positions length must equal n_bs")


# Table II of the paper on the calibrated experiment floor.  The two masts
# stand in the machine-free 4 m band along opposite walls, so they reach most
# wall surfaces; 84 small machines fill the interior and hide the masts from
# about 45% of robot-slots; the surfaces see their whole half-plane and the
# robots take 2.6 m steps, so every robot regains some link well within its
# outage budget.  Chosen with scripts/calibrate.py on seeds below 1000, which
# the acceptance suite does not use; the experiment sweeps and the acceptance
# suite both build on it.  ScenarioConfig's own defaults stay uncalibrated.
EXPERIMENT_CONFIG = ScenarioConfig(
    n_bs=2, n_ris=8, n_slots=50,
    psi_range=(9.0, 10.0), k_range=(14, 15),
    d_reconfig=2, u_override=2,
    bs_positions=((20.0, 2.0), (20.0, 38.0)),
    n_obstacles=84, obstacle_size=(0.8, 1.4),
    bs_clearance=3.0, wall_clearance=4.0,
    robot_step=2.6, ris_fov_half_angle=math.radians(90.0),
)


@dataclass
class Scenario:
    config: ScenarioConfig
    bs_positions: list  # of Point2D
    ris_mounts: list    # of RisMount
    obstacles: list     # of Obstacle
    trajectories: np.ndarray  # (n_robots, n_slots, 2) meters
    psi: np.ndarray     # per-robot linear SINR threshold
    k_out: np.ndarray   # per-robot consecutive-outage budget, slots

    def __eq__(self, other):
        if not isinstance(other, Scenario):
            return NotImplemented
        return (
            self.config == other.config
            and self.bs_positions == other.bs_positions
            and self.ris_mounts == other.ris_mounts
            and self.obstacles == other.obstacles
            and np.array_equal(self.trajectories, other.trajectories)
            and np.array_equal(self.psi, other.psi)
            and np.array_equal(self.k_out, other.k_out)
        )


@dataclass
class DerivedTables:
    """Everything the optimizers need, precomputed once per scenario.

    ``coverage``, ``tables`` and ``live`` put every link of a robot on one
    axis of L = B + I links, the BSs first, so a direct and a relayed link
    are read alike; ``conflicts`` concerns the surfaces alone.
    """

    coverage: CoverageMap
    conflicts: np.ndarray  # (N, I, R, R) bool, see geometry.build_conflicts
    tables: LinkPowerTables
    u_effective: int
    psi_linear: np.ndarray
    live: np.ndarray       # (N, R, L) bool: covered, and the signal alone meets psi
    distance: np.ndarray   # (N, R, L) range from each link source to each robot, m


def _default_bs_positions(config: ScenarioConfig, rng) -> list:
    """Central mast pair first, quadrant centers after, random beyond that."""
    w, h = config.floor_width, config.floor_height
    anchors = [
        Point2D(0.45 * w, 0.5 * h),
        Point2D(0.55 * w, 0.5 * h),
        Point2D(w / 4, h / 4),
        Point2D(3 * w / 4, 3 * h / 4),
    ]
    out = []
    for b in range(config.n_bs):
        if b < len(anchors):
            out.append(anchors[b])
        else:
            out.append(Point2D(rng.uniform(0.05 * w, 0.95 * w), rng.uniform(0.05 * h, 0.95 * h)))
    return out


def _rect_distance(ob: Obstacle, p: Point2D) -> float:
    dx = max(ob.xmin - p.x, 0.0, p.x - ob.xmax)
    dy = max(ob.ymin - p.y, 0.0, p.y - ob.ymax)
    return math.hypot(dx, dy)


def _draw_obstacles(config: ScenarioConfig, rng, keep_clear: list) -> list:
    """Machines scattered uniformly, clear of the walls and the masts."""
    w, h = config.floor_width, config.floor_height
    lo, hi = config.obstacle_size
    margin = max(config.wall_clearance, 1e-6)
    obstacles = []

    def admissible(ob: Obstacle) -> bool:
        if ob.xmin < margin or ob.ymin < margin:
            return False
        if ob.xmax > w - margin or ob.ymax > h - margin:
            return False
        return all(_rect_distance(ob, p) >= config.bs_clearance for p in keep_clear)

    for _ in range(config.n_obstacles):
        for _ in range(PLACEMENT_RETRIES):
            ow = rng.uniform(lo, hi)
            oh = rng.uniform(lo, hi)
            if ow >= w - 2 * margin or oh >= h - 2 * margin:
                raise GenerationError("obstacle size exceeds floor dimensions")
            cx = rng.uniform(ow / 2 + margin, w - ow / 2 - margin)
            cy = rng.uniform(oh / 2 + margin, h - oh / 2 - margin)
            ob = Obstacle(cx - ow / 2, cy - oh / 2, cx + ow / 2, cy + oh / 2)
            if admissible(ob):
                obstacles.append(ob)
                break
        else:
            raise GenerationError("could not place obstacle clear of base stations")
    return obstacles


def _draw_ris_mounts(config: ScenarioConfig, rng) -> list:
    w, h = config.floor_width, config.floor_height
    arc = 2 * (w + h) / max(config.n_ris, 1)
    mounts = []
    for idx in range(config.n_ris):
        # one mount per equal perimeter arc, jittered inside its arc
        s = (idx + rng.uniform(0.0, 1.0)) * arc
        if s < w:
            pos, normal = Point2D(s, 0.0), (0.0, 1.0)
        elif s < w + h:
            pos, normal = Point2D(w, s - w), (-1.0, 0.0)
        elif s < 2 * w + h:
            pos, normal = Point2D(2 * w + h - s, h), (0.0, -1.0)
        else:
            pos, normal = Point2D(0.0, s - 2 * w - h), (1.0, 0.0)
        mounts.append(RisMount(pos, normal, config.ris_fov_half_angle))
    return mounts


def _inside_obstacle(x: float, y: float, obstacles) -> bool:
    return any(ob.xmin <= x <= ob.xmax and ob.ymin <= y <= ob.ymax for ob in obstacles)


def _draw_start(config: ScenarioConfig, rng, obstacles) -> tuple[float, float]:
    w, h = config.floor_width, config.floor_height
    for _ in range(PLACEMENT_RETRIES):
        x = rng.uniform(0.0, w)
        y = rng.uniform(0.0, h)
        if not _inside_obstacle(x, y, obstacles):
            return min(max(x, 1e-9), w - 1e-9), min(max(y, 1e-9), h - 1e-9)
    raise GenerationError("could not place robot start outside obstacles")


def _walk(config: ScenarioConfig, rng, obstacles, start) -> np.ndarray:
    """One robot trajectory: heading held for DIRECTION_HOLD_SLOTS steps,
    reflected at walls, redrawn on obstacle contact."""
    w, h = config.floor_width, config.floor_height
    eps = 1e-9
    pos = np.empty((config.n_slots, 2))
    pos[0] = start
    x, y = start
    dx = dy = 0.0
    for n in range(1, config.n_slots):
        if (n - 1) % DIRECTION_HOLD_SLOTS == 0:
            phi = rng.uniform(0.0, 2 * math.pi)
            dx, dy = math.cos(phi), math.sin(phi)
        for attempt in range(STEP_RETRIES):
            nx = x + config.robot_step * dx
            ny = y + config.robot_step * dy
            if nx < 0.0:
                nx = -nx
                dx = -dx
            elif nx > w:
                nx = 2 * w - nx
                dx = -dx
            if ny < 0.0:
                ny = -ny
                dy = -dy
            elif ny > h:
                ny = 2 * h - ny
                dy = -dy
            nx = min(max(nx, eps), w - eps)
            ny = min(max(ny, eps), h - eps)
            if not _inside_obstacle(nx, ny, obstacles):
                x, y = nx, ny
                break
            phi = rng.uniform(0.0, 2 * math.pi)
            dx, dy = math.cos(phi), math.sin(phi)
        else:
            raise GenerationError("robot trapped by obstacles; no valid step found")
        pos[n] = (x, y)
    return pos


def generate(config: ScenarioConfig, seed: int) -> Scenario:
    """Draw placements, trajectories, and per-robot QoS for one random scenario."""
    rng = np.random.default_rng(seed)

    if config.bs_positions is not None:
        bs_positions = [Point2D(float(x), float(y)) for (x, y) in config.bs_positions]
    else:
        bs_positions = _default_bs_positions(config, rng)
    obstacles = _draw_obstacles(config, rng, keep_clear=bs_positions)
    ris_mounts = _draw_ris_mounts(config, rng)

    trajectories = np.zeros((config.n_robots, config.n_slots, 2))
    for r in range(config.n_robots):
        start = _draw_start(config, rng, obstacles)
        trajectories[r] = _walk(config, rng, obstacles, start)

    psi = rng.integers(int(config.psi_range[0]), int(config.psi_range[1]) + 1,
                       size=config.n_robots).astype(float)
    k_out = rng.integers(config.k_range[0], config.k_range[1] + 1, size=config.n_robots)

    return Scenario(
        config=config,
        bs_positions=bs_positions,
        ris_mounts=ris_mounts,
        obstacles=obstacles,
        trajectories=trajectories,
        psi=psi,
        k_out=k_out.astype(int),
    )


def _pair_dots(v: np.ndarray) -> np.ndarray:
    """Dot products of every pair of robots' 2-vectors on each link,
    (N, R, L, 2) -> (N, R, R, L): x product plus y product, rounded once each."""
    return v[:, :, None, :, 0] * v[:, None, :, :, 0] + v[:, :, None, :, 1] * v[:, None, :, :, 1]


def precompute(scenario: Scenario) -> DerivedTables:
    """Build coverage, conflicts, and all link-power tables for a scenario.

    Each robot's vector from each link source, its length and the angle at
    each source between every two robots are derived once, for all slots;
    every table reads them.
    """
    cfg = scenario.config
    n_b = cfg.n_bs
    vec = scenario.trajectories.transpose(1, 0, 2)[:, :, None] - geometry.link_sources(scenario)   # (N, R, L, 2)
    dist = np.linalg.norm(vec, axis=3)                                   # (N, R, L)
    with np.errstate(divide="ignore", invalid="ignore"):
        angle = np.arccos(np.clip(_pair_dots(vec / dist[..., None]), -1, 1))   # (N, r, rp, L)
    coverage = geometry.build_coverage(scenario, vec, dist)
    conflicts = geometry.build_conflicts(coverage, angle)
    covered, sight = coverage.covered, coverage.sight                # (N, R, L)

    # a surface relays the BS that serves it; one no BS reaches relays nothing
    feed = np.array([scenario.bs_positions[b].distance_to(m.position) if b >= 0 else math.inf
                     for b, m in zip(coverage.serving_bs.tolist(), scenario.ris_mounts)])
    power = np.empty(dist.shape)
    power[:, :, :n_b] = channel.direct_power(dist[:, :, :n_b])
    power[:, :, n_b:] = channel.ris_power(feed, dist[:, :, n_b:])
    # Beam-cone gating: victim r hears the beam of link l to robot rp when its
    # direction from the source is within theta/2 of the axis (so ahead of the
    # source) with clear sight.
    gate = sight[:, :, None, :] & (angle <= channel.THETA / 2.0 + 1e-12) & covered[:, None, :, :]
    np.einsum("nrrl->nrl", gate)[:] = False                          # no self term

    gain2 = channel.GAIN * channel.GAIN
    link_tables = LinkPowerTables(
        power=np.where(covered, power, 0.0),
        interference=np.where(gate, gain2 * power[:, :, None, :], 0.0),
        n_bs=n_b,
    )
    u_effective = cfg.u_override if cfg.u_override is not None else channel.max_concurrent(channel.N_ELEMENTS)
    psi = scenario.psi.astype(float)
    return DerivedTables(
        coverage=coverage,
        conflicts=conflicts,
        tables=link_tables,
        u_effective=u_effective,
        psi_linear=psi,
        live=covered & (power * gain2 / channel.NOISE >= psi[:, None]),
        distance=dist,
    )


def strip_ris(scenario: Scenario) -> Scenario:
    """The same scenario with every reflecting surface removed."""
    return Scenario(
        config=replace(scenario.config, n_ris=0),
        bs_positions=list(scenario.bs_positions),
        ris_mounts=[],
        obstacles=list(scenario.obstacles),
        trajectories=scenario.trajectories.copy(),
        psi=scenario.psi.copy(),
        k_out=scenario.k_out.copy(),
    )


def _real(v) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"expected a number, got {v!r}")
    return float(v)


def _int(v) -> int:
    if not _real(v).is_integer():
        raise ValueError(f"expected an integer, got {v!r}")
    return int(v)


def _numbers(doc, key, shape, dtype=float) -> np.ndarray:
    """``doc[key]``, JSON numbers in lists nested as ``shape`` (integers only
    for an int ``dtype``), as an array; strings and booleans are refused."""
    items = [doc[key]]
    for size in shape:
        if set(map(len, items)) - {size}:
            raise ValueError(f"{key} is not nested as {shape}")
        items = list(itertools.chain.from_iterable(items))
    found = set(map(type, items)) - ({int} if dtype is int else {int, float})
    if found:
        raise TypeError(f"{key} holds {', '.join(sorted(t.__name__ for t in found))} values")
    return np.array(items, dtype=dtype).reshape(shape)


def _pair(kind):
    def read(v) -> tuple:
        lo, hi = v
        return kind(lo), kind(hi)
    return read


def _optional(read):
    return lambda v: None if v is None else read(v)


# The config block: each JSON key, the ScenarioConfig field it holds (the
# floor key holds two), and the reader of its JSON value.  The writer writes
# the field values with every tuple as a list.
_CONFIG_KEYS = (
    ("floor_m", ("floor_width", "floor_height"), _pair(_real)),
    ("n_bs", "n_bs", _int),
    ("n_ris", "n_ris", _int),
    ("n_robots", "n_robots", _int),
    ("n_slots", "n_slots", _int),
    ("robot_step_m", "robot_step", _real),
    ("n_obstacles", "n_obstacles", _int),
    ("obstacle_size_m", "obstacle_size", _pair(_real)),
    ("bs_clearance_m", "bs_clearance", _real),
    ("wall_clearance_m", "wall_clearance", _real),
    ("psi_range", "psi_range", _pair(_real)),
    ("k_range", "k_range", _pair(_int)),
    ("d_reconfig_slots", "d_reconfig", _int),
    ("u_override", "u_override", _optional(_int)),
    ("ris_fov_half_angle_rad", "ris_fov_half_angle", _real),
    ("bs_positions_m", "bs_positions", _optional(lambda v: tuple(map(_pair(_real), v)))),
)


def _json_value(v):
    return [_json_value(x) for x in v] if isinstance(v, (tuple, list)) else v


def _config_to_dict(cfg: ScenarioConfig) -> dict:
    return {key: _json_value(tuple(getattr(cfg, f) for f in field) if isinstance(field, tuple)
                             else getattr(cfg, field))
            for key, field, _ in _CONFIG_KEYS}


def _config_from_dict(d: dict) -> ScenarioConfig:
    """Read a config block; every key is consumed once, so a key left over is unknown."""
    try:
        d = dict(d)
        values = {}
        for key, field, read in _CONFIG_KEYS:
            value = read(d.pop(key))
            values.update(zip(field, value) if isinstance(field, tuple) else [(field, value)])
        config = ScenarioConfig(**values)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ScenarioFormatError(f"bad config block: {exc!r}") from exc
    if d:
        raise ScenarioFormatError(f"unknown config keys: {', '.join(sorted(d))}")
    return config


def serialize(scenario: Scenario) -> str:
    """Render a scenario as versioned, human-readable JSON text."""
    doc = {
        "format": SCHEMA_NAME,
        "version": SCHEMA_VERSION,
        "config": _config_to_dict(scenario.config),
        "bs_positions_m": [[p.x, p.y] for p in scenario.bs_positions],
        "ris_mounts": [
            {
                "position_m": [m.position.x, m.position.y],
                "normal": list(m.normal),
                "fov_half_angle_rad": m.fov_half_angle,
            }
            for m in scenario.ris_mounts
        ],
        "obstacles_m": [[o.xmin, o.ymin, o.xmax, o.ymax] for o in scenario.obstacles],
        "trajectories_m": scenario.trajectories.tolist(),
        "sinr_thresholds": scenario.psi.tolist(),
        "outage_window_slots": scenario.k_out.tolist(),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def deserialize(text: str) -> Scenario:
    """Parse scenario JSON, rejecting unknown versions and shape violations."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioFormatError("top level must be an object")
    if doc.get("format") != SCHEMA_NAME:
        raise ScenarioFormatError(f"unknown format {doc.get('format')!r}; expected {SCHEMA_NAME!r}")
    if doc.get("version") != SCHEMA_VERSION:
        raise ScenarioFormatError(f"unsupported version {doc.get('version')!r}; expected {SCHEMA_VERSION}")
    for key in ("config", "bs_positions_m", "ris_mounts", "obstacles_m",
                "trajectories_m", "sinr_thresholds", "outage_window_slots"):
        if key not in doc:
            raise ScenarioFormatError(f"missing field {key!r}")

    config = _config_from_dict(doc["config"])
    try:
        bs_positions = list(itertools.starmap(Point2D, _numbers(doc, "bs_positions_m", (config.n_bs, 2)).tolist()))
        mounts = {key: [m[key] for m in doc["ris_mounts"]] for key in ("position_m", "normal", "fov_half_angle_rad")}
        ris_mounts = list(map(
            RisMount,
            itertools.starmap(Point2D, _numbers(mounts, "position_m", (config.n_ris, 2)).tolist()),
            map(tuple, _numbers(mounts, "normal", (config.n_ris, 2)).tolist()),
            _numbers(mounts, "fov_half_angle_rad", (config.n_ris,)).tolist(),
        ))
        obstacles = list(itertools.starmap(
            Obstacle, _numbers(doc, "obstacles_m", (len(doc["obstacles_m"]), 4)).tolist()))
        trajectories = _numbers(doc, "trajectories_m", (config.n_robots, config.n_slots, 2))
        psi = _numbers(doc, "sinr_thresholds", (config.n_robots,))
        k_out = _numbers(doc, "outage_window_slots", (config.n_robots,), int)
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise ScenarioFormatError(f"bad scenario body: {exc!r}") from exc

    # per-robot data that generate could never produce
    if not (np.isfinite(trajectories).all() and np.isfinite(psi).all()):
        raise ScenarioFormatError("trajectories and SINR thresholds must be finite")
    x, y = trajectories[..., 0], trajectories[..., 1]
    if ((x < 0.0) | (x > config.floor_width) | (y < 0.0) | (y > config.floor_height)).any():
        raise ScenarioFormatError(
            f"a robot position lies outside the {config.floor_width:g} x {config.floor_height:g} m floor")
    if (psi <= 0).any():
        raise ScenarioFormatError("sinr_thresholds must be > 0")
    if (k_out < 1).any():
        raise ScenarioFormatError("outage_window_slots must be >= 1")

    return Scenario(
        config=config,
        bs_positions=bs_positions,
        ris_mounts=ris_mounts,
        obstacles=obstacles,
        trajectories=trajectories,
        psi=psi,
        k_out=k_out,
    )
