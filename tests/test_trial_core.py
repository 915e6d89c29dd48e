"""Pinned outputs of the trial core: heuristic outcomes and validation reports.

The pins were taken from the per-robot, per-slot loop implementation that
the array code replaced; the array code must reproduce them exactly.  The
two floors are written out here rather than imported, so that recalibrating
``EXPERIMENT_CONFIG`` or the benchmark's config cannot silently re-pin them.
"""

import hashlib
import math

import numpy as np
import pytest

from rislink import allocation, heuristic
from rislink.allocation import AllocationSchedule, validate
from rislink.scenario import ScenarioConfig, generate, precompute

# Table II on the default (uncalibrated) floor, as the benchmark runs it
BENCHMARK_FLOOR = ScenarioConfig(
    n_bs=2, n_ris=8, n_slots=50, n_robots=14,
    psi_range=(9.0, 10.0), k_range=(14, 15),
    d_reconfig=2, u_override=2,
)
# Table II on the calibrated experiment floor
CALIBRATED_FLOOR = ScenarioConfig(
    n_bs=2, n_ris=8, n_slots=50, n_robots=14,
    psi_range=(9.0, 10.0), k_range=(14, 15),
    d_reconfig=2, u_override=2,
    bs_positions=((20.0, 2.0), (20.0, 38.0)),
    n_obstacles=84, obstacle_size=(0.8, 1.4),
    bs_clearance=3.0, wall_clearance=4.0,
    robot_step=2.6, ris_fov_half_angle=math.radians(90.0),
)
FLOORS = {"benchmark": BENCHMARK_FLOOR, "calibrated": CALIBRATED_FLOOR}


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else part.encode())
    return h.hexdigest()[:16]


# seed -> (schedule digest, feasible, failure_at, report digest)
HEURISTIC_PINS = {
    "benchmark": {
        1000: ("f9a6a24bed321048", False, (4, 31), "20c5b3445f63ba6c"),
        1001: ("7d2d344126c56875", False, (2, 15), "e1aeb01a91119284"),
        1002: ("55c51d5ea783b646", True, None, "a9347270f7642ce4"),
        1003: ("8d3ac54b80010391", False, (4, 28), "92e37e4b7ccc48c9"),
        1004: ("266b0defc9e7c82d", True, None, "a9347270f7642ce4"),
        1005: ("0ceaeffa130fd6ab", False, (13, 47), "30f97a2b8a82310f"),
        1006: ("6205f6807ae4556a", True, None, "a9347270f7642ce4"),
        1007: ("e664fb53fbfe38e0", False, (7, 15), "f84aa39761764761"),
        1008: ("0a9835e627342de7", True, None, "a9347270f7642ce4"),
        1009: ("6930e2f676123a1b", True, None, "a9347270f7642ce4"),
        1010: ("243aac137dcf1168", False, (12, 16), "0b428d6621ab5001"),
        1011: ("23bf6192fbe9ddc1", True, None, "a9347270f7642ce4"),
        1012: ("527c5d04fc41c993", False, (8, 36), "cc31dc68ac638bff"),
        1013: ("f6b367254c4eca29", False, (11, 25), "c6cec1306bd7d996"),
        1014: ("ccd8dda4ed668b91", False, (4, 21), "97c4dfd0d684f6c8"),
        1015: ("21e5eddcefd1c157", False, (6, 31), "358d975ba09c7cee"),
        1016: ("a76c82f02a8e4517", True, None, "a9347270f7642ce4"),
        1017: ("9edafea813d368c9", True, None, "a9347270f7642ce4"),
        1018: ("1743ada6760e1e12", False, (5, 14), "d6eb8f41de8e64a3"),
        1019: ("d97ad40b12c1548b", True, None, "a9347270f7642ce4"),
    },
    "calibrated": {
        1000: ("50e6c8fecef14d00", True, None, "a9347270f7642ce4"),
        1001: ("a426788776612641", True, None, "a9347270f7642ce4"),
        1002: ("307b108643d03f37", True, None, "a9347270f7642ce4"),
        1003: ("597980ebfb382da5", True, None, "a9347270f7642ce4"),
        1004: ("36cdf6d623a0de4c", False, (1, 44), "8989a1b2004205cb"),
        1005: ("179b4e0cc748fb45", True, None, "a9347270f7642ce4"),
        1006: ("3189ad8531390ec2", True, None, "a9347270f7642ce4"),
        1007: ("8e88d8916fded714", True, None, "a9347270f7642ce4"),
        1008: ("6495b249cd541049", True, None, "a9347270f7642ce4"),
        1009: ("e1c3274d5e23b886", True, None, "a9347270f7642ce4"),
        1010: ("cf16bc61771e9d9e", True, None, "a9347270f7642ce4"),
        1011: ("da52458a3f2750c9", True, None, "a9347270f7642ce4"),
        1012: ("b75b4e341c597d89", True, None, "a9347270f7642ce4"),
        1013: ("47e263f51ba88915", True, None, "a9347270f7642ce4"),
        1014: ("ced4c6891bcf3089", True, None, "a9347270f7642ce4"),
        1015: ("a465b0dcdbe70db0", True, None, "a9347270f7642ce4"),
        1016: ("01a5b85121eb0b95", True, None, "a9347270f7642ce4"),
        1017: ("6dfbdec12c22bf2f", True, None, "a9347270f7642ce4"),
        1018: ("8210cfa243822016", True, None, "a9347270f7642ce4"),
        1019: ("1beeee2c2c255959", False, (8, 26), "4f4ec22f296e7c2d"),
    },
}


@pytest.mark.parametrize("floor", sorted(FLOORS))
def test_heuristic_outcomes_and_reports_pinned(floor):
    got = {}
    for seed in range(1000, 1020):
        s = generate(FLOORS[floor], seed)
        t = precompute(s)
        out = heuristic.allocate(t, s, seed=seed)
        sched = out.schedule
        assert sched.kind.dtype == np.int8 and sched.index.dtype == np.int16
        got[seed] = (digest(sched.kind.tobytes(), sched.index.tobytes()), out.feasible,
                     out.failure_at, digest(validate(s, t, sched).render()))
    assert got == HEURISTIC_PINS[floor]


# small floors on which random schedules hit every violation family
INVALID_FLOORS = {
    "default": ScenarioConfig(n_bs=2, n_ris=3, n_robots=10, n_slots=10, n_obstacles=4,
                              k_range=(2, 3), d_reconfig=2, u_override=2),
    "calibrated": ScenarioConfig(n_bs=2, n_ris=3, n_robots=10, n_slots=10, n_obstacles=30,
                                 obstacle_size=(0.8, 1.4), bs_positions=((20.0, 2.0), (20.0, 38.0)),
                                 bs_clearance=3.0, wall_clearance=4.0, robot_step=2.6,
                                 ris_fov_half_angle=math.radians(90.0),
                                 k_range=(2, 3), d_reconfig=3, u_override=2),
}
FAMILIES = {"coverage", "capacity(12)", "conflict(11)", "sinr_bs(13)", "sinr_ris(14)",
            "ris_ready(16,19)", "outage_window(17)"}


def random_schedule(rng, cfg) -> AllocationSchedule:
    """Mostly relayed links crowding a few surfaces, one in twenty naming a
    BS or surface that does not exist."""
    shape = (cfg.n_robots, cfg.n_slots)
    kind = rng.choice([allocation.OUTAGE, allocation.BS, allocation.RIS], size=shape, p=[0.2, 0.3, 0.5])
    index = np.where(kind == allocation.BS, rng.integers(0, cfg.n_bs, size=shape),
                     rng.integers(0, cfg.n_ris, size=shape))
    stray = rng.random(shape) < 0.05
    index = np.where(stray, rng.choice([-1, cfg.n_bs, cfg.n_ris, cfg.n_ris + 1], size=shape), index)
    index = np.where(kind == allocation.OUTAGE, -1, index)
    return AllocationSchedule(kind.astype(np.int8), index.astype(np.int16))


# (floor, scenario seed) -> report digests of four random schedules
INVALID_PINS = {
    "calibrated/0": ["4dca4b25597ccbc4", "be17ac55334e3778", "9c2c8b3a635a2019", "35c947db27609dfc"],
    "calibrated/1": ["a519499a8d10cdff", "4aca87cbdf26e6a9", "2859c67d2d1d86f1", "c721467b86247bf6"],
    "calibrated/2": ["6792e868bd2b76cd", "76b2d7a7e0d27746", "f9e4e8a04bfb32d0", "3e4948df0b6df77d"],
    "default/0": ["54732573d5f469c5", "8b3603f6cc1a8807", "3d7b90f41d629c51", "1c0137f3d3d9cbbe"],
    "default/1": ["7092918fda3a2392", "ab64c01dbb914323", "52c8a75dd21ae2c4", "054e2382cf25ad27"],
    "default/2": ["0f07d854920bbfef", "4d97f44371cc9a4e", "1698bc5e2c9f9ce6", "4a25291931fcfcd5"],
}


def test_invalid_schedule_reports_pinned():
    got, families, stray = {}, set(), 0
    for name, cfg in sorted(INVALID_FLOORS.items()):
        for seed in range(3):
            s = generate(cfg, seed)
            t = precompute(s)
            rng = np.random.default_rng(seed)
            reports = []
            for _ in range(4):
                sched = random_schedule(rng, cfg)
                report = validate(s, t, sched)
                families |= report.families()
                limit = np.where(sched.kind == allocation.BS, cfg.n_bs, cfg.n_ris)
                stray += int(((sched.kind != allocation.OUTAGE)
                              & ((sched.index < 0) | (sched.index >= limit))).sum())
                reports.append(digest(report.render()))
            got[f"{name}/{seed}"] = reports
    assert families == FAMILIES
    assert stray > 0
    assert got == INVALID_PINS
