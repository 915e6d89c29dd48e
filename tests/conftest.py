import math

import numpy as np
import pytest

from rislink.geometry import Obstacle, Point2D, RisMount
from rislink.scenario import Scenario, ScenarioConfig, precompute


def build_showcase_scenario() -> Scenario:
    """Hand-placed two-slot instance with a forced allocation story.

    Robots 0..2 end up in a pocket behind a long machine, reachable only via
    the ceiling-wall surface i1; robots 0 and 1 share its arrival angle.
    Robot 0 is completely uncovered in slot 0 and tolerates only K=2
    consecutive outages, so slot 1 must serve it through i1.  Robot 3 sits
    on the b2->r6 beam axis and just off the i2->r5 axis, so it hears both
    of those transmissions.
    """
    cfg = ScenarioConfig(
        n_bs=2,
        n_ris=2,
        n_robots=6,
        n_slots=2,
        n_obstacles=2,
        obstacle_size=(3.0, 14.0),
        psi_range=(9.0, 10.0),
        k_range=(2, 15),
        d_reconfig=2,
        u_override=2,
        bs_positions=((10.0, 4.0), (30.0, 6.0)),
    )
    slot0 = [(1.0, 39.0), (4.0, 12.0), (12.0, 20.0), (22.0, 10.0), (28.0, 16.0), (34.0, 8.0)]
    slot1 = [(9.0, 32.0), (9.5, 31.5), (11.5, 30.5), (19.6, 19.9), (28.0, 20.0), (17.52, 22.68)]
    trajectories = np.array([[p0, p1] for p0, p1 in zip(slot0, slot1)], dtype=float)
    return Scenario(
        config=cfg,
        bs_positions=[Point2D(10.0, 4.0), Point2D(30.0, 6.0)],
        ris_mounts=[
            RisMount(Point2D(12.0, 40.0), (0.0, -1.0), math.radians(60.0)),
            RisMount(Point2D(40.0, 20.0), (-1.0, 0.0), math.radians(60.0)),
        ],
        obstacles=[
            Obstacle(3.0, 24.0, 16.65, 27.0),   # long machine below the pocket
            Obstacle(20.0, 27.0, 24.0, 33.0),   # block between i2 and the pocket
        ],
        trajectories=trajectories,
        psi=np.full(6, 9.5),
        k_out=np.array([2, 15, 15, 15, 15, 15]),
    )


@pytest.fixture(scope="session")
def showcase():
    scenario = build_showcase_scenario()
    return scenario, precompute(scenario)


def tiny_config(**overrides) -> ScenarioConfig:
    """Guard-sized random-instance config used by the oracle suites."""
    base = dict(
        n_bs=2, n_ris=2, n_robots=3, n_slots=4,
        n_obstacles=2, obstacle_size=(4.0, 9.0),
        floor_width=25.0, floor_height=25.0,
        psi_range=(9.0, 10.0), k_range=(2, 3),
        d_reconfig=2, u_override=2,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def recording_pool(sizes):
    """A stand-in for ``ProcessPoolExecutor`` that appends each pool's
    ``max_workers`` to ``sizes`` and runs its jobs in this process."""
    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    return Pool
