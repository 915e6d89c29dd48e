import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rislink import channel
from rislink.geometry import Obstacle, Point2D, RisMount, los_blocked_batch
from rislink.scenario import EXPERIMENT_CONFIG, ScenarioConfig, generate, precompute

from scalar_geometry import angle_between, footprint_diameter, in_beam_cone, los_blocked, sees

coords = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)


def points_differ(p, q):
    return p.x != q.x or p.y != q.y


def sampled_blocked(p, q, obstacle, samples=20001):
    """Independent oracle: dense point sampling along the segment.

    A sample that lands in the obstacle in floating point counts only if the
    exact point at that fraction of the segment does too, so a sample that
    rounding pushed off the segment never reports a hit.
    """
    for k, t in enumerate(np.linspace(0.0, 1.0, samples)):
        x = p.x + t * (q.x - p.x)
        y = p.y + t * (q.y - p.y)
        if obstacle.xmin <= x <= obstacle.xmax and obstacle.ymin <= y <= obstacle.ymax:
            f = Fraction(k, samples - 1)
            ex = Fraction(p.x) + f * (Fraction(q.x) - Fraction(p.x))
            ey = Fraction(p.y) + f * (Fraction(q.y) - Fraction(p.y))
            if obstacle.xmin <= ex <= obstacle.xmax and obstacle.ymin <= ey <= obstacle.ymax:
                return True
    return False


class TestLosBlocked:
    def test_through_rectangle(self):
        assert los_blocked(Point2D(0, 0), Point2D(10, 0), [Obstacle(4, -1, 6, 1)])

    def test_no_obstacles(self):
        assert not los_blocked(Point2D(0, 0), Point2D(10, 0), [])

    def test_passes_beside(self):
        ob = Obstacle(4, -1, 6, 1)
        p, q = Point2D(0, 5), Point2D(10, 5)
        assert sampled_blocked(p, q, ob) is False
        assert not los_blocked(p, q, [ob])

    def test_grazing_corner_counts_as_blocked(self):
        # segment y = x touches the corner (2, 2) exactly
        assert los_blocked(Point2D(0, 0), Point2D(4, 4), [Obstacle(2, 0, 6, 2)])

    def test_identical_points_rejected(self):
        with pytest.raises(ValueError):
            los_blocked(Point2D(1, 1), Point2D(1, 1), [])

    @given(coords, coords, coords, coords, coords, coords, coords, coords)
    @settings(max_examples=200)
    def test_symmetry(self, px, py, qx, qy, x0, y0, w, h):
        p, q = Point2D(px, py), Point2D(qx, qy)
        if not points_differ(p, q):
            return
        ob = Obstacle(min(x0, x0 + w), min(y0, y0 + h), max(x0, x0 + w), max(y0, y0 + h))
        assert los_blocked(p, q, [ob]) == los_blocked(q, p, [ob])

    @given(coords, coords, coords, coords, coords, coords, coords, coords)
    @settings(max_examples=200)
    def test_agrees_with_point_sampling(self, px, py, qx, qy, x0, y0, w, h):
        p, q = Point2D(px, py), Point2D(qx, qy)
        if not points_differ(p, q):
            return
        ob = Obstacle(min(x0, x0 + w), min(y0, y0 + h), max(x0, x0 + w), max(y0, y0 + h))
        got = los_blocked(p, q, [ob])
        sampled = sampled_blocked(p, q, ob, samples=2001)
        # sampling can miss a grazing hit but must never contradict a clear path
        if sampled:
            assert got
        elif not got:
            assert not sampled

    @given(st.lists(st.tuples(coords, coords, coords, coords), min_size=1, max_size=20),
           st.lists(st.tuples(coords, coords, coords, coords), min_size=1, max_size=3))
    @settings(max_examples=100)
    def test_batch_matches_scalar(self, segments, rects):
        obstacles = [Obstacle(min(a, c), min(b, d), max(a, c), max(b, d)) for (a, b, c, d) in rects]
        starts = np.array([[s[0], s[1]] for s in segments])
        ends = np.array([[s[2], s[3]] for s in segments])
        got = los_blocked_batch(starts, ends, obstacles)
        for row, (ax, ay, bx, by) in enumerate(segments):
            if (ax, ay) == (bx, by):
                assert not got[row]
            else:
                assert got[row] == los_blocked(Point2D(ax, ay), Point2D(bx, by), obstacles)


class TestFootprint:
    def test_reference_value(self):
        assert footprint_diameter(math.radians(10), 10.0) == pytest.approx(1.74977, abs=1e-4)

    def test_vanishes_at_source(self):
        assert footprint_diameter(math.radians(10), 0.0) == 0.0

    def test_sixty_degrees(self):
        assert footprint_diameter(math.radians(60), 1.0) == pytest.approx(2 * math.tan(math.radians(30)), rel=1e-12)
        assert footprint_diameter(math.radians(60), 1.0) == pytest.approx(1.1547, abs=1e-4)

    @given(st.floats(0.05, 3.0), st.floats(0.05, 3.0), st.floats(0.01, 100), st.floats(0.01, 100))
    @settings(max_examples=200)
    def test_strictly_increasing(self, t1, t2, d1, d2):
        if t1 > t2:
            t1, t2 = t2, t1
        if d1 > d2:
            d1, d2 = d2, d1
        base = footprint_diameter(t1, d1)
        wider = footprint_diameter(t2, d1)
        farther = footprint_diameter(t1, d2)
        assert base <= wider and base <= farther
        # Strict in exact arithmetic.  Arguments a few ulps apart can round to
        # the same diameter, while a relative gap of 1e-12 moves the diameter
        # by at least as much, far above the rounding of 2 tan(t/2) d.
        if t2 > t1 * (1 + 1e-12):
            assert base < wider
        if d2 > d1 * (1 + 1e-12):
            assert base < farther


class TestBeamCone:
    origin = Point2D(0, 0)
    target = Point2D(10, 0)

    def test_on_axis(self):
        assert in_beam_cone(self.origin, self.target, Point2D(5, 0), math.radians(10), [])

    def test_far_off_axis(self):
        assert not in_beam_cone(self.origin, self.target, Point2D(5, 5), math.radians(10), [])

    def test_just_inside_half_angle(self):
        # 4.57 degrees off-axis, inside theta/2 = 5; cross-checked against the
        # footprint radius at that range: 0.4 < tan(5 deg) * 5 = 0.4374
        probe = Point2D(5, 0.4)
        assert math.degrees(math.atan2(0.4, 5)) < 5
        assert 0.4 < footprint_diameter(math.radians(10), 5.0) / 2
        assert in_beam_cone(self.origin, self.target, probe, math.radians(10), [])

    def test_behind_origin(self):
        assert not in_beam_cone(self.origin, self.target, Point2D(-5, 0), math.radians(10), [])

    def test_blocked_probe(self):
        assert not in_beam_cone(self.origin, self.target, Point2D(5, 0), math.radians(10),
                                [Obstacle(2, -1, 3, 1)])

    @given(coords, coords, coords, coords)
    @settings(max_examples=200)
    def test_target_inside_own_beam(self, ox, oy, tx, ty):
        o, t = Point2D(ox, oy), Point2D(tx, ty)
        if not points_differ(o, t):
            return
        assert in_beam_cone(o, t, t, math.radians(10), [])


def derive(s):
    """The tables of a scenario and their conflicts, as precompute builds them."""
    t = precompute(s)
    return t, t.conflicts


def small_scenario(seed, n_obstacles=3):
    cfg = ScenarioConfig(
        n_bs=2, n_ris=3, n_robots=4, n_slots=5,
        n_obstacles=n_obstacles, obstacle_size=(3.0, 7.0),
        floor_width=30.0, floor_height=30.0,
    )
    return generate(cfg, seed)


class TestCoverage:
    def test_single_pair_no_obstacles(self):
        cfg = ScenarioConfig(n_bs=1, n_ris=0, n_robots=1, n_slots=6, n_obstacles=0)
        s = generate(cfg, 3)
        cov = precompute(s)
        assert cov.covered.shape == (6, 1, 1)
        assert cov.covered.all()

    def test_robot_behind_mount_wall_not_covered(self):
        cfg = ScenarioConfig(n_bs=1, n_ris=1, n_robots=1, n_slots=1, n_obstacles=0,
                             bs_positions=((20.0, 20.0),))
        s = generate(cfg, 0)
        # mount looking straight down from the top wall; robot above it is
        # outside any inward field of view by construction
        from rislink.geometry import RisMount as RM
        s.ris_mounts[0] = RM(Point2D(20.0, 40.0), (0.0, -1.0), math.radians(60.0))
        s.trajectories[0, 0] = (39.9, 39.99)
        mount = s.ris_mounts[0]
        assert not sees(mount, Point2D(39.9, 39.99))
        cov = precompute(s)
        assert not cov.covered[0, 0, 1]   # link 1: the mount

    @pytest.mark.parametrize("seed", range(5))
    def test_extra_obstacle_is_monotone(self, seed):
        s = small_scenario(seed)
        cov = precompute(s)
        s_more = small_scenario(seed)
        s_more.obstacles = list(s.obstacles) + [Obstacle(12.0, 12.0, 18.0, 18.0)]
        cov_more = precompute(s_more)
        assert not (cov_more.sight & ~cov.sight).any()
        assert not (cov_more.covered & ~cov.covered).any()
        # no surface gains a serving BS it lacked
        assert not ((cov_more.serving_bs >= 0) & (cov.serving_bs < 0)).any()

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_pairwise_definition(self, seed):
        # the batched masks equal their definition checked pair by pair with
        # the scalar routines, on a floor dense with machines
        s = generate(replace(EXPERIMENT_CONFIG, n_robots=6, n_slots=8), seed)
        cov = precompute(s)
        # each surface relays the nearest BS with clear sight to it, ties to
        # the lower index, and none (-1) when no BS sees it
        serving = []
        for m in s.ris_mounts:
            seen = [(p.distance_to(m.position), b) for b, p in enumerate(s.bs_positions)
                    if points_differ(p, m.position) and not los_blocked(p, m.position, s.obstacles)]
            serving.append(min(seen)[1] if seen else -1)
        assert cov.serving_bs.tolist() == serving
        for n in range(s.config.n_slots):
            robots = [Point2D(*xy) for xy in s.trajectories[:, n].tolist()]
            bs = [[points_differ(p, q) and not los_blocked(p, q, s.obstacles) for q in robots]
                  for p in s.bs_positions]
            sight = [[points_differ(m.position, q) and not los_blocked(m.position, q, s.obstacles)
                      for q in robots] for m in s.ris_mounts]
            ris = [[cov.serving_bs[i] >= 0 and sees(m, q) and seen for q, seen in zip(robots, sight[i])]
                   for i, m in enumerate(s.ris_mounts)]
            # a BS covers a robot exactly when it sees it; BS links come first
            assert np.array_equal(cov.sight[n].T, bs + sight)
            assert np.array_equal(cov.covered[n].T, bs + ris)

    @pytest.mark.parametrize("seed", range(5))
    def test_blocked_pairs_stay_blocked(self, seed):
        s = small_scenario(seed)
        extra = [Obstacle(12.0, 12.0, 18.0, 18.0)]
        for n in range(s.config.n_slots):
            for r in range(s.config.n_robots):
                for b, bpos in enumerate(s.bs_positions):
                    p = Point2D(*s.trajectories[r, n].tolist())
                    if los_blocked(bpos, p, s.obstacles):
                        assert los_blocked(bpos, p, list(s.obstacles) + extra)


def surface_coverage(s, cov):
    """(N, I, R) coverage of every surface, the links after the BSs."""
    return cov.covered[:, :, s.config.n_bs:].transpose(0, 2, 1)


class TestConflicts:
    def test_collinear_robots_conflict(self):
        s = small_scenario(0, n_obstacles=0)
        mount = RisMount(Point2D(0.0, 15.0), (1.0, 0.0), math.radians(60.0))
        s.ris_mounts = [mount]
        s.config = ScenarioConfig(**{**_cfg_dict(s.config), "n_ris": 1, "n_robots": 2})
        s.trajectories = np.zeros((2, s.config.n_slots, 2))
        s.trajectories[0, :, :] = (10.0, 15.0)
        s.trajectories[1, :, :] = (20.0, 15.0)
        s.psi = s.psi[:2]
        s.k_out = s.k_out[:2]
        cov, conf = derive(s)
        assert conf[0, 0, 0, 1]

    def test_orthogonal_robots_do_not_conflict(self):
        s = small_scenario(0, n_obstacles=0)
        mount = RisMount(Point2D(0.0, 15.0), (1.0, 0.0), math.radians(60.0))
        s.ris_mounts = [mount]
        s.config = ScenarioConfig(**{**_cfg_dict(s.config), "n_ris": 1, "n_robots": 2})
        s.trajectories = np.zeros((2, s.config.n_slots, 2))
        s.trajectories[0, :, :] = (10.0, 15.0)   # straight ahead
        s.trajectories[1, :, :] = (5.0, 19.0)    # ~39 degrees off
        s.psi = s.psi[:2]
        s.k_out = s.k_out[:2]
        cov, conf = derive(s)
        assert not conf[0, 0].any()

    @pytest.mark.parametrize("seed", range(8))
    def test_conflict_pairs_are_covered(self, seed):
        s = small_scenario(seed)
        cov, conf = derive(s)
        ris = surface_coverage(s, cov)
        assert not (conf & ~ris[..., :, None]).any()
        assert not (conf & ~ris[..., None, :]).any()
        assert not np.tril(conf).any()  # only ra < rb

    @pytest.mark.parametrize("seed", range(4))
    def test_surviving_conflicts_stay_under_extra_obstacle(self, seed):
        s = small_scenario(seed)
        cov, conf = derive(s)
        s.obstacles = list(s.obstacles) + [Obstacle(12.0, 12.0, 18.0, 18.0)]
        cov2, conf2 = derive(s)
        ris2 = surface_coverage(s, cov2)
        both2 = ris2[..., :, None] & ris2[..., None, :]
        assert not (conf & both2 & ~conf2).any()

    @pytest.mark.parametrize("seed", range(2))
    def test_matches_pairwise_definition(self, seed):
        # the mask equals its definition checked pair by pair with the scalar
        # angle, on the floor dense with machines, where some robots near in
        # angle are hidden from the surface
        s = generate(replace(EXPERIMENT_CONFIG, n_robots=14, n_slots=6), seed)
        cov, conf = derive(s)
        theta = channel.THETA
        expected = np.zeros_like(conf)
        near_but_hidden = 0
        for n in range(s.config.n_slots):
            for i, m in enumerate(s.ris_mounts):
                vec = s.trajectories[:, n] - (m.position.x, m.position.y)
                for ra in range(s.config.n_robots):
                    for rb in range(ra + 1, s.config.n_robots):
                        near = angle_between(*vec[ra], *vec[rb]) <= theta + 1e-12
                        link = s.config.n_bs + i
                        covered = cov.covered[n, ra, link] and cov.covered[n, rb, link]
                        expected[n, i, ra, rb] = near and covered
                        near_but_hidden += near and not covered
        assert near_but_hidden > 0 and expected.any()
        assert np.array_equal(conf, expected)


def _cfg_dict(cfg):
    from dataclasses import asdict
    d = asdict(cfg)
    d["obstacle_size"] = tuple(d["obstacle_size"])
    d["psi_range"] = tuple(d["psi_range"])
    d["k_range"] = tuple(d["k_range"])
    return d
