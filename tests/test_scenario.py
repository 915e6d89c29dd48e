import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from rislink import channel
from rislink.geometry import Point2D
from rislink.scenario import (
    DIRECTION_HOLD_SLOTS,
    GenerationError,
    Scenario,
    ScenarioConfig,
    ScenarioFormatError,
    _config_from_dict,
    _config_to_dict,
    deserialize,
    generate,
    precompute,
    serialize,
    strip_ris,
)

from conftest import build_showcase_scenario, tiny_config
from scalar_geometry import angle_between, in_beam_cone

CFG = ScenarioConfig(n_robots=5, n_slots=25, n_ris=4, n_obstacles=4)
# every field away from its default
OFF_DEFAULT = ScenarioConfig(
    floor_width=30.0, floor_height=25.0, n_bs=3, n_ris=5, n_robots=4, n_slots=7,
    robot_step=1.5, n_obstacles=2, obstacle_size=(1.0, 2.0),
    bs_clearance=2.5, wall_clearance=1.0,
    psi_range=(5.0, 6.0), k_range=(3, 4), d_reconfig=3, u_override=1,
    ris_fov_half_angle=1.2, bs_positions=((1.0, 2.0), (3.0, 4.0), (5.0, 6.0)),
)
# the physical-layer block of a version-2 config; Table II is fixed in rislink.channel
V2_PHYS = {
    "bandwidth_hz": 20e6, "beamwidth_rad": math.radians(10.0), "boltzmann_j_k": 1.380649e-23,
    "freq_hz": 28e9, "light_speed_m_s": 299792458.0, "n_elements": 200, "p_bs_w": 1e-3,
    "temperature_k": 290.0,
}


class TestGenerate:
    def test_deterministic_bytes(self):
        a = serialize(generate(CFG, 123))
        b = serialize(generate(CFG, 123))
        assert a == b

    def test_seeds_differ(self):
        assert serialize(generate(CFG, 1)) != serialize(generate(CFG, 2))

    def test_empty_robot_scenario(self):
        s = generate(replace(CFG, n_robots=0), 5)
        assert s.trajectories.shape == (0, 25, 2)
        tables = precompute(s)
        assert tables.power.shape == (25, 0, CFG.n_bs + CFG.n_ris)

    def test_positions_strictly_inside_floor(self):
        for seed in range(10):
            s = generate(CFG, seed)
            assert (s.trajectories[:, :, 0] > 0).all()
            assert (s.trajectories[:, :, 0] < CFG.floor_width).all()
            assert (s.trajectories[:, :, 1] > 0).all()
            assert (s.trajectories[:, :, 1] < CFG.floor_height).all()

    def test_positions_avoid_obstacles(self):
        for seed in range(10):
            s = generate(CFG, seed)
            for ob in s.obstacles:
                inside = (
                    (s.trajectories[:, :, 0] >= ob.xmin) & (s.trajectories[:, :, 0] <= ob.xmax)
                    & (s.trajectories[:, :, 1] >= ob.ymin) & (s.trajectories[:, :, 1] <= ob.ymax)
                )
                assert not inside.any()

    def test_heading_changes_only_on_schedule_or_contact(self):
        """Unforced heading changes happen only at slot indices 0 mod 5.

        A change elsewhere must be explained by boundary or obstacle contact:
        continuing with the previous heading would have left the floor or hit
        a machine.
        """
        cfg = replace(CFG, n_robots=8, n_slots=50)
        for seed in range(20):
            s = generate(cfg, seed)
            step = cfg.robot_step
            for r in range(cfg.n_robots):
                deltas = np.diff(s.trajectories[r], axis=0)
                for n in range(1, len(deltas)):
                    if n % DIRECTION_HOLD_SLOTS == 0:
                        continue
                    prev, cur = deltas[n - 1], deltas[n]
                    if np.allclose(prev, cur, atol=1e-9):
                        continue
                    if np.linalg.norm(prev) < step - 1e-9:
                        continue  # previous step folded against a wall
                    # forced change: replaying the previous heading must fail
                    cand = s.trajectories[r, n] + prev
                    off_floor = not (0 < cand[0] < cfg.floor_width and 0 < cand[1] < cfg.floor_height)
                    in_obstacle = any(
                        ob.xmin <= cand[0] <= ob.xmax and ob.ymin <= cand[1] <= ob.ymax
                        for ob in s.obstacles
                    )
                    assert off_floor or in_obstacle, (seed, r, n)

    def test_step_length_bounded(self):
        s = generate(replace(CFG, n_obstacles=0), 3)
        deltas = np.diff(s.trajectories, axis=1)
        lengths = np.linalg.norm(deltas, axis=2)
        # a wall bounce folds the displacement; every other step is full length
        assert (lengths <= CFG.robot_step + 1e-9).all()
        assert (lengths > 0).all()
        full = np.isclose(lengths, CFG.robot_step, rtol=1e-9)
        assert full.mean() > 0.8

    def test_qos_means(self):
        # 50 scenarios x 200 robots = 10^4 draws from {14,15} and {9,10}
        cfg = replace(CFG, n_robots=200, n_slots=2, n_obstacles=0)
        ks = []
        psis = []
        for seed in range(50):
            s = generate(cfg, seed)
            ks.append(s.k_out)
            psis.append(s.psi)
        assert np.concatenate(ks).mean() == pytest.approx(14.5, abs=0.02)
        assert np.concatenate(psis).mean() == pytest.approx(9.5, abs=0.02)

    def test_qos_values_within_ranges(self):
        s = generate(CFG, 11)
        assert set(np.unique(s.k_out)) <= {14, 15}
        assert set(np.unique(s.psi)) <= {9.0, 10.0}

    def test_overcrowded_floor_fails(self):
        cfg = ScenarioConfig(floor_width=5.0, floor_height=5.0, n_obstacles=6,
                             obstacle_size=(4.0, 4.9), n_robots=2)
        with pytest.raises(GenerationError):
            generate(cfg, 0)

    def test_u_override_validated(self):
        with pytest.raises(ValueError):
            ScenarioConfig(u_override=11)  # above the element-count limit of 10


class TestPrecompute:
    def test_open_floor_single_pair(self):
        cfg = ScenarioConfig(n_bs=1, n_ris=0, n_robots=1, n_slots=8, n_obstacles=0)
        s = generate(cfg, 2)
        t = precompute(s)
        assert t.covered.shape == (8, 1, 1)
        assert t.covered.all()
        assert t.conflicts.shape == (8, 0, 1, 1)
        assert (t.power > 0).all()
        assert not t.interference.any()

    def test_recompute_is_bit_exact(self):
        s = generate(CFG, 9)
        t1 = precompute(s)
        t2 = precompute(deserialize(serialize(s)))
        assert np.array_equal(t1.power, t2.power)
        assert np.array_equal(t1.interference, t2.interference)
        assert np.array_equal(t1.covered, t2.covered)
        assert np.array_equal(t1.sight, t2.sight)
        assert np.array_equal(t1.conflicts, t2.conflicts)

    def test_u_derived_from_elements(self):
        s = generate(CFG, 1)
        assert precompute(s).u_effective == 10
        s2 = generate(replace(CFG, u_override=2), 1)
        assert precompute(s2).u_effective == 2

    def test_strip_ris(self):
        s = generate(CFG, 4)
        bare = strip_ris(s)
        assert bare.config.n_ris == 0
        assert bare.ris_mounts == []
        t = precompute(bare)
        assert t.power.shape == (25, 5, CFG.n_bs)


def reference_mismatches(s) -> tuple:
    """Entries of precompute's tables that disagree with the scalar formulas.

    Power is compared on covered links with the ``Point2D.distance_to``
    ranges; interference must be positive exactly where the victim sits in
    the covered transmitter's beam cone; a conflict must be a covered pair
    within the beamwidth at the surface.  Returns (mismatches, covered
    links, heard pairs).
    """
    t = precompute(s)
    cov, n_b = t.covered, s.config.n_bs
    sources = list(s.bs_positions) + [m.position for m in s.ris_mounts]
    feed = [s.bs_positions[b].distance_to(m.position) if b >= 0 else None
            for b, m in zip(t.serving_bs.tolist(), s.ris_mounts)]
    bad, links, heard = [], 0, 0
    for n in range(s.config.n_slots):
        robots = [Point2D(*xy) for xy in s.trajectories[:, n].tolist()]
        for r, robot in enumerate(robots):
            for link, src in enumerate(sources):
                if not cov[n, r, link]:
                    continue
                links += 1
                d = src.distance_to(robot)
                want = channel.direct_power(d) if link < n_b else channel.ris_power(feed[link - n_b], d)
                if not math.isclose(t.power[n, r, link], want, rel_tol=1e-12):
                    bad.append(("power", n, r, link))
                for victim, probe in enumerate(robots):
                    hears = victim != r and in_beam_cone(src, robot, probe, channel.THETA, s.obstacles)
                    heard += hears
                    if (t.interference[n, victim, r, link] > 0) != hears:
                        bad.append(("interference", n, victim, r, link))
        for i, mount in enumerate(s.ris_mounts):
            vec = [(q.x - mount.position.x, q.y - mount.position.y) for q in robots]
            for ra in range(len(robots)):
                for rb in range(ra + 1, len(robots)):
                    both = cov[n, ra, n_b + i] and cov[n, rb, n_b + i]
                    want = both and angle_between(*vec[ra], *vec[rb]) <= channel.THETA + 1e-12
                    if t.conflicts[n, i, ra, rb] != want:
                        bad.append(("conflict", n, i, ra, rb))
    return bad, links, heard


class TestPrecomputeReference:
    def test_tables_match_scalar_formulas(self):
        scenarios = [build_showcase_scenario()] + [generate(tiny_config(n_robots=5, n_slots=6), seed)
                                                   for seed in range(8)]
        bad, links, heard = [], 0, 0
        for s in scenarios:
            b, c, h = reference_mismatches(s)
            bad, links, heard = bad + b, links + c, heard + h
        assert bad == []
        assert links > 500 and heard > 100

    def test_robot_on_a_source_is_uncovered(self):
        # a robot on a mast or a surface has no direction to it: no link,
        # no beam, no conflict, and no error from the zero range
        s = generate(tiny_config(n_robots=3, n_slots=2), 0)
        s.trajectories[0, 0] = (s.bs_positions[0].x, s.bs_positions[0].y)
        s.trajectories[1, 0] = (s.ris_mounts[0].position.x, s.ris_mounts[0].position.y)
        t = precompute(s)
        assert not t.covered[0, 0, 0] and not t.sight[0, 0, 0]
        assert not t.covered[0, 1, s.config.n_bs]
        assert t.distance[0, 0, 0] == 0.0 and t.distance[0, 1, s.config.n_bs] == 0.0
        assert np.isfinite(t.power).all() and np.isfinite(t.interference).all()
        assert not t.conflicts[0, 0, :2].any() and not t.conflicts[0, 0, :, 1].any()


class TestSerialization:
    def test_round_trip_identity(self):
        s = generate(CFG, 77)
        assert deserialize(serialize(s)) == s

    def test_round_trip_preserves_bytes(self):
        s = generate(CFG, 78)
        text = serialize(s)
        assert serialize(deserialize(text)) == text

    def test_truncated_file_is_schema_error(self):
        text = serialize(generate(CFG, 1))
        with pytest.raises(ScenarioFormatError):
            deserialize(text[: len(text) // 2])

    def test_unknown_version_rejected(self):
        doc = json.loads(serialize(generate(CFG, 1)))
        doc["version"] = 99
        with pytest.raises(ScenarioFormatError, match="version"):
            deserialize(json.dumps(doc))

    def test_wrong_shape_rejected(self):
        doc = json.loads(serialize(generate(CFG, 1)))
        doc["trajectories_m"] = doc["trajectories_m"][:-1]
        with pytest.raises(ScenarioFormatError):
            deserialize(json.dumps(doc))

    @pytest.mark.parametrize("edit", [
        lambda d: d["trajectories_m"][0][3].__setitem__(0, math.nan),
        lambda d: d["trajectories_m"][1][0].__setitem__(1, math.inf),
        lambda d: d["sinr_thresholds"].__setitem__(2, math.nan),
        lambda d: d["trajectories_m"][0][0].__setitem__(0, 500.0),
        lambda d: d["trajectories_m"][2][4].__setitem__(1, -0.5),
        lambda d: d["outage_window_slots"].__setitem__(0, 0),
        lambda d: d["sinr_thresholds"].__setitem__(1, 0),
        lambda d: d["sinr_thresholds"].__setitem__(0, -3.0),
    ], ids=["nan-x", "inf-y", "nan-threshold", "x-beyond-floor", "y-below-floor", "zero-window",
            "zero-threshold", "negative-threshold"])
    def test_impossible_robot_data_rejected(self, edit):
        doc = json.loads(serialize(generate(CFG, 1)))
        edit(doc)
        with pytest.raises(ScenarioFormatError):
            deserialize(json.dumps(doc))

    @pytest.mark.parametrize("key, edit, found", [
        ("outage_window_slots", lambda v: v.__setitem__(slice(0, 2), [14.7, 3.2]), "float"),
        ("sinr_thresholds", lambda v: v.__setitem__(slice(0, 2), ["9", True]), "bool, str"),
        ("trajectories_m", lambda v: v[1][2].__setitem__(0, "1.5"), "str"),
    ], ids=["fractional-window", "string-and-boolean-thresholds", "string-coordinate"])
    def test_non_numeric_robot_data_rejected(self, key, edit, found):
        doc = json.loads(serialize(generate(CFG, 1)))
        edit(doc[key])
        with pytest.raises(ScenarioFormatError, match=f"{key} holds {found} values"):
            deserialize(json.dumps(doc))

    @pytest.mark.parametrize("key, edit", [
        ("trajectories_m", lambda v: v[0].pop()),
        ("trajectories_m", lambda v: v[2][1].append(1.0)),
        ("sinr_thresholds", lambda v: v.pop()),
        ("outage_window_slots", lambda v: v.append(14)),
    ], ids=["short-trajectory", "three-coordinate-point", "short-thresholds", "long-windows"])
    def test_misshapen_robot_data_rejected(self, key, edit):
        doc = json.loads(serialize(generate(CFG, 1)))
        edit(doc[key])
        with pytest.raises(ScenarioFormatError, match=f"{key} is not nested as"):
            deserialize(json.dumps(doc))

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["bs_positions_m"][1].__setitem__(1, True), "bs_positions_m holds bool values"),
        (lambda d: d["bs_positions_m"][0].append(0.0), "bs_positions_m is not nested as"),
        (lambda d: d["bs_positions_m"].pop(), "bs_positions_m is not nested as"),
        (lambda d: d["ris_mounts"][0]["position_m"].append(1.0), "position_m is not nested as"),
        (lambda d: d["ris_mounts"][1]["normal"].__setitem__(0, "0.0"), "normal holds str values"),
        (lambda d: d["ris_mounts"][2].__setitem__("fov_half_angle_rad", "0.5"), "fov_half_angle_rad holds str values"),
        (lambda d: d["ris_mounts"].pop(), "position_m is not nested as"),
        (lambda d: d["obstacles_m"][0].__setitem__(2, "3.0"), "obstacles_m holds str values"),
        (lambda d: d["obstacles_m"][3].__setitem__(0, False), "obstacles_m holds bool values"),
        (lambda d: d["obstacles_m"][1].append(1.0), "obstacles_m is not nested as"),
        (lambda d: d.__setitem__("obstacles", []), "unknown keys: obstacles$"),
        (lambda d: d["ris_mounts"][1].__setitem__("tilt_rad", 0.1),
         "^bad scenario body: unknown ris_mounts keys: tilt_rad$"),
        (lambda d: d["obstacles_m"].pop(), r"obstacles_m is not nested as \(4, 4\)"),
        (lambda d: d["obstacles_m"].append([1.0, 1.0, 2.0, 2.0]), r"obstacles_m is not nested as \(4, 4\)"),
        (lambda d: d["ris_mounts"][1].pop("normal"), "^bad scenario body: missing key 'normal'$"),
    ], ids=["boolean-mast-coordinate", "three-coordinate-mast", "missing-mast", "three-coordinate-mount",
            "string-normal", "string-field-of-view", "missing-mount", "string-obstacle-corner",
            "boolean-obstacle-corner", "five-value-obstacle", "unknown-top-level-key", "unknown-mount-key",
            "fewer-obstacles-than-config", "more-obstacles-than-config", "missing-mount-key"])
    def test_malformed_geometry_rejected(self, edit, message):
        # the message is plain text, never the repr of the reader's exception
        doc = json.loads(serialize(generate(CFG, 1)))
        edit(doc)
        with pytest.raises(ScenarioFormatError, match=message) as info:
            deserialize(json.dumps(doc))
        assert "Error(" not in str(info.value)

    def test_version_1_file_rejected(self):
        doc = json.loads(serialize(generate(CFG, 1)))
        doc["version"] = 1
        with pytest.raises(ScenarioFormatError, match="version"):
            deserialize(json.dumps(doc))

    def test_version_2_file_rejected(self):
        doc = json.loads(serialize(generate(CFG, 1)))
        doc["version"] = 2
        doc["config"]["phys"] = dict(V2_PHYS)
        with pytest.raises(ScenarioFormatError, match="unsupported version 2"):
            deserialize(json.dumps(doc))

    def test_config_off_defaults_round_trips(self):
        default = ScenarioConfig()
        assert all(getattr(OFF_DEFAULT, f.name) != getattr(default, f.name) for f in fields(ScenarioConfig))
        assert _config_from_dict(json.loads(json.dumps(_config_to_dict(OFF_DEFAULT)))) == OFF_DEFAULT
        s = generate(OFF_DEFAULT, 3)
        assert deserialize(serialize(s)) == s

    def test_reader_reads_exactly_the_written_keys(self):
        # the reader needs every key the writer writes, and refuses any other
        written = _config_to_dict(CFG)
        for key in written:
            d = dict(written)
            del d[key]
            with pytest.raises(ScenarioFormatError, match=f"^bad config block: missing key '{key}'$"):
                _config_from_dict(d)
        with pytest.raises(ScenarioFormatError, match="unknown config keys: extra_m$"):
            _config_from_dict(dict(written, extra_m=1.0))
        with pytest.raises(ScenarioFormatError, match="unknown config keys: phys$"):
            _config_from_dict(dict(written, phys=dict(V2_PHYS)))

    @pytest.mark.parametrize("key, value", [
        ("n_slots", "x"),
        ("n_slots", 0),
        ("n_slots", 3.7),
        ("n_robots", True),
        ("u_override", 99),
        ("k_range", [0, 1]),
        ("k_range", [14, 15.5]),
        ("k_range", [14]),
        ("psi_range", ["9", "10"]),
        ("floor_m", None),
        ("bs_positions_m", [[1.0, 2.0, 3.0]]),
        ("phys", {}),
        ("robot_step_m", math.nan),
        ("floor_m", [math.inf, 40.0]),
        ("psi_range", [math.nan, 10.0]),
        ("psi_range", [9.5, 9.9]),
        ("obstacle_size_m", [3.0, math.inf]),
        ("wall_clearance_m", math.nan),
        ("ris_fov_half_angle_rad", -math.inf),
        ("bs_positions_m", [[5.0, math.nan], [10.0, 10.0]]),
        ("psi_range", [-3.0, -2.0]),
        ("psi_range", [0.0, 10.0]),
        ("obstacle_size_m", [6.0, 3.0]),
        ("obstacle_size_m", [-1.0, 2.0]),
        ("obstacle_size_m", [0.0, 2.0]),
        ("ris_fov_half_angle_rad", 3.0),
        ("ris_fov_half_angle_rad", 0.0),
    ], ids=["string-slots", "zero-slots", "fractional-slots", "boolean-robots", "u-above-cap",
            "zero-window", "fractional-window", "short-window", "string-thresholds",
            "null-floor", "triple-position", "empty-phys", "nan-step", "infinite-floor",
            "nan-threshold", "fractional-threshold", "infinite-obstacle-size", "nan-clearance",
            "infinite-field-of-view", "nan-position", "negative-thresholds", "zero-threshold",
            "reversed-obstacle-size", "negative-obstacle-size", "zero-obstacle-size",
            "field-of-view-past-right-angle", "zero-field-of-view"])
    def test_malformed_config_value_rejected(self, key, value):
        doc = json.loads(serialize(generate(CFG, 1)))
        doc["config"][key] = value
        with pytest.raises(ScenarioFormatError, match="config") as info:
            deserialize(json.dumps(doc))
        assert "Error(" not in str(info.value)

    def test_minimal_hand_written_fixture(self, tmp_path):
        with open("tests/data/minimal_scenario.json") as fh:
            s = deserialize(fh.read())
        assert s.config.n_robots == 1
        assert s.config.n_slots == 2
        t = precompute(s)
        assert t.covered[0, 0, 0]
