import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rislink import channel, heuristic, milp, solvers
from rislink.allocation import AllocationSchedule
from rislink.channel import (
    BOLTZMANN,
    antenna_gain,
    direct_power,
    interference_sum,
    max_concurrent,
    noise_power,
    path_gain,
    ris_power,
    sinr,
    sinr_batch,
)
from rislink.scenario import ScenarioConfig, generate, precompute

from conftest import tiny_config


class TestAntennaGain:
    def test_ten_degrees(self):
        assert antenna_gain(math.radians(10)) == pytest.approx(525.58, abs=0.01)

    def test_hemisphere(self):
        assert antenna_gain(math.radians(180 - 1e-9)) == pytest.approx(2.0, rel=1e-6)

    def test_sixty_degrees(self):
        assert antenna_gain(math.radians(60)) == pytest.approx(14.928, abs=1e-3)

    @given(st.floats(0.01, 3.0))
    @settings(max_examples=100)
    def test_matches_closed_form(self, theta):
        assert antenna_gain(theta) == pytest.approx(2.0 / (1.0 - math.cos(theta / 2)), rel=1e-12)

    def test_diverges_near_zero(self):
        assert antenna_gain(1e-6) > 1e10


class TestPathGain:
    def test_reference_value(self):
        assert path_gain(28e9, 10.0) == pytest.approx(8.521e-5, rel=1e-3)

    def test_inverse_distance(self):
        assert path_gain(28e9, 20.0) == pytest.approx(path_gain(28e9, 10.0) / 2, rel=1e-12)

    def test_inverse_frequency(self):
        assert path_gain(56e9, 10.0) == pytest.approx(path_gain(28e9, 10.0) / 2, rel=1e-12)

    def test_near_field_clamp(self):
        assert path_gain(28e9, 1e-6) == path_gain(28e9, channel.MIN_DISTANCE)

    def test_zero_range_clamped_negative_refused(self):
        # a robot standing on a mast has range 0: clamped, not an error
        assert path_gain(28e9, 0.0) == path_gain(28e9, channel.MIN_DISTANCE)
        with pytest.raises(ValueError, match="non-negative"):
            path_gain(28e9, np.array([3.0, -1e-9]))

    def test_elementwise(self):
        d = np.array([[0.0, 5.0], [12.5, math.inf]])
        assert path_gain(28e9, d).tolist() == [[path_gain(28e9, x) for x in row] for row in d.tolist()]
        assert path_gain(28e9, math.inf) == 0.0
        assert ris_power(d, d.T).tolist() == [[ris_power(a, b) for a, b in zip(ra, rb)]
                                            for ra, rb in zip(d.tolist(), d.T.tolist())]


class TestNoisePower:
    def test_reference_value(self):
        assert noise_power(290.0, 20e6) == pytest.approx(8.008e-14, rel=1e-3, abs=0)

    def test_linear_in_bandwidth(self):
        assert noise_power(290.0, 40e6) == pytest.approx(2 * noise_power(290.0, 20e6), rel=1e-12, abs=0)

    def test_per_hertz_floor(self):
        assert noise_power(290.0, 1.0) == pytest.approx(4.004e-21, rel=1e-3, abs=0)
        assert noise_power(290.0, 1.0) == pytest.approx(BOLTZMANN * 290.0, rel=1e-12, abs=0)


class TestReceivedPowers:
    def test_direct_reference(self):
        assert direct_power(10.0) == pytest.approx(7.261e-12, rel=5e-3, abs=0)

    def test_inverse_square(self):
        assert direct_power(20.0) == pytest.approx(direct_power(10.0) / 4, rel=1e-12, abs=0)

    def test_ris_reference(self):
        assert ris_power(10.0, 5.0) == pytest.approx(8.44e-15, rel=2e-3, abs=0)

    def test_symmetric_in_hops(self):
        assert ris_power(7.0, 13.0) == pytest.approx(ris_power(13.0, 7.0), rel=1e-12, abs=0)

    @given(st.floats(0.2, 100), st.floats(0.2, 100))
    @settings(max_examples=100)
    def test_cascade_identity(self, d1, d2):
        # relayed power equals the product of the two hop powers times E^2/P_b
        lhs = ris_power(d1, d2)
        rhs = direct_power(d1) * direct_power(d2) * channel.N_ELEMENTS**2 / channel.P_BS
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=0)

    @given(st.floats(0.01, 200), st.floats(0.01, 200))
    @settings(max_examples=100)
    def test_powers_positive_and_finite(self, d1, d2):
        for v in (direct_power(d1), ris_power(d1, d2)):
            assert v > 0
            assert math.isfinite(v)


class TestMaxConcurrent:
    def test_table_value(self):
        assert max_concurrent(200) == 10

    def test_small_counts(self):
        # 2*2*1 = 4 is not strictly below 4, so U stays 1
        assert max_concurrent(4) == 1
        assert max_concurrent(1) == 1
        assert max_concurrent(5) == 2

    @given(st.integers(1, 20000))
    @settings(max_examples=300)
    def test_matches_exhaustive_scan(self, e):
        best = 1
        for u in range(1, 200):
            if 2 * u * (u - 1) < e:
                best = u
        assert max_concurrent(e) == best


def hand_tables(n_bs=1, n_ris=0, n_robots=1, n_slots=1):
    """Zero tables holding the fields the SINR functions read; link l is BS l
    below n_bs, surface l - n_bs from there on."""
    return types.SimpleNamespace(
        power=np.zeros((n_slots, n_robots, n_bs + n_ris)),
        interference=np.zeros((n_slots, n_robots, n_robots, n_bs + n_ris)),
        n_bs=n_bs,
    )


class TestInterferenceAndSinr:
    def test_lone_robot_reference_sinr(self):
        t = hand_tables()
        t.power[0, 0, 0] = direct_power(10.0)
        alloc = AllocationSchedule(np.array([[0]]))
        assert interference_sum(t, alloc, 0, 0) == 0.0
        assert sinr(t, alloc, 0, 0) == pytest.approx(2.51e7, rel=5e-3)

    def test_same_surface_robots_do_not_interfere(self):
        t = hand_tables(n_bs=0, n_ris=1, n_robots=2)
        t.power[0, :, 0] = ris_power(15.0, 8.0)
        t.interference[0, 1, 0, 0] = 1e-9
        t.interference[0, 0, 1, 0] = 1e-9
        alloc = AllocationSchedule(np.array([[0], [0]]))  # B = 0: link 0 is surface 0
        assert interference_sum(t, alloc, 0, 0, own_link=0) == 0.0
        assert interference_sum(t, alloc, 1, 0, own_link=0) == 0.0
        # without the nulling exclusion the terms do count
        assert interference_sum(t, alloc, 0, 0) == pytest.approx(1e-9)

    def test_two_robots_sharing_a_beam(self):
        # symmetric pair served by one BS, each inside the other's beam
        t = hand_tables(n_bs=1, n_ris=0, n_robots=2)
        g2 = channel.GAIN * channel.GAIN
        p = direct_power(12.0)
        for r in (0, 1):
            t.power[0, r, 0] = p
            t.interference[0, r, 1 - r, 0] = p * g2
        alloc = AllocationSchedule(np.array([[0], [0]]))
        expected = p * g2 / (channel.NOISE + p * g2)
        for r in (0, 1):
            assert interference_sum(t, alloc, r, 0) == pytest.approx(p * g2, rel=1e-12)
            assert sinr(t, alloc, r, 0) == pytest.approx(expected, rel=1e-12)
        assert sinr(t, alloc, 0, 0) < 1.0

    def test_unallocated_robot_rejected(self):
        t = hand_tables()
        alloc = AllocationSchedule.all_outage(1, 1)
        with pytest.raises(ValueError, match="unallocated"):
            sinr(t, alloc, 0, 0)

    @given(st.floats(0, 1e-6))
    @settings(max_examples=50)
    def test_sinr_monotone_in_interference(self, extra):
        t = hand_tables(n_bs=1, n_ris=0, n_robots=2)
        t.power[0, :, 0] = direct_power(10.0)
        t.interference[0, 0, 1, 0] = 1e-9
        alloc = AllocationSchedule(np.array([[0], [0]]))
        base = sinr(t, alloc, 0, 0)
        t.interference[0, 0, 1, 0] += extra
        assert sinr(t, alloc, 0, 0) <= base

    def test_distinct_surfaces_no_bs_no_interference(self):
        t = hand_tables(n_bs=0, n_ris=2, n_robots=2)
        t.power[0, :, :] = ris_power(15.0, 8.0)
        alloc = AllocationSchedule(np.array([[0], [1]]))  # B = 0: surfaces 0 and 1
        # cone gating produced no cross terms, so the sums stay zero
        assert interference_sum(t, alloc, 0, 0, own_link=0) == 0.0
        assert interference_sum(t, alloc, 1, 0, own_link=1) == 0.0


def test_kind_index_of_names_each_link():
    kind, index = channel.kind_index_of(np.array([-1, 0, 1, 2, 3]), 2)
    assert kind.tolist() == [channel.OUTAGE, channel.BS, channel.BS, channel.RIS, channel.RIS]
    assert index.tolist() == [-1, 0, 1, 0, 1]


def assert_batch_matches_scalar(tables, sched):
    """sinr_batch over all slots and slot by slot equals sinr on every served link, bit for bit."""
    whole = sinr_batch(tables, sched.link)
    served = 0
    for n in range(sched.n_slots):
        slot = sinr_batch(tables, sched.link[:, n], n)
        for r in range(sched.n_robots):
            if sched.link[r, n] == -1:
                assert np.isnan(whole[r, n]) and np.isnan(slot[r])
            else:
                assert whole[r, n] == slot[r] == sinr(tables, sched, r, n)
                served += 1
    return served


class TestSinrBatch:
    @pytest.mark.parametrize("seed", range(4))
    def test_heuristic_schedules(self, seed):
        cfg = ScenarioConfig(n_robots=10, n_slots=12, u_override=2, k_range=(3, 4))
        s = generate(cfg, seed)
        t = precompute(s)
        assert assert_batch_matches_scalar(t, heuristic.allocate(t, s, seed=seed).schedule) > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_ilp_schedules(self, seed):
        s = generate(tiny_config(n_robots=3, n_slots=3, k_range=(4, 4)), seed)
        t = precompute(s)
        model = milp.build_model(t, s)
        result = solvers.solve(model, "highs")
        assert result.status == "optimal"
        assert_batch_matches_scalar(t, milp.extract_schedule(model, result.values))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_schedules_sharing_surfaces(self, seed):
        # two surfaces for ten robots, so most slots put several robots on one
        cfg = ScenarioConfig(n_robots=10, n_slots=6, n_ris=2, n_obstacles=3)
        s = generate(cfg, seed)
        t = precompute(s)
        rng = np.random.default_rng(seed)
        kind = rng.choice(3, size=(10, 6), p=[0.1, 0.3, 0.6])  # outage, BS, surface
        index = rng.integers(0, 2, size=(10, 6))  # B = I = 2
        sched = AllocationSchedule(np.where(kind == 0, -1, index + 2 * (kind == 2)).astype(np.int16))
        assert assert_batch_matches_scalar(t, sched) > 40

    def test_interferers_added_in_robot_order(self):
        # one strong interferer, then 15 terms each below half an ulp of it:
        # added in order they vanish, summed pairwise they would not
        t = hand_tables(n_bs=1, n_ris=0, n_robots=17)
        t.power[0, 0, 0] = 1e-12
        t.interference[0, 0, 1, 0] = 1e-9
        t.interference[0, 0, 2:, 0] = 1e-25
        alloc = AllocationSchedule(np.zeros((17, 1), dtype=np.int16))
        value = sinr_batch(t, alloc.link)[0, 0]
        assert value == sinr(t, alloc, 0, 0)
        pairwise = 1e-12 * channel.GAIN * channel.GAIN / (channel.NOISE + t.interference[0, 0, :, 0].sum())
        assert value != pairwise

    def test_unallocated_is_nan(self):
        t = hand_tables(n_robots=2)
        t.power[0, :, 0] = direct_power(10.0)
        alloc = AllocationSchedule(np.array([[-1], [0]]))
        value = sinr_batch(t, alloc.link[:, 0], 0)
        assert np.isnan(value[0]) and value[1] == sinr(t, alloc, 1, 0)

    @pytest.mark.parametrize("link", [-2, 2, 3])  # L = 2
    def test_missing_link_source_rejected(self, link):
        t = hand_tables(n_bs=1, n_ris=1)
        with pytest.raises(ValueError, match="does not exist"):
            sinr_batch(t, np.array([link]), 0)
