import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rislink.allocation import (
    BS,
    OUTAGE,
    RIS,
    AllocationSchedule,
    derive_history,
    has_service_failure,
    outage_percentage,
    validate,
)


def random_schedule(seed, n_robots, n_slots, n_ris=3):
    """Outage-heavy schedule of BS and surface links, surfaces in [0, n_ris)."""
    rng = np.random.default_rng(seed)
    kind = rng.choice([OUTAGE, BS, RIS], size=(n_robots, n_slots), p=[0.5, 0.2, 0.3])
    index = np.where(kind == OUTAGE, -1, rng.integers(0, n_ris, size=kind.shape))
    return AllocationSchedule(kind.astype(np.int8), index.astype(np.int16))


def failure_loop(schedule, k_out):
    """Per-robot, per-slot scan: the first robot whose outage run reaches its budget, and where."""
    for r in range(schedule.n_robots):
        run = 0
        for n in range(schedule.n_slots):
            run = run + 1 if schedule.kind[r, n] == OUTAGE else 0
            if run >= k_out[r]:
                return True, (r, n)
    return False, None


def history_loop(schedule, n_ris, d_reconfig, u):
    """Y and C from their definitions, one (surface, robot, slot) at a time."""
    y = np.zeros((n_ris, schedule.n_robots, schedule.n_slots), dtype=bool)
    for i in range(n_ris):
        for r in range(schedule.n_robots):
            for n in range(schedule.n_slots):
                y[i, r, n] = any(schedule.kind[r, m] == RIS and schedule.index[r, m] == i
                                 for m in range(max(n - d_reconfig + 1, 0), n + 1))
    return y, y.sum(axis=1) > u


def window_oracle(flags, k):
    """Sliding-window reference: any k-slot window fully in outage."""
    flags = list(flags)
    for start in range(len(flags) - k + 1):
        if all(flags[start:start + k]):
            return True
    return False


class TestOutagePercentage:
    def test_zero(self):
        s = AllocationSchedule.all_outage(2, 3)
        for r in range(2):
            for n in range(3):
                s.assign_bs(r, n, 0)
        assert outage_percentage(s) == 0.0

    def test_full(self):
        assert outage_percentage(AllocationSchedule.all_outage(4, 5)) == 100.0

    def test_arithmetic(self):
        s = AllocationSchedule.all_outage(6, 50)
        count = 0
        for r in range(6):
            for n in range(50):
                if count >= 30:
                    s.assign_bs(r, n, 0)
                count += 1
        assert outage_percentage(s) == pytest.approx(10.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            outage_percentage(AllocationSchedule.all_outage(0, 5))

    @given(st.lists(st.booleans(), min_size=1, max_size=30), st.integers(0, 1000))
    @settings(max_examples=100)
    def test_relabeling_invariance(self, flags, seed):
        rng = np.random.default_rng(seed)
        n = len(flags)
        s = AllocationSchedule.all_outage(2, n)
        for i, f in enumerate(flags):
            if not f:
                s.assign_bs(0, i, 0)
                s.assign_bs(1, i, 0)
        perm_r = rng.permutation(2)
        perm_n = rng.permutation(n)
        t = AllocationSchedule(kind=s.kind[perm_r][:, perm_n], index=s.index[perm_r][:, perm_n])
        assert outage_percentage(s) == outage_percentage(t)


class TestServiceFailure:
    @pytest.mark.parametrize("pattern,k,expected", [
        ([1, 0, 1, 0], 2, False),
        ([0, 1, 1, 0], 2, True),
        ([1, 1, 0, 1, 1, 1], 3, True),
        ([1, 1, 0, 1, 1, 0], 3, False),
    ])
    def test_patterns(self, pattern, k, expected):
        s = AllocationSchedule.all_outage(1, len(pattern))
        for n, f in enumerate(pattern):
            if not f:
                s.assign_bs(0, n, 0)
        failed, where = has_service_failure(s, [k])
        assert failed == expected
        assert failed == window_oracle(pattern, k)
        if pattern == [0, 1, 1, 0]:
            assert where == (0, 2)
        if pattern == [1, 1, 0, 1, 1, 1]:
            assert where == (0, 5)

    @given(st.lists(st.booleans(), min_size=1, max_size=40), st.integers(1, 6))
    @settings(max_examples=200)
    def test_matches_window_oracle(self, pattern, k):
        s = AllocationSchedule.all_outage(1, len(pattern))
        for n, f in enumerate(pattern):
            if not f:
                s.assign_bs(0, n, 0)
        assert has_service_failure(s, [k])[0] == window_oracle(pattern, k)

    @given(st.lists(st.booleans(), min_size=2, max_size=30), st.integers(1, 5),
           st.data())
    @settings(max_examples=150)
    def test_monotone_in_outages(self, pattern, k, data):
        s = AllocationSchedule.all_outage(1, len(pattern))
        for n, f in enumerate(pattern):
            if not f:
                s.assign_bs(0, n, 0)
        before = has_service_failure(s, [k])[0]
        flip = data.draw(st.integers(0, len(pattern) - 1))
        s.assign_outage(0, flip)
        after = has_service_failure(s, [k])[0]
        assert after or not before


    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 12))
    @settings(max_examples=100)
    def test_matches_loop_reference(self, seed, n_robots, n_slots):
        s = random_schedule(seed, n_robots, n_slots)
        k_out = np.random.default_rng(seed + 1).integers(1, 5, size=n_robots)
        assert has_service_failure(s, k_out) == failure_loop(s, k_out)


class TestDeriveHistory:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 12),
           st.integers(1, 4), st.integers(1, 3))
    @settings(max_examples=100)
    def test_matches_loop_reference(self, seed, n_robots, n_slots, d_reconfig, u):
        s = random_schedule(seed, n_robots, n_slots)
        h = derive_history(s, 3, d_reconfig, u)
        y, c = history_loop(s, 3, d_reconfig, u)
        served = (s.kind == RIS)[None] & (s.index[None] == np.arange(3)[:, None, None])
        assert np.array_equal(h.y, y) and np.array_equal(h.c, c)
        assert np.array_equal(h.w, served & ~c[:, None])

    def test_window_rule(self):
        s = AllocationSchedule.all_outage(1, 5)
        s.assign_ris(0, 1, 0)
        h = derive_history(s, n_ris=1, d_reconfig=2, u=1)
        assert list(h.y[0, 0]) == [False, True, True, False, False]

    def test_busy_when_window_exceeds_capacity(self):
        s = AllocationSchedule.all_outage(3, 3)
        s.assign_ris(0, 0, 0)
        s.assign_ris(1, 0, 0)
        s.assign_ris(2, 1, 0)
        h = derive_history(s, n_ris=1, d_reconfig=2, u=2)
        # slot 1 window saw robots {0, 1, 2}: three distinct > U = 2
        assert not h.c[0, 0]
        assert h.c[0, 1]
        assert not h.w[0, 2, 1]

    @pytest.mark.parametrize("index", [2, -1])
    def test_surface_out_of_range_rejected(self, index):
        s = AllocationSchedule.all_outage(1, 2)
        s.assign_ris(0, 0, index)
        with pytest.raises(ValueError, match="surface"):
            derive_history(s, n_ris=2, d_reconfig=2, u=1)

    def test_w_requires_ready_surface(self):
        s = AllocationSchedule.all_outage(1, 2)
        s.assign_ris(0, 0, 0)
        s.assign_ris(0, 1, 0)
        h = derive_history(s, n_ris=1, d_reconfig=2, u=1)
        assert h.w[0, 0, 0]
        assert h.w[0, 0, 1]


class TestValidate:
    def test_all_outage_with_large_budget_is_feasible(self, showcase):
        scenario, tables = showcase
        k_backup = scenario.k_out.copy()
        scenario.k_out = np.full(6, 3)  # > n_slots = 2
        try:
            s = AllocationSchedule.all_outage(6, 2)
            assert validate(scenario, tables, s).ok
        finally:
            scenario.k_out = k_backup

    def test_all_outage_with_small_budget_violates_windows(self, showcase):
        scenario, tables = showcase
        s = AllocationSchedule.all_outage(6, 2)
        report = validate(scenario, tables, s)
        assert report.families() == {"outage_window(17)"}

    def test_conflicted_pair_reported(self, showcase):
        scenario, tables = showcase
        s = AllocationSchedule.all_outage(6, 2)
        # robots 0 and 1 share the arrival angle at surface 0 in slot 1
        s.assign_ris(0, 1, 0)
        s.assign_ris(1, 1, 0)
        report = validate(scenario, tables, s)
        assert "conflict(11)" in report.families()

    def test_uncovered_assignment_reported(self, showcase):
        scenario, tables = showcase
        s = AllocationSchedule.all_outage(6, 2)
        s.assign_bs(0, 0, 0)  # robot 0 sees nothing in slot 0
        report = validate(scenario, tables, s)
        assert "coverage" in report.families()

    # B = I = 2, so index 2 names no BS or surface; -1 must not wrap to the
    # last one (BS 1 covers robot 3 in slot 1)
    @pytest.mark.parametrize("assign", ["assign_bs", "assign_ris"])
    @pytest.mark.parametrize("index", [-1, 2])
    def test_out_of_range_link_reported(self, showcase, assign, index):
        scenario, tables = showcase
        s = AllocationSchedule.all_outage(6, 2)
        getattr(s, assign)(3, 1, index)
        s.assign_bs(5, 1, 1)  # its interference sum passes robot 3's link
        report = validate(scenario, tables, s)
        assert [v.where for v in report.violations if v.family == "coverage"] == [(3, 1)]

    def test_capacity_overflow_reported(self, showcase):
        scenario, tables = showcase
        s = AllocationSchedule.all_outage(6, 2)
        for r in (0, 2, 3):  # three non-conflicting robots on surface 0, U=2
            s.assign_ris(r, 1, 0)
        report = validate(scenario, tables, s)
        assert "capacity(12)" in report.families()

    def test_busy_surface_reported(self, showcase):
        scenario, tables = showcase
        s = AllocationSchedule.all_outage(6, 2)
        # window of surface 1 sees robots 3,4 at slot 0 then robot 5 at slot 1
        s.assign_ris(3, 0, 1)
        s.assign_ris(4, 0, 1)
        s.assign_ris(5, 1, 1)
        report = validate(scenario, tables, s)
        assert "ris_ready(16,19)" in report.families()

    def test_sinr_violation_reported(self, showcase):
        scenario, tables = showcase
        s = AllocationSchedule.all_outage(6, 2)
        # robots 3 and 5 sit on one beam axis from BS 1 in slot 1; serving
        # both from the same station leaves the nearer one drowned
        s.assign_bs(3, 1, 1)
        s.assign_bs(5, 1, 1)
        report = validate(scenario, tables, s)
        assert "sinr_bs(13)" in report.families()

    def test_render_mentions_families(self, showcase):
        scenario, tables = showcase
        s = AllocationSchedule.all_outage(6, 2)
        text = validate(scenario, tables, s).render()
        assert "outage_window(17)" in text
