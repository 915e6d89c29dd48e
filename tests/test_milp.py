import collections
import itertools
from dataclasses import replace

import numpy as np
import pytest

from rislink import solvers
from rislink.allocation import AllocationSchedule, derive_history, validate
from rislink.heuristic import allocate
from rislink.milp import MU_SAFETY, ModelError, brute_force_optimum, build_model, extract_schedule
from rislink.scenario import EXPERIMENT_CONFIG, ScenarioConfig, generate, precompute

from conftest import tiny_config


def solve_objective(scenario, tables):
    model = build_model(tables, scenario)
    res = solvers.solve(model, "highs")
    if res.status == "infeasible":
        return None, None, model
    assert res.status == "optimal"
    return round(res.objective), res, model


class TestBuildModel:
    def test_single_robot_single_bs(self):
        cfg = ScenarioConfig(n_bs=1, n_ris=0, n_robots=1, n_slots=1, n_obstacles=0, k_range=(2, 2))
        s = generate(cfg, 0)
        t = precompute(s)
        model = build_model(t, s)
        families = {name.split("_")[0] for name in model.var_names}
        assert families == {"Xb", "O"}
        obj, res, model = solve_objective(s, t)
        assert obj == 0

    def test_uncovered_robot_forced_outage(self):
        cfg = tiny_config(n_bs=1, n_ris=0, n_robots=1, n_slots=3, k_range=(4, 4))
        s = generate(cfg, 0)
        # wall the robot in: blockage everywhere
        from rislink.geometry import Obstacle
        s.obstacles = [Obstacle(0.5, 0.5, 24.5, 24.5)]
        t = precompute(s)
        model = build_model(t, s)
        assert all(model.ub[model.xb(0, 0, n)] == 0 for n in range(3))
        obj, res, _ = solve_objective(s, t)
        assert obj == 1 * 3

    def test_window_infeasibility(self):
        cfg = tiny_config(n_bs=1, n_ris=0, n_robots=1, n_slots=3, k_range=(2, 2))
        s = generate(cfg, 0)
        from rislink.geometry import Obstacle
        s.obstacles = [Obstacle(0.5, 0.5, 24.5, 24.5)]
        t = precompute(s)
        obj, res, _ = solve_objective(s, t)
        assert obj is None

    def test_insufficient_big_m_rejected(self):
        s = generate(tiny_config(), 3)
        t = precompute(s)
        for mu in (1e-3, float("nan"), float("inf")):
            with pytest.raises(ModelError, match="insufficient"):
                build_model(t, s, mu=mu)

    def test_explicit_big_m_accepted_when_large(self):
        for seed in range(8):
            s = generate(tiny_config(), seed)
            t = precompute(s)
            auto = solvers.solve(build_model(t, s), "highs")
            explicit = solvers.solve(build_model(t, s, mu=1e16), "highs")
            assert explicit.status == auto.status
            if auto.status == "optimal":
                assert round(explicit.objective) == round(auto.objective)

    def test_ready_rows_cut_off_no_ready_schedule(self):
        # The model caps the distinct robots of every usage window at U in
        # place of a busy flag.  No schedule whose served robots all meet a
        # ready surface breaks that cap; checked over every use pattern of
        # one surface by 3 robots in 4 slots.
        for d_reconfig in (1, 2, 3):
            for u in (1, 2):
                for pattern in itertools.product((False, True), repeat=12):
                    sched = AllocationSchedule.all_outage(3, 4)
                    for k in np.flatnonzero(pattern):
                        sched.assign_ris(k // 4, k % 4, 0)
                    hist = derive_history(sched, 1, d_reconfig, u)
                    served = sched.outage_matrix() == 0
                    if not (served & hist.c[0]).any():
                        assert hist.y.sum(axis=1).max() <= u, (d_reconfig, u, pattern)


ORACLE_CASES = [
    (tiny_config(
        n_bs=1 + seed % 2,
        n_ris=1 + (seed // 2) % 2,
        d_reconfig=1 + seed % 3,
        u_override=1 + seed % 2,
        n_obstacles=2 + seed % 3,
    ), seed)
    for seed in range(25)
] + [
    # one or two of each source together, at the default capacity
    (tiny_config(n_bs=1 + k % 2, n_ris=1 + k % 2, d_reconfig=1 + k % 2, n_obstacles=2 + k % 2), 100 + k)
    for k in range(10)
]


class TestOracleEquivalence:
    @pytest.mark.parametrize("cfg, seed", ORACLE_CASES, ids=[str(seed) for _, seed in ORACLE_CASES])
    def test_highs_matches_brute_force(self, cfg, seed):
        s = generate(cfg, seed)
        t = precompute(s)
        bf_obj, bf_sched = brute_force_optimum(t, s)
        obj, res, model = solve_objective(s, t)
        assert obj == bf_obj
        if bf_obj is not None:
            assert validate(s, t, bf_sched).ok
            sched = extract_schedule(model, res.values)
            assert validate(s, t, sched).ok

    def test_guard_rejects_large_instances(self):
        s = generate(tiny_config(n_robots=3, n_slots=5), 0)
        t = precompute(s)
        with pytest.raises(ValueError, match="guard"):
            brute_force_optimum(t, s)


class TestMonotonicity:
    def base(self, seed):
        return tiny_config(n_obstacles=3, u_override=1, d_reconfig=2, k_range=(2, 2))

    @pytest.mark.parametrize("seed", range(5))
    def test_larger_capacity_never_hurts(self, seed):
        cfg = self.base(seed)
        s1 = generate(cfg, seed)
        o1 = brute_force_optimum(precompute(s1), s1)[0]
        s2 = generate(replace(cfg, u_override=2), seed)
        o2 = brute_force_optimum(precompute(s2), s2)[0]
        if o1 is not None:
            assert o2 is not None and o2 <= o1

    @pytest.mark.parametrize("seed", range(5))
    def test_longer_outage_budget_never_hurts(self, seed):
        cfg = self.base(seed)
        s1 = generate(cfg, seed)
        o1 = brute_force_optimum(precompute(s1), s1)[0]
        s2 = generate(replace(cfg, k_range=(4, 4)), seed)
        s2.trajectories = s1.trajectories.copy()
        s2.psi = s1.psi.copy()
        o2 = brute_force_optimum(precompute(s2), s2)[0]
        if o1 is not None:
            assert o2 is not None and o2 <= o1

    @pytest.mark.parametrize("seed", range(5))
    def test_lower_threshold_never_hurts(self, seed):
        cfg = self.base(seed)
        s1 = generate(cfg, seed)
        o1 = brute_force_optimum(precompute(s1), s1)[0]
        s2 = generate(cfg, seed)
        s2.psi = s1.psi / 10.0
        o2 = brute_force_optimum(precompute(s2), s2)[0]
        if o1 is not None:
            assert o2 is not None and o2 <= o1

    @pytest.mark.parametrize("seed", range(5))
    def test_removing_surface_never_helps(self, seed):
        cfg = self.base(seed)
        s1 = generate(cfg, seed)
        o1 = brute_force_optimum(precompute(s1), s1)[0]
        s2 = generate(cfg, seed)
        s2.ris_mounts = s1.ris_mounts[:1]
        s2.config = replace(cfg, n_ris=1)
        o2 = brute_force_optimum(precompute(s2), s2)[0]
        if o2 is not None:
            assert o1 is not None and o1 <= o2


class TestBigMInertness:
    @pytest.mark.parametrize("seed", range(5))
    def test_deactivated_rows_have_slack(self, seed):
        # The SINR row of link X reads (sig - mu)*X - psi*I >= psi - mu.  With
        # X = 0 it must hold with slack even when every interferer is on.
        s = generate(tiny_config(), seed)
        t = precompute(s)
        model = build_model(t, s)
        res = solvers.solve(model, "highs")
        x = res.values if res.status == "optimal" else None
        checked = 0
        for k, name in enumerate(model.row_names):
            if not name.startswith(("snrB", "snrI")):
                continue
            idx, r, n = map(int, name[5:].split("_"))
            own = model.xb(idx, r, n) if name[3] == "B" else model.xi(idx, r, n)
            cols, coefs = model.row_cols[k], model.row_coefs[k]
            others = cols != own
            assert others.sum() == len(cols) - 1
            assert (coefs[others] < 0).all()
            slack_bound = float(coefs[others].sum()) - model.row_rhs[k]
            assert slack_bound > 0
            if x is not None and x[own] < 0.5:
                assert float(coefs @ x[cols]) - model.row_rhs[k] >= slack_bound - 1e-6
            checked += 1
        assert checked


def link_facts(tables):
    """Conditioned signals (N, L, R) and interference levels (N, L, R sender, R victim), BS links first."""
    lt = tables.tables
    signal = np.concatenate([lt.p_direct, lt.p_ris], axis=1) * lt.gain_bs * lt.gain_robot / lt.noise
    return signal, np.concatenate([lt.xi_bs, lt.xi_ris], axis=1) / lt.noise


def sinr_rows(model, tables):
    """The SINR rows of a built model, with their link facts read from the tables.

    Returns (sig, psi, own) per SINR row, where ``own`` is the coefficient of
    the row's own allocation bit, and (pos, level) per interference term,
    where ``pos`` indexes the per-row arrays.
    """
    signal, levels = link_facts(tables)
    link_of, robot_of = np.full(model.n_vars, -1), np.full(model.n_vars, -1)
    for label, offset in (("Xb", 0), ("Xi", model.n_bs)):
        l, r, _ = np.indices(model.columns[label].shape)
        link_of[model.columns[label]], robot_of[model.columns[label]] = l + offset, r
    rows, slot, victim = [], [], []
    for k, name in enumerate(model.row_names):
        if name.startswith("snr"):
            idx, r, n = map(int, name[5:].split("_"))
            rows.append(k)
            slot.append(n)
            victim.append(model.xb(idx, r, n) if name[3] == "B" else model.xi(idx, r, n))
    slot, victim = np.array(slot), np.array(victim)
    vr = robot_of[victim]
    sub = model.matrix[rows]
    pos = np.repeat(np.arange(len(rows)), np.diff(sub.indptr))
    at_own = sub.indices == victim[pos]
    own = np.zeros(len(rows))
    own[pos[at_own]] = sub.data[at_own]
    assert at_own.sum() == len(rows)
    pos, col = pos[~at_own], sub.indices[~at_own]
    level = levels[slot[pos], link_of[col], robot_of[col], vr[pos]]
    return signal[slot, link_of[victim], vr], tables.psi_linear[vr], own, pos, level


def killing_pairs(model, tables):
    """Unordered column pairs (usable link, interferer) whose interference alone breaks the link."""
    signal, levels = link_facts(tables)
    covered = np.concatenate([tables.coverage.bs_robot, tables.coverage.ris_robot], axis=1)
    cols = np.concatenate([model.columns["Xb"], model.columns["Xi"]], axis=0)   # (L, R, N)
    n_b = model.n_bs
    pairs = set()
    for n, l, r in zip(*np.nonzero(covered & (signal >= tables.psi_linear))):
        for lp, rp in zip(*np.nonzero(covered[n])):
            same_surface = lp == l and l >= n_b
            if rp != r and not same_surface and levels[n, lp, rp, r] > signal[n, l, r] / tables.psi_linear[r] - 1.0:
                pairs.add(frozenset((int(cols[l, r, n]), int(cols[lp, rp, n]))))
    return pairs


class TestKillRows:
    # A single interferer that alone breaks a usable link is excluded by one
    # X + X' <= 1 row and left out of the link's SINR row.
    # The tiny seeds are ones whose models have both interference terms and killers.
    @pytest.fixture(scope="class", params=[3, 9, 16, 18, "r14"])
    def case(self, request):
        if request.param == "r14":
            s = generate(replace(EXPERIMENT_CONFIG, n_robots=14), 1003)
        else:
            s = generate(tiny_config(), request.param)
        t = precompute(s)
        return build_model(t, s), t

    def test_no_sinr_row_holds_a_killer(self, case):
        model, t = case
        sig, psi, _, pos, level = sinr_rows(model, t)
        assert len(pos)
        assert not (level > (sig / psi - 1.0)[pos]).any()

    def test_each_killing_pair_is_excluded_once(self, case):
        model, t = case
        pairs = killing_pairs(model, t)
        assert pairs
        exclusions = collections.Counter(
            frozenset(cols.tolist()) for cols, coefs, sense, rhs
            in zip(model.row_cols, model.row_coefs, model.row_sense, model.row_rhs)
            if len(cols) == 2 and sense == "<" and rhs == 1.0 and (coefs == 1.0).all())
        assert all(exclusions[pair] == 1 for pair in pairs)
        kill_rows = [frozenset(cols.tolist()) for name, cols in zip(model.row_names, model.row_cols)
                     if name.startswith("kill")]
        assert len(kill_rows) == len(pairs) and set(kill_rows) == pairs
        assert len(set(model.row_names)) == model.n_rows

    def test_big_m_is_sized_from_its_own_terms(self, case):
        # The own coefficient is (sig - mu)/sig, so mu = (1 - own)*sig, which
        # keeps about 7 digits where sig exceeds mu by 1e8 or more.  A killer
        # left in the sum would add more than sig - psi to mu.
        model, t = case
        sig, psi, own, pos, level = sinr_rows(model, t)
        total = np.bincount(pos, weights=level, minlength=len(sig))
        np.testing.assert_allclose((1.0 - own) * sig, psi * (1.0 + total) * MU_SAFETY + 1.0, rtol=1e-6)


class TestMatrix:
    def test_row_views_describe_the_matrix(self):
        s = generate(tiny_config(), 5)
        model = build_model(precompute(s), s)
        n_rows = model.n_rows
        assert model.matrix.shape == (n_rows, model.n_vars)
        assert len(model.row_names) == len(model.row_cols) == len(model.row_coefs) == n_rows
        assert len(model.row_sense) == len(model.row_rhs) == n_rows
        dense = np.zeros((n_rows, model.n_vars))
        for k, (cols, coefs) in enumerate(zip(model.row_cols, model.row_coefs)):
            assert len(np.unique(cols)) == len(cols) == len(coefs)
            dense[k, cols] = coefs
        assert np.array_equal(dense, model.matrix.toarray())
        assert np.array_equal(model.row_cols[-1], model.row_cols[n_rows - 1])
        with pytest.raises(IndexError):
            model.row_cols[n_rows]

    @pytest.mark.parametrize("seed", range(4))
    def test_no_column_is_the_complement_of_another(self, seed):
        s = generate(tiny_config(n_bs=1 + seed % 2, n_ris=1 + seed // 2), seed)
        model = build_model(precompute(s), s)
        families = {name.split("_")[0] for name in model.var_names}
        assert families == {"Xb", "Xi", "Y", "O"}
        at_most, at_least = set(), set()
        for cols, coefs, sense, rhs in zip(model.row_cols, model.row_coefs, model.row_sense, model.row_rhs):
            if len(cols) == 2 and (coefs == 1.0).all() and rhs == 1.0:
                if sense in ("<", "="):
                    at_most.add(tuple(cols.tolist()))
                if sense in (">", "="):
                    at_least.add(tuple(cols.tolist()))
        assert not at_most & at_least


def schedule_point(model, scenario, tables, sched):
    """The 0/1 model point of a schedule: its allocation, usage-history and outage bits."""
    cfg = scenario.config
    col = model.columns
    x = np.zeros(model.n_vars)
    for r in range(cfg.n_robots):
        for n in range(cfg.n_slots):
            kind, idx = sched.assignment(r, n)
            if kind is not None:
                x[col["Xb" if kind == "bs" else "Xi"][idx, r, n]] = 1
    x[col["Y"]] = derive_history(sched, cfg.n_ris, cfg.d_reconfig, tables.u_effective).y
    x[col["O"]] = sched.outage_matrix()
    return x


class TestValidSchedulesLieInModel:
    # The ready cap stands in for the paper's busy flag; it must not cut off
    # any schedule that the independent validator accepts.  One BS behind
    # large obstacles makes both seeds serve robots through the surfaces.
    @pytest.mark.parametrize("seed", (0, 7))
    @pytest.mark.parametrize("u", (1, 2))
    @pytest.mark.parametrize("d_reconfig", (1, 2, 3))
    def test_optimum_and_heuristic_schedules_meet_every_row(self, d_reconfig, u, seed):
        cfg = tiny_config(n_bs=1, n_obstacles=4, obstacle_size=(6.0, 12.0), k_range=(3, 4),
                          d_reconfig=d_reconfig, u_override=u)
        s = generate(cfg, seed)
        t = precompute(s)
        model = build_model(t, s)
        schedules = [allocate(t, s, seed=k).schedule for k in range(10)]
        _, optimum = brute_force_optimum(t, s)
        if optimum is not None:
            assert validate(s, t, optimum).ok
            schedules.append(optimum)
        sense, rhs = model.row_sense, model.row_rhs
        tol = 1e-9 * np.maximum(1.0, np.abs(rhs))
        checked = via_surface = 0
        for sched in schedules:
            if not validate(s, t, sched).ok:
                continue
            x = schedule_point(model, s, t, sched)
            via_surface += x[model.columns["Xi"]].any()
            assert ((model.lb <= x) & (x <= model.ub)).all()
            activity = model.matrix @ x
            broken = ((sense != ">") & (activity > rhs + tol)) | ((sense != "<") & (activity < rhs - tol))
            assert not broken.any(), [model.row_names[k] for k in np.flatnonzero(broken)]
            checked += 1
        assert checked and via_surface


class TestExtractSchedule:
    def test_inconsistent_solution_raises(self):
        cfg = ScenarioConfig(n_bs=1, n_ris=0, n_robots=1, n_slots=1, n_obstacles=0, k_range=(2, 2))
        s = generate(cfg, 0)
        t = precompute(s)
        model = build_model(t, s)
        bogus = np.zeros(model.n_vars)  # served flag with no allocation bit
        with pytest.raises(RuntimeError, match="inconsistent"):
            extract_schedule(model, bogus)

    def test_two_allocation_bits_raise(self):
        cfg = ScenarioConfig(n_bs=2, n_ris=0, n_robots=1, n_slots=1, n_obstacles=0, k_range=(2, 2))
        s = generate(cfg, 0)
        model = build_model(precompute(s), s)
        bogus = np.zeros(model.n_vars)
        bogus[[model.xb(0, 0, 0), model.xb(1, 0, 0)]] = 1  # served through both BSs
        with pytest.raises(RuntimeError, match="inconsistent.* 2 allocation bits"):
            extract_schedule(model, bogus)

    def test_outage_bit_wins_over_stray_allocation(self):
        cfg = ScenarioConfig(n_bs=2, n_ris=0, n_robots=1, n_slots=2, n_obstacles=0, k_range=(3, 3))
        s = generate(cfg, 0)
        model = build_model(precompute(s), s)
        values = np.zeros(model.n_vars)
        values[[model.o(0, 0), model.xb(0, 0, 0), model.xb(1, 0, 0), model.xb(1, 0, 1)]] = 1
        sched = extract_schedule(model, values)
        assert sched.assignment(0, 0) == (None, None)
        assert sched.assignment(0, 1) == ("bs", 1)
