import collections
import itertools
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

from rislink import channel, solvers
from rislink.allocation import AllocationSchedule, derive_history, validate
from rislink.heuristic import allocate
from rislink.milp import MU_SAFETY, build_model, dark_run, extract_schedule, fold_usage, settled_bounds
from rislink.scenario import EXPERIMENT_CONFIG, ScenarioConfig, generate, precompute

from conftest import tiny_config
from oracle import brute_force_optimum
from test_trial_core import BENCHMARK_FLOOR


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
        assert set(model.columns) == {"X", "Y", "O"}
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
        # no allocation bit is emitted, and each outage bit is fixed at 1
        assert (model.columns["X"] == -1).all()
        outage = model.columns["O"][0]
        assert (model.lb[outage] == 1).all() and (model.ub[outage] == 1).all()
        assert not any(name.startswith("serve") for name in model.row_names)
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

    def test_ready_rows_cut_off_no_ready_schedule(self):
        # The model caps the distinct robots of every usage window at U in
        # place of a busy flag.  No schedule whose served robots all meet a
        # ready surface breaks that cap; checked over every use pattern of
        # one surface by 3 robots in 4 slots.
        for d_reconfig in (1, 2, 3):
            for u in (1, 2):
                for pattern in itertools.product((False, True), repeat=12):
                    # no BS, so link 0 is the surface
                    sched = AllocationSchedule(np.where(np.reshape(pattern, (3, 4)), 0, -1).astype(np.int16))
                    hist = derive_history(sched, 0, 1, d_reconfig, u)
                    served = sched.link != -1
                    if not (served & hist.c[0]).any():
                        assert hist.y.sum(axis=1).max() <= u, (d_reconfig, u, pattern)


# four robots in three slots: the models of these seeds keep SINR rows that
# can bind, with interference terms and killing pairs
SINR_CASES = [(tiny_config(n_robots=4, n_slots=3, k_range=(4, 5)), seed) for seed in (124, 139, 161, 204, 349)]

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
] + SINR_CASES


class TestOracleEquivalence:
    @pytest.mark.parametrize("cfg, seed", ORACLE_CASES, ids=[str(seed) for _, seed in ORACLE_CASES])
    def test_highs_matches_brute_force(self, cfg, seed):
        s = generate(cfg, seed)
        t = precompute(s)
        # the oracle and the validator must not lean on the encoder's live-link mask
        blind = replace(t, live=None)
        bf_obj, bf_sched = brute_force_optimum(blind, s)
        obj, res, model = solve_objective(s, t)
        assert obj == bf_obj
        if dark_run(t.live, s.k_out) is not None:
            assert bf_obj is None
        if bf_obj is not None:
            assert validate(s, blind, bf_sched).ok
            sched = extract_schedule(model, res.values)
            assert validate(s, blind, sched).ok

    def test_suite_holds_binding_sinr_rows_and_dark_runs(self):
        # without a kept SINR row the oracle never checks one; without a
        # dark run the certificate check above never fires
        sinr_rows = certified = 0
        for cfg, seed in ORACLE_CASES:
            s = generate(cfg, seed)
            t = precompute(s)
            sinr_rows += sum(name.startswith("snr") for name in build_model(t, s).row_names)
            certified += dark_run(t.live, s.k_out) is not None
        assert sinr_rows and certified

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
    @pytest.mark.parametrize("cfg, seed", SINR_CASES, ids=[str(seed) for _, seed in SINR_CASES])
    def test_deactivated_rows_have_slack(self, cfg, seed):
        # The SINR row of link X reads (sig - mu)*X - psi*I >= psi - mu.  With
        # X = 0 it must hold with slack even when every interferer is on.
        s = generate(cfg, seed)
        t = precompute(s)
        model = build_model(t, s)
        res = solvers.solve(model, "highs")
        x = res.values if res.status == "optimal" else None
        checked = 0
        for k, name in enumerate(model.row_names):
            if not name.startswith(("snrB", "snrI")):
                continue
            idx, r, n = map(int, name[5:].split("_"))
            own = model.columns["X"][idx + model.n_bs * (name[3] == "I"), r, n]
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
    """Conditioned signals (N, R, L) and interference levels (N, R victim, R sender, L), BS links first."""
    return tables.power * channel.GAIN * channel.GAIN / channel.NOISE, tables.interference / channel.NOISE


def sinr_rows(model, tables, psi):
    """The SINR rows of a built model, with their link facts read from the
    tables and the robots' thresholds ``psi``.

    Returns (sig, psi, own) per SINR row, where ``own`` is the coefficient of
    the row's own allocation bit, and (pos, level) per interference term,
    where ``pos`` indexes the per-row arrays.
    """
    signal, levels = link_facts(tables)
    link_of, robot_of = np.full(model.n_vars, -1), np.full(model.n_vars, -1)
    cols = model.columns["X"]
    on = cols >= 0
    l, r, _ = np.indices(cols.shape)
    link_of[cols[on]], robot_of[cols[on]] = l[on], r[on]
    rows, slot, victim = [], [], []
    for k, name in enumerate(model.row_names):
        if name.startswith("snr"):
            idx, r, n = map(int, name[5:].split("_"))
            rows.append(k)
            slot.append(n)
            victim.append(model.columns["X"][idx + model.n_bs * (name[3] == "I"), r, n])
    slot, victim = np.array(slot), np.array(victim)
    vr = robot_of[victim]
    sub = model.matrix[rows]
    pos = np.repeat(np.arange(len(rows)), np.diff(sub.indptr))
    at_own = sub.indices == victim[pos]
    own = np.zeros(len(rows))
    own[pos[at_own]] = sub.data[at_own]
    assert at_own.sum() == len(rows)
    pos, col = pos[~at_own], sub.indices[~at_own]
    level = levels[slot[pos], vr[pos], robot_of[col], link_of[col]]
    return signal[slot, vr, link_of[victim]], psi[vr], own, pos, level


def killing_pairs(model, tables, psi):
    """Unordered column pairs (usable link, interferer) whose interference
    alone breaks the link, under the robots' thresholds ``psi``.

    An interferer that is not emitted is never on, and so pairs with nothing."""
    signal, levels = link_facts(tables)
    covered = tables.covered
    cols = model.columns["X"]                                                 # (L, R, N)
    n_b = model.n_bs
    pairs = set()
    for n, r, l in zip(*np.nonzero(covered & (signal >= psi[:, None]))):
        for rp, lp in zip(*np.nonzero(covered[n])):
            same_surface = lp == l and l >= n_b
            if rp != r and not same_surface and levels[n, r, rp, lp] > signal[n, r, l] / psi[r] - 1.0:
                assert cols[l, r, n] >= 0
                if cols[lp, rp, n] >= 0:
                    pairs.add(frozenset((int(cols[l, r, n]), int(cols[lp, rp, n]))))
    return pairs


def conflict_pairs(model, tables):
    """Unordered column pairs of two robots whose arrival angles at a surface conflict."""
    xi = model.columns["X"][model.n_bs:]
    return {frozenset((int(xi[i, ra, n]), int(xi[i, rb, n]))) for n, i, ra, rb in np.argwhere(tables.conflicts)
            if xi[i, ra, n] >= 0 and xi[i, rb, n] >= 0}


def allocation_cells(model):
    """Slot and robot of every column, -1 for the columns that are not allocation bits."""
    slot, robot = np.full(model.n_vars, -1), np.full(model.n_vars, -1)
    cols = model.columns["X"]
    on = cols >= 0
    _, r, n = np.indices(cols.shape)
    slot[cols[on]], robot[cols[on]] = n[on], r[on]
    return slot, robot


class TestKillRows:
    # A single interferer that alone breaks a usable link is left out of the
    # link's SINR row; it and every arrival-angle conflict pair lie in one
    # exclusion row sum_S X + sum_T X' <= 1.
    # The SINR cases have both interference terms and killers; the three-robot
    # seeds have killers but no SINR row that can bind.
    CASES = {str(seed): (cfg, seed) for cfg, seed in SINR_CASES}
    CASES["r14"] = (replace(EXPERIMENT_CONFIG, n_robots=14), 1003)
    CASES["floor_r14"] = (BENCHMARK_FLOOR, 1003)     # the export benchmark's model
    THREE_ROBOTS = {str(seed): (tiny_config(), seed) for seed in (3, 9, 16, 18)}

    @pytest.fixture(scope="class")
    def case(self, request):
        s = generate(*(self.CASES | self.THREE_ROBOTS)[request.param])
        t = precompute(s)
        return build_model(t, s), t, s

    @pytest.mark.parametrize("case", CASES, indirect=True)
    def test_no_sinr_row_holds_a_killer(self, case):
        model, t, s = case
        sig, psi, _, pos, level = sinr_rows(model, t, s.psi)
        assert len(pos)
        assert not (level > (sig / psi - 1.0)[pos]).any()

    @pytest.mark.parametrize("case", list(THREE_ROBOTS) + list(CASES), indirect=True)
    def test_each_excluded_pair_lies_in_one_clique_row(self, case):
        # Two columns of one robot and slot exclude each other through its
        # serve row, so a row over a clique of these pairs has the integer
        # points of the pairwise rows it covers.
        model, t, s = case
        kills = killing_pairs(model, t, s.psi)
        assert kills
        pairs = kills | conflict_pairs(model, t)
        slot, robot = allocation_cells(model)
        covered = collections.Counter()
        for name, cols, coefs, sense, rhs in zip(model.row_names, model.row_cols, model.row_coefs,
                                                 model.row_sense, model.row_rhs):
            if not name.startswith("excl"):
                continue
            assert sense == "<" and rhs == 1.0 and (coefs == 1.0).all()
            assert len(set(slot[cols])) == 1 and slot[cols[0]] >= 0
            for c, d in itertools.combinations(cols.tolist(), 2):
                if robot[c] != robot[d]:
                    assert frozenset((c, d)) in pairs
                    covered[frozenset((c, d))] += 1
        assert set(covered) == pairs and set(covered.values()) == {1}
        assert len(set(model.row_names)) == model.n_rows

    @pytest.mark.parametrize("case", CASES, indirect=True)
    def test_big_m_is_sized_from_its_own_terms(self, case):
        # The own coefficient is (sig - mu)/sig, so mu = (1 - own)*sig, which
        # keeps about 7 digits where sig exceeds mu by 1e8 or more.  A killer
        # left in the sum would add more than sig - psi to mu.
        model, t, s = case
        sig, psi, own, pos, level = sinr_rows(model, t, s.psi)
        total = np.bincount(pos, weights=level, minlength=len(sig))
        np.testing.assert_allclose((1.0 - own) * sig, psi * (1.0 + total) * MU_SAFETY + 1.0, rtol=1e-6)


class TestDarkRunCertificate:
    def test_finds_the_first_run_of_k_dark_slots(self):
        live = np.ones((6, 3, 2), dtype=bool)          # (N, R, L)
        live[1:3, 0] = False                            # robot 0: two dark slots
        live[2:5, 2] = False                            # robot 2: three dark slots
        assert dark_run(live, [3, 3, 4]) is None
        assert dark_run(live, [3, 3, 3]) == (2, 2, 4)
        assert dark_run(live, [2, 3, 3]) == (0, 1, 2)
        live[5, 1] = False                              # one dark slot still counts at K=1
        assert dark_run(live, [3, 1, 4]) == (1, 5, 5)
        assert dark_run(np.zeros((4, 0, 2), dtype=bool), np.zeros(0, dtype=int)) is None
        assert dark_run(np.zeros((4, 1, 0), dtype=bool), [4]) == (0, 0, 3)

    def test_certified_instances_are_infeasible_to_highs(self):
        # a certified instance that HiGHS solves would be an encoder bug
        certified = []
        for seed in range(1000, 1016):
            s = generate(replace(EXPERIMENT_CONFIG, n_robots=14), seed)
            t = precompute(s)
            run = dark_run(t.live, s.k_out)
            if run is None:
                continue
            r, first, last = run
            assert last - first + 1 == s.k_out[r] and not t.live[first:last + 1, r].any()
            assert solvers.solve(build_model(t, s), "highs").status == "infeasible"
            certified.append(seed)
        assert certified


class TestSettledBounds:
    @pytest.fixture(scope="class", params=(1002, 1003))
    def case(self, request):
        s = generate(BENCHMARK_FLOOR, request.param)
        t = precompute(s)
        return s, t, build_model(t, s)

    def test_each_settled_link_lies_only_in_its_serve_row(self, case):
        _, _, model = case
        lb, ub = settled_bounds(model)
        assert (model.lb <= lb).all() and (lb <= ub).all() and (ub <= model.ub).all()
        csc = model.matrix.tocsc()
        nonzeros = np.diff(csc.indptr)
        links = model.columns["X"]                                             # (L, R, N)
        settled = np.argwhere(ub[model.columns["O"]] < model.ub[model.columns["O"]])
        assert len(settled) > 200
        for r, n in settled:
            cols = links[:, r, n]
            cols = cols[cols >= 0]
            chosen = cols[lb[cols] == 1]
            assert len(chosen) == 1 and (ub[cols[cols != chosen[0]]] == 0).all()
            # the first link of the robot-slot that no other row holds: on
            # this floor always a BS link
            first = next(c for c in cols if nonzeros[c] == 1)
            assert chosen[0] == first and model.var_names[first].startswith("Xb")
            rows = csc.indices[csc.indptr[first]:csc.indptr[first + 1]]
            assert [model.row_names[k] for k in rows] == [f"serve_{r}_{n}"]
        # a bit that no robot-slot settles keeps its bounds
        touched = np.append(links[:, settled[:, 0], settled[:, 1]], model.columns["O"][tuple(settled.T)])
        untouched = np.ones(model.n_vars, dtype=bool)
        untouched[touched[touched >= 0]] = False
        assert (lb[untouched] == model.lb[untouched]).all() and (ub[untouched] == model.ub[untouched]).all()

    def test_each_folded_usage_bit_had_at_most_one_free_link(self, case):
        _, _, model = case
        lb, ub = settled_bounds(model)
        folded_ub, twin, dropped = fold_usage(model, lb, ub)
        csc = model.matrix.tocsc()
        used = np.array([name.startswith("used_") for name in model.row_names])
        counts = collections.Counter()
        for y in model.columns["Y"][model.columns["Y"] >= 0]:
            rows = csc.indices[csc.indptr[y]:csc.indptr[y + 1]]
            rows = rows[used[rows]]
            links = np.concatenate([model.row_cols[k][model.row_cols[k] != y] for k in rows])
            assert (lb[links] == 0).all(), "an allocation bit of a used_* row is fixed at 1"
            free = links[lb[links] < ub[links]]
            counts[min(len(free), 2)] += 1
            assert folded_ub[y] == (0.0 if len(free) == 0 else 1.0)
            assert twin[y] == (free[0] if len(free) == 1 else y)
            assert (dropped[rows] == (len(free) == 1)).all()
        # the floor holds usage bits with none, one and several free links
        assert min(counts[k] for k in range(3)) > 100, counts
        # only usage bits change, and only used_* rows are dropped
        others = np.ones(model.n_vars, dtype=bool)
        others[model.columns["Y"][model.columns["Y"] >= 0]] = False
        assert (folded_ub[others] == ub[others]).all() and (twin[others] == np.flatnonzero(others)).all()
        assert not dropped[~used].any()

    @pytest.mark.parametrize("config, seed", [(BENCHMARK_FLOOR, 1002), (BENCHMARK_FLOOR, 1003),
                                              (replace(EXPERIMENT_CONFIG, n_robots=12, d_reconfig=4), 2001)],
                             ids=["1002", "1003", "2001"])
    def test_settled_solve_matches_highs_on_the_full_model(self, config, seed):
        s = generate(config, seed)
        t = precompute(s)
        model = build_model(t, s)
        res = solvers.solve(model, "highs")
        sense, rhs = model.row_sense, model.row_rhs
        full = milp(model.objective, integrality=np.ones(model.n_vars), bounds=Bounds(model.lb, model.ub),
                    constraints=LinearConstraint(model.matrix, np.where(sense == "<", -np.inf, rhs),
                                                 np.where(sense == ">", np.inf, rhs)),
                    options={"mip_rel_gap": 0.0})
        assert full.status == 0 and res.status == "optimal"
        assert res.objective == round(full.fun)
        solvers._check_point(model, res.values)
        lb, ub = settled_bounds(model)
        assert res.solved_size[0] < (lb < ub).sum() < (model.lb < model.ub).sum()
        assert validate(s, t, extract_schedule(model, res.values)).ok


class TestCalibratedOptima:
    # Statuses and objectives of the calibrated floor at R=14, pinned from the
    # model that had one row per killing pair and per conflict pair.
    @pytest.mark.parametrize("seed, optimum", [(1000, 117), (1001, 172), (1002, 117), (1003, 161)])
    def test_optimum_is_pinned_and_valid(self, seed, optimum):
        s = generate(replace(EXPERIMENT_CONFIG, n_robots=14), seed)
        t = precompute(s)
        obj, res, model = solve_objective(s, t)
        assert obj == optimum
        assert validate(s, t, extract_schedule(model, res.values)).ok


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
        t = precompute(s)
        model = build_model(t, s)
        # a family is emitted where it has a live link (seed 1 has no live surface link)
        families = {name.split("_")[0] for name in model.var_names}
        surface_live = t.live[:, :, model.n_bs:].any()
        assert families == {"Xb", "O"} | ({"Xi", "Y"} if surface_live else set())
        at_most, at_least = set(), set()
        for cols, coefs, sense, rhs in zip(model.row_cols, model.row_coefs, model.row_sense, model.row_rhs):
            if len(cols) == 2 and (coefs == 1.0).all() and rhs == 1.0:
                if sense in ("<", "="):
                    at_most.add(tuple(cols.tolist()))
                if sense in (">", "="):
                    at_least.add(tuple(cols.tolist()))
        assert not at_most & at_least


def schedule_point(model, scenario, tables, sched):
    """The 0/1 model point of a schedule: its allocation, usage-history and outage bits.

    Every bit the schedule sets must be a column of the model."""
    cfg = scenario.config
    col = model.columns
    served = sched.link != -1
    r, n = np.nonzero(served)
    on = col["X"][sched.link[served], r, n].tolist()
    on.extend(col["Y"][derive_history(sched, cfg.n_bs, cfg.n_ris, cfg.d_reconfig, tables.u_effective).y])
    on.extend(col["O"][~served])
    assert min(on, default=0) >= 0, "the schedule sets a bit the model does not emit"
    x = np.zeros(model.n_vars)
    x[on] = 1
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
            surface_links = model.columns["X"][model.n_bs:]
            via_surface += x[surface_links[surface_links >= 0]].any()
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
        xb = model.columns["X"]  # I = 0: every link is a BS
        bogus[[xb[0, 0, 0], xb[1, 0, 0]]] = 1  # served through both BSs
        with pytest.raises(RuntimeError, match="inconsistent.* 2 allocation bits"):
            extract_schedule(model, bogus)

    def test_outage_bit_beside_an_allocation_bit_raises(self):
        # the model holds O + sum X = 1, so this point is not a solution of it
        cfg = ScenarioConfig(n_bs=2, n_ris=0, n_robots=1, n_slots=2, n_obstacles=0, k_range=(3, 3))
        s = generate(cfg, 0)
        model = build_model(precompute(s), s)
        values = np.zeros(model.n_vars)
        xb = model.columns["X"]  # I = 0: every link is a BS
        values[[model.columns["O"][0, 0], xb[0, 0, 0], xb[1, 0, 1]]] = 1
        with pytest.raises(RuntimeError, match="robot 0 slot 0 marked in outage with 1 allocation bits"):
            extract_schedule(model, values)
