"""Brute-force oracle for tiny allocation instances.

``brute_force_optimum`` enumerates assignments slot by slot, re-deriving
SINR, conflict, capacity, readiness, and outage-window feasibility straight
from the link tables rather than from the constraint rows of
``rislink.milp``, so it is the independent ground truth the solvers are
tested against.
"""

import itertools

import numpy as np

from rislink import channel
from rislink.allocation import AllocationSchedule

GUARD_LIMITS = {"n_robots": 4, "n_slots": 4, "n_bs": 2, "n_ris": 2}


def brute_force_optimum(tables, scenario):
    """Exhaustive outage minimum for guarded tiny instances.

    Returns (objective, schedule); (None, None) when no schedule satisfies
    the outage windows.  Feasibility of every slot combination is evaluated
    through the channel model, independently of the constraint rows.
    """
    cfg = scenario.config
    for attr, limit in GUARD_LIMITS.items():
        if getattr(cfg, attr) > limit:
            raise ValueError(f"brute force guard exceeded: {attr} > {limit}")

    n_r, n_n, n_b, n_i = cfg.n_robots, cfg.n_slots, cfg.n_bs, cfg.n_ris
    g2 = channel.GAIN * channel.GAIN
    psi = scenario.psi
    u = tables.u_effective
    d_reconfig = cfg.d_reconfig
    k_out = scenario.k_out.astype(int)

    if n_r == 0:
        return 0, AllocationSchedule.all_outage(0, n_n)

    # a robot's option is -1 (outage) or a covering link l: BS l below
    # n_b, surface l - n_b from there on
    def slot_combos(n):
        options = [[-1] + np.flatnonzero(tables.covered[n, r]).tolist() for r in range(n_r)]
        feasible = []
        for combo in itertools.product(*options):
            per_ris = {}
            for r, a in enumerate(combo):
                if a >= n_b:
                    per_ris.setdefault(a - n_b, set()).add(r)
            if any(len(s) > u for s in per_ris.values()):
                continue
            if any(tables.conflicts[n, i][np.ix_(list(s), list(s))].any() for i, s in per_ris.items()):
                continue
            ok = True
            for r, a in enumerate(combo):
                if a == -1:
                    continue
                signal = tables.power[n, r, a]
                own = a if a >= n_b else None  # a surface nulls its own beams
                interference = 0.0
                for rp, ap in enumerate(combo):
                    if rp == r or ap == -1 or ap == own:
                        continue
                    interference += tables.interference[n, r, rp, ap]
                if signal * g2 / (channel.NOISE + interference) < psi[r]:
                    ok = False
                    break
            if not ok:
                continue
            outages = combo.count(-1)
            use = tuple(frozenset(per_ris.get(i, ())) for i in range(n_i))
            feasible.append((combo, outages, use))
        return feasible

    combos = [slot_combos(n) for n in range(n_n)]
    empty_hist = tuple(tuple(frozenset() for _ in range(n_i)) for _ in range(max(d_reconfig - 1, 0)))
    best = {"obj": None, "path": None}
    memo = {}

    def search(n, runs, hist, acc, path):
        if best["obj"] is not None and acc >= best["obj"]:
            return
        if n == n_n:
            best["obj"] = acc
            best["path"] = list(path)
            return
        key = (n, runs, hist)
        seen = memo.get(key)
        if seen is not None and seen <= acc:
            return
        memo[key] = acc
        for combo, outages, use in combos[n]:
            ok = True
            new_runs = []
            for r, a in enumerate(combo):
                if a == -1:
                    run = runs[r] + 1
                    if run >= k_out[r]:
                        ok = False
                        break
                    new_runs.append(run)
                else:
                    new_runs.append(0)
            if not ok:
                continue
            # readiness: serving through a surface whose D-window saw > U robots
            for i in range(n_i):
                if not use[i]:
                    continue
                distinct = set(use[i])
                for past in hist:
                    distinct |= past[i]
                if len(distinct) > u:
                    ok = False
                    break
            if not ok:
                continue
            new_hist = (hist + (use,))[1:] if hist else ()
            path.append(combo)
            search(n + 1, tuple(new_runs), new_hist, acc + outages, path)
            path.pop()

    search(0, (0,) * n_r, empty_hist, 0, [])
    if best["obj"] is None:
        return None, None
    return best["obj"], AllocationSchedule(np.array(best["path"], dtype=np.int16).reshape(n_n, n_r).T)
