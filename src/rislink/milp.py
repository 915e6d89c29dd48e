"""Integer program for outage-minimal BS/surface allocation.

``build_model`` turns precomputed tables into a pure binary program whose
objective counts outage slots.  Its columns are the allocation bits Xb
(base station) and Xi (surface), the usage-history bits Y, and the outage
bits O.  The SINR requirement of a served link is affine once the ratio is
multiplied through by its denominator, and every row is divided by the
noise power and then by the link's signal coefficient so coefficients stay
in a sane range.  Coverage is applied as variable fixing rather than
constraint rows.  The SINR row of an unused link is switched off by a big-M
term on the link's own allocation bit: ``sig*X - psi*I >= psi`` is written
``(sig - M)*X - psi*I >= psi - M``, which holds at every admissible
interference level I once X = 0.  An interferer that alone breaks a link
gets a pairwise exclusion row instead of a term in the link's SINR row, so
M covers only the terms that can be on together with the link.

Surface readiness is a cap rather than a flag: the distinct robots of every
usage window stay at U or fewer, which no valid schedule breaks (see
``build_model``), so the paper's busy flag is zero and its served-through-a-
ready-surface flag equals Xi at every integer point.

Each constraint family is emitted as numpy COO triplets, over all slots at
once or slot by slot, and the model holds the rows as one CSR matrix.  Row
and variable names are made only when something reads them.

``brute_force_optimum`` is an independent oracle for tiny instances: it
enumerates assignments slot by slot, re-deriving SINR, conflict, capacity,
readiness, and outage-window feasibility straight from the channel module
rather than from the constraint rows.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .allocation import BS, RIS, AllocationSchedule

MU_SAFETY = 1.01

__all__ = ["MilpModel", "ModelError", "build_model", "extract_schedule", "brute_force_optimum"]


class ModelError(ValueError):
    """Model construction failed (e.g. an insufficient big-M constant)."""


def _family_shapes(n_bs, n_ris, n_robots, n_slots) -> dict:
    """Index shape of each variable family, in column order."""
    return {
        "Xb": (n_bs, n_robots, n_slots),
        "Xi": (n_ris, n_robots, n_slots),
        "Y": (n_ris, n_robots, n_slots),
        "O": (n_robots, n_slots),
    }


def _family_columns(*dims) -> dict:
    """Column indices of each variable family, shaped like its index space."""
    out, base = {}, 0
    for label, shape in _family_shapes(*dims).items():
        size = math.prod(shape)
        out[label] = base + np.arange(size).reshape(shape)
        base += size
    return out


@functools.lru_cache(maxsize=8)
def _variable_names(*dims) -> tuple:
    return tuple(label + "_" + "_".join(map(str, idx))
                 for label, shape in _family_shapes(*dims).items()
                 for idx in itertools.product(*map(range, shape)))


@dataclass
class MilpModel:
    """Binary program over named variable families and one CSR row matrix.

    Senses are "<", ">", or "=".  Variable bounds equal to each other pin a
    variable.
    """

    n_bs: int
    n_ris: int
    n_robots: int
    n_slots: int
    lb: np.ndarray
    ub: np.ndarray
    objective: np.ndarray
    matrix: sp.csr_matrix
    row_sense: np.ndarray
    row_rhs: np.ndarray
    make_row_names: Callable[[], list] = field(repr=False)

    @property
    def n_vars(self) -> int:
        return len(self.lb)

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    @functools.cached_property
    def columns(self) -> dict:
        """Column indices of each variable family ("Xb", "Xi", "Y", "O")."""
        return _family_columns(self.n_bs, self.n_ris, self.n_robots, self.n_slots)

    @property
    def var_names(self) -> tuple:
        return _variable_names(self.n_bs, self.n_ris, self.n_robots, self.n_slots)

    @functools.cached_property
    def row_names(self) -> list:
        return self.make_row_names()

    @functools.cached_property
    def row_cols(self) -> list:
        return np.split(self.matrix.indices, self.matrix.indptr[1:-1])

    @functools.cached_property
    def row_coefs(self) -> list:
        return np.split(self.matrix.data, self.matrix.indptr[1:-1])

    def xb(self, b: int, r: int, n: int) -> int:
        return int(self.columns["Xb"][b, r, n])

    def xi(self, i: int, r: int, n: int) -> int:
        return int(self.columns["Xi"][i, r, n])

    def o(self, r: int, n: int) -> int:
        return int(self.columns["O"][r, n])

    def fix(self, var: int, value: int) -> None:
        self.lb[var] = value
        self.ub[var] = value


# Row sections of one slot, in row order; the outage windows follow the last slot.
_ONE, _CAPACITY, _SINR, _HISTORY, _SERVE = range(5)


class _Rows:
    """Constraint rows gathered family by family as COO triplets.

    Every row carries an integer key.  ``finish`` sorts the rows by key and
    keeps emission order among equal keys, so a family emitted for all slots
    at once still lands slot by slot between the families around it.
    """

    def __init__(self, n_vars: int):
        self.n_vars = n_vars
        self.count = 0
        self.keys, self.rows, self.cols, self.coefs, self.rhs = [], [], [], [], []
        self.senses = []   # (sense, row count) of each family
        self.names = []    # per family, a callable that makes its row names

    def add(self, key, sense: str, rhs, cols, coefs, names: Callable[[], list], rows=None) -> None:
        """Append one row per line of the 2-D ``cols``, or, when ``rows`` gives
        each nonzero's row within the family, ``len(rhs)`` rows of any length.
        ``key``, ``rhs`` and ``coefs`` broadcast."""
        cols = np.asarray(cols, dtype=np.int64)
        if rows is None:
            rows = np.repeat(np.arange(len(cols)), cols.shape[1])
        m = len(cols) if np.ndim(rhs) == 0 else len(rhs)
        self.keys.append(np.broadcast_to(np.asarray(key, dtype=np.int64), (m,)))
        self.rows.append(self.count + np.asarray(rows, dtype=np.int64).ravel())
        self.cols.append(cols.ravel())
        self.coefs.append(np.broadcast_to(np.asarray(coefs, dtype=float), cols.shape).ravel())
        self.rhs.append(np.broadcast_to(np.asarray(rhs, dtype=float), (m,)))
        self.senses.append((sense, m))
        self.names.append(names)
        self.count += m

    def finish(self):
        """(CSR matrix, senses, right-hand sides, row-name maker), rows in key order."""
        order = np.argsort(np.concatenate(self.keys), kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(self.count)
        matrix = sp.csr_matrix(
            (np.concatenate(self.coefs), (rank[np.concatenate(self.rows)], np.concatenate(self.cols))),
            shape=(self.count, self.n_vars),
        )
        sense = np.repeat([s for s, _ in self.senses], [m for _, m in self.senses]).astype("U1")
        rhs = np.concatenate(self.rhs)
        return matrix, sense[order], rhs[order], functools.partial(_ordered_names, tuple(self.names), order)


def _ordered_names(parts, order) -> list:
    names = [name for part in parts for name in part()]
    return [names[k] for k in order.tolist()]


def _slot_names(label: str, n_slots: int, n_inner: int) -> Callable[[], list]:
    """Names ``label_j_n`` of a family with one row per slot n and index j, slot-major."""
    return lambda: [f"{label}_{j}_{n}" for n in range(n_slots) for j in range(n_inner)]


def _link_labels(n_bs, robots, links, suffix="") -> list:
    return [f"B_{l}_{r}{suffix}" if l < n_bs else f"I_{l - n_bs}_{r}{suffix}"
            for r, l in zip(robots.tolist(), links.tolist())]


def _sinr_names(n, n_bs, robots, links, killers=None) -> list:
    """Names of a slot's SINR rows, or, when ``killers`` gives the interfering
    (robots, links), of its kill rows ``kill<victim link>_<interfering link>``."""
    labels = _link_labels(n_bs, robots, links, f"_{n}")
    if killers is None:
        return ["snr" + label for label in labels]
    return [f"kill{label}_{other}" for label, other in zip(labels, _link_labels(n_bs, *killers))]


def build_model(tables, scenario, mu: float | None = None) -> MilpModel:
    """Emit the full allocation program for one scenario.

    The SINR row of link X with interference terms I reads
    ``(sig - mu)*X - psi*I >= psi - mu``: the served row when X = 1, slack
    at every admissible interference level when X = 0.  An interferer X'
    whose level alone drives X below threshold gets ``X + X' <= 1``, one row
    per unordered pair, and no term in X's row.  That is exact: with X = 1
    the pairwise rows turn every such X' off, so the row is the SINR
    requirement itself.  Each row is rescaled by its signal coefficient, so
    no entry exceeds about 10 in magnitude (weak interference still gives
    entries near 1e-8).  With ``mu=None`` each row's big-M is
    ``psi*(1 + sum of its kept levels)*MU_SAFETY + 1``; an explicit ``mu``
    must be finite and exceed the worst denominator with every interferer
    on, else it is rejected with the offending magnitude.

    Usage history is one ``X <= Y`` row per live link and window slot, and
    readiness caps the distinct robots of every usage window at U
    (``sum_r Y <= U``).  No valid schedule breaks that cap: a surface
    serving in slot n had at most U distinct robots in the window of its
    last serving slot, which covers the rest of window n.  So the paper's
    busy flag never rises and a robot is served by ``O + sum Xi + sum Xb
    >= 1``.  The cap only cuts off stray allocation bits on busy surfaces,
    which ``extract_schedule`` discards anyway.
    """
    cfg = scenario.config
    n_b, n_i, n_r, n_n = cfg.n_bs, cfg.n_ris, cfg.n_robots, cfg.n_slots
    n_l = n_b + n_i
    dims = (n_b, n_i, n_r, n_n)
    col = _family_columns(*dims)
    xb, xi, y, o = (col[label] for label in ("Xb", "Xi", "Y", "O"))
    n_vars = sum(a.size for a in col.values())
    lb, ub, objective = np.zeros(n_vars), np.ones(n_vars), np.zeros(n_vars)
    objective[o.ravel()] = 1.0

    lt = tables.tables
    noise = lt.noise
    g2 = lt.gain_bs * lt.gain_robot
    psi = tables.psi_linear
    u = float(tables.u_effective)
    d_reconfig = cfg.d_reconfig

    # conditioned coefficients: all SINR rows are divided through by the noise
    sig_bs = lt.p_direct * g2 / noise        # (N, B, R)
    sig_ris = lt.p_ris * g2 / noise          # (N, I, R)
    xi_bs = lt.xi_bs / noise                 # (N, B, R, R)
    xi_ris = lt.xi_ris / noise               # (N, I, R, R)

    if mu is not None:
        # an explicit big-M must dominate the worst admissible denominator,
        # one source link per interfering robot
        worst = np.maximum(xi_bs.max(axis=1, initial=0.0), xi_ris.max(axis=1, initial=0.0)).sum(axis=1)
        needed = float((psi[:, None] * (1.0 + worst.T)).max(initial=0.0))
        if not (math.isfinite(mu) and float(mu) > needed):
            raise ModelError(
                f"big-M constant {mu:g} is insufficient: it must be finite and exceed "
                f"the worst conditioned denominator {needed:g}"
            )

    # per slot, robot and link (every BS, then every surface): the link's
    # allocation bit, its coverage, and its conditioned signal
    links = np.concatenate([xb.transpose(2, 1, 0), xi.transpose(2, 1, 0)], axis=2)          # (N, R, L)
    covered = np.concatenate([tables.coverage.bs_robot, tables.coverage.ris_robot], axis=1).transpose(0, 2, 1)
    signal = np.concatenate([sig_bs.transpose(0, 2, 1), sig_ris.transpose(0, 2, 1)], axis=2)
    lb[links[~covered]] = ub[links[~covered]] = 0

    stride = n_r * n_l + n_i + 1  # room for every group key within a section

    def key(n, section, group=0):
        return (np.asarray(n, dtype=np.int64) * 5 + section) * stride + group

    rows = _Rows(n_vars)
    slots = np.arange(n_n)
    slot_of_nr = np.repeat(slots, n_r)                     # rows (slot, robot)
    slot_of_ni, surface_of_ni = np.divmod(np.arange(n_n * n_i), max(n_i, 1))   # rows (slot, surface)

    # single assignment per robot
    if n_l:
        rows.add(key(slot_of_nr, _ONE), "<", 1.0, links.reshape(-1, n_l), 1.0, _slot_names("one", n_n, n_r))

    # angular conflicts and surface capacity
    pairs = np.argwhere(tables.conflicts)  # (n, i, ra, rb) rows
    pn, pi, pa, pb = pairs.T
    rows.add(key(pn, _CAPACITY, pi), "<", 1.0, np.column_stack([xi[pi, pa, pn], xi[pi, pb, pn]]), 1.0,
             lambda: [f"confl_{i}_{ra}_{rb}_{n}" for n, i, ra, rb in pairs.tolist()])
    if n_r:
        rows.add(key(slot_of_ni, _CAPACITY, surface_of_ni), "<", u, xi.transpose(2, 0, 1).reshape(-1, n_r),
                 1.0, _slot_names("cap", n_n, n_i))

    # SINR rows, per slot: every covered link of every victim robot hears the
    # covered links of every other robot (same-surface links are nulled)
    robots = np.arange(n_r)
    weak = []
    for n in range(n_n):
        # levels[r, rp, l] = interference victim r hears when robot rp uses link l
        levels = np.concatenate([xi_bs[n].transpose(2, 1, 0), xi_ris[n].transpose(2, 1, 0)], axis=2)
        heard = (levels > 0.0) & covered[n]
        heard[robots, robots] = False
        vr, vl = np.nonzero(covered[n])
        sig = signal[n, vr, vl]
        p = psi[vr]
        # below threshold even alone: the link is unusable
        usable = sig >= p
        weak.append(links[n, vr[~usable], vl[~usable]])
        vr, vl, sig, p = vr[usable], vl[usable], sig[usable], p[usable]
        mask = heard[vr]
        on_ris = np.nonzero(vl >= n_b)[0]
        mask[on_ris, :, vl[on_ris]] = False  # nulling removes same-surface interference
        tv, trp, tl = np.nonzero(mask)
        level = levels[vr[tv], trp, tl]
        x = links[n, vr, vl]
        t_col = links[n, trp, tl]
        # an interferer that alone exceeds the interference a live link
        # tolerates is excluded pairwise and leaves the SINR row
        kill = level > (sig / p - 1.0)[tv]
        k = np.flatnonzero(kill)
        # mutual killers give one row: keep the first of each unordered pair
        a, b = x[tv[k]], t_col[k]
        _, first = np.unique(np.minimum(a, b) * n_vars + np.maximum(a, b), return_index=True)
        k = k[np.sort(first)]
        kv = tv[k]
        rows.add(key(n, _SINR, kv), "<", 1.0, np.column_stack([x[kv], t_col[k]]), 1.0,
                 functools.partial(_sinr_names, n, n_b, vr[kv], vl[kv], (trp[k], tl[k])))
        tv, t_col, level = tv[~kill], t_col[~kill], level[~kill]
        n_v = len(vr)
        if mu is None:
            mu_v = p * (1.0 + np.bincount(tv, weights=level, minlength=n_v)) * MU_SAFETY + 1.0
        else:
            mu_v = np.full(n_v, float(mu))
        scale = 1.0 / sig
        rows.add(key(n, _SINR, np.arange(n_v)), ">", p * scale - mu_v * scale, np.concatenate([x, t_col]),
                 np.concatenate([sig * scale - mu_v * scale, -p[tv] * level * scale[tv]]),
                 functools.partial(_sinr_names, n, n_b, vr, vl), rows=np.concatenate([np.arange(n_v), tv]))
    weak = np.concatenate(weak) if weak else np.zeros(0, dtype=np.int64)
    lb[weak] = ub[weak] = 0

    # usage history: one X <= Y row per live link of the window
    window = slots[:, None] - d_reconfig + 1 + np.arange(d_reconfig)      # (N, D), oldest first
    window_x = xi[:, :, np.maximum(window, 0)].transpose(2, 0, 1, 3)     # (N, I, R, D)
    y_nir = y.transpose(2, 0, 1)                                          # (N, I, R)
    hn, hi, hr, hk = np.nonzero((ub[window_x] > 0) & (window >= 0)[:, None, None, :])
    rows.add(key(hn, _HISTORY, hi), "<", 0.0,
             np.column_stack([window_x[hn, hi, hr, hk], y_nir[hn, hi, hr]]), [1.0, -1.0],
             lambda: [f"used_{i}_{r}_{window[n, k]}_{n}"
                      for n, i, r, k in zip(hn.tolist(), hi.tolist(), hr.tolist(), hk.tolist())])
    # readiness: at most U distinct robots per usage window
    if n_r:
        rows.add(key(slot_of_ni, _HISTORY, surface_of_ni), "<", u, y_nir.reshape(-1, n_r), 1.0,
                 _slot_names("ready", n_n, n_i))

    serve = np.concatenate([o.T[:, :, None], xi.transpose(2, 1, 0), xb.transpose(2, 1, 0)], axis=2)
    rows.add(key(slot_of_nr, _SERVE), ">", 1.0, serve.reshape(-1, 1 + n_i + n_b), 1.0, _slot_names("serve", n_n, n_r))

    # outage windows: strictly fewer than K_r outages per K_r-slot window
    k_out = scenario.k_out.astype(int)
    back = np.arange(max(k_out, default=0))
    wr, wn, wb = np.nonzero((slots[None, :, None] >= back) & (back < k_out[:, None, None]))
    rows.add(key(n_n, _ONE), "<", np.repeat(k_out - 1.0, n_n), o[wr, wn - wb], 1.0,
             lambda: [f"win_{r}_{n}" for r in range(n_r) for n in range(n_n)], rows=wr * n_n + wn)

    matrix, sense, rhs, row_names = rows.finish()
    return MilpModel(n_bs=n_b, n_ris=n_i, n_robots=n_r, n_slots=n_n, lb=lb, ub=ub, objective=objective,
                     matrix=matrix, row_sense=sense, row_rhs=rhs, make_row_names=row_names)


def extract_schedule(model: MilpModel, values: np.ndarray) -> AllocationSchedule:
    """Map a 0/1 solution vector back to an allocation schedule.

    An outage slot wins over any stray allocation bit (dropping a
    transmission can only loosen every remaining constraint); a robot marked
    served without exactly one allocation bit indicates a backend bug.
    """
    on = np.asarray(values) >= 0.5
    served = ~on[model.columns["O"]]
    via_bs, via_ris = on[model.columns["Xb"]], on[model.columns["Xi"]]
    bits = via_bs.sum(axis=0) + via_ris.sum(axis=0)
    bad = np.argwhere(served & (bits != 1))
    if len(bad):
        r, n = bad[0]
        raise RuntimeError(
            f"inconsistent solution: robot {r} slot {n} marked served "
            f"with {bits[r, n]} allocation bits")
    sched = AllocationSchedule.all_outage(model.n_robots, model.n_slots)
    for kind, bits_of in ((BS, via_bs), (RIS, via_ris)):
        hit = served & bits_of.any(axis=0)
        sched.kind[hit] = kind
        sched.index[hit] = np.tensordot(np.arange(len(bits_of)), bits_of, axes=1)[hit]
    return sched


GUARD_LIMITS = {"n_robots": 3, "n_slots": 4, "n_bs": 2, "n_ris": 2}


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

    n_r, n_n, n_i = cfg.n_robots, cfg.n_slots, cfg.n_ris
    lt = tables.tables
    g2 = lt.gain_bs * lt.gain_robot
    psi = tables.psi_linear
    u = tables.u_effective
    d_reconfig = cfg.d_reconfig
    k_out = scenario.k_out.astype(int)

    if n_r == 0:
        return 0, AllocationSchedule.all_outage(0, n_n)

    def slot_combos(n):
        options = []
        for r in range(n_r):
            opts = [None]
            opts += [("bs", b) for b in np.flatnonzero(tables.coverage.bs_robot[n, :, r]).tolist()]
            opts += [("ris", i) for i in np.flatnonzero(tables.coverage.ris_robot[n, :, r]).tolist()]
            options.append(opts)
        feasible = []
        for combo in itertools.product(*options):
            per_ris = {}
            for r, a in enumerate(combo):
                if a is not None and a[0] == "ris":
                    per_ris.setdefault(a[1], set()).add(r)
            if any(len(s) > u for s in per_ris.values()):
                continue
            if any(tables.conflicts[n, i][np.ix_(list(s), list(s))].any() for i, s in per_ris.items()):
                continue
            ok = True
            for r, a in enumerate(combo):
                if a is None:
                    continue
                if a[0] == "bs":
                    signal = lt.p_direct[n, a[1], r]
                    own = None
                else:
                    signal = lt.p_ris[n, a[1], r]
                    own = a[1]
                interference = 0.0
                for rp, ap in enumerate(combo):
                    if rp == r or ap is None:
                        continue
                    if ap[0] == "bs":
                        interference += lt.xi_bs[n, ap[1], rp, r]
                    elif ap[1] != own:
                        interference += lt.xi_ris[n, ap[1], rp, r]
                if signal * g2 / (lt.noise + interference) < psi[r]:
                    ok = False
                    break
            if not ok:
                continue
            outages = sum(1 for a in combo if a is None)
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
                if a is None:
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
    sched = AllocationSchedule.all_outage(n_r, n_n)
    for n, combo in enumerate(best["path"]):
        for r, a in enumerate(combo):
            if a is None:
                continue
            if a[0] == "bs":
                sched.assign_bs(r, n, a[1])
            else:
                sched.assign_ris(r, n, a[1])
    return best["obj"], sched
