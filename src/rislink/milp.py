"""Integer program for outage-minimal BS/surface allocation.

``build_model`` turns precomputed tables into a pure binary program whose
objective counts outage slots.  Its columns are the allocation bits X, one
per link on ``channel``'s link axis, robot and slot (named ``Xb_b_r_n`` for
BS b and ``Xi_i_r_n`` for surface i), the usage-history bits Y, and the
outage bits O.  The SINR requirement of a served link is affine once the
ratio is multiplied through by its denominator, and every row is divided by
the noise power and then by the link's signal coefficient so coefficients
stay in a sane range.  The model emits only live columns: an allocation bit only
for a live link (``DerivedTables.live``: covered, and its signal alone meets
the robot's threshold), every outage bit, and a usage bit only where some
live surface link of its robot lies in its usage window.  Each robot and
slot with two or more live links has the row ``O + sum X = 1``, one with a
single live link ``O + X >= 1``, and one with none no row and its O fixed
at 1.  The SINR row of an unused link is switched off by a big-M
term on the link's own allocation bit: ``sig*X - psi*I >= psi`` is written
``(sig - M)*X - psi*I >= psi - M``, which holds at every admissible
interference level I once X = 0.  An interferer that alone breaks a link
is excluded with it instead of being a term in the link's SINR row, and M
leaves its level out.  Such killing
pairs and the arrival-angle conflict pairs share exclusion rows
``sum_S X + sum_T X' <= 1``, one per slot, robot pair and set T.

The model emits no row that its other rows or the 0/1 box already imply:
no per-slot surface capacity row, no ready row over U or fewer usage bits,
and no SINR row that holds with every one of its columns at 1.
``dark_run`` finds a robot with no live link for K_r slots in a row, which
proves the program infeasible without building it.

Surface readiness is a cap rather than a flag: the distinct robots of every
usage window stay at U or fewer, which no valid schedule breaks (see
``build_model``), so the paper's busy flag is zero and its served-through-a-
ready-surface flag equals the surface link's X at every integer point.

Each constraint family is emitted once, for all slots, as numpy COO
triplets on the dense index of every family (``_family_columns``).  A
row's sort key holds its slot, so the rows come out slot by slot in
emission order, and one ``bincount`` sums each SINR row's levels in term
order, as a row built alone would, so no big-M moves.  One dense-to-emitted
map renumbers the columns, keeping the family order and the order within
each family, and the model holds the rows as one CSR matrix.  Row and
variable names are made only when something reads them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp

from . import channel
from .allocation import AllocationSchedule, run_ends

MU_SAFETY = 1.01

__all__ = ["MilpModel", "build_model", "settled_bounds", "fold_usage", "extract_schedule", "dark_run"]


def _family_shapes(n_bs, n_ris, n_robots, n_slots) -> dict:
    """Index shape of each variable family, in column order; X is (L, R, N)
    with the BS links first."""
    return {
        "X": (n_bs + n_ris, n_robots, n_slots),
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


def _dense_size(*dims) -> int:
    return sum(map(math.prod, _family_shapes(*dims).values()))


@functools.lru_cache(maxsize=8)
def _variable_names(*dims) -> np.ndarray:
    """Names ``label_i_j...`` of every dense column, in column order; a link's
    label is Xb for a BS and Xi for a surface."""
    parts = []
    for label, shape in _family_shapes(*dims).items():
        index = np.indices(shape).reshape(len(shape), -1)
        parts.append(_link_names(dims[0], "Xb", "Xi", *index) if label == "X" else _names(label, *index))
    return np.concatenate(parts)


@dataclass
class MilpModel:
    """Binary program over named variable families and one CSR row matrix.

    Senses are "<", ">", or "=".  Variable bounds equal to each other pin a
    variable.  The families span a dense index (``_family_columns``) of which
    only some positions are emitted as columns; ``dense`` holds, in
    ascending order, the dense position of each column.
    """

    n_bs: int
    n_ris: int
    n_robots: int
    n_slots: int
    dense: np.ndarray
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
        """Column of each variable family ("X" (L, R, N) with the BS links
        first, "Y", "O"), shaped like its index space; -1 where the bit is
        not emitted."""
        dims = (self.n_bs, self.n_ris, self.n_robots, self.n_slots)
        emitted = np.full(_dense_size(*dims), -1)
        emitted[self.dense] = np.arange(len(self.dense))
        return {label: emitted[cols] for label, cols in _family_columns(*dims).items()}

    @functools.cached_property
    def var_names(self) -> tuple:
        return tuple(_variable_names(self.n_bs, self.n_ris, self.n_robots, self.n_slots)[self.dense].tolist())

    @functools.cached_property
    def row_names(self) -> list:
        return self.make_row_names()

    @functools.cached_property
    def row_cols(self) -> list:
        return np.split(self.matrix.indices, self.matrix.indptr[1:-1])

    @functools.cached_property
    def row_coefs(self) -> list:
        return np.split(self.matrix.data, self.matrix.indptr[1:-1])


# Row sections of one slot, in row order; the outage windows follow the last slot.
_SERVE, _SINR, _HISTORY = range(3)


class _Rows:
    """Constraint rows gathered family by family as COO triplets.

    Every row carries an integer key.  ``finish`` sorts the rows by key and
    keeps emission order among equal keys, so a family emitted for all slots
    at once still lands slot by slot between the families around it.
    """

    def __init__(self):
        self.count = 0
        self.keys, self.rows, self.cols, self.coefs, self.rhs, self.senses = [], [], [], [], [], []
        self.names = []    # per family, a callable that makes its row names

    def add(self, key, sense, rhs, cols, coefs, names: Callable[[], np.ndarray], rows=None) -> None:
        """Append one row per line of the 2-D ``cols``, or, when ``rows`` gives
        each nonzero's row within the family, ``len(rhs)`` rows of any length.
        ``key``, ``sense``, ``rhs`` and ``coefs`` broadcast."""
        cols = np.asarray(cols, dtype=np.int64)
        if rows is None:
            rows = np.repeat(np.arange(len(cols)), cols.shape[1])
        m = len(cols) if np.ndim(rhs) == 0 else len(rhs)
        self.keys.append(np.broadcast_to(np.asarray(key, dtype=np.int64), (m,)))
        self.rows.append(self.count + np.asarray(rows, dtype=np.int64).ravel())
        self.cols.append(cols.ravel())
        self.coefs.append(np.broadcast_to(np.asarray(coefs, dtype=float), cols.shape).ravel())
        self.rhs.append(np.broadcast_to(np.asarray(rhs, dtype=float), (m,)))
        self.senses.append(np.broadcast_to(np.asarray(sense, dtype="U1"), (m,)))
        self.names.append(names)
        self.count += m

    def finish(self, emitted: np.ndarray, n_vars: int):
        """(CSR matrix, senses, right-hand sides, row-name maker), rows in key order.

        The rows index the dense columns; ``emitted`` maps each to its column
        in the model, or to -1 where the column is not emitted, and those
        nonzeros are dropped.
        """
        order = np.argsort(np.concatenate(self.keys), kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(self.count)
        cols = emitted[np.concatenate(self.cols)]
        kept = cols >= 0
        matrix = sp.csr_matrix(
            (np.concatenate(self.coefs)[kept], (rank[np.concatenate(self.rows)[kept]], cols[kept])),
            shape=(self.count, n_vars),
        )
        sense, rhs = np.concatenate(self.senses), np.concatenate(self.rhs)
        return matrix, sense[order], rhs[order], functools.partial(_ordered_names, tuple(self.names), order)


def _ordered_names(parts, order) -> list:
    return np.concatenate([part() for part in parts])[order].tolist()


def _names(head: str, *indices) -> np.ndarray:
    """``head_i_j...`` for every position of the index arrays, as an object array."""
    numerals = np.array([f"_{k}" for k in range(max(np.max(i, initial=0) for i in indices) + 1)], dtype=object)
    for index in indices:
        head = head + numerals[index]
    return head


def _link_names(n_bs, bs_head, ris_head, link, *indices) -> np.ndarray:
    """``bs_head_b_...`` for a BS link b and ``ris_head_i_...`` for a surface link i."""
    kind, index = channel.kind_index_of(link, n_bs)
    return _names(np.where(kind == channel.RIS, ris_head, bs_head).astype(object), index, *indices)


def _sinr_names(dims, links) -> np.ndarray:
    """Names ``snrB_b_r_n`` and ``snrI_i_r_n`` of the SINR rows whose own
    allocation bits are the dense columns ``links``."""
    return _link_names(dims[0], "snrB", "snrI", *np.unravel_index(links, _family_shapes(*dims)["X"]))


def build_model(tables, scenario) -> MilpModel:
    """Emit the allocation program for one scenario.

    The SINR row of link X with interference terms I reads
    ``(sig - M)*X - psi*I >= psi - M``: the served row when X = 1, slack
    at every admissible interference level when X = 0.  An interferer X'
    whose level alone drives X below threshold is excluded with X and is
    no term in X's row.  That is exact: with X = 1 the exclusion rows turn
    every such X' off, so the row is the SINR requirement itself.

    Killing pairs and arrival-angle conflict pairs are both links of two
    robots ra < rb in one slot n that exclude each other.  The links S of
    ra that exclude the same links T of rb share the row
    ``sum_S X + sum_T X' <= 1``.  It has the integer points of the pairwise
    rows it covers, and an LP relaxation at least as tight: any two links
    of S (or of T) already exclude each other through the robot's serve row,
    and every pair across S and T is a killing or conflict pair.  Each pair
    lies in exactly one such row, named ``excl_ra_rb_n_j`` with j counting
    the rows of the robot pair in slot n.

    Each SINR row is rescaled by its signal coefficient, so no entry
    exceeds about 10 in magnitude (weak interference still gives entries
    near 1e-8).  Each row's big-M is
    ``psi*(1 + sum of its kept levels)*MU_SAFETY + 1``.  A row whose kept
    levels sum to at most ``sig/psi - 1`` holds with all its columns at 1,
    and so at every point of the box, since it is linear and holds at X = 0
    for any interference; over 95 % of the rows are such and none of them
    is emitted.  This leaves the LP relaxation as it is.

    Only live columns are emitted (see the module docstring).  The rows are
    built on the dense index of every family and renumbered through one
    dense-to-emitted map, which drops the nonzeros of bits that are not
    emitted.  An interferer whose bit is not emitted is thus no term of a
    SINR row, though its level still counts toward the row's big-M and
    toward whether the row is emitted, so the LP relaxation is that of the
    model with the bit fixed at 0.

    Usage history is one ``X <= Y`` row per live link and window slot, and
    readiness caps the distinct robots of every usage window at U
    (``sum_r Y <= U``); a window with U or fewer usage bits gets no row.
    No valid schedule breaks that cap: a surface serving in slot n had at
    most U distinct robots in the window of its last serving slot, which
    covers the rest of window n.  So the paper's
    busy flag never rises and a robot is in outage or served by exactly
    one link, ``O + sum X = 1``.  That row joins the robot's
    single-assignment row and its served row ``O + sum X >= 1``; since the
    objective and the ``<=`` outage windows only ever push O down, no
    optimum and no LP bound moves.  Over a single live link the row is
    ``O + X >= 1``: its ``<= 1`` half is the box.  A robot with no live link
    has no row and its O is fixed at 1.  The window of slot n ends at n, so
    ``X <= Y`` and the ready cap give ``sum_r X <= U`` over each surface's
    links in every slot, and no capacity row is emitted.
    """
    cfg = scenario.config
    n_b, n_i, n_r, n_n = cfg.n_bs, cfg.n_ris, cfg.n_robots, cfg.n_slots
    n_l = n_b + n_i
    dims = (n_b, n_i, n_r, n_n)
    col = _family_columns(*dims)
    y, o = col["Y"], col["O"]
    xi = col["X"][n_b:]                                                      # surface links (I, R, N)

    psi = scenario.psi
    u = float(tables.u_effective)
    d_reconfig = cfg.d_reconfig

    # per slot, robot and link (every BS, then every surface): the link's
    # allocation bit, its coverage, and its conditioned signal and
    # interference levels; all SINR rows are divided through by the noise
    links = col["X"].transpose(2, 1, 0)                                      # (N, R, L)
    covered = tables.covered
    signal = tables.power * (channel.GAIN * channel.GAIN) / channel.NOISE
    cross = tables.interference / channel.NOISE                             # (N, R, R, L)
    live = tables.live
    n_live = live.sum(axis=2)                                                # (N, R)
    # the dense columns that are emitted: each live allocation bit and each
    # outage bit, and below each usage bit that a used_* row holds
    emit = np.zeros(_dense_size(*dims), dtype=bool)
    emit[links[live]] = emit[o] = True

    stride = n_r * n_l + n_i + 1  # room for every group key within a section

    def key(n, section, group=0):
        return (np.asarray(n, dtype=np.int64) * 3 + section) * stride + group

    rows = _Rows()
    slots = np.arange(n_n)

    # each robot with a live link is in outage or served by exactly one; over
    # a single link the row is O + X >= 1, whose <= 1 half is the box
    sn, sr = np.nonzero(n_live)
    ln, lr, ll = np.nonzero(live)
    cell = np.arange(len(sn))
    rows.add(key(sn, _SERVE), np.where(n_live[sn, sr] > 1, "=", ">"), np.ones(len(sn)),
             np.concatenate([o[sr, sn], links[ln, lr, ll]]), 1.0, lambda: _names("serve", sr, sn),
             rows=np.concatenate([cell, np.repeat(cell, n_live[sn, sr])]))

    # SINR rows, all slots at once: every live link of every victim robot
    # hears the covered links of every other robot in its slot (same-surface
    # links are nulled); victims run in (slot, robot, link) order
    heard = (cross > 0.0) & covered[:, None] & ~np.eye(n_r, dtype=bool)[:, :, None]  # [n, r, rp, l]
    vn, vr, vl = np.nonzero(live)
    sig = signal[vn, vr, vl]
    p = psi[vr]
    mask = heard[vn, vr]
    on_ris = np.nonzero(vl >= n_b)[0]
    mask[on_ris, :, vl[on_ris]] = False  # nulling removes same-surface interference
    tv, trp, tl = np.nonzero(mask)
    level = cross[vn[tv], vr[tv], trp, tl]
    x = links[vn, vr, vl]
    t_col = links[vn[tv], trp, tl]
    # an interferer that alone exceeds the interference a live link
    # tolerates goes to the exclusion rows and leaves the SINR row
    tolerated = sig / p - 1.0
    kill = level > tolerated[tv]
    killers = np.stack([x[tv[kill]], t_col[kill]])
    tv, t_col, level = tv[~kill], t_col[~kill], level[~kill]
    # a row that holds with all its terms on holds everywhere in the box
    total = np.bincount(tv, weights=level, minlength=len(vn))
    binds = total > tolerated
    term = binds[tv]
    tv, t_col, level = (np.cumsum(binds) - 1)[tv[term]], t_col[term], level[term]
    x, sig, p, total, bn = x[binds], sig[binds], p[binds], total[binds], vn[binds]
    n_v = len(x)
    mu_v = p * (1.0 + total) * MU_SAFETY + 1.0
    scale = 1.0 / sig
    # group j is the row's place within slot bn, so the key sort keeps each slot's rows in order
    rows.add(key(bn, _SINR, np.arange(n_v) - np.searchsorted(bn, bn)), ">", p * scale - mu_v * scale,
             np.concatenate([x, t_col]), np.concatenate([sig * scale - mu_v * scale, -p[tv] * level * scale[tv]]),
             functools.partial(_sinr_names, dims, x), rows=np.concatenate([np.arange(n_v), tv]))

    # exclusion rows over the killing and arrival-angle conflict pairs; link l
    # of robot r in slot n is column (l*R + r)*N + n.  Each pair's first column
    # is on the lower robot ra.  A group is a first column and the other robot
    # rb, and T the links of rb it excludes; the first columns S of ra in slot
    # n with the same rb and T share the row sum_S X + sum_T X' <= 1
    pn, pi, pa, pb = np.nonzero(tables.conflicts)
    a, b = np.concatenate([np.stack([xi[pi, pa, pn], xi[pi, pb, pn]]), killers], axis=1)
    a, b = np.where(a // n_n % n_r < b // n_n % n_r, [a, b], [b, a])
    group_key, group = np.unique(a * n_r + b // n_n % n_r, return_inverse=True)
    first, rb = np.divmod(group_key, n_r)
    pair = (first % n_n * n_r + first // n_n % n_r) * n_r + rb                 # (n, ra, rb)
    excluded = np.zeros((len(group_key), n_l), dtype=bool)                      # T by group
    excluded[group, b // (n_r * n_n)] = True
    # a row starts wherever (n, ra, rb) or T changes in the groups sorted by both
    packed = np.packbits(excluded, axis=1)
    order = np.lexsort((*packed.T[::-1], pair))
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = (np.diff(pair[order]) != 0) | (np.diff(packed[order], axis=0) != 0).any(axis=1)
    row = np.empty_like(order)
    row[order] = np.cumsum(starts) - 1
    head = order[starts]
    ex_pair = pair[head]
    ex_n, ex_ra, ex_rb = ex_pair // (n_r * n_r), ex_pair // n_r % n_r, ex_pair % n_r
    tj, tl = np.nonzero(excluded[head])
    nth = np.arange(len(head)) - np.searchsorted(ex_pair, ex_pair)
    rows.add(key(ex_n, _SERVE), "<", np.ones(len(head)),
             np.concatenate([first, (tl * n_r + ex_rb[tj]) * n_n + ex_n[tj]]), 1.0,
             lambda: _names("excl", ex_ra, ex_rb, ex_n, nth), rows=np.concatenate([row, tj]))

    # usage history: one X <= Y row per live link of the window
    window = slots[:, None] - d_reconfig + 1 + np.arange(d_reconfig)      # (N, D), oldest first
    window_x = xi[:, :, np.maximum(window, 0)].transpose(2, 0, 1, 3)     # (N, I, R, D)
    y_nir = y.transpose(2, 0, 1)                                          # (N, I, R)
    hn, hi, hr, hk = np.nonzero(emit[window_x] & (window >= 0)[:, None, None, :])
    rows.add(key(hn, _HISTORY, hi), "<", 0.0,
             np.column_stack([window_x[hn, hi, hr, hk], y_nir[hn, hi, hr]]), [1.0, -1.0],
             lambda: _names("used", hi, hr, window[hn, hk], hn))
    emit[y_nir[hn, hi, hr]] = True
    # readiness: at most U distinct robots per usage window; the box implies
    # the row of a window with U or fewer usage bits
    used = emit[y_nir]
    fill = used.sum(axis=2)                                               # (N, I)
    rn, ri = np.nonzero(fill > u)
    yn, yi, yr = np.nonzero(used & (fill > u)[:, :, None])
    rows.add(key(rn, _HISTORY, ri), "<", np.full(len(rn), u), y_nir[yn, yi, yr], 1.0,
             lambda: _names("ready", ri, rn), rows=np.repeat(np.arange(len(rn)), fill[rn, ri]))

    # outage windows: strictly fewer than K_r outages per K_r-slot window
    k_out = scenario.k_out.astype(int)
    back = np.arange(max(k_out, default=0))
    wr, wn, wb = np.nonzero((slots[None, :, None] >= back) & (back < k_out[:, None, None]))
    rows.add(key(n_n, _SERVE), "<", np.repeat(k_out - 1.0, n_n), o[wr, wn - wb], 1.0,
             lambda: _names("win", *np.divmod(np.arange(n_r * n_n), n_n)), rows=wr * n_n + wn)

    dense = np.flatnonzero(emit)
    emitted = np.full(len(emit), -1)
    emitted[dense] = np.arange(len(dense))
    matrix, sense, rhs, row_names = rows.finish(emitted, len(dense))
    lb, ub, objective = np.zeros(len(dense)), np.ones(len(dense)), np.zeros(len(dense))
    objective[emitted[o]] = 1.0
    lb[emitted[o.T[n_live == 0]]] = 1.0   # a robot with no live link is in outage
    return MilpModel(n_bs=n_b, n_ris=n_i, n_robots=n_r, n_slots=n_n, dense=dense, lb=lb, ub=ub,
                     objective=objective, matrix=matrix, row_sense=sense, row_rhs=rhs,
                     make_row_names=row_names)


def settled_bounds(model: MilpModel) -> tuple:
    """Column bounds (lb, ub) that settle every robot-slot with a free link.

    A free link is a live link whose column has exactly one nonzero, which
    is then the ``serve_<r>_<n>`` row of its robot-slot.  For each robot-slot
    with one, the first in link order (every BS, then every surface) is
    fixed at 1, and the robot-slot's O and its other links at 0.  On the
    benchmark floor only BS links qualify, since a live surface link always
    holds a ``used_*`` row.

    The restriction keeps an optimum, and keeps infeasibility.  Every row
    other than the serve row is monotone in the bits this fixes at 0:
    ``excl_*`` and ``used_*`` are ``<=`` rows with +1 coefficients on them;
    in a SINR ``>=`` row the victim coefficient ``sig - M`` is negative (a
    row is emitted only where ``M > psi*(1 + sum of its levels) >= sig``)
    and so are the interferer coefficients; ``win_*`` rows have +1
    coefficients on O.  So moving a robot-slot of any feasible point onto
    its free link, which no other row holds, keeps every row, and it does
    not raise the objective, which counts O.  Bounds the model already
    fixes are kept: a robot-slot with a free link has a live link, so its
    O is not fixed at 1.
    """
    lb, ub = model.lb.copy(), model.ub.copy()
    links = model.columns["X"]                                                 # (L, R, N)
    nonzeros = np.append(np.bincount(model.matrix.indices, minlength=model.n_vars), 0)
    free = (links >= 0) & (nonzeros[links] == 1)
    settled = free.any(axis=0)                                                # (R, N)
    others = links[:, settled]
    ub[others[others >= 0]] = 0.0
    ub[model.columns["O"][settled]] = 0.0
    chosen = np.take_along_axis(links, free.argmax(axis=0)[None], axis=0)[0][settled]
    lb[chosen] = ub[chosen] = 1.0
    return lb, ub


def fold_usage(model: MilpModel, lb: np.ndarray, ub: np.ndarray) -> tuple:
    """Fold the usage bits that bounds (lb, ub) leave with at most one free link.

    Returns (ub, twin, dropped).  A usage bit Y whose ``used_*`` rows hold no
    free allocation bit is fixed at 0 in ``ub``.  One whose ``used_*`` rows
    hold exactly one free allocation bit X takes X's value: ``twin[Y]`` is
    X's column, its ``ready_*`` coefficients belong on X's column, and
    ``dropped`` marks its ``used_*`` rows.  Every other column is its own
    twin.

    Both are exact for bounds from ``settled_bounds``.  Y has cost 0 and
    lies only in its ``used_*`` rows ``X - Y <= 0`` and in one ``<=`` ready
    row with coefficient +1, so lowering Y to the largest X of its window
    keeps every point feasible and its objective: the fold keeps every
    integer optimum and the LP bound.  That largest X is the free one, or 0,
    since no allocation bit of a ``used_*`` row is fixed at 1: settling
    fixes at 1 only free links, which lie in no row but their serve row,
    and the model fixes at 1 only outage bits.  A point of the folded
    program with each folded Y set to its X thus keeps every row of the
    whole model.  The ready rows keep distinct columns, since the Y of one
    window belong to distinct robots and so do their X.
    """
    n_vars, matrix = model.n_vars, model.matrix
    is_y = np.zeros(n_vars, dtype=bool)
    ys = model.columns["Y"][model.columns["Y"] >= 0]
    is_y[ys] = True
    entry_row = np.repeat(np.arange(model.n_rows), np.diff(matrix.indptr))
    # the usage bit of each used_* row: the one Y with coefficient -1
    at_y = is_y[matrix.indices] & (matrix.data < 0)
    row_y = np.full(model.n_rows, -1)
    row_y[entry_row[at_y]] = matrix.indices[at_y]
    # the free allocation bits of the used_* rows, by usage bit
    at_x = (row_y[entry_row] >= 0) & ~at_y
    x, y = matrix.indices[at_x], row_y[entry_row[at_x]]
    open_x = lb[x] < ub[x]
    x, y = x[open_x], y[open_x]
    n_open = np.bincount(y, minlength=n_vars)
    ub = ub.copy()
    ub[ys[n_open[ys] == 0]] = 0.0
    twin = np.arange(n_vars)
    single = n_open[y] == 1
    twin[y[single]] = x[single]
    folded = twin != np.arange(n_vars)
    return ub, twin, (row_y >= 0) & folded[row_y]


def extract_schedule(model: MilpModel, values: np.ndarray) -> AllocationSchedule:
    """Map a 0/1 solution vector back to an allocation schedule.

    Every robot and slot is in outage or holds exactly one allocation bit
    (``O + sum X = 1``); a solution that breaks this indicates a backend bug.
    A bit that is not emitted reads 0: its column -1 picks the appended 0.
    """
    on = np.append(np.asarray(values) >= 0.5, False)
    outage = on[model.columns["O"]]
    via = on[model.columns["X"]]                                              # (L, R, N)
    bits = via.sum(axis=0)
    bad = np.argwhere(outage + bits != 1)
    if len(bad):
        r, n = bad[0]
        raise RuntimeError(
            f"inconsistent solution: robot {r} slot {n} marked {'in outage' if outage[r, n] else 'served'} "
            f"with {bits[r, n]} allocation bits")
    link = np.tensordot(np.arange(len(via)), via, axes=1)
    return AllocationSchedule(np.where(outage, -1, link).astype(np.int16))


def dark_run(live: np.ndarray, k_out) -> tuple | None:
    """The first robot with no live link for K_r slots in a row, or None.

    ``live`` is the (N, R, L) mask of ``scenario.precompute``.  Returns
    (robot, first slot, last slot) of the run.  The robot has no allocation
    bit in those slots, so it is in outage in all K_r of
    them, which its outage window ending at the last slot forbids: no
    schedule exists, and this proves it without a solver.
    """
    k_out = np.asarray(k_out)
    hit = np.argwhere(run_ends(~live.any(axis=2).T, k_out))
    if not len(hit):
        return None
    r, last = hit[0].tolist()
    return r, last - int(k_out[r]) + 1, last
