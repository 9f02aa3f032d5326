"""Cyclic profile dynamic program over the columns of P(n, k).

Columns are decided left to right, two labels per step (outer, inner).
The state tracks, for the trailing window of k columns, each inner
vertex's label and its residual coverage demand, plus the previous outer
vertex's label and demand.  A vertex's demand is created when its column
is decided (counting contributions of already-decided neighbors), reduced
when later neighbors are decided, and must be zero once its last neighbor
is decided.

The cycle is closed through its seam: the labels that interact across
the wrap are the outer label of column 0 and the inner labels of columns
0..k-1 (a0 and bs[0..k-1]).  Columns 0..k-1 choose exactly these labels,
so a state carries them as its seam code and the run becomes linear:
wrap vertices keep their demands in a small residual vector that is
reduced at the known steps where their wrap neighbors are decided and
checked for zero after the last column.  Vertices in the closing window
see only known labels (the seam code's), so their demands are checked at
creation.

Demand bookkeeping is shared by the three invariants through their kind
records (`labeling.KINDS`): a zero-labeled vertex starts with the kind's
`need` (2, 1, or the mask {1,2}), and each neighbor label c turns a
demand d into `reduce[d][c]`.

Engine.  A state is one integer, `(seam_code * windows + window_id) * R
+ residual_code`: the seam code's k+1 labels are base-L digits, a0 first
(zero until columns 0..k-1 write them), the window's k+1 (label, demand)
pairs are digits over the few pairs that can occur, and the k+1 wrap
residuals are base-(need+1) digits (R of them).  A seam code depends on
the label prefix only, so prefixes with different seams never share a
state.  A layer is a set of such integers with their weights, held in
numpy arrays in the order of their label prefixes.

Tables.  Transitions come from tables keyed by the column signature
`(min(c, 2k), c - (n - k) if that is >= 0, c == n - 1)`, which fixes
everything a transition reads of c and n; the tables are therefore shared
by every n and every seam, and filled lazily.  A row holds, for one window
and each label pair (lo, li), the new window id and, where the column
reads seam labels (columns 0..k-1 and the closing window), a bitmask of
the seam labelings under which the pair is legal.  A pair of columns
0..k-1 fixes the labels its column reads, so it is legal exactly where its
new window id is not -1; in the closing window the state's seam code picks
the bit.  A residual update depends only on the signature and the pair, so
each signature holds one map from (residual code, pair) to the next
residual code.

Before the search, two walks over the columns prepare it.  The forward
walk follows the frontier: the windows that some seam can reach from the
empty window.  It builds each column's missing rows for the whole
frontier in one numpy pass over (window, lo, li, seam labeling).  The
backward walk computes the cost-to-go bound `bound[c][w]`, the least
weight of columns c..n-1 from window w under any seam, residuals ignored.

Search.  The search deepens a weight limit `prune`: it starts at
`bound[0][0]`, a lower bound on the optimum, and adds one after each pass
over the columns that closes no state.  A pass advances a layer in blocks
of parent states: it gathers the rows of a block into a (block, L * L)
grid of candidates, keeps those whose weight plus the bound of their new
window is at most `prune` (and, in the closing window, that are legal
under their seam), and then takes a group-min over the new state integers
of the whole layer with one sort of packed int64 keys.  The candidates of
one state share a window and so a bound: pruning removes whole groups and
never changes a group's winner.  Only a weight plus bound strictly above
`prune` is dropped, so every prefix of a labeling of weight `prune`
survives, and the first pass that closes a state has `prune` equal to the
optimum.

Ties.  States keep backpointers (parent position, lo * L + li) instead of
label prefixes.  All prefixes in a layer have the same length and the
layer is kept in prefix order, so comparing two candidate prefixes is
comparing (parent position, lo * L + li), which is the candidate's index;
legal candidates are kept in index order, and the group-min takes the
smallest weight and then the smallest index.  A state's completions do not
depend on the prefix that reached it, so the first closing state of least
weight in the last layer ends the lexicographically smallest optimal
labeling over all seams.  `explored` counts the states kept, summed over
columns and deepening passes.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

import numpy as np

from .errors import BudgetExceeded, InternalError
from .graph import require_admissible
from .labeling import KINDS, Kind, kind_of

DP_STATE_CAP = 2_000_000

ALGEBRAS = KINDS  # the kind records by name, under their earlier name

_INF = 1 << 30  # cost-to-go of a window with no way to the last column


def _column(c: int, n: int, k: int) -> tuple[tuple[int, int, bool], tuple[int, ...]]:
    """Signature of column c and the seam positions it reads.

    Seam position 0 is a0 and 1 + j is bs[j].  Columns 0..k-1 read their
    fixed labels, column 0 and the last column read a0, and the closing
    window reads the wrap neighbor of its inner vertex.  At most two
    positions are read, so a seam labeling of them has at most 16 values.
    """
    late = c - (n - k)
    last = c == n - 1
    reads = ((0,) if c == 0 or last else ()) + ((1 + c,) if c < k else ())
    if late >= 0:
        reads += (1 + late,)
    return (min(c, 2 * k), max(late, -1), last), reads


def _residual_ops(sig: tuple[int, int, bool], k: int, alg: Kind, lo: int, li: int):
    """The residual update of pair (lo, li) under signature `sig`, as
    (slot, new demand indexed by old demand) steps on distinct slots."""
    cc, late, last = sig
    red = alg.reduce
    by_lo = tuple(row[lo] for row in red)
    by_li = tuple(row[li] for row in red)
    ops = []
    if k <= cc < 2 * k:  # column c-k's inner vertex wraps to bs[c-k]
        ops.append((1 + cc - k, by_li))
    if cc == 1:  # column 0's outer vertex
        ops.append((0, by_lo))
    if late >= 0:  # the closing window feeds the wrap vertices
        ops.append((1 + late, by_li))
        if last:
            ops.append((0, by_lo))
    if li == 0 and cc < k:  # a wrap inner vertex's demand is created
        ops.append((1 + cc, (red[alg.need][lo],) * len(red)))
    if lo == 0 and cc == 0:  # so is a0's
        ops.append((0, (red[alg.need][li],) * len(red)))
    return ops


class _Rows:
    """Transition rows of one signature, one row per window reached there.

    Entry `[row, lo * L + li]` of `nw` is the id of the new window, or -1
    when the pair is illegal under every seam, and bit v of the same entry
    of `mask` is set when the pair is legal under the v-th labeling of the
    seam positions the signature reads (None: it reads none).
    `op[code, lo * L + li]` is the residual code that follows `code` (None:
    the signature updates no residual).  `seam_bit[s]` is the bit of
    `mask` that seam code s selects (None outside the closing window).
    """

    def __init__(self, tables: _Tables, sig: tuple, reads: tuple[int, ...]) -> None:
        width = tables.width
        self.row_of = np.full(tables.windows, -1, tables.ids)  # -1: not built
        self.nw = np.empty((0, width), tables.ids)
        self.mask = np.empty((0, width), np.uint16) if reads else None
        self.op = None
        if sig[0] < 2 * tables.k or sig[1] >= 0:
            labels = tables.alg.labels
            self.op = np.stack([tables.op_map(sig, lo, li) for lo in labels for li in labels], 1)
        self.seam_bit = None
        if sig[1] >= 0:
            L = len(tables.alg.labels)
            codes = np.arange(tables.seams)
            v = 0
            for pos in reads:  # seam position pos is digit k - pos of a code
                v = v * L + codes // L ** (tables.k - pos) % L
            self.seam_bit = (1 << v).astype(np.uint16)

    def extend(self, wids: np.ndarray, nw: np.ndarray, mask: np.ndarray | None) -> None:
        self.row_of[wids] = np.arange(len(self.nw), len(self.nw) + len(wids))
        self.nw = np.concatenate((self.nw, nw))
        if self.mask is not None:
            self.mask = np.concatenate((self.mask, mask))


class _Tables:
    """The transition tables of one (kind, k), shared by every n and seam."""

    def __init__(self, alg: Kind, k: int) -> None:
        self.alg = alg
        self.k = k
        self.width = len(alg.labels) ** 2
        self.base = alg.need + 1
        self.R = self.base ** (k + 1)  # residual codes
        # seam codes: a0, bs[0], ..., bs[k-1] as base-L digits, a0 first
        self.seams = len(alg.labels) ** (k + 1)
        # the (label, demand) pairs a window can hold: the empty pair, a
        # nonzero label (demand 0) or label 0 with any demand; pair (0, d)
        # is number L + d
        pairs = (
            ((-1, 0),)
            + tuple((label, 0) for label in alg.labels[1:])
            + tuple((0, d) for d in range(self.base))
        )
        self.pair_label = np.array([p[0] for p in pairs])
        self.pair_demand = np.array([p[1] for p in pairs])
        self.windows = len(pairs) ** (k + 1)
        self.ids = np.int16 if self.windows < 2**15 else np.int32
        self.keys = np.int32 if self.seams * self.windows * self.R < 2**31 else np.int64
        self.dw = np.array(
            [alg.weight[lo] + alg.weight[li] for lo in alg.labels for li in alg.labels],
            np.int32,
        )
        self.reduce = np.array(alg.reduce)
        self.rows: dict[tuple, _Rows] = {}

    def op_map(self, sig: tuple, lo: int, li: int) -> np.ndarray:
        """The residual code that follows each code under pair (lo, li)."""
        codes = np.arange(self.R, dtype=np.int32)
        out = codes.copy()
        for slot, demand in _residual_ops(sig, self.k, self.alg, lo, li):
            unit = self.base**slot
            d = (codes // unit) % self.base
            out += (np.array(demand, np.int32)[d] - d) * unit
        return out

    def rows_for(self, sig: tuple, reads: tuple[int, ...], wids: np.ndarray) -> _Rows:
        """The rows of signature `sig` (reading seam positions `reads`),
        first built for the windows of `wids` that have none."""
        tab = self.rows.get(sig)
        if tab is None:
            tab = self.rows[sig] = _Rows(self, sig, reads)
        missing = wids[tab.row_of[wids] < 0]
        if len(missing):
            tab.extend(missing, *self._build(sig, reads, missing))
        return tab

    def _build(self, sig: tuple, reads: tuple[int, ...], wids: np.ndarray):
        """The nw and mask rows of `sig` for windows `wids`, over the axes
        (window, lo, li, seam labeling of `reads`).  Exact for windows
        some seam reaches at a column of this signature."""
        cc, late, last = sig
        k = self.k
        red = self.reduce
        need = self.alg.need
        L = len(self.alg.labels)
        P = len(self.pair_label)
        lo = np.arange(L)[None, :, None, None]
        li = np.arange(L)[None, None, :, None]
        combos = np.array(list(product(range(L), repeat=len(reads))), int)  # (V, reads)

        def seam(pos):  # the label at seam position pos, per seam labeling
            return combos[:, reads.index(pos)][None, None, None, :]

        def per_window(a):
            return a[:, None, None, None]

        inner = (wids // P) % P  # column c-k's inner pair
        outer = wids % P  # column c-1's outer pair
        legal = np.ones((len(wids), L, L, len(combos)), bool)
        if cc == 0:
            legal &= lo == seam(0)
        if cc < k:
            legal &= li == seam(1 + cc)
        if cc == 2 * k:  # column c-k's inner vertex sees its last neighbor
            legal &= red[per_window(self.pair_demand[inner]), li] == 0
        if cc >= 2:  # column c-1's outer vertex sees its last neighbor
            legal &= red[per_window(self.pair_demand[outer]), lo] == 0
        # demand of a new 0-labeled vertex: checked at once where its last
        # neighbor is known (closing window, last column), kept in the wrap
        # residuals where a wrap neighbor is still open (columns 0..k-1 and
        # column 0), and carried in the window otherwise
        d = red[need, self.pair_label[inner]] if cc >= k else np.full(len(wids), need)
        d = red[per_window(d), lo]
        if late >= 0:
            legal &= (li != 0) | (red[d, seam(1 + late)] == 0)
        inner_pair = np.where(li != 0, li, L if late >= 0 or cc < k else L + d)
        d = red[need, li]
        if cc >= 1:
            d = red[d, per_window(self.pair_label[outer])]
        if last:
            legal &= (lo != 0) | (red[d, seam(0)] == 0)
        outer_pair = np.where(lo != 0, lo, L if last or cc == 0 else L + d)
        nw = inner_pair * P**k + per_window(wids // (P * P) * P) + outer_pair
        nw = np.broadcast_to(nw[..., 0], legal.shape[:3])
        nw = np.where(legal.any(axis=3), nw, -1).reshape(len(wids), -1).astype(self.ids)
        if not reads:
            return nw, None
        bits = legal * (1 << np.arange(len(combos)))
        return nw, bits.sum(axis=3).reshape(len(wids), -1).astype(np.uint16)


@lru_cache(maxsize=None)
def _tables(kind: str, k: int) -> _Tables:
    # bounded: one entry per (kind, k), each at most windows x signatures rows
    return _Tables(KINDS[kind], k)


def _plan(tables: _Tables, columns: list) -> tuple[list[_Rows], list[np.ndarray]]:
    """The rows of each column, built for its whole frontier, and the
    cost-to-go bound of each column (`_cost_to_go`)."""
    frontier = np.zeros(1, np.int64)  # the empty window
    tabs = []
    fronts = []
    reached = np.empty(tables.windows + 1, bool)  # the last slot takes nw = -1
    for sig, reads in columns:
        tab = tables.rows_for(sig, reads, frontier)
        tabs.append(tab)
        fronts.append(frontier)
        reached[:] = False
        reached[tab.nw[tab.row_of[frontier]]] = True
        frontier = np.flatnonzero(reached[:-1])
    return tabs, _cost_to_go(tables, tabs, fronts)


def _cost_to_go(tables: _Tables, tabs: list[_Rows], fronts: list[np.ndarray]) -> list[np.ndarray]:
    """bound[c][w]: the least weight of columns c..n-1 from window w under
    any seam, residuals ignored (a lower bound on every completion); _INF
    off the frontier and in the last slot, which an illegal pair (nw = -1)
    reads.  bound[n] is zero on every window."""
    h = np.zeros(tables.windows + 1, np.int32)
    h[-1] = _INF
    bound = [h]
    for tab, front in zip(reversed(tabs), reversed(fronts)):
        cost = (h[tab.nw[tab.row_of[front]]] + tables.dw).min(axis=1)
        h = np.full(tables.windows + 1, _INF, np.int32)
        h[front] = np.minimum(cost, _INF)
        bound.append(h)
    return bound[::-1]


# Group-min sort keys pack (key, weight, position) as bit fields of one
# int64; only layers far beyond any solvable size could overflow it.
_PACK_LIMIT = 2**63

# A layer is expanded in blocks of _BLOCK parent states, so that its
# (states, L * L) grids of candidates stay small; only the legal candidates
# of a block are kept.
_BLOCK = 1024

# Layers and the legal candidates of a block are padded to a multiple of
# _PAD entries.  numpy keeps up to seven freed blocks per byte size under
# 1 KiB; arrays of every small size filled that cache with about 0.5 MB on
# the dp-sweep benchmark, padded ones take a few sizes only.
_PAD = 16


def _winners(ck: np.ndarray, cw: np.ndarray, span: int, key_bound: int) -> np.ndarray:
    """Positions, ascending, of the candidates that win their state: the
    smallest weight, then the smallest position.  Keys lie in [0, key_bound)
    and weights in [0, span)."""
    size = len(ck)
    shift = (size - 1).bit_length()
    low = (span - 1).bit_length() + shift  # bits of (weight, position)
    if key_bound << low >= _PACK_LIMIT:
        raise BudgetExceeded(f"dp layer of {size} candidates overflows its int64 sort keys")
    order = np.left_shift(ck, low - shift, dtype=np.int64)
    order |= cw
    order <<= shift
    order |= np.arange(size)
    order.sort()
    sk = order >> low
    first = np.empty(size, bool)  # where a new key starts
    first[0] = True
    np.not_equal(sk[1:], sk[:-1], out=first[1:])
    win = order[first]
    win &= (1 << shift) - 1
    win.sort()
    return win


def _sweep(tables: _Tables, tabs: list[_Rows], bound: list[np.ndarray], prune: int,
           state_cap: int) -> tuple[tuple[int, bytes] | None, int]:
    """One pass over the columns that carries every seam, dropping each
    candidate whose weight plus cost-to-go bound exceeds `prune`.

    Returns ((weight, witness) of the lexicographically smallest closing
    labeling of least weight, or None when no state closes; states kept).
    """
    k = tables.k
    nl = len(tables.alg.labels)
    width = tables.width
    R = tables.R
    WR = tables.windows * R
    key_bound = tables.seams * WR
    pair = np.arange(width)
    key = np.zeros(1, tables.keys)  # no seam label yet, the empty window
    w = np.zeros(1, np.int32)
    back: list[np.ndarray] = []  # per layer: parent position * width + lo * nl + li
    explored = 0
    for c, tab in enumerate(tabs):
        # the least weight each pair adds up to the last column (_INF when
        # it is illegal: nw = -1 reads the bound's last slot)
        cost = tables.dw + bound[c + 1][tab.nw]
        # columns 0..k-1 write seam digits: (a0, bs[0]) = (lo, li), bs[c] = li
        writes = pair * WR if c == 0 else pair % nl * WR if c < k else None
        ks, ws, idxs = [], [], []
        for start in range(0, len(key), _BLOCK):
            kb = key[start:start + _BLOCK]
            wb = w[start:start + _BLOCK]
            rest = kb % WR
            wid, res = np.divmod(rest, R)
            rows = tab.row_of[wid]
            if rows.min() < 0:
                bad = int(wid[rows.argmin()])
                raise InternalError(f"dp met window {bad} off the frontier of column {c}")
            legal = cost.take(rows, axis=0)
            # <= : a labeling of weight `prune` must keep all its prefixes
            legal = np.less_equal(legal, (prune - wb)[:, None])
            if tab.seam_bit is not None:  # closing window: legal under the state's seam
                legal &= (tab.mask.take(rows, axis=0) & tab.seam_bit[kb // WR][:, None]) != 0
            pos = np.flatnonzero(legal)
            if len(pos) % _PAD:  # copies of the last candidate lose every tie to it
                pos = np.concatenate((pos, np.full(-len(pos) % _PAD, pos[-1])))
            par = pos // width
            j = pos - par * width
            base = kb - rest  # seam code * WR
            if writes is not None:
                base *= nl
            if tab.op is None:
                base += res
            cell = rows[par].astype(np.intp)
            cell *= width
            cell += j
            ck = tab.nw.ravel()[cell].astype(tables.keys)
            ck *= R
            ck += base[par]
            if tab.op is not None:
                cell = res[par]
                cell *= width
                cell += j
                ck += tab.op.ravel()[cell]
            if writes is not None:
                ck += writes[j]
            ks.append(ck)
            ws.append(wb[par] + tables.dw[j])
            idxs.append(pos + start * width)
        ck, cw, idx = (a[0] if len(a) == 1 else np.concatenate(a) for a in (ks, ws, idxs))
        if len(ck) == 0:
            return None, explored
        win = _winners(ck, cw, prune + 1, key_bound)
        # the layer's m states, in prefix order, then padding copies of state
        # 0 whose weight leaves them no legal pair
        m = len(win)
        key = np.empty(m + -m % _PAD, tables.keys)
        ck.take(win, out=key[:m])
        key[m:] = key[0]
        w = np.empty(len(key), np.int32)
        cw.take(win, out=w[:m])
        w[m:] = prune + 1
        back.append(idx[win].astype(np.int32))
        explored += m
        if m > state_cap:
            raise BudgetExceeded(f"dp state count {m} exceeds cap {state_cap}")
    closed = np.flatnonzero(key[:m] % R == 0)  # every wrap residual met
    if len(closed) == 0:
        return None, explored
    pos = int(closed[np.argmin(w[closed])])  # the first: lex-smallest labeling
    weight = int(w[pos])
    seq = bytearray(2 * len(tabs))
    for c in range(len(tabs) - 1, -1, -1):
        pos, chunk = divmod(int(back[c][pos]), width)
        seq[2 * c], seq[2 * c + 1] = divmod(chunk, nl)
    return (weight, bytes(seq)), explored


def solve_cycle(
    n: int, k: int, kind: str, state_cap: int = DP_STATE_CAP
) -> tuple[int, bytes, int]:
    """Minimum weight over the cyclic column structure of P(n, k).

    Returns (optimum, witness label bytes in vertex order, states explored).
    """
    kind_of(kind)  # rejects an unknown kind
    require_admissible(n, k)
    tables = _tables(kind, k)
    columns = [_column(c, n, k) for c in range(n)]
    tabs, bound = _plan(tables, columns)
    explored = 0
    # bound[0][0] is a lower bound on the optimum, and the all-ones labeling
    # is always valid at weight 2n
    for prune in range(int(bound[0][0]), 2 * n + 1):
        found, kept = _sweep(tables, tabs, bound, prune, state_cap)
        explored += kept
        if found is not None:
            return (*found, explored)
    raise InternalError("dp found no closing state (pruning bug)")
