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
everything a transition reads of c and n; the tables are therefore
shared by every n and every seam.  The signature of a column also fixes
those of the columns before it, so every n meets it with the same
frontier (the windows some seam reaches there), and its rows are built
once, for that frontier.  A row holds, for one window and each label
pair (lo, li), the new window id and, where the column reads seam labels
(columns 0..k-1 and the closing window), a bitmask of the seam labelings
under which the pair is legal.  A pair of columns 0..k-1 fixes the
labels its column reads, so it is legal exactly where its new window id
is not -1; in the closing window the state's seam code picks the bit.  A
residual update depends only on the signature and the pair, so each
signature holds one map from (residual code, pair) to the next residual
code, built from one (digit, pair) table per residual slot.

Transfer step.  Columns 2k..n-k-1 (the middle) share one signature, which
reads no seam label and updates no residual: each applies the same
(min,+) map to the window alone, and that map takes the frontier at
column 2k onto itself.  Over the F windows of that frontier (the starts)
it is one F x F matrix A: A[s, t] is the least weight of a pair from s to
t, and the smallest such pair on a tie.  Crossing the m = n - 3k middle
columns is then the power A^m, with, for each (s, t), the least weight
of a path of m pairs, the lexicographically first path of that weight
and its rank among the paths from s.  For each (kind, k) a transfer
table caches A^(2^i) by (min,+) squaring, each entry with the midpoint
of its path, and composes A^m from the set bits of m: a product picks,
for each (s, t), the midpoint of least total weight and then of least
rank of its first half, and ranks the result by the ranks of its two
halves (`_Power`).  With two or more middle columns a pass then takes
3k + 1 steps: the 2k opening columns, one landing step that crosses the
middle by joining each state with its window's row of A^m, and the k
closing columns.  The landing step is taken only where A is small: it
holds F x F (start, window) pairs, and `_plan` takes the step where F^2
is at most _TRANSFER_LAYER = 2,048.  That is the case for domination k = 1
and 2, Italian k = 1 and 2-rainbow k = 1 (F = 7, 19, 19 and 35), not for
domination k = 3 (F^2 = 2,704) or Italian k = 2 (7,225), where the pruned
column steps are as fast or faster; those cases advance one middle
column per step.  The starts are the windows of the middle signature's
rows, so the table is the same for every n.

Before the search, two walks over the steps prepare it, and what they
give is kept per (kind, k) wherever other n would give it again.  The
forward walk follows the frontier: the windows that some seam can reach
from the empty window.  When it first meets a signature it builds the
signature's rows for the whole frontier in one numpy pass over (window,
lo, li, seam labeling), and each step computes and checks that its rows
cover a frontier, and the frontier after it, once per frontier it meets
(`_Step.after`); a landing step's frontier is the windows its table row
reaches.  The middle columns map their frontier onto itself, so the walk
takes them all at once.  The backward walk computes the cost-to-go bound
before each step, the least weight of the columns of steps i.. from each
window under any seam, residuals ignored, and each step's entry costs,
the weight of every entry plus the bound of its new window, which every
pass reads as they are.  Each bound is stored less its least finite
value, an integer offset that `_step` subtracts from the limit, so the
entry costs stay small (int16 where they fit).

Every pass over P(n, k) with n >= 3k ends with the same k closing
columns, and where it takes column steps the middle columns before them
apply one map, so the bounds and entry costs counted from the end are
the family's (`_Suffix`).  They grow by one middle column when a longer
pass needs one, until a new bound equals the one p steps back plus one
constant λ on every finite entry, with the same _INF entries.  The middle
map is (min,+)-linear, so every longer suffix is read off the last p
stored entries, λ higher per period (the cyclicity theorem), and the
family holds at most T + p entries for every n: (T + p, p, λ) is (13, 5,
4) for Italian k = 2, (33, 5, 4) for Italian k = 3, (18, 2, 1) for
domination k = 3, (14, 5, 4) for 2-rainbow k = 2 and (21, 8, 7) for
2-rainbow k = 3.  The opening columns are kept per stored entry they
read, so they repeat with the period too.  A landing step's bound is
the least path weight plus the bound of the path's window, which is the
suffix's bound m middle columns back; only its entry costs are computed
per n.  So the landing families read the suffix too: (6, 1, 1) for
Italian and 2-rainbow k = 1, (6, 2, 1) for domination k = 1 and (8, 5,
3) for domination k = 2.  Where n < 3k the walk computes every step for
that n.

Search.  The search deepens a weight limit `prune`: it starts at the
bound of the empty window, a lower bound on the optimum, or at the
caller's `first` where that is higher (solver.solve_dp passes the
closed-form value where one is exact and the degree floor,
`solver.kind_floor`, otherwise), and adds one after each pass over the
steps that closes no state.  A pass
advances each layer by one layer step, `_step` (the transfer table takes
none: its powers are matrix products), which works in blocks of parent
states: it gathers the rows of a block into a (block, L * L) grid of
candidates (a landing step: a (block, row length) grid of the windows
A^m reaches), keeps those whose weight plus the bound of their new
window is at most `prune` (and, in the closing window, that are legal
under their seam), and then takes a group-min over the new state
integers of the whole layer with one sort of packed int64 keys.  The
candidates of one state share a window and so a bound: pruning removes
whole groups and never changes a group's winner.  Only a weight plus bound strictly above
`prune` is dropped, so every prefix of a labeling of weight `prune`
survives, and the first pass that closes a state has `prune` equal to
the optimum.  A pass at any limit at or above the optimum returns the
same optimum and witness (pruning never changes a winner), and one below
it closes nothing, so `first` changes the passes made and nothing else.

Ties.  States keep backpointers (parent position, rank) instead of label
prefixes, where the rank of a column's entry is its pair lo * L + li and
that of a landing step's entry is its path's position among the paths
of A^m, row after row.  All prefixes in a layer have the same length,
the layer is kept in prefix order and a row lists its entries by rank,
so comparing two candidate prefixes is comparing (parent position,
rank), which is the order in which a step gathers them; legal candidates
are kept in that order, and the group-min takes the smallest weight and
then the first candidate.  One unwinder follows the backpointers and
asks each step for the labels of a rank: a pair for a column, and for a
landing step its path.  The midpoints of A^m's products cut that path
into one segment per set bit of m, and one gather of the midpoints of
A^(2^j) per level j, from the highest down, halves the gaps of every
segment at once (`_Landing.path`).  A state's completions do not depend
on the prefix that reached it, so the first closing state of least
weight in the last layer ends the lexicographically smallest optimal
labeling over all seams, with or without the transfer step.
`explored` counts the states of the layers a pass materialises (opening
columns, landing step, closing columns, or every column where no landing
step is taken), summed over passes.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import NamedTuple

import numpy as np

from .errors import BudgetExceeded, InternalError
from .graph import require_admissible
from .labeling import KINDS, Kind, kind_of

DP_STATE_CAP = 2_000_000

ALGEBRAS = KINDS  # the kind records by name, under their earlier name

_INF = 1 << 30  # cost-to-go of a window with no way to the last column


def _column(c: int, n: int, k: int) -> tuple[int, int, bool]:
    """Signature of column c: (min(c, 2k), c - (n - k) where that is >= 0
    and -1 otherwise, whether c is the last column)."""
    late = c - (n - k)
    return min(c, 2 * k), max(late, -1), c == n - 1


def _reads(sig: tuple[int, int, bool], k: int) -> tuple[int, ...]:
    """The seam positions a column of signature `sig` reads.

    Seam position 0 is a0 and 1 + j is bs[j].  Columns 0..k-1 read their
    fixed labels, column 0 and the last column read a0, and the closing
    window reads the wrap neighbor of its inner vertex.  At most two
    positions are read, so a seam labeling of them has at most 16 values.
    """
    cc, late, last = sig
    reads = ((0,) if cc == 0 or last else ()) + ((1 + cc,) if cc < k else ())
    return reads + ((1 + late,) if late >= 0 else ())


def _residual_ops(sig: tuple[int, int, bool], k: int, alg: Kind) -> list:
    """The residual update of every pair (lo, li) under `sig`, as (slot,
    new demand [old demand, lo * L + li]) steps on distinct slots."""
    cc, late, last = sig
    red = np.array(alg.reduce)  # [demand, label]
    lo, li = np.divmod(np.arange(len(alg.labels) ** 2), len(alg.labels))
    by_lo, by_li = red[:, lo], red[:, li]
    kept = np.arange(len(red))[:, None]  # the demand of an untouched slot
    ops = []
    if k <= cc < 2 * k:  # column c-k's inner vertex wraps to bs[c-k]
        ops.append((1 + cc - k, by_li))
    if cc == 1:  # column 0's outer vertex
        ops.append((0, by_lo))
    if late >= 0:  # the closing window feeds the wrap vertices
        ops.append((1 + late, by_li))
        if last:
            ops.append((0, by_lo))
    if cc < k:  # a wrap inner vertex's demand is created where li = 0
        ops.append((1 + cc, np.where(li == 0, red[alg.need, lo], kept)))
    if cc == 0:  # so is a0's where lo = 0
        ops.append((0, np.where(lo == 0, red[alg.need, li], kept)))
    return ops


class _Step:
    """A step of a pass as `_plan`, `_step` and `_unwind` read it: one
    column (`_Rows`) or the middle columns at once (`_Landing`).

    The step has one row per window of `wids`, its frontier, in that order:
    `row_of[w]` is the row of window w (-1: none).  Entry [row_of[w], i]
    leads to window `nw` (-1: none), adds weight `w` and has `rank` in
    [0, span), a row's entries ascending by rank; a state reached through it
    points back to parent position * span + rank, and `labels(rank)` are
    the labels it decides.  `op`, `mask`, `seam_bit` and `writes` are those
    of `_Rows` (None: none).  `_after` maps each frontier the step has met
    (as bytes) to the frontier after it.
    """

    op = mask = seam_bit = writes = None

    def cost(self, h: np.ndarray) -> np.ndarray:
        """The weight of each entry plus `h` of its new window."""
        return self.w + h[self.nw]

    def after(self, frontier: np.ndarray) -> np.ndarray:
        """The windows the rows of `frontier` reach, ascending; each window
        of `frontier` must have a row.  Checked and computed once per
        frontier the step meets."""
        key = frontier.tobytes()
        reached = self._after.get(key)
        if reached is None:
            rows = self.row_of[frontier]
            if rows.min() < 0:
                bad = int(frontier[rows.argmin()])
                raise InternalError(f"dp met window {bad} off the frontier of its step")
            reached = self._after[key] = _distinct(self.nw[rows], len(self.row_of))
        return reached


class _Rows(_Step):
    """Transition rows of one signature for the windows of `wids`, the
    frontier at its columns, which is the same for every n.

    Entry `[row, lo * L + li]` of `nw` is the id of the new window, or -1
    when the pair is illegal under every seam, and bit v of the same entry
    of `mask` is set when the pair is legal under the v-th labeling of the
    seam positions the signature reads (None: it reads none).  The entry
    has the pair's weight, and its rank is the pair, lo * L + li.
    `op[code, lo * L + li]` is the residual code that follows `code` (None:
    the signature updates no residual).  `seam_bit[s]` is the bit of
    `mask` that seam code s selects (None outside the closing window).
    `writes[lo * L + li]` holds the seam digits the pair appends, times
    windows * R: columns 0..k-1 shift a state's seam code one digit left
    and write (a0, bs[0]) = (lo, li) at column 0 and bs[c] = li at column c
    (None: the signature writes none).
    """

    def __init__(self, tables: _Tables, sig: tuple, wids: np.ndarray) -> None:
        reads = _reads(sig, tables.k)
        self.nl = L = len(tables.alg.labels)
        self.span = tables.width
        self.wids = wids
        self.row_of = np.full(tables.windows, -1, tables.ids)
        self.row_of[wids] = np.arange(len(wids))
        self._after: dict[bytes, np.ndarray] = {}
        self.nw, self.mask = tables._build(sig, reads, wids)
        self.w, self.rank = (grid[:len(wids)] for grid in tables.grids)
        if sig[0] < 2 * tables.k or sig[1] >= 0:
            self.op = tables.op_table(sig)
        if sig[0] < tables.k:
            pair = np.arange(self.span)
            self.writes = (pair if sig[0] == 0 else pair % L) * tables.windows * tables.R
        if sig[1] >= 0:
            codes = np.arange(tables.seams)
            v = 0
            for pos in reads:  # seam position pos is digit k - pos of a code
                v = v * L + codes // L ** (tables.k - pos) % L
            self.seam_bit = (1 << v).astype(np.uint16)

    def labels(self, rank: int) -> bytes:
        return bytes(divmod(rank, self.nl))


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
        self.key_bound = self.seams * self.windows * self.R  # states lie below it
        self.keys = np.int32 if self.key_bound < 2**31 else np.int64
        self.dw = np.array(
            [alg.weight[lo] + alg.weight[li] for lo in alg.labels for li in alg.labels],
            np.int32,
        )
        # the weight and the rank (lo * L + li) of each pair, on every row:
        # the entries of the rows of a `_Rows`
        entries = np.stack((self.dw, np.arange(self.width))).astype(np.uint8)
        # the labels (lo, li) of each pair, as the two bytes of one uint16
        pair_labels = np.stack(np.divmod(entries[1], len(alg.labels)), 1)
        self.pair_labels = pair_labels.view(np.uint16)[:, 0]
        self.grids = tuple(np.tile(row, (self.windows, 1)) for row in entries)
        self.reduce = np.array(alg.reduce)
        self.rows: dict[tuple, _Rows] = {}
        self._transfer: _Transfer | None = None
        self._suffix: _Suffix | None = None

    def transfer(self, middle: _Rows) -> _Transfer:
        """The transfer table of the middle columns, whose rows `middle`
        are built for the frontier at column 2k."""
        if self._transfer is None:
            self._transfer = _Transfer(self, middle)
        return self._transfer

    def suffix(self, closing: list[_Rows]) -> _Suffix:
        """The bounds and entry costs of the steps that end every pass over
        P(n, k) with n >= 3k, whose k closing steps are `closing`."""
        if self._suffix is None:
            self._suffix = _Suffix(self, closing)
        return self._suffix

    def op_table(self, sig: tuple) -> np.ndarray:
        """op[code, lo * L + li]: the residual code that follows each code
        under each pair.  A code's digits change independently, so it is
        the code plus one (digit, pair) table of changes per slot, summed
        over the digits by broadcasting, most significant slot outermost."""
        change = np.zeros((self.k + 1, self.base, self.width), np.int32)
        for slot, new in _residual_ops(sig, self.k, self.alg):
            change[slot] = (new - np.arange(self.base)[:, None]) * self.base**slot
        table = change[0]
        for slot in range(1, self.k + 1):
            table = (change[slot][:, None] + table).reshape(-1, self.width)
        return np.arange(self.R, dtype=np.int32)[:, None] + table

    def rows_for(self, sig: tuple, wids: np.ndarray) -> _Rows:
        """The rows of signature `sig`, built for the windows of `wids` when
        the signature is first met: the columns before a column have
        signatures its own fixes, so every n meets it with one frontier."""
        tab = self.rows.get(sig)
        if tab is None:
            tab = self.rows[sig] = _Rows(self, sig, wids)
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


def _distinct(wids: np.ndarray, windows: int) -> np.ndarray:
    """The distinct window ids of `wids`, ascending, without -1 (np.unique
    would import numpy.ma, about 1.7 MB of resident memory)."""
    seen = np.zeros(windows + 1, bool)  # the last slot takes -1
    seen[wids] = True
    return np.flatnonzero(seen[:-1])


class _Power:
    """A (min,+) power A^m of the middle map over the starts of a transfer
    table (the frontier at column 2k), indexed by start index.

    `w[s, t]` is the least weight of m middle pairs from start s to start
    t (_INF: no path), and `rank[s, t]` the position of the
    lexicographically first such path among the paths of row s (F, the
    number of starts: no path).  A path is recorded by its pair where m =
    1 (`pair`), and otherwise by the start where it passes from the path
    of the power `left` to that of the power `right` (`mid`).
    """

    def __init__(self, w: np.ndarray, rank: np.ndarray, pair=None, mid=None,
                 left: _Power | None = None, right: _Power | None = None) -> None:
        self.w, self.rank = w, rank
        self.pair, self.mid, self.left, self.right = pair, mid, left, right

    def __matmul__(self, other: _Power) -> _Power:
        """self ⊗ other: for each (s, t) the midpoint u of least total
        weight, then least rank of the path s -> u.  A least path splits
        into least halves, the lexicographically first into first halves,
        and paths through distinct midpoints differ in their first half, so
        this is the least and lexicographically first path of the product;
        it ranks by (rank of s -> u, rank of u -> t)."""
        F = len(self.w)
        first = self.w * F + self.rank  # s -> u by weight, then rank
        then = other.w * F
        mid = np.empty((F, F), np.intp)
        # (s, u, t) keys in blocks of rows of at most 64 KiB: numpy takes a
        # larger array from mmap (above 128 KiB) and faults it in afresh
        rows = max(1, 2**13 // F**2)
        for s in range(0, F, rows):
            mid[s:s + rows] = (first[s:s + rows, :, None] + then).argmin(axis=1)
        s, t = np.arange(F)[:, None], np.arange(F)[None, :]
        best = first[s, mid] + then[mid, t]
        reach = best < _INF * F
        order = np.where(reach, self.rank[s, mid] * F + other.rank[mid, t], F * F)
        return _Power(np.where(reach, best // F, _INF), _ranks(order, reach),
                      mid=mid, left=self, right=other)


def _ranks(order: np.ndarray, reach: np.ndarray) -> np.ndarray:
    """The position of each entry of its row in ascending `order` (whose
    unreachable entries sort last), and F where it is unreachable."""
    F = len(order)
    rank = np.empty((F, F), np.int64)
    np.put_along_axis(rank, order.argsort(axis=1), np.arange(F)[None, :], axis=1)
    rank[~reach] = F
    return rank


class _Transfer:
    """The (min,+) powers of the middle map of one (kind, k) over the
    frontier at column 2k (its starts), which that map takes onto itself.

    `powers[i]` is A^(2^i); A is built from the middle rows (the least
    weight pair from s to t, the smallest such pair on a tie), and each
    further power is the square of the last.  `power(m)` multiplies the
    powers of the set bits of m, first squaring up to the highest one.
    """

    def __init__(self, tables: _Tables, middle: _Rows) -> None:
        self.tables = tables
        self.starts, self.start_of = middle.wids, middle.row_of
        F = len(self.starts)
        width = tables.width
        s, j = np.nonzero(middle.nw >= 0)
        t = self.start_of[middle.nw[s, j]]
        bad = middle.nw[s[t < 0], j[t < 0]]
        if len(bad):
            raise InternalError(f"dp met window {bad[0]} off the frontier of its step")
        key = np.full((F, F), _INF * width, np.int64)
        np.minimum.at(key, (s, t), tables.dw[j].astype(np.int64) * width + j)
        reach = key < _INF * width
        w = np.where(reach, key // width, _INF)
        pair = key % width
        self.powers = [_Power(w, _ranks(np.where(reach, pair, width), reach), pair=pair)]

    def power(self, m: int) -> _Power:
        """A^m, for m >= 1."""
        while 1 << len(self.powers) <= m:
            self.powers.append(self.powers[-1] @ self.powers[-1])
        out = None
        for i, p in enumerate(self.powers):
            if m >> i & 1:
                out = p if out is None else out @ p
        return out


class _Landing(_Step):
    """The m middle columns as one step of a pass, read off A^m.

    Row `row_of[w]` belongs to start w; entry [row, i] holds the window t
    that the i-th path from it reaches (`nw`, -1 past the end), the paths
    in lexicographic order, the least path weight (`w`) and, as its rank,
    the path's position among the paths of all rows, row after row.
    """

    def __init__(self, transfer: _Transfer, m: int) -> None:
        self.power = power = transfer.power(m)
        reach = power.w < _INF
        count = reach.sum(axis=1)
        self.offset = np.cumsum(count) - count  # the rank of each row's first path
        s, t = np.nonzero(reach)
        col = power.rank[s, t]
        shape = (len(count), int(count.max()))
        self.wids, self.row_of = transfer.starts, transfer.start_of
        self._after: dict[bytes, np.ndarray] = {}
        self.nw = np.full(shape, -1, transfer.tables.ids)
        self.nw[s, col] = transfer.starts[t]
        self.w = np.zeros(shape, np.int32)
        self.w[s, col] = power.w[s, t]
        self.rank = np.zeros(shape, np.int32)
        self.rank[s, col] = self.offset[s] + col
        self.span = int(count.sum())
        self.m, self.powers = m, transfer.powers
        self.pair_labels = transfer.tables.pair_labels

    def labels(self, rank: int) -> bytes:
        s = int(np.searchsorted(self.offset, rank, "right")) - 1
        t = int(self.row_of[self.nw[s, rank - self.offset[s]]])
        return self.pair_labels[self.path(s, t)].tobytes()

    def path(self, s, t) -> np.ndarray:
        """The m pairs of the path of A^m from start s to start t (ints, or
        arrays of the same shape: one path per position, on the last axis).

        A^m multiplies the binary powers A^(2^b) of the set bits b of m,
        lowest first (`_Transfer.power`), so the path is theirs laid end to
        end, that of bit b from waypoint m mod 2^b to m mod 2^(b+1).  The
        midpoints of the products, read from the last, place the ends of
        these segments.  Every gap of 2^j pairs left then starts at m mod
        2^j plus a multiple of 2^j, so one gather of the midpoints of
        A^(2^j) per level j halves them all, from the highest level down;
        the pairs of A join the waypoints.
        """
        m = self.m
        way = np.empty(np.shape(s) + (m + 1,), np.intp)
        way[..., 0], way[..., m] = s, t
        product = self.power
        bits = [b for b in range(m.bit_length()) if m >> b & 1]
        for b in reversed(bits[1:]):  # product = (the lower bits' product) @ A^(2^b)
            at = m & ((1 << b) - 1)  # where the segment of bit b starts
            way[..., at] = product.mid[s, way[..., at + (1 << b)]]
            product = product.left
        for j in range(bits[-1], 0, -1):
            step = 1 << j
            first = m & (step - 1)
            way[..., first + step // 2::step] = self.powers[j].mid[
                way[..., first:m - step + 1:step], way[..., first + step::step]]
        return self.powers[0].pair[way[..., :-1], way[..., 1:]]


# The largest transfer matrix, in (start, window) pairs, for which the
# middle columns are crossed in one landing step (module docstring).
_TRANSFER_LAYER = 2048


@lru_cache(maxsize=None)
def _tables(kind: str, k: int) -> _Tables:
    # bounded: one entry per (kind, k), each at most windows x signatures
    # rows, one transfer table of log2(largest m) + 1 F x F powers and one
    # suffix of at most T + p bounds and entry costs, each with at most one
    # set of opening columns
    return _Tables(KINDS[kind], k)


# What an illegal entry cost holds, per dtype: above every room `_step`
# compares it with, at every limit.
_ILLEGAL = {np.dtype(np.int16): 2**15 - 1, np.dtype(np.int32): _INF}


def _entries(cost: np.ndarray) -> np.ndarray:
    """Entry costs as a pass reads them: int16 where the finite ones fit,
    int32 otherwise, an illegal entry (a cost of _INF or more) holding
    `_ILLEGAL` of its dtype.  Every cost is a weight plus a bound that is
    finite or exactly _INF, so with the _INF bit masked off an illegal
    entry keeps only its weight, and the largest masked value bounds the
    finite ones."""
    narrow = np.dtype(np.int16 if (cost & (_INF - 1)).max() < 2**15 - 1 else np.int32)
    return np.minimum(cost, _ILLEGAL[narrow]).astype(narrow)


def _end(windows: int) -> np.ndarray:
    """The bound after the last column: zero on every window, _INF in the
    last slot, which an illegal pair (nw = -1) reads."""
    end = np.zeros(windows + 1, np.int32)
    end[-1] = _INF
    return end


def _back(step: _Step, h: np.ndarray, windows: int) -> tuple[np.ndarray, np.ndarray, int]:
    """One step of the backward walk from `h`, the bound after `step`: the
    step's entry costs (weight plus the `h` of the new window, `_entries`),
    the bound before it, less its least finite value so that it starts at
    0, and that value, the shift between the two bounds' offsets."""
    cost = step.cost(h)
    best = cost.min(axis=1)
    shift = int(best.min())
    if shift >= _INF:
        shift = 0
    before = np.full(windows + 1, _INF, np.int32)
    before[step.wids] = np.where(best < _INF, best - shift, _INF)
    return _entries(cost), before, shift


def _walk_back(steps: list, h: np.ndarray, windows: int) -> tuple[list, list, list[int]]:
    """The bounds before `steps`, whose last step reads `h`, their entry
    costs, and each bound's offset above that of `h`, in pass order."""
    bounds, costs, offsets = [], [], []
    offset = 0
    for step in reversed(steps):
        cost, h, shift = _back(step, h, windows)
        offset += shift
        bounds.append(h)
        costs.append(cost)
        offsets.append(offset)
    return bounds[::-1], costs[::-1], offsets[::-1]


class _Suffix:
    """The bounds and entry costs of the steps that end every pass over
    P(n, k) with n >= 3k: the k closing columns, and before them as many
    middle columns as a pass takes, shared by every such n.

    Index i counts steps from the end.  `bounds[i]` plus `offsets[i]` is
    the bound before the last i steps (bounds[0]: zero on every window),
    and `costs[i]` plus `offsets[i]` are the entry costs of the step before
    it, which read that bound.  The lists grow by one middle column as a
    pass needs it, until the new bound equals a stored middle bound, index
    T, on every entry, so that the bound i = T + p steps from the end is
    that of T plus one constant λ on every finite entry, with the same
    _INF entries.  The middle map is (min,+)-linear, so from then on every
    bound and entry cost repeats with period p, λ higher each period (the
    cyclicity theorem; Heidergott, Olsder and van der Woude, *Max Plus at
    Work*, 2006): `period` is (T, p, λ), and the lists stop at T + p.

    `openings[j]` holds the bounds, entry costs and offsets (`_walk_back`)
    of the 2k opening columns before the stored bound j, where a pass
    whose middle and closing columns are j steps, or repeat them with the
    period, starts its middle: at most T + p of them for every n.
    """

    def __init__(self, tables: _Tables, closing: list[_Rows]) -> None:
        self.windows = tables.windows
        self.k = len(closing)
        self.bounds, self.offsets, self.costs = [_end(self.windows)], [0], []
        self.period: tuple[int, int, int] | None = None
        self.openings: dict[int, tuple[list, list, list[int]]] = {}
        for step in reversed(closing):
            self._grow(step)

    def _grow(self, step: _Step) -> None:
        cost, before, shift = _back(step, self.bounds[-1], self.windows)
        self.costs.append(cost)
        offset = self.offsets[-1] + shift
        i = len(self.bounds)
        for t in range(self.k, i):  # the bounds the middle map runs from
            if np.array_equal(self.bounds[t], before):
                self.period = (t, i - t, offset - self.offsets[t])
                return
        self.bounds.append(before)
        self.offsets.append(offset)

    def entry(self, i: int) -> tuple[int, int]:
        """(stored index, offset) of the bound i steps from the end and of
        the entry costs that read it."""
        if i < len(self.bounds):
            return i, self.offsets[i]
        T, p, lam = self.period
        periods, j = divmod(i - T, p)
        return T + j, self.offsets[T + j] + periods * lam

    def reach(self, count: int, middle: _Rows | None) -> None:
        """Grow the lists by `middle`'s column until they hold the bound
        `count` steps from the end or the period."""
        while self.period is None and len(self.bounds) <= count:
            self._grow(middle)

    def read(self, count: int) -> tuple[list, list, list[int]]:
        """The bounds before the last `count` steps and after the last one,
        the entry costs of those steps and their offsets, in pass order
        (`_Plan`), once the lists `reach` that far."""
        bounds, costs, offsets = [], [], []
        for i in range(count, -1, -1):
            j, offset = self.entry(i)
            bounds.append(self.bounds[j])
            offsets.append(offset)
            if i < count:
                costs.append(self.costs[j])
        return bounds, costs, offsets

    def opening(self, count: int, steps: list[_Rows]) -> tuple[list, list, list[int]]:
        """The bounds, entry costs and offsets of the opening columns
        `steps` before the last `count` steps (read first), each offset
        above that of the bound they read."""
        j = self.entry(count)[0]
        found = self.openings.get(j)
        if found is None:
            found = self.openings[j] = _walk_back(steps, self.bounds[j], self.windows)
        return found


class _Plan(NamedTuple):
    """The steps of a pass over P(n, k) with their cost-to-go bounds and
    entry costs, each array stored less an integer offset.

    `bounds[i] + offsets[i]` is the bound before step i (`bounds[-1]`: after
    the last, zero), the least weight of the columns of steps i.. from each
    window under any seam, residuals ignored (a lower bound on every
    completion); _INF off the windows of step i and in the last slot, which
    an illegal pair (nw = -1) reads.  `costs[i] + offsets[i + 1]` are the
    entry costs of step i, the weight of each entry plus the bound of its
    new window, which every pass reads as they are (`_entries`: an illegal
    entry holds `_ILLEGAL` of its dtype).  Where n >= 3k the arrays are the
    family's `_Suffix` and its openings, shared by every n, but for the
    entry costs of a landing step.
    """

    steps: list
    bounds: list[np.ndarray]
    costs: list[np.ndarray]
    offsets: list[int]


def _plan(tables: _Tables, n: int) -> _Plan:
    """The plan of a pass over P(n, k).

    A step is one column, or, with two or more middle columns and F^2 at
    most _TRANSFER_LAYER for the F windows of the frontier at column 2k,
    the middle columns 2k..n-k-1 at once.  The forward walk asks each step
    for the frontier after it; the middle columns map their frontier onto
    itself, so where they are column steps the walk takes them all at once.
    The backward walk reads the steps from the closing ones back to the
    first middle column off the family's suffix, and the opening columns
    before them off the suffix's openings; before a landing step, which
    crosses the m middle columns of this n alone, it walks back over the
    landing step and the opening columns for this n.
    """
    k = tables.k
    frontier = np.zeros(1, np.int64)  # the empty window
    steps = []
    landing = False
    c = 0
    while c < n:
        sig = _column(c, n, k)
        step = tables.rows_for(sig, frontier)
        run = 1
        if c == 2 * k and n - 3 * k >= 2 and len(frontier) ** 2 <= _TRANSFER_LAYER:
            step = _Landing(tables.transfer(step), n - 3 * k)
            landing = True
            c = n - k
        else:
            c += 1
        reached = step.after(frontier)
        if sig == (2 * k, -1, False) and not landing and np.array_equal(reached, frontier):
            run = n - k - c + 1  # every middle column meets this frontier
            c = n - k
        steps += [step] * run
        frontier = reached
    if n < 3 * k:  # no closing columns shared with other n
        end = _end(tables.windows)
        bounds, costs, offsets = _walk_back(steps, end, tables.windows)
        return _Plan(steps, bounds + [end], costs, offsets + [0])
    suffix = tables.suffix(steps[-k:])
    tail = n - 2 * k  # the middle and closing columns
    suffix.reach(tail, tables.rows.get((2 * k, -1, False)))
    if landing:
        # the bound before the landing step is that of the middle columns
        # it crosses, read off the suffix; only its entry costs are this n's
        bounds, costs, offsets = suffix.read(k)
        j, offset = suffix.entry(tail)
        costs.insert(0, _entries(steps[2 * k].cost(bounds[0])))
        bounds.insert(0, suffix.bounds[j])
        offsets.insert(0, offset)
    else:
        bounds, costs, offsets = suffix.read(tail)
    head = suffix.opening(tail, steps[:2 * k])
    return _Plan(steps, head[0] + bounds, head[1] + costs,
                 [offset + offsets[0] for offset in head[2]] + offsets)


# Group-min sort keys pack (key, weight, position) as bit fields of one
# int64; only layers far beyond any solvable size could overflow it.
_PACK_LIMIT = 2**63

# A layer is expanded in blocks of _BLOCK parent states, so that its
# (states, L * L) grids of candidates stay small; only the legal candidates
# of a block are kept.
_BLOCK = 2048


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


def _step(tables: _Tables, tab: _Step, cost: np.ndarray, offset: int, key: np.ndarray,
          w: np.ndarray, limit: int):
    """Advance the layer (`key`, `w`) by step `tab`, keeping the candidates
    whose weight plus the `cost` of their entry plus `offset` is at most
    `limit`: `cost <= limit - offset - weight`, where the room on the right
    is capped one below what an illegal entry holds (`_ILLEGAL`).  The room
    is never negative in a pass: a state kept there has its weight plus
    the offset of the bound before the step at most the limit, and the
    offset of the step's entry costs is at most that one.
    Returns the new layer's keys, weights and back-pointers; None when it
    is empty.
    """
    top = _ILLEGAL[cost.dtype] - 1
    capped = limit - offset > top
    R = tables.R
    WR = tables.windows * R
    width = tab.nw.shape[1]
    ks, ws, pars, ranks = [], [], [], []
    for start in range(0, len(key), _BLOCK):
        kb = key[start:start + _BLOCK]
        wb = w[start:start + _BLOCK]
        rest = kb % WR
        wid, res = np.divmod(rest, R)
        rows = tab.row_of.take(wid)
        if rows.min() < 0:
            bad = int(wid[rows.argmin()])
            raise InternalError(f"dp met window {bad} off the frontier of its step")
        room = limit - offset - wb
        if capped:
            np.minimum(room, top, out=room)
        # <= : a labeling of weight `limit` must keep all its prefixes
        legal = np.less_equal(cost.take(rows, axis=0), room.astype(cost.dtype)[:, None])
        if tab.seam_bit is not None:  # closing window: legal under the state's seam
            legal &= (tab.mask.take(rows, axis=0) & tab.seam_bit[kb // WR][:, None]) != 0
        pos = np.flatnonzero(legal)
        par = pos // width
        j = np.subtract(pos, par * width, out=pos)  # pos is not read again
        base = kb - rest  # seam code * WR
        if tab.writes is not None:
            base *= len(tables.alg.labels)
        if tab.op is None:
            base += res
        cell = np.multiply(rows, width, dtype=np.intp).take(par)
        cell += j
        ck = np.multiply(tab.nw.take(cell), R, dtype=key.dtype)
        ck += base.take(par)
        ws.append(wb.take(par) + tab.w.take(cell))
        ranks.append(tab.rank.take(cell))
        if tab.op is not None:
            cell = res.take(par)  # now the candidate's cell in `op`
            cell *= width
            cell += j
            ck += tab.op.take(cell)
        if tab.writes is not None:
            ck += tab.writes.take(j)
        ks.append(ck)
        if start:
            par += start
        pars.append(par)
    del pos, j, cell  # not held through the group-min: less heap to trim and fault in again
    ck, cw, par, rank = (a[0] if len(a) == 1 else np.concatenate(a)
                         for a in (ks, ws, pars, ranks))
    if len(ck) == 0:
        return None
    win = _winners(ck, cw, limit + 1, tables.key_bound)
    m = len(win)
    if m > DP_STATE_CAP:
        raise BudgetExceeded(f"dp state count {m} exceeds cap {DP_STATE_CAP}")
    narrow = len(key) * tab.span <= 2**31  # column steps: always
    back = np.multiply(par.take(win), tab.span, dtype=np.int32 if narrow else np.int64)
    back += rank.take(win)
    return ck.take(win), cw.take(win), back


def _unwind(steps: list, back: list[np.ndarray], pos: int) -> bytes:
    """The labels, column-major, of the prefix ending in state `pos` of the
    last layer; back[i] holds the back-pointers of the layer steps[i] made."""
    labels = []
    for tab, b in zip(reversed(steps), reversed(back)):
        pos, rank = divmod(int(b[pos]), tab.span)
        labels.append(tab.labels(rank))
    return b"".join(reversed(labels))


def _sweep(tables: _Tables, steps: list, costs: list[np.ndarray], prune: int,
           offsets: list[int] | None = None) -> tuple[tuple[int, bytes] | None, int]:
    """One pass over the steps that carries every seam, dropping each
    candidate whose weight plus the entry cost of its step (`costs[i]`
    plus `offsets[i]`, from `_plan`; no offsets: zero) exceeds `prune`.

    Returns ((weight, witness) of the lexicographically smallest closing
    labeling of least weight, or None when no state closes; states kept).
    """
    key = np.zeros(1, tables.keys)  # no seam label yet, the empty window
    w = np.zeros(1, np.int32)
    back: list[np.ndarray] = []  # per layer: parent position * span + rank
    explored = 0
    for tab, cost, offset in zip(steps, costs, offsets or [0] * len(steps)):
        layer = _step(tables, tab, cost, offset, key, w, prune)
        if layer is None:
            return None, explored
        key, w, b = layer
        back.append(b)
        explored += len(b)
    closed = np.flatnonzero(key % tables.R == 0)  # every wrap residual met
    if len(closed) == 0:
        return None, explored
    pos = int(closed[np.argmin(w[closed])])  # the first: lex-smallest labeling
    return (int(w[pos]), _unwind(steps, back, pos)), explored


def solve_cycle(n: int, k: int, kind: str, first: int = 0) -> tuple[int, bytes, int]:
    """Minimum weight over the cyclic column structure of P(n, k).

    The deepening starts at `first` where that is above the cost-to-go
    bound (at most 2n); it changes only the work done, never the result.
    Returns (optimum, witness label bytes in vertex order, states explored).
    """
    kind_of(kind)  # rejects an unknown kind
    require_admissible(n, k)
    tables = _tables(kind, k)
    plan = _plan(tables, n)
    explored = 0
    # the bound of the empty window is a lower bound on the optimum, and the
    # all-ones labeling is always valid at weight 2n
    start = int(plan.bounds[0][0]) + plan.offsets[0]
    for prune in range(max(start, min(first, 2 * n)), 2 * n + 1):
        found, kept = _sweep(tables, plan.steps, plan.costs, prune, plan.offsets[1:])
        explored += kept
        if found is not None:
            return (*found, explored)
    raise InternalError("dp found no closing state (pruning bug)")
