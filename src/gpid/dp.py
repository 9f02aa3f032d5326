"""Cyclic profile dynamic program over the columns of P(n, k).

Columns are decided left to right, two labels per step (outer, inner).
The state tracks, for the trailing window of k columns, each inner
vertex's label and its residual coverage demand, plus the previous outer
vertex's label and demand.  A vertex's demand is created when its column
is decided (counting contributions of already-decided neighbors), reduced
when later neighbors are decided, and must be zero once its last neighbor
is decided.

The cycle is closed by seam enumeration: the labels that interact across
the wrap are the outer label of column 0 and the inner labels of columns
0..k-1.  For each assignment of those k+1 labels the run becomes linear:
wrap vertices keep their demands in a small residual vector that is
reduced at the known steps where their wrap neighbors are decided and
checked for zero after the last column.  Vertices in the closing window
see only known labels, so their demands are checked at creation.

Demand bookkeeping is shared by the three invariants through their kind
records (`labeling.KINDS`): a zero-labeled vertex starts with the kind's
`need` (2, 1, or the mask {1,2}), and each neighbor label c turns a
demand d into `reduce[d][c]`.

Engine.  A state is one integer, `window_id * R + residual_code`: the
window's k+1 (label, demand) pairs are digits over the few pairs that can
occur, and the k+1 wrap residuals are base-(need+1) digits (R of them).
A layer is a set of such integers with their weights, held in numpy
arrays in the order of their label prefixes.

Tables.  Transitions come from tables keyed by the column signature
`(min(c, 2k), c - (n - k) if that is >= 0, c == n - 1)`, which fixes
everything a transition reads of c and n; the tables are therefore shared
by every n and every seam, and filled lazily.  A row holds, for one window
and each label pair (lo, li), the new window id and, where the column
reads seam labels (columns 0..k-1 and the closing window), a bitmask of
the seam labelings under which the pair is legal.  A residual update
depends only on the signature and the pair, so each signature holds one
map from (residual code, pair) to the next residual code.

Before the seams run, two passes over the columns prepare them.  The
forward pass follows the frontier: the windows that some seam can reach
from the empty window.  It builds each column's missing rows for the
whole frontier in one numpy pass over (window, lo, li, seam labeling).
The backward pass computes the cost-to-go bound `bound[c][w]`, the least
weight of columns c..n-1 from window w under any seam, residuals ignored.

Advancing a layer gathers the rows of its m states into an (m, L * L)
grid of candidates, marks the illegal ones (by the seam mask, or when
weight plus the bound of the new window exceeds the best weight found so
far), and takes a group-min over the new state integers with one sort of
packed int64 keys.  Layer arrays are padded to a multiple of 16 states
whose weight is over the bound.  The candidates of one state share a
window and so a bound: pruning removes whole groups and never changes a
group's winner.

Ties.  States keep backpointers (parent position, lo * L + li) instead of
label prefixes.  All prefixes in a layer have the same length and the
layer is kept in prefix order, so comparing two candidate prefixes is
comparing (parent position, lo * L + li), which is the candidate's index;
the group-min takes the smallest weight and then the smallest index.
Each seam therefore ends with the lexicographically smallest optimal
labeling, and across seams full prefixes are compared, so the witness is
the lexicographically smallest one of minimum weight.  Pruning drops a
candidate only when its weight must end strictly above the best weight
so far: a later seam can still give a smaller witness of equal weight.

Seams stay sequential: each seam is pruned by the best weight of the seams
before it.  `explored` counts the states kept, summed over layers and
seams.  Advancing all seams as one layer would lose that bound and make
the layers several times wider.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

import numpy as np

from .errors import BudgetExceeded, InternalError, InvalidParameters
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
    the signature updates no residual).
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
        # state keys; `_winners` moves illegal candidates' keys up to 3x
        self.keys = np.int32 if 3 * self.windows * self.R < 2**31 else np.int64
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


# Group-min sort keys are packed as ((key * span + weight) << shift) + index
# in one int64; only layers far beyond any solvable size could overflow it.
_PACK_LIMIT = 2**63

# Layer arrays are padded to a multiple of _PAD states.  numpy keeps up to
# seven freed blocks per byte size under 1 KiB; arrays of every small size
# filled that cache with about 1 MB on the dp-sweep benchmark, padded ones
# take a few sizes only.
_PAD = 16


def _winners(ck: np.ndarray, cw: np.ndarray, illegal: np.ndarray, span: int,
             key_bound: int) -> np.ndarray:
    """Indices, ascending, of the legal candidates that win their state:
    the smallest weight, then the smallest index.  The candidates form an
    (m, width) grid with keys in [-R, key_bound) and weights below span + 4
    (below span when legal).  Overwrites the keys of illegal candidates."""
    m, width = ck.shape
    size = m * width
    shift = (size - 1).bit_length()
    if 3 * (key_bound + 1) * span << shift >= _PACK_LIMIT:
        raise BudgetExceeded(f"dp layer of {size} candidates overflows its int64 sort keys")
    # illegal keys move to [key_bound, 3 * key_bound), after every legal key
    ck += np.multiply(illegal, 2 * key_bound, dtype=ck.dtype)
    order = np.multiply(ck, span, dtype=np.int64)
    order += cw
    order <<= shift
    order += np.arange(0, size, width)[:, None]  # + the candidate's index
    order += np.arange(width)
    order = order.ravel()
    order.sort()
    order &= (1 << shift) - 1
    sk = ck.ravel()[order]
    first = np.empty(size, bool)  # where a new key starts among the legal ones
    first[0] = True
    np.not_equal(sk[1:], sk[:-1], out=first[1:])
    first[size - np.count_nonzero(illegal):] = False
    win = order.take(first.nonzero()[0])
    win.sort()
    return win


def solve_cycle(
    n: int, k: int, kind: str, state_cap: int = DP_STATE_CAP
) -> tuple[int, bytes, int]:
    """Minimum weight over the cyclic column structure of P(n, k).

    Returns (optimum, witness label bytes in vertex order, states explored).
    """
    labels = kind_of(kind).labels  # 0..L-1, so lo * L + li encodes a pair
    if n < 3 or k < 1 or 2 * k >= n:
        raise InvalidParameters(f"P(n,k) requires n >= 3, 2k < n; got n={n}, k={k}")
    nl = len(labels)
    tables = _tables(kind, k)
    columns = [_column(c, n, k) for c in range(n)]
    tabs, bound = _plan(tables, columns)
    R = tables.R
    width = tables.width
    prune = 2 * n  # the all-ones labeling is always valid at this weight
    best_w = None
    best_seq = b""
    explored = 0
    for seam in product(labels, repeat=k + 1):
        # the layer's m states, in prefix order, then padding copies of state 0
        m = 1
        key = np.zeros(_PAD, tables.keys)
        w = np.full(_PAD, prune + 1, np.int32)  # padding: over the bound, no moves
        w[0] = 0
        back: list[np.ndarray] = []  # per layer: parent position * width + lo * nl + li
        for c, (tab, (_, reads)) in enumerate(zip(tabs, columns)):
            wid, res = np.divmod(key, R)
            rows = tab.row_of[wid]
            if rows.min() < 0:
                bad = int(wid[rows.argmin()])
                raise InternalError(f"dp met window {bad} off the frontier of column {c}")
            nw = tab.nw[rows]
            if tab.mask is None:
                illegal = nw < 0
            else:
                v = 0
                for pos in reads:
                    v = v * nl + seam[pos]
                illegal = (tab.mask[rows] & (1 << v)) == 0
            w2 = w[:, None] + tables.dw
            illegal |= w2 + bound[c + 1][nw] > prune  # > : ties may still win
            ck = nw.astype(tables.keys)
            ck *= R
            ck += res[:, None] if tab.op is None else tab.op[res]
            del nw, res
            win = _winners(ck, w2, illegal, prune + 1, tables.windows * R)
            del illegal
            m = len(win)
            if m == 0:
                break
            size = -(-m // _PAD) * _PAD
            key = np.empty(size, tables.keys)
            ck.ravel().take(win, out=key[:m])
            key[m:] = key[0]
            w = np.empty(size, np.int32)
            w2.ravel().take(win, out=w[:m])
            w[m:] = prune + 1
            back.append(np.empty(size, np.int32))
            back[-1][:m] = win
            explored += m
            if m > state_cap:
                raise BudgetExceeded(f"dp state count {m} exceeds cap {state_cap}")
        if m == 0:
            continue
        closed = np.flatnonzero(key[:m] % R == 0)  # every wrap residual met
        if len(closed) == 0:
            continue
        pos = int(closed[np.argmin(w[closed])])  # the first: lex-smallest prefix
        wmin = int(w[pos])
        if best_w is not None and wmin > best_w:
            continue
        seq = bytearray(2 * n)
        for c in range(n - 1, -1, -1):
            pos, chunk = divmod(int(back[c][pos]), width)
            seq[2 * c], seq[2 * c + 1] = divmod(chunk, nl)
        if best_w is None or (wmin, seq) < (best_w, best_seq):
            best_w, best_seq = wmin, bytes(seq)
            prune = min(prune, best_w)
    if best_w is None:
        raise InternalError("dp found no closing state (pruning bug)")
    return best_w, best_seq, explored
