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

Transitions come from tables keyed by the column signature
`(min(c, 2k), c - (n - k) if that is >= 0, c == n - 1)`, which fixes
everything `_transitions` reads of c and n; the tables are therefore
shared by every n and every seam, and filled lazily, one row per window
met.  A row holds, for each label pair (lo, li), the new window id, the
id of its residual update (an op, stored as a lookup map over residual
codes) and, where the column reads seam labels (columns 0..k-1 and the
closing window), a bitmask of the seam labelings under which the pair is
legal.  Advancing a layer gathers the rows of its m states into an
(m, L * L) grid of candidates, marks the illegal ones (by the seam mask
or the running weight bound), and takes a group-min over the new state
integers with one sort of packed int64 keys.  Layer arrays are padded to
a multiple of 16 states whose weight is over the bound.

Ties.  States keep backpointers (parent position, lo * L + li) instead of
label prefixes.  All prefixes in a layer have the same length and the
layer is kept in prefix order, so comparing two candidate prefixes is
comparing (parent position, lo * L + li), which is the candidate's index;
the group-min takes the smallest weight and then the smallest index.
Each seam therefore ends with the lexicographically smallest optimal
labeling, and across seams full prefixes are compared, so the witness is
the lexicographically smallest one of minimum weight.

Seams stay sequential: each seam is pruned by the best weight of the seams
before it, which keeps layers small and defines the `explored` count
(states summed over layers and seams).  Advancing all seams as one layer
would lose that bound and make the layers several times wider.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

import numpy as np

from .errors import BudgetExceeded, InternalError, InvalidParameters
from .labeling import KINDS, Kind, kind_of

DP_STATE_CAP = 2_000_000

ALGEBRAS = KINDS  # the kind records by name, under their earlier name


def _transitions(win, c, n, k, alg, a0, bs):
    """Legal transitions from window `win` when deciding column c.

    Returns (lo, li, new_window, residual_ops) tuples where
    residual_ops is a tuple of (slot, op, operand) with op 'r' (reduce by
    a label contribution) or 'a' (assign a freshly created demand).
    """
    labels = alg.labels
    red = alg.reduce
    need = alg.need
    k2 = 2 * k
    ilk = win[k2 - 2]  # inner label of column c-k
    idk = win[k2 - 1]  # its pending demand
    ol = win[k2]
    od = win[k2 + 1]
    lo_choices = (a0,) if c == 0 else labels
    li_choices = (bs[c],) if c < k else labels
    in_wrap_phase = k <= c < k2
    check_inner = c >= k2
    check_outer = c >= 2
    outer_wrap = c == 1
    late_t = c - (n - k)
    last = c == n - 1
    left_ready = c >= k
    out = []
    for lo in lo_choices:
        for li in li_choices:
            r_ops = []
            # column c-k's inner vertex: last in-window neighbor decided now
            if check_inner:
                if red[idk][li] != 0:
                    continue
            elif in_wrap_phase:
                r_ops.append((1 + c - k, "r", li))
            # column c-1's outer vertex
            if check_outer:
                if red[od][lo] != 0:
                    continue
            elif outer_wrap:
                r_ops.append((0, "r", lo))
            # closing window: this column's labels feed the wrap vertices
            if late_t >= 0:
                r_ops.append((1 + late_t, "r", li))
                if last:
                    r_ops.append((0, "r", lo))
            # demand of the new inner vertex
            if li == 0:
                d = need
                if left_ready:
                    d = red[d][ilk]
                d = red[d][lo]
                if late_t >= 0:
                    d = red[d][bs[c + k - n]]
                    if d != 0:
                        continue
                    ie = (li, 0)
                elif c < k:
                    r_ops.append((1 + c, "a", d))
                    ie = (li, 0)
                else:
                    ie = (li, d)
            else:
                ie = (li, 0)
            # demand of the new outer vertex
            if lo == 0:
                d = need
                d = red[d][li]
                if c >= 1:
                    d = red[d][ol]
                if last:
                    d = red[d][a0]
                    if d != 0:
                        continue
                    oe = (lo, 0)
                elif c == 0:
                    r_ops.append((0, "a", d))
                    oe = (lo, 0)
                else:
                    oe = (lo, d)
            else:
                oe = (lo, 0)
            new_win = ie + win[: k2 - 2] + oe
            out.append((lo, li, new_win, tuple(r_ops)))
    return out


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


class _Rows:
    """Transition rows of one signature, one row per window met there.

    Entry `[row, lo * L + li]` of `nw` is the id of the new window, or -1
    when the pair is illegal under every seam; the same entry of `op` is
    the id of its residual update (None: the signature updates none), and
    bit v of `mask` is set when the pair is legal under the v-th labeling
    of the seam positions the signature reads (None: it reads none).
    """

    def __init__(self, tables: _Tables, with_ops: bool, with_mask: bool) -> None:
        width = tables.width
        self.row_of = np.full(tables.windows, -1, tables.ids)  # -1: not built
        self.nw = np.empty((0, width), tables.ids)
        self.op = np.empty((0, width), np.int16) if with_ops else None
        self.mask = np.empty((0, width), np.uint16) if with_mask else None

    def extend(self, wids: list[int], nw: list, op: list, mask: list) -> None:
        self.row_of[wids] = np.arange(len(self.nw), len(self.nw) + len(wids))
        self.nw = np.concatenate((self.nw, np.array(nw, self.nw.dtype)))
        if self.op is not None:
            self.op = np.concatenate((self.op, np.array(op, np.int16)))
        if self.mask is not None:
            self.mask = np.concatenate((self.mask, np.array(mask, np.uint16)))


class _Tables:
    """The transition tables of one (kind, k), shared by every n and seam."""

    def __init__(self, alg: Kind, k: int) -> None:
        self.alg = alg
        self.k = k
        self.width = len(alg.labels) ** 2
        self.base = alg.need + 1
        self.R = self.base ** (k + 1)  # residual codes
        # the (label, demand) pairs a window can hold: the empty pair, a
        # nonzero label (demand 0) or label 0 with any demand
        self.pairs = (
            ((-1, 0),)
            + tuple((label, 0) for label in alg.labels[1:])
            + tuple((0, d) for d in range(self.base))
        )
        self.pair_index = {pair: i for i, pair in enumerate(self.pairs)}
        self.windows = len(self.pairs) ** (k + 1)
        self.ids = np.int16 if self.windows < 2**15 else np.int32
        # state keys; `_winners` moves illegal candidates' keys up to 3x
        self.keys = np.int32 if 3 * self.windows * self.R < 2**31 else np.int64
        self.dw = np.array(
            [alg.weight[lo] + alg.weight[li] for lo in alg.labels for li in alg.labels],
            np.int32,
        )
        self.op_ids: dict[tuple, int] = {(): 0}
        self.op_maps = np.arange(self.R, dtype=np.int32)[None, :]  # op 0: identity
        self.rows: dict[tuple, _Rows] = {}

    def _win_id(self, win: tuple[int, ...]) -> int:
        """The window's pairs as digits; the empty window is 0."""
        wid = 0
        for j in range(0, len(win), 2):
            wid = wid * len(self.pairs) + self.pair_index[win[j], win[j + 1]]
        return wid

    def _window(self, wid: int) -> tuple[int, ...]:
        win: tuple[int, ...] = ()
        for _ in range(self.k + 1):
            wid, digit = divmod(wid, len(self.pairs))
            win = self.pairs[digit] + win
        return win

    def _op_id(self, r_ops: tuple) -> int:
        """Id of a residual update; its map sends residual codes to codes."""
        oid = self.op_ids.get(r_ops)
        if oid is None:
            red = self.alg.reduce
            base = self.base
            row = []
            for code in range(self.R):
                res = [(code // base**j) % base for j in range(self.k + 1)]
                for slot, op, operand in r_ops:
                    res[slot] = red[res[slot]][operand] if op == "r" else operand
                row.append(sum(d * base**j for j, d in enumerate(res)))
            oid = self.op_ids[r_ops] = len(self.op_maps)
            self.op_maps = np.concatenate((self.op_maps, np.array([row], np.int32)))
        return oid

    def lookup(self, sig: tuple, reads: tuple[int, ...], c: int, n: int,
               wid: np.ndarray) -> tuple[_Rows, np.ndarray]:
        """The rows of column c (`_column`: sig, reads) for the window ids
        `wid`, building the missing ones."""
        tab = self.rows.get(sig)
        if tab is None:
            with_ops = sig[0] < 2 * self.k or sig[1] >= 0
            tab = self.rows[sig] = _Rows(self, with_ops, bool(reads))
        rows = tab.row_of[wid]
        if rows.min() < 0:
            missing = sorted(set(wid[rows < 0].tolist()))
            tab.extend(missing, *zip(*(self._row(w, c, n, reads) for w in missing)))
            rows = tab.row_of[wid]
        return tab, rows

    def _row(self, wid: int, c: int, n: int, reads: tuple[int, ...]):
        labels = self.alg.labels
        nw = [-1] * self.width
        op = [0] * self.width
        mask = [0] * self.width
        seam = [0] * (self.k + 1)
        for v, combo in enumerate(product(labels, repeat=len(reads))):
            for pos, label in zip(reads, combo):
                seam[pos] = label
            for lo, li, win, r_ops in _transitions(
                self._window(wid), c, n, self.k, self.alg, seam[0], seam[1:]
            ):
                j = lo * len(labels) + li
                if nw[j] < 0:  # the same under every seam that allows the pair
                    nw[j] = self._win_id(win)
                    op[j] = self._op_id(r_ops)
                mask[j] |= 1 << v
        return nw, op, mask


@lru_cache(maxsize=None)
def _tables(kind: str, k: int) -> _Tables:
    # bounded: one entry per (kind, k), each at most windows x signatures rows
    return _Tables(KINDS[kind], k)


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
        for c, (sig, reads) in enumerate(columns):
            wid, res = np.divmod(key, R)
            tab, rows = tables.lookup(sig, reads, c, n, wid)
            nw = tab.nw[rows]
            if tab.mask is None:
                illegal = nw < 0
            else:
                v = 0
                for pos in reads:
                    v = v * nl + seam[pos]
                illegal = (tab.mask[rows] & (1 << v)) == 0
            w2 = w[:, None] + tables.dw
            illegal |= w2 > prune
            ck = nw.astype(tables.keys)
            ck *= R
            ck += res[:, None] if tab.op is None else tables.op_maps[tab.op[rows], res[:, None]]
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
