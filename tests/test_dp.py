"""Pinned outputs and reference checks of the cyclic column DP,
`gpid.dp.solve_cycle`.

Each row of PINNED is (kind, n, k, optimum, sha256(witness bytes)[:16],
unbounded, explored) for every kind, k = 1..3 and 2k < n <= 12, plus
three longer cycles; each row of LONG_PINNED is (kind, n, k, optimum,
digest, explored) for four more.  `explored` counts the states of the
layers the engine materialises, summed over its steps and deepening
passes: one layer per column, except that where the transfer step
crosses the middle columns at once it counts one landing layer for them.
`unbounded` is the
state count of the per-seam engines without the cost-to-go bound (the
dict-based DP of commit 4bf4087 and the table-driven engine up to commit
db503db); no test reads it now, but the test ids of PINNED carry it.  The
optimum and digest of PINNED were produced by that dict-based DP, those
of LONG_PINNED by the engine before cost-to-go pruning (commit 6b90b29)
and, for 2-rainbow P(24,3) and P(40,3), by the per-seam engine of commit
db503db.  Regenerate the explored column with

    PYTHONPATH=src python - <<'PY'
    import hashlib
    from gpid.dp import solve_cycle
    grid = [(kind, n, k) for kind in ("italian", "domination", "rainbow2")
            for k in (1, 2, 3) for n in range(2 * k + 1, 13)]
    grid += [("italian", 30, 2), ("domination", 30, 3), ("rainbow2", 40, 1),
             ("rainbow2", 16, 3), ("italian", 40, 3), ("rainbow2", 24, 3),
             ("rainbow2", 40, 3)]
    for kind, n, k in grid:
        opt, seq, explored = solve_cycle(n, k, kind)
        digest = hashlib.sha256(seq).hexdigest()[:16]
        print(f'    ("{kind}", {n}, {k}, {opt}, "{digest}", {explored}),')
    PY

The witness (the lexicographically smallest optimal labeling) must match
those engines exactly, with and without the bound: `test_pinned` also runs
one pass of the engine's steps with the bound set to zero (`_no_bound`
below) at the optimum, where it must find the pinned witness, and one
below it, where no state may close.

`_transitions` below is the scalar transition rule the engine's numpy
table build replaced, and `_column_reads` the seam positions it reads;
`test_table_rows_match_the_scalar_rule` compares them entry by entry,
and `_op_per_pair` is the per-pair build of the residual maps that one
broadcast per signature replaced.  `_reference_cycle` is the per-seam
engine that one pass over all seams replaced; the reference grid
compares their optima and witnesses on every instance with n <= 10.
`_per_column_cycle` is the engine before the transfer step (commit
51c4f88), which advances every middle column on its own; it is compared
with the engine on every kind, k = 1, 2 and n <= 40, and on n = 97, 200
and 500 where the transfer step runs.  `_recursive_pairs` is the
expansion of a landing path that `_Landing.path` replaced; they are
compared on every path of A^m, m = 2..70.  Every pass reads its leading
opening columns off the family's unpruned opening block;
`test_the_opening_block_changes_no_pass` compares such passes with the
same passes stepping every column, the block emptied.
"""

import hashlib
import random
import tracemalloc
from contextlib import contextmanager
from itertools import product

import numpy as np
import pytest

from gpid import dp
from gpid.errors import BudgetExceeded, InternalError
from gpid.labeling import kind_of

PINNED = [
    ("italian", 3, 1, 3, "eaabdf1df6e204af", 74, 53),
    ("italian", 4, 1, 4, "09b5a07b111a36dc", 240, 163),
    ("italian", 5, 1, 5, "08aafc53a275b184", 561, 213),
    ("italian", 6, 1, 6, "819270ea8f8181b8", 933, 264),
    ("italian", 7, 1, 7, "f0f803bb05465caf", 1317, 290),
    ("italian", 8, 1, 8, "71bf2b11f0393fd5", 1698, 314),
    ("italian", 9, 1, 9, "031dc99072dfb284", 2060, 316),
    ("italian", 10, 1, 10, "eb03930a8ff60d75", 2432, 326),
    ("italian", 11, 1, 11, "e9328a01ba584c2a", 2789, 323),
    ("italian", 12, 1, 12, "0ac1153320ad1aa2", 3156, 332),
    ("italian", 5, 2, 4, "ffee64ddb4a8b5cd", 502, 128),
    ("italian", 6, 2, 6, "d302b185510a24e2", 2542, 1343),
    ("italian", 7, 2, 7, "d583814370073aeb", 5922, 2669),
    ("italian", 8, 2, 7, "2f12bfb1e4453656", 7888, 1044),
    ("italian", 9, 2, 8, "bacadc16c77bf86a", 13933, 1859),
    ("italian", 10, 2, 8, "53e26e33c654a6f5", 16082, 373),
    ("italian", 11, 2, 10, "7a6d5ffdead863df", 29240, 4827),
    ("italian", 12, 2, 11, "6719ce7eb6784b6b", 37374, 7075),
    ("italian", 7, 3, 7, "5d0379efdc764bb1", 9315, 4765),
    ("italian", 8, 3, 7, "04c13fb63b1100b1", 14185, 2122),
    ("italian", 9, 3, 8, "8a1acf4253109f15", 36833, 3848),
    ("italian", 10, 3, 8, "53e26e33c654a6f5", 49950, 895),
    ("italian", 11, 3, 10, "9ae82edfcb0c1326", 157217, 16006),
    ("italian", 12, 3, 11, "1f2c53eff4143693", 268618, 29327),
    ("domination", 3, 1, 2, "7c70b6b1c612fa54", 26, 29),
    ("domination", 4, 1, 2, "da49d2915281f633", 46, 24),
    ("domination", 5, 1, 3, "fc110e74dc12ce42", 99, 55),
    ("domination", 6, 1, 4, "f253005ab5dea1b1", 160, 93),
    ("domination", 7, 1, 4, "0ac9dbcfcebb42c0", 200, 58),
    ("domination", 8, 1, 4, "1670a6c2664ba135", 234, 25),
    ("domination", 9, 1, 5, "bebfc74a023a9c7b", 295, 55),
    ("domination", 10, 1, 6, "03ece23e65950811", 354, 89),
    ("domination", 11, 1, 6, "241139ad34d11c3c", 393, 55),
    ("domination", 12, 1, 6, "8f73a0235e1fc754", 427, 24),
    ("domination", 5, 2, 3, "b0fd5d617e67c0fe", 149, 119),
    ("domination", 6, 2, 4, "91507b44ea4b2747", 350, 351),
    ("domination", 7, 2, 5, "67c2e4e40581433f", 657, 779),
    ("domination", 8, 2, 5, "eb985816fba484a0", 863, 469),
    ("domination", 9, 2, 6, "ab113f978c688c5a", 1285, 754),
    ("domination", 10, 2, 6, "599e425ad2b20c2c", 1528, 385),
    ("domination", 11, 2, 7, "656fd26028a6951d", 1992, 672),
    ("domination", 12, 2, 8, "1a29d9873d143bca", 2407, 955),
    ("domination", 7, 3, 5, "f60a683e2a04ab5d", 1165, 1335),
    ("domination", 8, 3, 4, "1670a6c2664ba135", 904, 225),
    ("domination", 9, 3, 5, "cdbb304ec38f0ab6", 2212, 863),
    ("domination", 10, 3, 6, "a359e1c2c6a9033e", 4277, 2380),
    ("domination", 11, 3, 6, "2f0cd9257a97b4e9", 5286, 1269),
    ("domination", 12, 3, 6, "8f73a0235e1fc754", 6124, 473),
    ("rainbow2", 3, 1, 3, "65d461de366094ef", 192, 138),
    ("rainbow2", 4, 1, 4, "96af552e69286a26", 778, 514),
    ("rainbow2", 5, 1, 5, "e31439467087f2e3", 1886, 735),
    ("rainbow2", 6, 1, 6, "f30a9481561ad1f8", 3159, 867),
    ("rainbow2", 7, 1, 7, "d414a502960b1856", 4483, 974),
    ("rainbow2", 8, 1, 8, "8eef0ce2fd7394ec", 5750, 1053),
    ("rainbow2", 9, 1, 9, "1b4b5e6bf90ea692", 6980, 1066),
    ("rainbow2", 10, 1, 10, "81525922c77f5949", 8238, 1089),
    ("rainbow2", 11, 1, 11, "3f9eebc251dda0e6", 9457, 1095),
    ("rainbow2", 12, 1, 12, "4daba9d72028a8e0", 10694, 1113),
    ("rainbow2", 5, 2, 5, "8d928c70f2a6c27a", 4176, 2338),
    ("rainbow2", 6, 2, 6, "3af766bfc6607799", 13537, 5972),
    ("rainbow2", 7, 2, 7, "8d9c52491b7b7e72", 35365, 14173),
    ("rainbow2", 8, 2, 8, "31f15b4c389f9fc4", 70420, 27919),
    ("rainbow2", 9, 2, 8, "c38eba09b6562e8c", 88256, 9237),
    ("rainbow2", 10, 2, 8, "ec823fb9752466c4", 100822, 1291),
    ("rainbow2", 11, 2, 10, "99b7006a76a15880", 187377, 27464),
    ("rainbow2", 12, 2, 11, "d67a55224512175b", 238435, 42490),
    ("rainbow2", 7, 3, 7, "4bed496a6e51eb5d", 70254, 30707),
    ("rainbow2", 8, 3, 8, "f5e2c8b2f093aa2c", 229090, 73592),
    ("rainbow2", 9, 3, 9, "7852b8282ce4df1d", 614186, 156490),
    ("rainbow2", 10, 3, 10, "6ec96c929b0f48b3", 1380663, 337786),
    ("rainbow2", 11, 3, 11, "b6dc7bbeb7cf64ad", 2591132, 637720),
    ("rainbow2", 12, 3, 12, "e0fed66d6a8b584d", 4197433, 1110117),
    ("italian", 30, 2, 24, "913e798e7b597ca7", 158851, 951),
    ("domination", 30, 3, 16, "3475a96d5e243540", 56810, 13369),
    ("rainbow2", 40, 1, 40, "fb469362e38e7a7c", 44994, 1113),]

LONG_PINNED = [
    ("rainbow2", 16, 3, 14, "cedd790ca682cbd5", 131241),
    ("italian", 40, 3, 32, "6af80f8709d34aed", 2195),
    ("rainbow2", 24, 3, 22, "6f6251fe1d80b8bd", 2314916),
    ("rainbow2", 40, 3, 36, "a008aee49f270df4", 4363553),
]


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


def _column_reads(c, n, k):
    """The seam positions `_transitions` reads at column c (0: a0, 1 + j:
    bs[j]): a0 at column 0 and at the last column, bs[c] at columns
    0..k-1, bs[c + k - n] in the closing window."""
    reads = (0,) if c == 0 or c == n - 1 else ()
    if c < k:
        reads += (1 + c,)
    if c >= n - k:
        reads += (1 + c + k - n,)
    return reads


def _digest(result):
    opt, seq, explored = result
    return opt, hashlib.sha256(seq).hexdigest()[:16], explored


def _no_bound(tables, steps):
    """The entry costs of the steps with the cost-to-go bound set to zero on
    every window; the last slot, read by an illegal pair, stays _INF."""
    h = np.zeros(tables.windows + 1, np.int32)
    h[-1] = dp._INF
    return [step.cost(h) for step in steps]


@pytest.mark.parametrize(
    "kind,n,k,optimum,digest,unbounded,explored", PINNED,
    ids=["-".join(map(str, row[:6])) for row in PINNED],
)
def test_pinned(kind, n, k, optimum, digest, unbounded, explored):
    assert _digest(dp.solve_cycle(n, k, kind)) == (optimum, digest, explored)
    # the bound prunes states and changes nothing else: without it, one pass
    # at the optimum finds the same witness and one below it closes nothing
    tables = dp._tables(kind, k)
    steps = dp._plan(tables, n)[0]
    free = _no_bound(tables, steps)
    (weight, seq), _ = dp._sweep(tables, steps, free, optimum)
    assert (weight, hashlib.sha256(seq).hexdigest()[:16]) == (optimum, digest)
    found, _ = dp._sweep(tables, steps, free, optimum - 1)
    assert found is None


@pytest.mark.parametrize("kind,n,k,optimum,digest,explored", LONG_PINNED,
                         ids=["-".join(map(str, row[:5])) for row in LONG_PINNED])
def test_pinned_long(kind, n, k, optimum, digest, explored):
    assert _digest(dp.solve_cycle(n, k, kind)) == (optimum, digest, explored)


SEEDED = [row[:5] for row in PINNED] + [row[:5] for row in LONG_PINNED[:2]]


@pytest.mark.parametrize("kind,n,k,optimum,digest", SEEDED,
                         ids=["-".join(map(str, row[:3])) for row in SEEDED])
def test_the_first_limit_changes_only_the_work(kind, n, k, optimum, digest, monkeypatch):
    # a pass at or above the optimum returns the optimum and the same
    # witness, one below it closes nothing; started at the optimum the
    # deepening makes a single pass (first = 0 is solve_cycle(n, k, kind),
    # which test_pinned and test_pinned_long pin)
    passes = []
    sweep = dp._sweep

    def counted(tables, steps, costs, prune, *offsets):
        passes.append(prune)
        return sweep(tables, steps, costs, prune, *offsets)

    monkeypatch.setattr(dp, "_sweep", counted)
    for first in (optimum - 1, optimum, optimum + 1, optimum + 2):
        passes.clear()
        assert _digest(dp.solve_cycle(n, k, kind, first))[:2] == (optimum, digest), first
        if first == optimum:
            assert passes == [optimum]


# The engine before all seams shared one pass (commit db503db): one pass per
# seam labeling, each pruned by the best weight of the seams before it.
_REFERENCE_PAD = 16


def _reference_winners(ck, cw, illegal, span, key_bound):
    m, width = ck.shape
    size = m * width
    shift = (size - 1).bit_length()
    if 3 * (key_bound + 1) * span << shift >= dp._PACK_LIMIT:
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


def _reference_cycle(n, k, kind, state_cap=dp.DP_STATE_CAP):
    labels = kind_of(kind).labels  # 0..L-1, so lo * L + li encodes a pair
    nl = len(labels)
    tables = dp._tables(kind, k)
    tabs, bound = _column_plan(tables, n)
    R = tables.R
    width = tables.width
    prune = 2 * n  # the all-ones labeling is always valid at this weight
    best_w = None
    best_seq = b""
    explored = 0
    for seam in product(labels, repeat=k + 1):
        # the layer's m states, in prefix order, then padding copies of state 0
        m = 1
        key = np.zeros(_REFERENCE_PAD, tables.keys)
        w = np.full(_REFERENCE_PAD, prune + 1, np.int32)  # padding: over the bound, no moves
        w[0] = 0
        back = []  # per layer: parent position * width + lo * nl + li
        for c, tab in enumerate(tabs):
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
                for pos in _column_reads(c, n, k):
                    v = v * nl + seam[pos]
                illegal = (tab.mask[rows] & (1 << v)) == 0
            w2 = w[:, None] + tables.dw
            illegal |= w2 + bound[c + 1][nw] > prune  # > : ties may still win
            ck = nw.astype(tables.keys)
            ck *= R
            ck += res[:, None] if tab.op is None else tab.op[res]
            del nw, res
            win = _reference_winners(ck, w2, illegal, prune + 1, tables.windows * R)
            del illegal
            m = len(win)
            if m == 0:
                break
            size = -(-m // _REFERENCE_PAD) * _REFERENCE_PAD
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


@pytest.mark.parametrize("kind", ["italian", "domination", "rainbow2"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_one_pass_over_all_seams_matches_the_per_seam_engine(kind, k):
    for n in range(2 * k + 1, 11):
        assert dp.solve_cycle(n, k, kind)[:2] == _reference_cycle(n, k, kind)[:2], n


# The engine before the transfer step (commit 51c4f88): every column is its
# own step, the middle ones included.
def _column_plan(tables, n):
    k = tables.k
    frontier = np.zeros(1, np.int64)  # the empty window
    tabs, fronts = [], []
    reached = np.empty(tables.windows + 1, bool)
    for c in range(n):
        tab = tables.rows_for(dp._column(c, n, k), frontier)
        tabs.append(tab)
        fronts.append(frontier)
        reached[:] = False
        reached[tab.nw[tab.row_of[frontier]]] = True
        frontier = np.flatnonzero(reached[:-1])
    h = np.zeros(tables.windows + 1, np.int32)
    h[-1] = dp._INF
    bound = [h]
    for tab, front in zip(reversed(tabs), reversed(fronts)):
        cost = (h[tab.nw[tab.row_of[front]]] + tables.dw).min(axis=1)
        h = np.full(tables.windows + 1, dp._INF, np.int32)
        h[front] = np.minimum(cost, dp._INF)
        bound.append(h)
    return tabs, bound[::-1]


def _per_column_sweep(tables, tabs, bound, prune):
    k = tables.k
    nl = len(tables.alg.labels)
    width = tables.width
    R = tables.R
    WR = tables.windows * R
    pair = np.arange(width)
    key = np.zeros(1, tables.keys)
    w = np.zeros(1, np.int32)
    back = []  # per layer: parent position * width + lo * nl + li
    for c, tab in enumerate(tabs):
        cost = tables.dw + bound[c + 1][tab.nw]
        writes = pair * WR if c == 0 else pair % nl * WR if c < k else None
        rest = key % WR
        wid, res = np.divmod(rest, R)
        rows = tab.row_of[wid]
        assert rows.min() >= 0
        legal = cost[rows] <= (prune - w)[:, None]
        if tab.seam_bit is not None:
            legal &= (tab.mask[rows] & tab.seam_bit[key // WR][:, None]) != 0
        pos = np.flatnonzero(legal)
        par = pos // width
        j = pos - par * width
        base = key - rest
        if writes is not None:
            base *= nl
        if tab.op is None:
            base += res
        ck = tab.nw[rows[par], j].astype(tables.keys) * R + base[par]
        if tab.op is not None:
            ck += tab.op[res[par], j]
        if writes is not None:
            ck += writes[j]
        cw = w[par] + tables.dw[j]
        if len(ck) == 0:
            return None
        win = dp._winners(ck, cw, prune + 1, tables.seams * WR)
        key, w = ck[win], cw[win]
        back.append(pos[win])
    closed = np.flatnonzero(key % R == 0)
    if len(closed) == 0:
        return None
    pos = int(closed[np.argmin(w[closed])])
    weight = int(w[pos])
    seq = bytearray(2 * len(tabs))
    for c in range(len(tabs) - 1, -1, -1):
        pos, chunk = divmod(int(back[c][pos]), width)
        seq[2 * c], seq[2 * c + 1] = divmod(chunk, nl)
    return weight, bytes(seq)


def _per_column_cycle(n, k, kind):
    tables = dp._tables(kind, k)
    tabs, bound = _column_plan(tables, n)
    for prune in range(int(bound[0][0]), 2 * n + 1):
        found = _per_column_sweep(tables, tabs, bound, prune)
        if found is not None:
            return found
    raise InternalError("dp found no closing state (pruning bug)")


# the (kind, k) whose middle columns the transfer step crosses
GATED = [("domination", 1), ("italian", 1), ("domination", 2), ("rainbow2", 1)]


@pytest.mark.parametrize("kind", ["italian", "domination", "rainbow2"])
@pytest.mark.parametrize("k", [1, 2])
def test_transfer_step_matches_the_per_column_engine(kind, k):
    for n in range(2 * k + 1, 41):
        assert dp.solve_cycle(n, k, kind)[:2] == _per_column_cycle(n, k, kind), n


@pytest.mark.parametrize("kind,k", GATED)
@pytest.mark.parametrize("n", [500, 200, 97])  # m = n - 3k composes several powers
def test_transfer_step_matches_the_per_column_engine_on_long_cycles(kind, k, n):
    assert dp.solve_cycle(n, k, kind)[:2] == _per_column_cycle(n, k, kind)


def _recursive_pairs(power, s, t):
    """The pairs of the paths of `power` from the starts of `s` to those of
    `t`, one row per path: the expansion `_Landing.path` replaced, which
    recursed through every node of the power's product tree (both halves
    of a square at once)."""
    if power.mid is None:
        return power.pair[s, t][:, None]
    u = power.mid[s, t]
    if power.left is power.right:
        both = _recursive_pairs(power.left, np.concatenate((s, u)), np.concatenate((u, t)))
        return np.hstack(np.split(both, 2))
    return np.hstack((_recursive_pairs(power.left, s, u), _recursive_pairs(power.right, u, t)))


@pytest.mark.parametrize("kind,k", GATED)
def test_the_segmented_unwinder_matches_the_recursive_expansion(kind, k):
    tables = dp._Tables(dp.KINDS[kind], k)
    dp._plan(tables, 3 * k + 2)  # builds the middle rows
    transfer = tables.transfer(tables.rows[2 * k, -1, False])
    for m in range(2, 71):
        landing = dp._Landing(transfer, m)
        s, t = np.nonzero(landing.power.w < dp._INF)
        want = _recursive_pairs(landing.power, s, t)
        assert np.array_equal(landing.path(s, t), want), m
        # one path at a time, as the unwinder asks
        for i in range(0, len(s), 97):
            assert np.array_equal(landing.path(int(s[i]), int(t[i])), want[i]), (m, i)


def _brute_paths(tables, start, m):
    """{window: (weight, pairs)} of the lightest, then lexicographically
    first, path of m middle pairs from window `start`, one middle column at
    a time over whole paths: such a path's first m - 1 pairs are the
    lightest, then lexicographically first, path to the window they reach
    (enumerating every path is out of reach: 2-rainbow k = 1 has 3.5e9 of
    7 pairs)."""
    tab = tables.rows[(2 * tables.k, -1, False)]
    best = {start: (0, ())}
    for _ in range(m):
        step = {}
        for window, (weight, pairs) in best.items():
            for j, new in enumerate(tab.nw[tab.row_of[window]].tolist()):
                path = (weight + int(tables.dw[j]), pairs + (j,))
                if new >= 0 and (new not in step or path < step[new]):
                    step[new] = path
        best = step
    return best


@pytest.mark.parametrize("kind,k", GATED + [("domination", 3)])  # F = 52: not gated
def test_transfer_table_rows_match_brute_force(kind, k):
    tables = dp._Tables(dp.KINDS[kind], k)
    dp._plan(tables, 3 * k + 2)  # builds the middle rows
    transfer = tables.transfer(tables.rows[2 * k, -1, False])
    nl = len(tables.alg.labels)
    for m in range(1, 8):  # odd m > 1 multiplies several powers
        landing = dp._Landing(transfer, m)
        ranks = []
        for s, start in enumerate(transfer.starts.tolist()):
            row = [i for i in range(landing.nw.shape[1]) if landing.nw[s, i] >= 0]
            got = {}
            for i in row:
                rank = int(landing.rank[s, i])
                labels = landing.labels(rank)
                pairs = tuple(lo * nl + li for lo, li in zip(labels[::2], labels[1::2]))
                got[int(landing.nw[s, i])] = (int(landing.w[s, i]), pairs)
                ranks.append(rank)
            assert got == _brute_paths(tables, start, m), (m, start)
            # a row lists its windows in the order of their paths
            assert [got[int(landing.nw[s, i])][1] for i in row] == sorted(got[t][1] for t in got)
        # ranked by path, row after row
        assert ranks == list(range(landing.span)), m


# |frontier at column 2k| per (kind, k)
FRONTIER_2K = {
    ("domination", 1): 7, ("domination", 2): 19, ("domination", 3): 52,
    ("italian", 1): 19, ("italian", 2): 85, ("italian", 3): 391,
    ("rainbow2", 1): 35, ("rainbow2", 2): 213, ("rainbow2", 3): 1392,
}


@pytest.mark.parametrize("kind,k", list(FRONTIER_2K))
def test_the_middle_map_takes_the_frontier_at_2k_onto_itself(kind, k):
    # so the rows built for the starts are every row the transfer table reads
    tables = dp._tables(kind, k)
    n = 3 * k + 2  # columns 0..2k-1 have the same signatures for every such n
    frontier = np.zeros(1, np.int64)
    for c in range(2 * k):
        tab = tables.rows_for(dp._column(c, n, k), frontier)
        frontier = dp._distinct(tab.nw[tab.row_of[frontier]], tables.windows)
    assert len(frontier) == FRONTIER_2K[kind, k]
    middle = tables.rows_for((2 * k, -1, False), frontier)
    assert (middle.row_of[frontier] >= 0).all()
    image = dp._distinct(middle.nw[middle.row_of[frontier]], tables.windows)
    assert np.array_equal(image, frontier)


@pytest.mark.parametrize("kind,k", [(kind, k) for kind in ("italian", "domination", "rainbow2")
                                    for k in (1, 2, 3, 4) if (kind, k) != ("rainbow2", 4)])
def test_every_n_meets_a_signature_with_one_frontier(kind, k):
    # the rows of a signature are built for the frontier of the first n that
    # meets it; plans for n = 2k+1..3k+4, ascending and then descending on
    # fresh tables, build the same rows and cover every later frontier
    built = []
    for ns in (range(2 * k + 1, 3 * k + 5), range(3 * k + 4, 2 * k, -1)):
        tables = dp._Tables(dp.KINDS[kind], k)
        for n in ns:
            dp._plan(tables, n)
        built.append({sig: tab.wids.tolist() for sig, tab in tables.rows.items()})
    assert built[0] == built[1]


@pytest.mark.parametrize("kind,k", GATED)
def test_growing_a_transfer_table_builds_no_row(kind, k, monkeypatch):
    dp._tables.cache_clear()
    tables = dp._tables(kind, k)
    dp._plan(tables, 3 * k + 2)  # builds the table, A^1 and A^2
    built = {sig: len(tab.nw) for sig, tab in tables.rows.items()}

    def refuse(*args):
        raise AssertionError("a transfer table step built a row")

    monkeypatch.setattr(dp._Tables, "rows_for", refuse)
    monkeypatch.setattr(dp._Tables, "_build", refuse)
    landing = dp._Landing(tables._transfer, 200)
    assert len(landing.labels(landing.span - 1)) == 2 * 200
    assert len(tables._transfer.powers) <= 8  # A^1 .. A^128: 200 has 8 bits
    assert {sig: len(tab.nw) for sig, tab in tables.rows.items()} == built
    dp._tables.cache_clear()


# the matrix holds F x F (start, window) pairs: 1,225 for 2-rainbow k = 1
# is crossed in one step, 2,704 for domination k = 3 is not
@pytest.mark.parametrize("kind,k,gated", [(kind, k, F * F <= dp._UNPRUNED_LAYER)
                                          for (kind, k), F in FRONTIER_2K.items()])
def test_the_transfer_step_is_gated_by_its_layer_size(kind, k, gated):
    assert gated == ((kind, k) in GATED)
    tables = dp._Tables(dp.KINDS[kind], k)
    n = 3 * k + 6
    plan = dp._plan(tables, n)
    steps = plan.steps
    landings = [step for step in steps if isinstance(step, dp._Landing)]
    assert len(steps) == (3 * k + 1 if gated else n)
    assert len(plan.bounds) == len(plan.offsets) == len(steps) + 1
    assert len(plan.costs) == len(steps)
    assert len(landings) == gated
    for step in landings:  # it crosses the n - 3k middle columns
        assert len(step.labels(0)) == 2 * (n - 3 * k)
    assert (tables._transfer is not None) == gated
    # one middle column is an ordinary column step on either side
    assert not any(isinstance(step, dp._Landing) for step in dp._plan(tables, 3 * k + 1)[0])


def test_transfer_table_results_do_not_depend_on_the_order_of_n():
    # n = 9 after n = 40 composes A^6 from powers cached up to A^32; n = 40
    # after n = 9 squares further from A^4
    dp._tables.cache_clear()
    long_first = [dp.solve_cycle(n, 1, "rainbow2") for n in (40, 9)]
    assert len(dp._tables("rainbow2", 1)._transfer.powers) == 6
    dp._tables.cache_clear()
    short_first = [dp.solve_cycle(n, 1, "rainbow2") for n in (9, 40)]
    assert short_first == long_first[::-1]
    dp._tables.cache_clear()


def test_result_does_not_depend_on_table_warmth():
    # the tables are shared by every n and seam; building them in another
    # order must not change a result
    dp._tables.cache_clear()
    cold = dp.solve_cycle(11, 2, "italian")
    for n in (5, 30, 9):
        dp.solve_cycle(n, 2, "italian")
    assert dp.solve_cycle(11, 2, "italian") == cold


def _refused_at_a_landing_step(monkeypatch, n, k, kind, match):
    """Solve P(n, k) and check that the layer step that refuses it with
    `match` is a landing step."""
    steps = []
    step = dp._step

    def record(tables, tab, *args):
        steps.append(tab)
        return step(tables, tab, *args)

    monkeypatch.setattr(dp, "_step", record)
    with pytest.raises(BudgetExceeded, match=match):
        dp.solve_cycle(n, k, kind)
    assert isinstance(steps[-1], dp._Landing)


def test_state_cap(monkeypatch):
    monkeypatch.setattr(dp, "DP_STATE_CAP", 10)
    with pytest.raises(BudgetExceeded, match="exceeds cap 10"):
        dp.solve_cycle(9, 3, "italian")
    # the first pass keeps 1 and 4 states in columns 0 and 1, then 16
    _refused_at_a_landing_step(monkeypatch, 20, 1, "rainbow2", "exceeds cap 10")


def test_sort_key_overflow_is_refused(monkeypatch):
    monkeypatch.setattr(dp, "_PACK_LIMIT", 1000)
    with pytest.raises(BudgetExceeded, match="int64 sort keys"):
        dp.solve_cycle(9, 2, "italian")
    # packed keys reach 2^25 before the landing step of the second pass, 2^27 there
    monkeypatch.setattr(dp, "_PACK_LIMIT", 2**26)
    _refused_at_a_landing_step(monkeypatch, 20, 1, "rainbow2", "int64 sort keys")


def test_public_shape():
    # perfbench/layers.py reads the 3-tuple and ALGEBRAS[kind].labels
    opt, seq, explored = dp.solve_cycle(7, 2, "rainbow2")
    assert type(opt) is int and type(seq) is bytes and type(explored) is int
    assert len(seq) == 14 and set(seq) <= set(dp.ALGEBRAS["rainbow2"].labels)


def _reference_row(tables, wid, c, n, reads):
    """(nw, mask, residual ops per pair) of window `wid` at column c, from
    the scalar rule, in the layout of `dp._Rows`."""
    k = tables.k
    labels = tables.alg.labels
    L = len(labels)
    pairs = list(zip(tables.pair_label.tolist(), tables.pair_demand.tolist()))
    digits = []
    for _ in range(k + 1):
        wid, digit = divmod(wid, len(pairs))
        digits.insert(0, digit)
    win = sum((pairs[d] for d in digits), ())
    nw = [-1] * L * L
    mask = [0] * L * L
    ops = [None] * L * L
    seam = [0] * (k + 1)
    for v, combo in enumerate(product(labels, repeat=len(reads))):
        for pos, label in zip(reads, combo):
            seam[pos] = label
        for lo, li, new_win, r_ops in _transitions(win, c, n, k, tables.alg, seam[0], seam[1:]):
            j = lo * L + li
            new_id = 0
            for i in range(0, len(new_win), 2):
                new_id = new_id * len(pairs) + pairs.index(new_win[i : i + 2])
            assert nw[j] in (-1, new_id) and ops[j] in (None, r_ops)
            nw[j], ops[j] = new_id, r_ops
            mask[j] |= 1 << v
    return nw, mask, ops


def _reference_op_map(tables, r_ops):
    red = tables.alg.reduce
    base = tables.base
    out = []
    for code in range(tables.R):
        res = [(code // base**j) % base for j in range(tables.k + 1)]
        for slot, op, operand in r_ops:
            res[slot] = red[res[slot]][operand] if op == "r" else operand
        out.append(sum(d * base**j for j, d in enumerate(res)))
    return out


@pytest.mark.parametrize("kind", ["italian", "domination", "rainbow2"])
@pytest.mark.parametrize("k,n_max", [(1, 12), (2, 12), (3, 10)])
def test_table_rows_match_the_scalar_rule(kind, k, n_max):
    # build the rows of every frontier for n <= n_max, then check each row
    # of every signature met against the scalar rule at one of its columns
    dp._tables.cache_clear()
    tables = dp._tables(kind, k)
    column_of = {}
    for n in range(2 * k + 1, n_max + 1):
        dp._plan(tables, n)
        for c in range(n):
            column_of[dp._column(c, n, k)] = (c, n)
    assert set(tables.rows) == set(column_of)
    checked = 0
    for sig, tab in tables.rows.items():
        c, n = column_of[sig]
        reads = _column_reads(c, n, k)
        assert dp._reads(sig, k) == reads, sig
        maps = {}
        for wid in np.flatnonzero(tab.row_of >= 0).tolist():
            row = tab.row_of[wid]
            nw, mask, ops = _reference_row(tables, wid, c, n, reads)
            assert tab.nw[row].tolist() == nw, (sig, wid)
            if tab.mask is None:
                assert all(m in (0, 1) for m in mask), (sig, wid)
            else:
                assert tab.mask[row].tolist() == mask, (sig, wid)
            for j, r_ops in enumerate(ops):
                if r_ops is not None:
                    assert maps.setdefault(j, r_ops) == r_ops, (sig, wid)
            checked += 1
        for j, r_ops in maps.items():
            if tab.op is None:
                assert r_ops == (), sig
            else:
                assert tab.op[:, j].tolist() == _reference_op_map(tables, r_ops), (sig, j)
    assert checked == sum(int((tab.row_of >= 0).sum()) for tab in tables.rows.values())
    dp._tables.cache_clear()


def _scalar_residual_ops(sig, k, alg, lo, li):
    """The residual update of pair (lo, li) under `sig`, as (slot, new
    demand indexed by old demand) steps, as the engine stated it per pair."""
    cc, late, last = sig
    red = alg.reduce
    by_lo = tuple(row[lo] for row in red)
    by_li = tuple(row[li] for row in red)
    ops = []
    if k <= cc < 2 * k:
        ops.append((1 + cc - k, by_li))
    if cc == 1:
        ops.append((0, by_lo))
    if late >= 0:
        ops.append((1 + late, by_li))
        if last:
            ops.append((0, by_lo))
    if li == 0 and cc < k:
        ops.append((1 + cc, (red[alg.need][lo],) * len(red)))
    if lo == 0 and cc == 0:
        ops.append((0, (red[alg.need][li],) * len(red)))
    return ops


def _op_per_pair(tables, sig):
    """The residual map of `sig` as it was built before the broadcast: one
    pass over all residual codes per label pair."""
    codes = np.arange(tables.R, dtype=np.int32)
    columns = []
    for lo, li in product(tables.alg.labels, repeat=2):
        out = codes.copy()
        for slot, demand in _scalar_residual_ops(sig, tables.k, tables.alg, lo, li):
            unit = tables.base**slot
            d = (codes // unit) % tables.base
            out += (np.array(demand, np.int32)[d] - d) * unit
        columns.append(out)
    return np.stack(columns, 1)


@pytest.mark.parametrize("kind", ["italian", "domination", "rainbow2"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_residual_map_matches_the_per_pair_build(kind, k):
    # n = 2k+1..3k+2 meets every signature of (kind, k): those of the
    # dp-sweep benchmark list and more
    dp._tables.cache_clear()
    tables = dp._tables(kind, k)
    for n in range(2 * k + 1, 3 * k + 3):
        dp._plan(tables, n)
    with_op = [sig for sig, tab in tables.rows.items() if tab.op is not None]
    assert len(with_op) >= 2 * k
    for sig in with_op:
        op = tables.rows[sig].op
        assert op.dtype == np.int32 and np.array_equal(op, _op_per_pair(tables, sig)), sig
    dp._tables.cache_clear()


def _illegal(cost):
    """Where an entry cost is illegal: it holds `_ILLEGAL` of its dtype."""
    return cost == dp._ILLEGAL[cost.dtype]


@pytest.mark.parametrize("kind,n,k,optimum", [row[:4] for row in PINNED])
def test_cost_to_go_bounds_the_optimum(kind, n, k, optimum):
    tables = dp._tables(kind, k)
    plan = dp._plan(tables, n)
    assert len(plan.bounds) == len(plan.offsets) == len(plan.steps) + 1
    assert not plan.bounds[-1][:-1].any() and plan.offsets[-1] == 0
    assert 0 <= plan.bounds[0][0] + plan.offsets[0] <= optimum
    # the entry costs every pass reads are those of the bound after each
    # step, in that bound's offset: illegal exactly where it is _INF
    for i, (step, cost) in enumerate(zip(plan.steps, plan.costs)):
        want = step.w + plan.bounds[i + 1][step.nw]
        illegal = want >= dp._INF
        assert np.array_equal(_illegal(cost), illegal), i
        assert np.array_equal(cost[~illegal], want[~illegal]), i


@pytest.mark.parametrize("n,dtype", [(16383, np.int16), (16384, np.int32)])
def test_entry_costs_hold_the_cap_of_the_largest_limit(n, dtype):
    # a pass's limit goes up to 2n, which `dtype` is the narrowest to hold
    # (with 2n + 1 above it); int16 entry costs keep an illegal entry at
    # 32767, so `_step` caps the room at 32766, and one step at limit 2n
    # from every window of its frontier at weight 0 keeps no illegal entry
    assert np.iinfo(dtype).max >= 2 * n + 1 and (dtype is np.int16 or 2 * n + 1 > 2**15 - 1)
    cases = [("domination", 1, -(-n // 2))]
    if dtype is np.int32:
        cases.append(("italian", 2, 13108))  # 4n/5 rounded up, the paper's P(n,2) value
    for kind, k, optimum in cases:
        tables = dp._tables(kind, k)
        plan = dp._plan(tables, n)
        assert any(cost.dtype == np.int16 and _illegal(cost).any() for cost in plan.costs)
        # the room is widest at the least offset a step's arrays take
        least = {}
        for i, (step, cost) in enumerate(zip(plan.steps, plan.costs)):
            key = (id(step), id(cost))
            if key not in least or plan.offsets[i + 1] < least[key][2]:
                least[key] = (step, cost, plan.offsets[i + 1])
        for step, cost, offset in least.values():
            key = step.wids.astype(tables.keys) * tables.R  # seam code 0, no residual
            layer = dp._step(tables, step, cost, offset, key, np.zeros(len(key), np.int32), 2 * n)
            if layer is not None:
                par, rank = np.divmod(layer[2], step.span)
                rows = step.row_of[step.wids[par]]
                entry = rank if isinstance(step, dp._Rows) else rank - step.offset[rows]
                assert not _illegal(cost[rows, entry]).any()
                assert (step.nw[rows, entry] >= 0).all()
        assert dp.solve_cycle(n, k, kind)[0] == optimum


# The per-n backward walk that the family plan replaced, kept as its
# reference: run over all the steps of one n, it holds one bound vector and
# one entry-cost array per step.
def _cost_to_go(tables, steps, top):
    """bound[i][w]: the least weight of the columns of steps i.. from
    window w under any seam, residuals ignored (a lower bound on every
    completion); _INF off the windows of step i and in the last slot, which
    an illegal pair (nw = -1) reads.  The last bound is zero on every window.

    costs[i]: the weight of each entry of step i plus the bound of its new
    window, over all the step's rows, capped at top + 1, where `top` is the
    largest limit a pass takes (so an illegal entry costs top + 1).  It
    depends on the plan only, so every pass reads it as it is; int16 where
    the cap allows, which halves what the plan holds.
    """
    h = np.zeros(tables.windows + 1, np.int32)
    h[-1] = dp._INF
    bound = [h]
    costs = []
    narrow = np.int16 if top < 2**15 - 1 else np.int32
    for step in reversed(steps):
        cost = step.cost(h)
        costs.append(np.minimum(cost, top + 1).astype(narrow))
        h = np.full(tables.windows + 1, dp._INF, np.int32)
        h[step.wids] = np.minimum(cost.min(axis=1), dp._INF)
        bound.append(h)
    return bound[::-1], costs[::-1]


def _check_family_plan(tables, n):
    """The plan of P(n, k) read off the family's shared arrays equals the
    per-n walk: every bound and entry cost plus its offset, _INF (the
    reference's cap at top = _INF - 1) at the same entries."""
    plan = dp._plan(tables, n)
    bound, costs = _cost_to_go(tables, plan.steps, dp._INF - 1)
    for i, (h, offset) in enumerate(zip(plan.bounds, plan.offsets)):
        got = np.where(h >= dp._INF, dp._INF, h.astype(np.int64) + offset)
        assert np.array_equal(got, bound[i]), (n, i)
    for i, cost in enumerate(plan.costs):
        got = np.where(_illegal(cost), dp._INF, cost.astype(np.int64) + plan.offsets[i + 1])
        assert np.array_equal(got, costs[i]), (n, i)


# Per (kind, k): the last n of the reference grid and sha256[:16] of the
# lines "n optimum digest explored" of n = 2k+1.. ascending, as the engine
# solved them with one plan per n, before the family plan.
FAMILY_GRID = {
    ("italian", 1): (89, "7bf76a227f4d8c0e"), ("italian", 2): (89, "c4a31bbe37f23851"),
    ("italian", 3): (89, "79e0dfde4679cd40"), ("domination", 1): (89, "1b1cb96603ca0be1"),
    ("domination", 2): (89, "5e9bc4051c2dd38b"), ("domination", 3): (89, "3ec6d467da16bceb"),
    ("rainbow2", 1): (89, "8afef9f67078743c"), ("rainbow2", 2): (89, "15d913cff3595ed3"),
    ("rainbow2", 3): (25, "35aacc02bf05e0dc"),
}


@pytest.mark.parametrize("kind,k", list(FAMILY_GRID))
def test_the_family_plan_matches_the_per_n_walk(kind, k):
    # every n of the grid in a shuffled order on one table, so each plan
    # reads a suffix grown by other n, past its period where n is large
    top, want = FAMILY_GRID[kind, k]
    ns = list(range(2 * k + 1, top + 1))
    random.Random(f"{kind}-{k}").shuffle(ns)
    dp._tables.cache_clear()
    tables = dp._tables(kind, k)
    lines = {}
    for n in ns:
        lines[n] = "{} {} {} {}\n".format(n, *_digest(dp.solve_cycle(n, k, kind)))
        _check_family_plan(tables, n)
    dp._tables.cache_clear()
    text = "".join(lines[n] for n in sorted(lines))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == want


# (T, p, λ) of the suffix of each (kind, k): the bound T steps from the end
# is the first that recurs, p steps later and λ higher
PERIODS = {
    ("italian", 1): (5, 1, 1), ("italian", 2): (8, 5, 4), ("italian", 3): (28, 5, 4),
    ("domination", 1): (4, 2, 1), ("domination", 2): (3, 5, 3), ("domination", 3): (16, 2, 1),
    ("rainbow2", 1): (5, 1, 1), ("rainbow2", 2): (9, 5, 4), ("rainbow2", 3): (13, 8, 7),
}


@pytest.mark.parametrize("kind,k", list(PERIODS))
def test_every_column_family_finds_its_period(kind, k):
    T, p, lam = PERIODS[kind, k]
    tables = dp._Tables(dp.KINDS[kind], k)
    dp._plan(tables, 3 * k + 1)  # builds the middle rows and the suffix
    suffix = tables._suffix
    suffix.reach(T + 3 * p, tables.rows[2 * k, -1, False])
    bounds, costs, offsets = suffix.read(T + 3 * p)
    assert suffix.period == (T, p, lam)
    assert len(suffix.bounds) == len(suffix.costs) == T + p  # it grows no further
    # read off the stored ones: the same arrays every p steps, λ higher
    ends = len(offsets) - 1  # offsets[ends - i]: i steps from the end
    for i in range(T, T + 2 * p):
        assert bounds[ends - i - p] is bounds[ends - i]
        assert costs[ends - i - p - 1] is costs[ends - i - 1]
        assert offsets[ends - i - p] == offsets[ends - i] + lam
    assert suffix.entry(10**9)[0] < T + p


def _memo_arrays(tables):
    """The arrays a family holds past its rows: each step's frontiers after
    it, the suffix's bounds and entry costs, and its openings'."""
    suffix = tables._suffix
    return (sum(len(tab._after) for tab in tables.rows.values())
            + len(suffix.bounds) + len(suffix.costs)
            + sum(len(bounds) + len(costs) for bounds, costs, _ in suffix.openings.values()))


def test_the_family_memo_is_bounded():
    # Italian k = 3 finds its period (T + p = 33) before n = 200, and the
    # plans of n = 200..204 read every stored entry the openings repeat
    # with; n = 2000..2004 read them and store nothing more
    dp._tables.cache_clear()
    tables = dp._tables("italian", 3)
    assert dp.solve_cycle(200, 3, "italian")[0] == 160
    for n in range(201, 205):
        dp._plan(tables, n)
    held = _memo_arrays(tables)
    assert tables._suffix.period is not None and len(tables._suffix.openings) == 5
    assert dp.solve_cycle(2000, 3, "italian")[0] == 1600
    for n in range(2001, 2005):
        dp._plan(tables, n)
    assert _memo_arrays(tables) == held
    dp._tables.cache_clear()


def test_a_long_cycle_plans_in_bounded_memory():
    # the per-n plan held a bound and entry costs per column: 25.8 MB here
    dp._tables.cache_clear()
    tracemalloc.start()
    try:
        assert dp.solve_cycle(2000, 3, "italian")[0] == 1600
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        dp._tables.cache_clear()
    assert peak < 8 * 2**20, peak


def _final_entry(tables, plan, limit):
    """(row, entry) of the last step that the witness of a pass at `limit`
    ends with: its weight plus that entry's cost is the limit exactly."""
    layers = []
    step = dp._step

    def record(*args):
        layer = step(*args)
        layers.append(layer)
        return layer

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dp, "_step", record)
        dp._sweep(tables, plan.steps, plan.costs, limit, plan.offsets[1:])
    key, w, back = layers[-1]
    closed = np.flatnonzero(key % tables.R == 0)
    pos = int(closed[np.argmin(w[closed])])
    par, j = divmod(int(back[pos]), plan.steps[-1].span)
    wid = int(layers[-2][0][par]) % (tables.windows * tables.R) // tables.R
    return int(plan.steps[-1].row_of[wid]), j


@pytest.mark.parametrize("fault", ["period", "entry"])
def test_a_wrong_suffix_fails_the_reference_and_the_pinned_row(fault):
    # negative controls: λ one higher, or the entry cost that the witness of
    # Italian P(40,3) ends with one higher in the family's arrays (the last
    # step's entry costs, shared by every n); P(40,3) reads past the period
    kind, n, k, optimum, digest, explored = LONG_PINNED[1]
    dp._tables.cache_clear()
    try:
        tables = dp._tables(kind, k)
        plan = dp._plan(tables, n)
        suffix = tables._suffix
        assert suffix.period is not None and len(plan.steps) - 2 * k > len(suffix.bounds) - 1
        if fault == "period":
            T, p, lam = suffix.period
            suffix.period = (T, p, lam + 1)
        else:
            row, j = _final_entry(tables, plan, optimum)
            assert suffix.costs[0][row, j] + plan.offsets[-1] == plan.steps[-1].w[row, j]
            suffix.costs[0][row, j] += 1
        with pytest.raises(AssertionError):
            _check_family_plan(tables, n)
        with pytest.raises(AssertionError):
            test_pinned_long(kind, n, k, optimum, digest, explored)
    finally:
        dp._tables.cache_clear()


def test_a_window_off_the_frontier_is_an_internal_error(monkeypatch):
    # rows built for the first frontier window only: the forward walk meets
    # a window with no row, which the search would otherwise avoid (its
    # cost-to-go stays _INF) and so return a heavier labeling
    dp._tables.cache_clear()
    build = dp._Tables.rows_for
    monkeypatch.setattr(dp._Tables, "rows_for",
                        lambda self, sig, wids: build(self, sig, wids[:1]))
    with pytest.raises(InternalError, match="off the frontier"):
        dp.solve_cycle(7, 2, "italian")
    with pytest.raises(InternalError, match="off the frontier"):
        dp.solve_cycle(10, 1, "domination")
    dp._tables.cache_clear()


def test_a_landing_state_off_the_table_is_an_internal_error():
    # a state whose window is not a start of the transfer table
    dp._tables.cache_clear()
    tables = dp._tables("domination", 1)
    plan = dp._plan(tables, 10)
    landing = next(step for step in plan.steps if isinstance(step, dp._Landing))
    landing.row_of = np.full_like(landing.row_of, -1)
    with pytest.raises(InternalError, match="off the frontier"):
        dp._sweep(tables, plan.steps, plan.costs, 2 * 10, plan.offsets[1:])
    dp._tables.cache_clear()


@pytest.mark.parametrize("kind", ["italian", "domination", "rainbow2"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_the_opening_rows_carry_the_seam_digits_they_write(kind, k):
    # columns 0..k-1 write the seam labels: (a0, bs[0]) = (lo, li) at column
    # 0, bs[c] = li at column c; no other step writes any
    tables = dp._tables(kind, k)
    L = len(tables.alg.labels)
    pair = np.arange(L * L)
    for n in range(2 * k + 1, 3 * k + 3):
        steps = dp._plan(tables, n)[0]
        sig_of = {id(tab): sig for sig, tab in tables.rows.items()}
        writing = []
        for step in steps:
            sig = sig_of.get(id(step))  # None: a landing step
            if sig is None or sig[0] >= k:
                assert step.writes is None, (n, sig)
                continue
            writing.append(sig[0])
            digits = pair if sig[0] == 0 else pair % L
            np.testing.assert_array_equal(step.writes, digits * tables.windows * tables.R)
        assert writing == list(range(k)), n


@pytest.mark.parametrize("kind,optimum", [("italian", 8), ("domination", 6), ("rainbow2", 8)])
def test_a_layer_holds_exactly_its_states(kind, optimum, monkeypatch):
    # one pass at the optimum over P(9,2): each layer `_step` makes has keys
    # and weights as long as its back-pointers, one per state kept; the
    # steps of the opening block make none, and with the block emptied the
    # pass steps every column and counts the same states
    tables = dp._Tables(dp.KINDS[kind], 2)
    plan = dp._plan(tables, 9)
    used = dp._leading(tables.opening(), plan.steps)
    assert used == len(tables.opening()) > 0
    layers = []
    step = dp._step

    def record(*args):
        layer = step(*args)
        layers.append(layer)
        return layer

    def one_pass():
        layers.clear()
        (weight, _), explored = dp._sweep(tables, plan.steps, plan.costs, optimum,
                                          plan.offsets[1:])
        assert weight == optimum
        for key, w, back in layers:
            assert len(key) == len(w) == len(back)
        return explored

    monkeypatch.setattr(dp, "_step", record)
    explored = one_pass()
    assert len(layers) == len(plan.steps) - used
    monkeypatch.setattr(dp._Tables, "opening", lambda self: ())
    assert one_pass() == explored
    assert len(layers) == len(plan.steps)
    assert explored == sum(len(back) for _, _, back in layers)


# Per (kind, k): the states of each layer of the family's opening block, the
# unpruned layers of its leading opening columns (`dp._open`)
OPENING_BLOCK = {
    ("domination", 1): (4, 16), ("domination", 2): (4, 16, 51, 126),
    ("domination", 3): (4, 16, 51, 153, 370, 836),
    ("italian", 1): (9, 81), ("italian", 2): (9, 81, 468, 1804), ("italian", 3): (9, 81, 468),
    ("rainbow2", 1): (16, 256), ("rainbow2", 2): (16, 256), ("rainbow2", 3): (16, 256),
}


def _block_ns(k):
    """The cycles the opening block is checked on: n = 2k+1 .. 3k+6, whose
    closing columns start inside the block where n < 3k, and one longer,
    which the landing families cross in one landing step."""
    return [*range(2 * k + 1, 3 * k + 7), 3 * k + 20]


@contextmanager
def _without_block():
    """A context in which every pass steps every column."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dp._Tables, "opening", lambda self: ())
        yield


def _block_mismatches(kind, k, ns, free, above=2):
    """(n, costs, limit) of each pass over P(n, k) whose (found, explored)
    differ with the opening block and with it emptied, at the limits from
    one below the optimum to `above` above it, with the plan's entry costs
    or, where `free`, with the bound set to zero (`_no_bound`)."""
    tables = dp._tables(kind, k)
    out = []
    for n in ns:
        plan = dp._plan(tables, n)
        with _without_block():
            optimum = dp.solve_cycle(n, k, kind)[0]
        if free:
            costs, offsets = _no_bound(tables, plan.steps), None
        else:
            costs, offsets = plan.costs, plan.offsets[1:]
        for limit in range(optimum - 1, optimum + above + 1):
            got = dp._sweep(tables, plan.steps, costs, limit, offsets)
            with _without_block():
                want = dp._sweep(tables, plan.steps, costs, limit, offsets)
            if got != want:
                out.append((n, "free" if free else "plan", limit))
    return out


@pytest.mark.parametrize("kind,k", list(OPENING_BLOCK))
def test_the_opening_block_changes_no_pass(kind, k):
    # optimum, witness and states kept of every pass, above and below the
    # optimum, are those of stepping every column: with the plan's entry
    # costs on every n of _block_ns, without the bound where n < 3k + 3.
    # The passes of 2-rainbow k = 3 above the optimum keep millions of
    # states (2.3M at P(12,3), optimum + 1), and more without the bound:
    # there they run on the three shortest cycles, and without the bound
    # on the shortest
    ns = _block_ns(k)
    dp._tables.cache_clear()
    try:
        if (kind, k) == ("rainbow2", 3):
            assert _block_mismatches(kind, k, ns[:3], free=False) == []
            assert _block_mismatches(kind, k, ns[3:], free=False, above=0) == []
            assert _block_mismatches(kind, k, ns[:1], free=True) == []
        else:
            assert _block_mismatches(kind, k, ns, free=False) == []
            assert _block_mismatches(kind, k, ns[:k + 2], free=True) == []
    finally:
        dp._tables.cache_clear()


def _witness_positions(tables, plan, limit):
    """The position of the witness of a pass at `limit` in each layer the
    pass makes, first layer first, read off the back-pointers it unwinds."""
    chain = []
    unwind = dp._unwind

    def record(steps, back, pos):
        chain.append(pos)
        for tab, b in zip(reversed(steps), reversed(back)):
            chain.append(int(b[chain[-1]]) // tab.span)
        return unwind(steps, back, pos)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dp, "_unwind", record)
        assert dp._sweep(tables, plan.steps, plan.costs, limit, plan.offsets[1:])[0]
    return chain[-2::-1]


@pytest.mark.parametrize("fault", ["weight", "back"])
def test_a_wrong_opening_block_fails_the_equivalence_and_the_pinned_row(fault):
    # negative controls on domination P(12,3), which reads all six block
    # layers: the stored weight of the witness's state in the last block
    # layer one higher, or that state's back-pointer swapped with another's
    row = next(row for row in PINNED if row[:3] == ("domination", 12, 3))
    kind, n, k, optimum = row[:4]
    dp._tables.cache_clear()
    try:
        tables = dp._tables(kind, k)
        plan = dp._plan(tables, n)
        block = tables.opening()
        assert dp._leading(block, plan.steps) == len(block) == 6
        pos = _witness_positions(tables, plan, optimum)[len(block) - 1]
        layer = block[-1]
        if fault == "weight":
            layer.w[pos] += 1
        else:
            other = pos - 1 if pos else 1
            layer.back[[pos, other]] = layer.back[[other, pos]]
        assert _block_mismatches(kind, k, [n], free=False)
        assert _block_mismatches(kind, k, [n], free=True)
        with pytest.raises(AssertionError):
            test_pinned(*row)
    finally:
        dp._tables.cache_clear()


def test_an_opening_state_whose_parent_was_dropped_is_an_internal_error():
    # the first block layer's state that a second-layer state comes from,
    # stored far heavier: the pass drops it but keeps its child
    tables = dp._Tables(dp.KINDS["italian"], 2)
    plan = dp._plan(tables, 9)
    first, second = tables.opening()[:2]
    first.pw[second.parent[0]] += 100
    with pytest.raises(InternalError, match="whose parent it dropped"):
        dp._sweep(tables, plan.steps, plan.costs, 8, plan.offsets[1:])


@pytest.mark.parametrize("kind,k", list(OPENING_BLOCK))
def test_the_opening_block_is_unpruned_and_bounded(kind, k):
    # each layer holds every state of its column, at most _UNPRUNED_LAYER;
    # the block stops before column 2k or before the first larger layer,
    # and holds at most 64 KiB of arrays (Italian k = 2: 55 KiB)
    tables = dp._Tables(dp.KINDS[kind], k)
    tracemalloc.start()
    try:
        block = tables.opening()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    sizes = tuple(len(layer.key) for layer in block)
    assert sizes == OPENING_BLOCK[kind, k]
    assert max(sizes) <= dp._UNPRUNED_LAYER
    for c, layer in enumerate(block):
        assert layer.tab is tables.rows[c, -1, False]
        assert len({len(a) for a in layer[1:]}) == 1
    assert sum(a.nbytes for layer in block for a in layer[1:]) < 64 * 2**10
    assert peak < 2**20, peak
    last = block[-1]
    if len(block) < 2 * k:
        tab = tables.rows_for((len(block), -1, False), last.tab.after(last.tab.wids))
        cost = tab.cost(dp._end(tables.windows))
        key = dp._step(tables, tab, cost, 0, last.key, last.w, 4 * (len(block) + 1))[0]
        assert len(key) > dp._UNPRUNED_LAYER


@pytest.mark.parametrize("kind,k", list(OPENING_BLOCK))
def test_a_pass_reads_the_block_up_to_its_first_closing_column(kind, k):
    # a pass over P(n, k) reads min(block layers, n - k) of them, its own
    # opening columns by identity: never a closing column or a landing step
    tables = dp._Tables(dp.KINDS[kind], k)
    block = tables.opening()
    for n in _block_ns(k):
        steps = dp._plan(tables, n).steps
        used = dp._leading(block, steps)
        assert used == min(len(block), n - k), n
        for c, step in enumerate(steps[:used]):
            assert dp._column(c, n, k) == (c, -1, False)
            assert step is tables.rows[c, -1, False]
        assert any(isinstance(step, dp._Landing) for step in steps) == (
            (kind, k) in GATED and n >= 3 * k + 2)
