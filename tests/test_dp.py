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
table build replaced; `test_table_rows_match_the_scalar_rule` compares
them entry by entry.  `_reference_cycle` is the per-seam engine that one
pass over all seams replaced; the reference grid compares their optima
and witnesses on every instance with n <= 10.  `_per_column_cycle` is the
engine before the transfer step (commit 51c4f88), which advances every
middle column on its own; it is compared with the engine on every kind,
k = 1, 2 and n <= 40, and on n = 97 and 200 where the transfer step runs.
"""

import hashlib
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


def _digest(result):
    opt, seq, explored = result
    return opt, hashlib.sha256(seq).hexdigest()[:16], explored


def _no_bound(tables, steps):
    """The cost-to-go bound set to zero on every window; the last slot, read
    by an illegal pair, stays _INF."""
    h = np.zeros(tables.windows + 1, np.int32)
    h[-1] = dp._INF
    return [h] * (len(steps) + 1)


@pytest.mark.parametrize(
    "kind,n,k,optimum,digest,unbounded,explored", PINNED,
    ids=["-".join(map(str, row[:6])) for row in PINNED],
)
def test_pinned(kind, n, k, optimum, digest, unbounded, explored):
    assert _digest(dp.solve_cycle(n, k, kind)) == (optimum, digest, explored)
    # the bound prunes states and changes nothing else: without it, one pass
    # at the optimum finds the same witness and one below it closes nothing
    tables = dp._tables(kind, k)
    steps, _ = dp._plan(tables, n)
    free = _no_bound(tables, steps)
    (weight, seq), _ = dp._sweep(tables, steps, free, optimum, dp.DP_STATE_CAP)
    assert (weight, hashlib.sha256(seq).hexdigest()[:16]) == (optimum, digest)
    found, _ = dp._sweep(tables, steps, free, optimum - 1, dp.DP_STATE_CAP)
    assert found is None


@pytest.mark.parametrize("kind,n,k,optimum,digest,explored", LONG_PINNED,
                         ids=["-".join(map(str, row[:5])) for row in LONG_PINNED])
def test_pinned_long(kind, n, k, optimum, digest, explored):
    assert _digest(dp.solve_cycle(n, k, kind)) == (optimum, digest, explored)


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
    columns = [dp._column(c, n, k) for c in range(n)]
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
        tab = tables.rows_for(*dp._column(c, n, k), frontier)
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
@pytest.mark.parametrize("n", [200, 97])  # the table shrinks back to m = 97 - 3k
def test_transfer_step_matches_the_per_column_engine_on_long_cycles(kind, k, n):
    assert dp.solve_cycle(n, k, kind)[:2] == _per_column_cycle(n, k, kind)


def _brute_paths(tables, start, m):
    """{window: (weight, pairs)} of the lightest, then lexicographically
    first, path of m middle pairs from window `start`, by enumeration."""
    tab = tables.rows[(2 * tables.k, -1, False)]
    best = {}

    def walk(window, weight, pairs):
        if len(pairs) == m:
            if window not in best or weight < best[window][0]:
                best[window] = (weight, pairs)
            return
        row = tab.nw[tab.row_of[window]]
        for j in range(tables.width):  # ascending pairs: paths in lexicographic order
            if row[j] >= 0:
                walk(int(row[j]), weight + int(tables.dw[j]), pairs + (j,))

    walk(start, 0, ())
    return best


@pytest.mark.parametrize("kind,k", GATED)
def test_transfer_table_rows_match_brute_force(kind, k):
    dp._tables.cache_clear()
    tables = dp._tables(kind, k)
    dp.solve_cycle(3 * k + 4, k, kind)  # grows the table to m = 4
    transfer = tables._transfer
    assert len(transfer.back) == 4
    nl = len(tables.alg.labels)
    for m in range(1, 5):
        landing = transfer.landing(m)
        for s, start in enumerate(transfer.starts.tolist()):
            row = [i for i in range(landing.nw.shape[1]) if landing.nw[s, i] >= 0]
            got = {}
            for i in row:
                labels = transfer.path(m, int(landing.rank[s, i]))
                pairs = tuple(lo * nl + li for lo, li in zip(labels[::2], labels[1::2]))
                got[int(landing.nw[s, i])] = (int(landing.w[s, i]), pairs)
            assert got == _brute_paths(tables, start, m), (m, start)
            # a row lists its windows in the order of their paths, ranked
            ranks = [int(landing.rank[s, i]) for i in row]
            assert ranks == sorted(ranks)
            assert [got[int(landing.nw[s, i])][1] for i in row] == sorted(got[t][1] for t in got)
    dp._tables.cache_clear()


@pytest.mark.parametrize("kind,k,gated", [
    ("rainbow2", 1, True),  # 35 x 35 = 1,225 (start, window) pairs a layer
    ("domination", 3, False),  # 52 x 52 = 2,704
])
def test_the_transfer_step_is_gated_by_its_layer_size(kind, k, gated):
    tables = dp._tables(kind, k)
    n = 3 * k + 6
    steps, bound = dp._plan(tables, n)
    landings = [step for step in steps if isinstance(step, dp._Landing)]
    assert len(steps) == (3 * k + 1 if gated else n) and len(bound) == len(steps) + 1
    assert [step.m for step in landings] == ([n - 3 * k] if gated else [])
    assert (tables._transfer is not False) == gated
    # one middle column is an ordinary column step on either side
    assert not any(isinstance(step, dp._Landing) for step in dp._plan(tables, 3 * k + 1)[0])


def test_transfer_table_keeps_only_back_pointers_of_older_layers():
    # n = 9 after n = 40 replays layer 6 from the back-pointers
    dp._tables.cache_clear()
    replayed = [dp.solve_cycle(n, 1, "rainbow2") for n in (40, 9)]
    transfer = dp._tables("rainbow2", 1)._transfer
    assert len(transfer.back) == 37 and len(transfer.key) == len(transfer.back[-1])
    dp._tables.cache_clear()
    assert [dp.solve_cycle(n, 1, "rainbow2") for n in (9, 40)] == replayed[::-1]
    dp._tables.cache_clear()


def test_result_does_not_depend_on_table_warmth():
    # the tables are shared by every n and seam; building them in another
    # order must not change a result
    dp._tables.cache_clear()
    cold = dp.solve_cycle(11, 2, "italian")
    for n in (5, 30, 9):
        dp.solve_cycle(n, 2, "italian")
    assert dp.solve_cycle(11, 2, "italian") == cold


def test_state_cap():
    with pytest.raises(BudgetExceeded):
        dp.solve_cycle(9, 3, "italian", state_cap=10)
    with pytest.raises(BudgetExceeded):  # through the transfer step
        dp.solve_cycle(20, 1, "rainbow2", state_cap=10)


def test_sort_key_overflow_is_refused(monkeypatch):
    monkeypatch.setattr(dp, "_PACK_LIMIT", 1000)
    with pytest.raises(BudgetExceeded, match="int64 sort keys"):
        dp.solve_cycle(9, 2, "italian")
    dp._tables.cache_clear()  # the transfer table is built, and refused, afresh
    with pytest.raises(BudgetExceeded, match="int64 sort keys"):
        dp.solve_cycle(20, 1, "rainbow2")
    dp._tables.cache_clear()


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
        columns = [dp._column(c, n, k) for c in range(n)]
        dp._plan(tables, n)
        for c, (sig, reads) in enumerate(columns):
            column_of[sig] = (c, n, reads)
    assert set(tables.rows) == set(column_of)
    checked = 0
    for sig, tab in tables.rows.items():
        c, n, reads = column_of[sig]
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


@pytest.mark.parametrize("kind,n,k,optimum", [row[:4] for row in PINNED])
def test_cost_to_go_bounds_the_optimum(kind, n, k, optimum):
    tables = dp._tables(kind, k)
    steps, bound = dp._plan(tables, n)
    assert len(bound) == len(steps) + 1 and not bound[-1][:-1].any()
    assert 0 <= bound[0][0] <= optimum


def test_a_window_off_the_frontier_is_an_internal_error(monkeypatch):
    # rows built for the first frontier window only: the column pass (and
    # the transfer table, on domination k = 1) meets a window with no row
    # and must not read another window's row
    dp._tables.cache_clear()
    build = dp._Tables.rows_for
    monkeypatch.setattr(dp._Tables, "rows_for",
                        lambda self, sig, reads, wids: build(self, sig, reads, wids[:1]))
    with pytest.raises(InternalError, match="off the frontier"):
        dp.solve_cycle(7, 2, "italian")
    with pytest.raises(InternalError, match="off the frontier"):
        dp.solve_cycle(10, 1, "domination")
    dp._tables.cache_clear()


def test_a_landing_state_off_the_table_is_an_internal_error():
    # a state whose window is not a start of the transfer table
    dp._tables.cache_clear()
    tables = dp._tables("domination", 1)
    steps, bound = dp._plan(tables, 10)
    landing = next(step for step in steps if isinstance(step, dp._Landing))
    landing.row_of = np.full_like(landing.row_of, -1)
    with pytest.raises(InternalError, match="off the frontier"):
        dp._sweep(tables, steps, bound, 2 * 10, dp.DP_STATE_CAP)
    dp._tables.cache_clear()
