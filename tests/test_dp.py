"""Pinned outputs and reference checks of the cyclic column DP,
`gpid.dp.solve_cycle`.

Each row of PINNED is (kind, n, k, optimum, sha256(witness bytes)[:16],
explored without the bound, explored) for every kind, k = 1..3 and
2k < n <= 12, plus three longer cycles; each row of LONG_PINNED is
(kind, n, k, optimum, digest, explored) for two more.  `explored` counts
the states the engine keeps; "without the bound" is the same count with
the cost-to-go bound set to zero, which prunes only by weight.  The
optimum, digest and bound-free count of PINNED were produced by the
dict-based DP that the table-driven engine replaced (commit 4bf4087), the
optimum and digest of LONG_PINNED by the engine before cost-to-go
pruning (commit 6b90b29); the test ids keep the fields of the earlier
pins.  Regenerate the explored column with

    PYTHONPATH=src python - <<'PY'
    import hashlib
    from gpid.dp import solve_cycle
    grid = [(kind, n, k) for kind in ("italian", "domination", "rainbow2")
            for k in (1, 2, 3) for n in range(2 * k + 1, 13)]
    grid += [("italian", 30, 2), ("domination", 30, 3), ("rainbow2", 40, 1),
             ("rainbow2", 16, 3), ("italian", 40, 3)]
    for kind, n, k in grid:
        opt, seq, explored = solve_cycle(n, k, kind)
        digest = hashlib.sha256(seq).hexdigest()[:16]
        print(f'    ("{kind}", {n}, {k}, {opt}, "{digest}", {explored}),')
    PY

and the bound-free count by running it with `dp._cost_to_go` replaced by
`_no_bound` below.  The witness (the lexicographically smallest optimal
labeling) must match those engines exactly, with and without the bound.

`_transitions` below is the scalar transition rule the engine's numpy
table build replaced; `test_table_rows_match_the_scalar_rule` compares
them entry by entry.
"""

import hashlib
from itertools import product

import numpy as np
import pytest

from gpid import dp
from gpid.errors import BudgetExceeded, InternalError

PINNED = [
    ("italian", 3, 1, 3, "eaabdf1df6e204af", 74, 64),
    ("italian", 4, 1, 4, "09b5a07b111a36dc", 240, 179),
    ("italian", 5, 1, 5, "08aafc53a275b184", 561, 413),
    ("italian", 6, 1, 6, "819270ea8f8181b8", 933, 632),
    ("italian", 7, 1, 7, "f0f803bb05465caf", 1317, 908),
    ("italian", 8, 1, 8, "71bf2b11f0393fd5", 1698, 1196),
    ("italian", 9, 1, 9, "031dc99072dfb284", 2060, 1484),
    ("italian", 10, 1, 10, "eb03930a8ff60d75", 2432, 1784),
    ("italian", 11, 1, 11, "e9328a01ba584c2a", 2789, 2070),
    ("italian", 12, 1, 12, "0ac1153320ad1aa2", 3156, 2372),
    ("italian", 5, 2, 4, "ffee64ddb4a8b5cd", 502, 318),
    ("italian", 6, 2, 6, "d302b185510a24e2", 2542, 1416),
    ("italian", 7, 2, 7, "d583814370073aeb", 5922, 2842),
    ("italian", 8, 2, 7, "2f12bfb1e4453656", 7888, 2827),
    ("italian", 9, 2, 8, "bacadc16c77bf86a", 13933, 4667),
    ("italian", 10, 2, 8, "53e26e33c654a6f5", 16082, 5358),
    ("italian", 11, 2, 10, "7a6d5ffdead863df", 29240, 9353),
    ("italian", 12, 2, 11, "6719ce7eb6784b6b", 37374, 12075),
    ("italian", 7, 3, 7, "5d0379efdc764bb1", 9315, 4774),
    ("italian", 8, 3, 7, "04c13fb63b1100b1", 14185, 4977),
    ("italian", 9, 3, 8, "8a1acf4253109f15", 36833, 9533),
    ("italian", 10, 3, 8, "53e26e33c654a6f5", 49950, 13842),
    ("italian", 11, 3, 10, "9ae82edfcb0c1326", 157217, 31398),
    ("italian", 12, 3, 11, "1f2c53eff4143693", 268618, 50538),
    ("domination", 3, 1, 2, "7c70b6b1c612fa54", 26, 26),
    ("domination", 4, 1, 2, "da49d2915281f633", 46, 35),
    ("domination", 5, 1, 3, "fc110e74dc12ce42", 99, 78),
    ("domination", 6, 1, 4, "f253005ab5dea1b1", 160, 138),
    ("domination", 7, 1, 4, "0ac9dbcfcebb42c0", 200, 146),
    ("domination", 8, 1, 4, "1670a6c2664ba135", 234, 150),
    ("domination", 9, 1, 5, "bebfc74a023a9c7b", 295, 214),
    ("domination", 10, 1, 6, "03ece23e65950811", 354, 297),
    ("domination", 11, 1, 6, "241139ad34d11c3c", 393, 282),
    ("domination", 12, 1, 6, "8f73a0235e1fc754", 427, 270),
    ("domination", 5, 2, 3, "b0fd5d617e67c0fe", 149, 116),
    ("domination", 6, 2, 4, "91507b44ea4b2747", 350, 280),
    ("domination", 7, 2, 5, "67c2e4e40581433f", 657, 555),
    ("domination", 8, 2, 5, "eb985816fba484a0", 863, 565),
    ("domination", 9, 2, 6, "ab113f978c688c5a", 1285, 991),
    ("domination", 10, 2, 6, "599e425ad2b20c2c", 1528, 876),
    ("domination", 11, 2, 7, "656fd26028a6951d", 1992, 1423),
    ("domination", 12, 2, 8, "1a29d9873d143bca", 2407, 2020),
    ("domination", 7, 3, 5, "f60a683e2a04ab5d", 1165, 1000),
    ("domination", 8, 3, 4, "1670a6c2664ba135", 904, 423),
    ("domination", 9, 3, 5, "cdbb304ec38f0ab6", 2212, 1025),
    ("domination", 10, 3, 6, "a359e1c2c6a9033e", 4277, 2240),
    ("domination", 11, 3, 6, "2f0cd9257a97b4e9", 5286, 1793),
    ("domination", 12, 3, 6, "8f73a0235e1fc754", 6124, 1582),
    ("rainbow2", 3, 1, 3, "65d461de366094ef", 192, 163),
    ("rainbow2", 4, 1, 4, "96af552e69286a26", 778, 551),
    ("rainbow2", 5, 1, 5, "e31439467087f2e3", 1886, 1316),
    ("rainbow2", 6, 1, 6, "f30a9481561ad1f8", 3159, 2116),
    ("rainbow2", 7, 1, 7, "d414a502960b1856", 4483, 3084),
    ("rainbow2", 8, 1, 8, "8eef0ce2fd7394ec", 5750, 4090),
    ("rainbow2", 9, 1, 9, "1b4b5e6bf90ea692", 6980, 5112),
    ("rainbow2", 10, 1, 10, "81525922c77f5949", 8238, 6132),
    ("rainbow2", 11, 1, 11, "3f9eebc251dda0e6", 9457, 7128),
    ("rainbow2", 12, 1, 12, "4daba9d72028a8e0", 10694, 8178),
    ("rainbow2", 5, 2, 5, "8d928c70f2a6c27a", 4176, 2459),
    ("rainbow2", 6, 2, 6, "3af766bfc6607799", 13537, 6112),
    ("rainbow2", 7, 2, 7, "8d9c52491b7b7e72", 35365, 14398),
    ("rainbow2", 8, 2, 8, "31f15b4c389f9fc4", 70420, 27520),
    ("rainbow2", 9, 2, 8, "c38eba09b6562e8c", 88256, 21912),
    ("rainbow2", 10, 2, 8, "ec823fb9752466c4", 100822, 24809),
    ("rainbow2", 11, 2, 10, "99b7006a76a15880", 187377, 48094),
    ("rainbow2", 12, 2, 11, "d67a55224512175b", 238435, 64686),
    ("rainbow2", 7, 3, 7, "4bed496a6e51eb5d", 70254, 30503),
    ("rainbow2", 8, 3, 8, "f5e2c8b2f093aa2c", 229090, 75652),
    ("rainbow2", 9, 3, 9, "7852b8282ce4df1d", 614186, 160903),
    ("rainbow2", 10, 3, 10, "6ec96c929b0f48b3", 1380663, 347805),
    ("rainbow2", 11, 3, 11, "b6dc7bbeb7cf64ad", 2591132, 613077),
    ("rainbow2", 12, 3, 12, "e0fed66d6a8b584d", 4197433, 1026322),
    ("italian", 30, 2, 24, "913e798e7b597ca7", 158851, 36236),
    ("domination", 30, 3, 16, "3475a96d5e243540", 56810, 16585),
    ("rainbow2", 40, 1, 40, "fb469362e38e7a7c", 44994, 37242),
]

LONG_PINNED = [
    ("rainbow2", 16, 3, 14, "cedd790ca682cbd5", 847901),
    ("italian", 40, 3, 32, "6af80f8709d34aed", 448461),
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


def _no_bound(tables, tabs, fronts):
    return [np.zeros(tables.windows + 1, np.int32)] * (len(tabs) + 1)


@pytest.mark.parametrize(
    "kind,n,k,optimum,digest,unbounded,explored", PINNED,
    ids=["-".join(map(str, row[:6])) for row in PINNED],
)
def test_pinned(kind, n, k, optimum, digest, unbounded, explored, monkeypatch):
    assert _digest(dp.solve_cycle(n, k, kind)) == (optimum, digest, explored)
    # the bound prunes states and changes nothing else
    monkeypatch.setattr(dp, "_cost_to_go", _no_bound)
    assert _digest(dp.solve_cycle(n, k, kind)) == (optimum, digest, unbounded)


@pytest.mark.parametrize("kind,n,k,optimum,digest,explored", LONG_PINNED)
def test_pinned_long(kind, n, k, optimum, digest, explored):
    assert _digest(dp.solve_cycle(n, k, kind)) == (optimum, digest, explored)


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


def test_sort_key_overflow_is_refused(monkeypatch):
    monkeypatch.setattr(dp, "_PACK_LIMIT", 1000)
    with pytest.raises(BudgetExceeded, match="int64 sort keys"):
        dp.solve_cycle(9, 2, "italian")


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
        dp._plan(tables, columns)
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


K_LE_2 = [row[:4] for row in PINNED if row[2] <= 2]


@pytest.mark.parametrize("kind,n,k,optimum", K_LE_2)
def test_cost_to_go_bounds_the_optimum(kind, n, k, optimum):
    tables = dp._tables(kind, k)
    _, bound = dp._plan(tables, [dp._column(c, n, k) for c in range(n)])
    assert len(bound) == n + 1 and not bound[n][:-1].any()
    assert 0 <= bound[0][0] <= optimum


def test_a_window_off_the_frontier_is_an_internal_error(monkeypatch):
    # rows built for the first frontier window only: the seam loop meets
    # a window with no row and must not read another window's row
    dp._tables.cache_clear()
    build = dp._Tables.rows_for
    monkeypatch.setattr(dp._Tables, "rows_for",
                        lambda self, sig, reads, wids: build(self, sig, reads, wids[:1]))
    with pytest.raises(InternalError, match="off the frontier"):
        dp.solve_cycle(7, 2, "italian")
    dp._tables.cache_clear()
