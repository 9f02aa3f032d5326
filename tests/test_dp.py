"""Pinned outputs of the cyclic column DP, `gpid.dp.solve_cycle`.

Each row is (kind, n, k, optimum, sha256(witness bytes)[:16], explored)
for every kind, k = 1..3 and 2k < n <= 12, plus three longer cycles.  The
rows were produced by the dict-based DP that the table-driven engine
replaced (commit 4bf4087), with

    PYTHONPATH=src python - <<'PY'
    import hashlib
    from gpid.dp import solve_cycle
    grid = [(kind, n, k) for kind in ("italian", "domination", "rainbow2")
            for k in (1, 2, 3) for n in range(2 * k + 1, 13)]
    grid += [("italian", 30, 2), ("domination", 30, 3), ("rainbow2", 40, 1)]
    for kind, n, k in grid:
        opt, seq, explored = solve_cycle(n, k, kind)
        digest = hashlib.sha256(seq).hexdigest()[:16]
        print(f'    ("{kind}", {n}, {k}, {opt}, "{digest}", {explored}),')
    PY

so the witness (the lexicographically smallest optimal labeling) and the
explored-state count must match that engine exactly.
"""

import hashlib

import pytest

from gpid import dp
from gpid.errors import BudgetExceeded

PINNED = [
    ("italian", 3, 1, 3, "eaabdf1df6e204af", 74),
    ("italian", 4, 1, 4, "09b5a07b111a36dc", 240),
    ("italian", 5, 1, 5, "08aafc53a275b184", 561),
    ("italian", 6, 1, 6, "819270ea8f8181b8", 933),
    ("italian", 7, 1, 7, "f0f803bb05465caf", 1317),
    ("italian", 8, 1, 8, "71bf2b11f0393fd5", 1698),
    ("italian", 9, 1, 9, "031dc99072dfb284", 2060),
    ("italian", 10, 1, 10, "eb03930a8ff60d75", 2432),
    ("italian", 11, 1, 11, "e9328a01ba584c2a", 2789),
    ("italian", 12, 1, 12, "0ac1153320ad1aa2", 3156),
    ("italian", 5, 2, 4, "ffee64ddb4a8b5cd", 502),
    ("italian", 6, 2, 6, "d302b185510a24e2", 2542),
    ("italian", 7, 2, 7, "d583814370073aeb", 5922),
    ("italian", 8, 2, 7, "2f12bfb1e4453656", 7888),
    ("italian", 9, 2, 8, "bacadc16c77bf86a", 13933),
    ("italian", 10, 2, 8, "53e26e33c654a6f5", 16082),
    ("italian", 11, 2, 10, "7a6d5ffdead863df", 29240),
    ("italian", 12, 2, 11, "6719ce7eb6784b6b", 37374),
    ("italian", 7, 3, 7, "5d0379efdc764bb1", 9315),
    ("italian", 8, 3, 7, "04c13fb63b1100b1", 14185),
    ("italian", 9, 3, 8, "8a1acf4253109f15", 36833),
    ("italian", 10, 3, 8, "53e26e33c654a6f5", 49950),
    ("italian", 11, 3, 10, "9ae82edfcb0c1326", 157217),
    ("italian", 12, 3, 11, "1f2c53eff4143693", 268618),
    ("domination", 3, 1, 2, "7c70b6b1c612fa54", 26),
    ("domination", 4, 1, 2, "da49d2915281f633", 46),
    ("domination", 5, 1, 3, "fc110e74dc12ce42", 99),
    ("domination", 6, 1, 4, "f253005ab5dea1b1", 160),
    ("domination", 7, 1, 4, "0ac9dbcfcebb42c0", 200),
    ("domination", 8, 1, 4, "1670a6c2664ba135", 234),
    ("domination", 9, 1, 5, "bebfc74a023a9c7b", 295),
    ("domination", 10, 1, 6, "03ece23e65950811", 354),
    ("domination", 11, 1, 6, "241139ad34d11c3c", 393),
    ("domination", 12, 1, 6, "8f73a0235e1fc754", 427),
    ("domination", 5, 2, 3, "b0fd5d617e67c0fe", 149),
    ("domination", 6, 2, 4, "91507b44ea4b2747", 350),
    ("domination", 7, 2, 5, "67c2e4e40581433f", 657),
    ("domination", 8, 2, 5, "eb985816fba484a0", 863),
    ("domination", 9, 2, 6, "ab113f978c688c5a", 1285),
    ("domination", 10, 2, 6, "599e425ad2b20c2c", 1528),
    ("domination", 11, 2, 7, "656fd26028a6951d", 1992),
    ("domination", 12, 2, 8, "1a29d9873d143bca", 2407),
    ("domination", 7, 3, 5, "f60a683e2a04ab5d", 1165),
    ("domination", 8, 3, 4, "1670a6c2664ba135", 904),
    ("domination", 9, 3, 5, "cdbb304ec38f0ab6", 2212),
    ("domination", 10, 3, 6, "a359e1c2c6a9033e", 4277),
    ("domination", 11, 3, 6, "2f0cd9257a97b4e9", 5286),
    ("domination", 12, 3, 6, "8f73a0235e1fc754", 6124),
    ("rainbow2", 3, 1, 3, "65d461de366094ef", 192),
    ("rainbow2", 4, 1, 4, "96af552e69286a26", 778),
    ("rainbow2", 5, 1, 5, "e31439467087f2e3", 1886),
    ("rainbow2", 6, 1, 6, "f30a9481561ad1f8", 3159),
    ("rainbow2", 7, 1, 7, "d414a502960b1856", 4483),
    ("rainbow2", 8, 1, 8, "8eef0ce2fd7394ec", 5750),
    ("rainbow2", 9, 1, 9, "1b4b5e6bf90ea692", 6980),
    ("rainbow2", 10, 1, 10, "81525922c77f5949", 8238),
    ("rainbow2", 11, 1, 11, "3f9eebc251dda0e6", 9457),
    ("rainbow2", 12, 1, 12, "4daba9d72028a8e0", 10694),
    ("rainbow2", 5, 2, 5, "8d928c70f2a6c27a", 4176),
    ("rainbow2", 6, 2, 6, "3af766bfc6607799", 13537),
    ("rainbow2", 7, 2, 7, "8d9c52491b7b7e72", 35365),
    ("rainbow2", 8, 2, 8, "31f15b4c389f9fc4", 70420),
    ("rainbow2", 9, 2, 8, "c38eba09b6562e8c", 88256),
    ("rainbow2", 10, 2, 8, "ec823fb9752466c4", 100822),
    ("rainbow2", 11, 2, 10, "99b7006a76a15880", 187377),
    ("rainbow2", 12, 2, 11, "d67a55224512175b", 238435),
    ("rainbow2", 7, 3, 7, "4bed496a6e51eb5d", 70254),
    ("rainbow2", 8, 3, 8, "f5e2c8b2f093aa2c", 229090),
    ("rainbow2", 9, 3, 9, "7852b8282ce4df1d", 614186),
    ("rainbow2", 10, 3, 10, "6ec96c929b0f48b3", 1380663),
    ("rainbow2", 11, 3, 11, "b6dc7bbeb7cf64ad", 2591132),
    ("rainbow2", 12, 3, 12, "e0fed66d6a8b584d", 4197433),
    ("italian", 30, 2, 24, "913e798e7b597ca7", 158851),
    ("domination", 30, 3, 16, "3475a96d5e243540", 56810),
    ("rainbow2", 40, 1, 40, "fb469362e38e7a7c", 44994),
]


def _digest(result):
    opt, seq, explored = result
    return opt, hashlib.sha256(seq).hexdigest()[:16], explored


@pytest.mark.parametrize("kind,n,k,optimum,digest,explored", PINNED)
def test_pinned(kind, n, k, optimum, digest, explored):
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
