"""The weight-bounded enumerator against brute force over the full range.

The references scan every label vector with `label_block`, in index
(= lexicographic) order, and filter or minimise with the kind's
validity mask and weights; the code under test generates only the
weight classes it needs.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from gpid import exhaustive
from gpid.errors import BudgetExceeded
from gpid.exhaustive import (
    SIZE_GATES,
    exhaustive_minimum,
    iter_valid_labelings,
    label_block,
    validity_mask,
    weights_of,
)
from gpid.graph import build_petersen
from gpid.labeling import KINDS

SMALL = [(n, k) for n in range(3, 6) for k in (1, 2) if 2 * k < n]
GATED_12 = [(n, k) for n in range(3, 7) for k in range(1, (n - 1) // 2 + 1)]


def _full_range(g, kind, chunk=1 << 20):
    """Every label vector of g in index order, in blocks."""
    base = len(KINDS[kind].labels)
    total = base**g.num_vertices
    for start in range(0, total, chunk):
        yield label_block(g.num_vertices, base, start, min(start + chunk, total))


def _brute_valid(g, kind, cap):
    rows = np.concatenate(list(_full_range(g, kind)))
    keep = validity_mask(rows, g, kind)
    if cap is not None:
        keep &= weights_of(rows, kind) <= cap
    return rows[keep]


def _brute_minimum(g, kind):
    """(optimum, lexicographically smallest optimal vector) by a full scan."""
    best = None
    for rows in _full_range(g, kind):
        w = weights_of(rows, kind)
        w[~validity_mask(rows, g, kind)] = np.iinfo(np.int64).max
        pos = int(np.argmin(w))
        if best is None or w[pos] < best[0]:  # strict: the earliest row wins ties
            best = (int(w[pos]), tuple(int(x) for x in rows[pos]))
    return best


@pytest.mark.parametrize("kind", list(KINDS))
@pytest.mark.parametrize("n,k", SMALL)
def test_valid_labelings_match_the_full_scan(kind, n, k, monkeypatch):
    g = build_petersen(n, k)
    opt = _brute_minimum(g, kind)[0]
    chunk = max(7, len(KINDS[kind].labels) ** g.num_vertices // 40)  # many blocks
    monkeypatch.setattr(exhaustive, "BLOCK_ROWS", chunk)
    for cap in (None, 0, opt, opt + 1):
        blocks = list(iter_valid_labelings(g, kind, cap))
        assert all(0 < len(b) <= chunk for b in blocks)
        got = np.concatenate(blocks) if blocks else np.empty((0, g.num_vertices), np.uint8)
        assert np.array_equal(got, _brute_valid(g, kind, cap)), (cap, chunk)
    assert len(blocks) > 1


@pytest.mark.parametrize("base", [2, 3, 4])
def test_label_block_is_the_digits_of_its_indices(base):
    # the per-index loop is the reference; the ranges start and stop inside runs
    nv = 5
    total = base**nv
    for start, stop in [(0, total), (1, total - 1), (base + 1, 2 * base**2 + 3),
                        (total // 2, total // 2 + 1), (7, 7 + base**3)]:
        block = label_block(nv, base, start, stop)
        expected = [[i // base ** (nv - 1 - v) % base for v in range(nv)]
                    for i in range(start, stop)]
        assert block.dtype == np.uint8 and block.tolist() == expected, (start, stop)


@pytest.mark.parametrize("kind", list(KINDS))
@pytest.mark.parametrize("lo,hi", [(0, 0), (2, 5), (4, 4), (6, 100), (5, 3)])
def test_weight_range_rows_are_the_range_in_order(kind, lo, hi):
    nv = 7  # odd: the prefix and the suffix differ in length
    base = len(KINDS[kind].labels)
    every = label_block(nv, base, 0, base**nv)
    w = weights_of(every, kind)
    expected = every[(lo <= w) & (w <= hi)]
    # 5 rows: blocks that start and end inside one prefix's run; 37 rows:
    # blocks that span many prefixes, some of them with no fitting suffix;
    # one above the row count: a single block
    for chunk in (5, 37, len(expected) + 1):
        blocks = list(exhaustive._rows_by_weight(nv, kind, lo, hi, chunk))
        assert all(0 < len(b) <= chunk for b in blocks)
        assert all(b.T.flags.c_contiguous for b in blocks)
        got = np.concatenate(blocks) if blocks else every[:0]
        assert np.array_equal(got, expected), chunk
    assert len(blocks) == (len(expected) > 0)


@pytest.mark.parametrize("kind", list(KINDS))
@pytest.mark.parametrize("n,k", GATED_12)
def test_minimum_matches_the_full_scan(kind, n, k):
    g = build_petersen(n, k)
    opt, witness, _ = exhaustive_minimum(g, kind)
    assert (opt, witness) == _brute_minimum(g, kind)


def test_explored_counts_the_rows_generated(monkeypatch):
    generated = []
    rows_by_weight = exhaustive._rows_by_weight

    def counting(*args):
        for rows in rows_by_weight(*args):
            generated.append(len(rows))
            yield rows

    monkeypatch.setattr(exhaustive, "_rows_by_weight", counting)
    _, _, explored = exhaustive_minimum(build_petersen(7, 2), "italian")
    assert explored == sum(generated)
    assert explored < 3**14 // 10


# Pinned so that a change of enumeration strategy shows up in `explored`.
@pytest.mark.parametrize(
    "kind,n,k,optimum,explored",
    [("italian", 7, 2, 7, 74805), ("domination", 8, 2, 5, 6885), ("rainbow2", 5, 2, 5, 21700)],
)
def test_explored_is_pinned(kind, n, k, optimum, explored):
    assert exhaustive_minimum(build_petersen(n, k), kind)[::2] == (optimum, explored)


def test_minimum_memory_stays_block_sized():
    """numpy reports its buffers to tracemalloc.  With the halves built
    afresh, joining them through per-row int64 index arrays peaked at
    5.4 MiB on italian P(8,3), and joining them by block copies at 3.6 MiB."""
    g = build_petersen(8, 3)
    exhaustive._halves.cache_clear()
    tracemalloc.start()
    try:
        assert exhaustive_minimum(g, "italian")[0] == 7
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.25 * 2**20


@pytest.mark.parametrize("kind", list(KINDS))
def test_size_gate_still_raises(kind):
    n = SIZE_GATES[kind] // 2 + 1
    with pytest.raises(BudgetExceeded):
        exhaustive_minimum(build_petersen(n, 1), kind)
