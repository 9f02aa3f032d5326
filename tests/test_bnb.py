"""Pinned outputs of branch and bound, `gpid.solver.solve_branch_and_bound`.

Each row is (kind, n, k, "exact" or "bounds", (optimum,) or (lo, hi),
nodes explored, sha256(witness JSON)[:16]) at budget 50 000, where the
witness JSON is the result's "witness" or "incumbent" entry dumped with
sorted keys.  The rows cover every branch-and-bound call of the
benchmark's `exact-search` workload (the three kinds on P(9,4), P(11,5),
P(13,6), P(15,7), P(21,4), P(40,6), P(60,11) and P(600,4)) except
domination and 2-rainbow P(600,4), which recurse past Python's limit.
The P(9,4), P(13,6) and P(21,4) rows were produced before branch and
bound tracked residual demands through the kind table (commit d96603e),
the others before it read its labels from a per-state table (commit
cf32d95), with

    PYTHONPATH=src python - <<'PY'
    import hashlib, json
    from gpid.graph import build_petersen
    from gpid.solver import solve_branch_and_bound
    SIZES = ((9, 4), (11, 5), (13, 6), (15, 7), (21, 4), (40, 6), (60, 11), (600, 4))
    for kind in ("italian", "domination", "rainbow2"):
        for n, k in SIZES:
            try:
                r = solve_branch_and_bound(build_petersen(n, k), kind, budget=50_000)
            except RecursionError:
                continue
            d = r.to_json_dict()
            exact = "optimum" in d
            w = d["witness"] if exact else d["incumbent"]
            digest = hashlib.sha256(json.dumps(w, sort_keys=True).encode()).hexdigest()[:16]
            vals = (d["optimum"],) if exact else (d["lo"], d["hi"])
            status = "exact" if exact else "bounds"
            print(f'    ("{kind}", {n}, {k}, "{status}", {vals}, {d["explored"]}, "{digest}"),')
    PY

so the search order, the cut, the greedy incumbent and the witness must
match that search exactly.

`_reference_bnb` below is the search that applied every label before
testing it (commit 00a8850), kept verbatim but for its `initial` labeling
parameter, which the search no longer takes, and for its last step, which
returns an exact result when the budget runs out with the incumbent at
the kind floor; `test_matches_reference` and the budget tests compare the
JSON of both, byte for byte, over kinds, sizes and budgets.
"""

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from gpid import solver
from gpid.graph import PetersenGraph, build_petersen
from gpid.labeling import KINDS, kind_of
from gpid.solver import (
    BoundsOnly,
    SolveResult,
    _LabelTable,
    _unit_cover,
    _witness,
    greedy_labeling,
    kind_floor,
    solve_branch_and_bound,
)

PINNED = [
    ("italian", 9, 4, "exact", (8,), 3, "c300a33491faf201"),
    ("italian", 13, 6, "exact", (11,), 1662, "601f60e6ef0c9861"),
    ("italian", 21, 4, "bounds", (17, 20), 50001, "4262b677a9852c87"),
    ("domination", 9, 4, "exact", (6,), 856, "69796b414d86fdc1"),
    ("domination", 13, 6, "exact", (8,), 5892, "b8ec02688a10a207"),
    ("domination", 21, 4, "exact", (12,), 16706, "a7c89b94db233a17"),
    ("rainbow2", 9, 4, "exact", (8,), 25256, "020c6dbcb5e3557a"),
    ("rainbow2", 13, 6, "bounds", (11, 14), 50001, "52120a13f4526a74"),
    ("rainbow2", 21, 4, "bounds", (17, 27), 50001, "fda26f0952693328"),
    # the other exact-search calls, added after the rows above so that
    # their test ids keep their indices
    ("italian", 11, 5, "exact", (10,), 1227, "8561332e39cb611f"),
    ("italian", 15, 7, "exact", (12,), 28155, "575298652e575a47"),
    ("italian", 40, 6, "bounds", (32, 38), 50001, "bda099006bafd163"),
    ("italian", 60, 11, "bounds", (48, 57), 50001, "417a3971bc49050c"),
    ("italian", 600, 4, "bounds", (480, 540), 50001, "b779de0ba9d1d45c"),
    ("domination", 11, 5, "exact", (7,), 1452, "0d48ebcfe41c6f8f"),
    ("domination", 15, 7, "exact", (9,), 7554, "3c6ad785199e77dc"),
    ("domination", 40, 6, "bounds", (20, 24), 50001, "971dbb5e6bc611e0"),
    ("domination", 60, 11, "bounds", (30, 39), 50001, "286f0dfc786127f2"),
    ("rainbow2", 11, 5, "exact", (10,), 11004, "9fcf70404d805c35"),
    ("rainbow2", 15, 7, "bounds", (12, 16), 50001, "d143846c1f5be2a5"),
    ("rainbow2", 40, 6, "bounds", (32, 47), 50001, "c74440fecc9716b5"),
    ("rainbow2", 60, 11, "bounds", (48, 78), 50001, "5f9aeb06b084e4b8"),
]


def _reference_bnb(
    g: PetersenGraph,
    kind: str,
    budget: int = 200_000,
) -> SolveResult | BoundsOnly:
    """DFS over vertices in id order, labels tried ascending.

    Each vertex carries its residual demand, reduced by the kind's table
    as its neighbors are labeled.  A node is cut when its partial weight
    plus ceil(total unmet demand / unit cover) cannot beat the incumbent,
    the unmet demand of an open or 0-labeled vertex being the weight of
    its residual.  `budget` counts label assignments; on exhaustion the
    result degrades to BoundsOnly with lo = the unconditional kind floor
    and hi = the incumbent's weight.
    """
    kd = kind_of(kind)
    adj = g.adjacency
    nv = g.num_vertices
    wt = kd.weight
    red = kd.reduce
    divisor = _unit_cover(kd)

    best_vals = greedy_labeling(g, kind)
    best_w = sum(wt[v] for v in best_vals)

    vals = [-1] * nv
    res = [kd.need] * nv  # residual demand
    pending = [3] * nv
    # deficit of an open vertex: coverage still required if it stays 0
    defv = [wt[kd.need]] * nv
    total = sum(defv)

    st = {
        "nodes": 0,
        "truncated": False,
        "best_w": best_w,
        "best_vals": best_vals,
        "total": total,
    }

    def current_deficit(v: int) -> int:
        if vals[v] > 0:
            return 0
        return wt[res[v]]

    def set_def(v: int, value: int) -> None:
        st["total"] += value - defv[v]
        defv[v] = value

    def dfs(v: int, w: int) -> None:
        if v == nv:
            if w < st["best_w"]:
                st["best_w"] = w
                st["best_vals"] = tuple(vals)
            return
        for lab in kd.labels:
            if st["truncated"]:
                return
            st["nodes"] += 1
            if st["nodes"] > budget:
                st["truncated"] = True
                return
            w2 = w + wt[lab]
            vals[v] = lab
            saved = [(v, defv[v])]
            set_def(v, current_deficit(v))
            feasible = not (lab == 0 and pending[v] == 0 and res[v])
            touched = []
            for u in adj[v]:
                touched.append((u, res[u]))
                res[u] = red[res[u]][lab]
                pending[u] -= 1
                saved.append((u, defv[u]))
                set_def(u, current_deficit(u))
                if vals[u] == 0 and pending[u] == 0 and res[u]:
                    feasible = False
            if feasible and w2 + -(-st["total"] // divisor) < st["best_w"]:
                dfs(v + 1, w2)
            for u, old_res in touched:
                res[u] = old_res
                pending[u] += 1
            for x, old_def in reversed(saved):
                set_def(x, old_def)
            vals[v] = -1

    dfs(0, 0)
    witness = _witness(g, kd, st["best_vals"], st["best_w"])
    if not st["truncated"]:
        return SolveResult(
            kind, g.n, g.k, st["best_w"], witness, "branch_and_bound", st["nodes"]
        )
    lo = max(kind_floor(g, kind), 0)
    if lo == st["best_w"]:  # the incumbent meets the floor: optimal
        return SolveResult(
            kind, g.n, g.k, st["best_w"], witness, "branch_and_bound", st["nodes"]
        )
    return BoundsOnly(kind, g.n, g.k, lo, st["best_w"], witness, st["nodes"])


@pytest.mark.parametrize("kind,n,k,status,values,explored,digest", PINNED)
def test_bnb_pinned(kind, n, k, status, values, explored, digest):
    d = solve_branch_and_bound(build_petersen(n, k), kind, budget=50_000).to_json_dict()
    exact = "optimum" in d
    witness = d["witness"] if exact else d["incumbent"]
    got = (
        "exact" if exact else "bounds",
        (d["optimum"],) if exact else (d["lo"], d["hi"]),
        d["explored"],
        hashlib.sha256(json.dumps(witness, sort_keys=True).encode()).hexdigest()[:16],
    )
    assert got == (status, values, explored, digest)


def _pin(kind, n, k):
    """The PINNED row of a budget-50 000 search, as in `test_bnb_pinned`."""
    d = solve_branch_and_bound(build_petersen(n, k), kind, budget=50_000).to_json_dict()
    exact = "optimum" in d
    witness = d["witness"] if exact else d["incumbent"]
    return (
        kind, n, k,
        "exact" if exact else "bounds",
        (d["optimum"],) if exact else (d["lo"], d["hi"]),
        d["explored"],
        hashlib.sha256(json.dumps(witness, sort_keys=True).encode()).hexdigest()[:16],
    )


def test_pins_do_not_depend_on_the_order_of_solves():
    # the label tables are shared by every solve of a process: filled in
    # another order they must give the same searches
    solver._label_table.cache_clear()
    forward = [_pin(*row[:3]) for row in PINNED]
    backward = [_pin(*row[:3]) for row in reversed(PINNED)]
    assert forward == backward[::-1] == PINNED


def test_shared_label_table_entries_equal_fresh_fills():
    for kind in KINDS:
        for n, k in ((9, 4), (11, 5), (13, 6)):
            solve_branch_and_bound(build_petersen(n, k), kind, budget=50_000)
        shared = solver._label_table(kind)
        fresh = _LabelTable(kind_of(kind))
        assert shared and all(fresh[key] == entry for key, entry in shared.items())


def test_a_search_past_the_recursion_limit_raises_without_a_frame_per_vertex():
    # one frame per vertex: domination P(600,4) dives past Python's limit
    with pytest.raises(RecursionError) as info:
        solve_branch_and_bound(build_petersen(600, 4), "domination", budget=50_000)
    assert len(info.traceback) < 10


BUDGETS = (1, 7, 2000)


def _same(g, kind, budget):
    got = solve_branch_and_bound(g, kind, budget=budget)
    want = _reference_bnb(g, kind, budget=budget)
    assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())


@pytest.mark.parametrize("kind", ["italian", "domination", "rainbow2"])
@pytest.mark.parametrize("k", range(1, 7))
def test_matches_reference(kind, k):
    for n in range(2 * k + 1, 26):
        g = build_petersen(n, k)
        for budget in BUDGETS:
            _same(g, kind, budget)


@settings(max_examples=200)
@given(
    kind=st.sampled_from(["italian", "domination", "rainbow2"]),
    nk=st.integers(3, 15).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(1, (n - 1) // 2))
    ),
    budget=st.integers(0, 3000),
)
def test_budget_stop_points_match_reference(kind, nk, budget):
    # the search counts rejected labels in batches; wherever the budget
    # runs out, the result must be the one of the label-by-label count
    _same(build_petersen(*nk), kind, budget)


@pytest.mark.parametrize("kind", ["italian", "domination", "rainbow2"])
@pytest.mark.parametrize("n,k", [(7, 2), (8, 3), (9, 4), (11, 5)])
def test_the_last_label_of_a_complete_run_flips_bounds_to_exact(kind, n, k):
    g = build_petersen(n, k)
    full = solve_branch_and_bound(g, kind)
    assert isinstance(full, SolveResult)
    explored = full.explored
    at = solve_branch_and_bound(g, kind, budget=explored)
    assert at == full
    short = solve_branch_and_bound(g, kind, budget=explored - 1)
    assert short.explored == explored
    if kind_floor(g, kind) < full.optimum:
        assert isinstance(short, BoundsOnly)
        assert (short.lo, short.hi) == (kind_floor(g, kind), full.optimum)
    else:  # the incumbent meets the floor
        assert short == full
    for budget in (explored - 1, explored):
        _same(g, kind, budget)
