"""Pinned outputs of branch and bound, `gpid.solver.solve_branch_and_bound`.

Each row is (kind, n, k, "exact" or "bounds", (optimum,) or (lo, hi),
nodes explored, sha256(witness JSON)[:16]) at budget 50 000, where the
witness JSON is the result's "witness" or "incumbent" entry dumped with
sorted keys.  The rows were produced before branch and bound tracked
residual demands through the kind table (commit d96603e), with

    PYTHONPATH=src python - <<'PY'
    import hashlib, json
    from gpid.graph import build_petersen
    from gpid.solver import solve_branch_and_bound
    for kind in ("italian", "domination", "rainbow2"):
        for n, k in ((9, 4), (13, 6), (21, 4)):
            r = solve_branch_and_bound(build_petersen(n, k), kind, budget=50_000)
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
parameter, which the search no longer takes; `test_matches_reference`
compares the JSON of both, byte for byte, over a grid of kinds, sizes and
budgets.
"""

import hashlib
import json

import pytest

from gpid.graph import PetersenGraph, build_petersen
from gpid.labeling import kind_of
from gpid.solver import (
    BoundsOnly,
    SolveResult,
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

