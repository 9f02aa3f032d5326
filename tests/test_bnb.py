"""Pinned outputs of branch and bound, `gpid.solve_branch_and_bound`.

Each row is (kind, n, k, "exact" or "bounds", (optimum,) or (lo, hi),
nodes explored, sha256(witness JSON)[:16]) at budget 50 000, where the
witness JSON is the result's "witness" or "incumbent" entry dumped with
sorted keys.  The rows were produced before branch and bound tracked
residual demands through the kind table (commit d96603e), with

    PYTHONPATH=src python - <<'PY'
    import hashlib, json
    from gpid import build_petersen, solve_branch_and_bound
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
"""

import hashlib
import json

import pytest

from gpid import build_petersen, solve_branch_and_bound

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
