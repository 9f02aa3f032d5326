#!/usr/bin/env python3
"""Regenerate perfbench/refs.json, the pinned references of the benchmark.

    python3 perfbench/make_refs.py          # about five minutes on 2 cores

Runs every instance of every workload once through the benchmark's child
process, records what the program returned, and cross-checks it before
writing anything:

* DP and exhaustive values and witnesses: equal wherever both routes
  apply (the exhaustive oracle within its size gate), and equal to the
  closed forms transcribed below for k = 1, 2 (Italian, domination,
  2-rainbow) and to 4n/5 for Italian k = 2, 3 (mod 5), n = 0 (mod 5);
* branch-and-bound bounds: the reference interval comes from an exact
  branch-and-bound result, otherwise from a MILP (scipy's HiGHS; float
  dual bound, integral witness re-checked), widened to the degree bound
  and the best re-checked witness when the MILP does not close;
* every witness passes the benchmark's own checker.

The benchmark only reads the file; it never regenerates it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from check import digest, witness_weight  # noqa: E402
from workloads import BNB_BUDGET, WORKLOADS, instances  # noqa: E402

MILP_SECONDS = 60
EXHAUSTIVE_MAX_VERTICES = {"italian": 14, "domination": 16, "rainbow2": 10}


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def closed_form(kind: str, n: int, k: int) -> int | None:
    """Published exact values, transcribed independently of gpid.formulas."""
    if kind == "italian":
        if k == 1:
            return n
        if k == 2:
            return _ceil_div(4 * n, 5) + (n % 5 in (1, 2))
        if k >= 4 and k % 5 in (2, 3) and n % 5 == 0:
            return 4 * n // 5
    if kind == "domination":
        if k == 1:
            return _ceil_div(n, 2) + (n % 4 == 2)
        if k == 2:
            return _ceil_div(3 * n, 5)
    if kind == "rainbow2":
        if k == 1 and n >= 5:
            return n
        if k == 2:
            return _ceil_div(4 * n, 5) + (n % 10 in (1, 2, 5, 6, 7, 8))
    return None


def degree_bound(kind: str, n: int) -> int:
    """A weight unit covers at most 4 (domination) or 5 demand units."""
    return _ceil_div(2 * n, 4) if kind == "domination" else _ceil_div(4 * n, 5)


def milp_interval(kind: str, n: int, k: int) -> tuple[int, int | None, dict | None]:
    """(lower bound, weight of the rounded incumbent or None, its witness)."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import lil_matrix

    from check import petersen_adjacency

    adj = petersen_adjacency(n, k)
    nv = 2 * n
    if kind == "domination":
        rows = lil_matrix((nv, nv))
        for v in range(nv):
            for u in (v, *adj[v]):
                rows[v, u] = 1
        cost, lo, hi = np.ones(nv), np.ones(nv), np.full(nv, np.inf)
    else:  # x_v: label 1 (colour 1), y_v: label 2 (colour 2)
        rows = lil_matrix((2 * nv, 2 * nv))
        for v in range(nv):
            if kind == "italian":
                rows[v, v] = rows[v, nv + v] = 2
                for u in adj[v]:
                    rows[v, u] += 1
                    rows[v, nv + u] += 2
                rows[nv + v, v] = rows[nv + v, nv + v] = 1  # x_v + y_v <= 1
            else:
                for r in (v, nv + v):
                    rows[r, v] = rows[r, nv + v] = 1
                for u in adj[v]:
                    rows[v, u] += 1
                    rows[nv + v, nv + u] += 1
        if kind == "italian":
            cost = np.r_[np.ones(nv), np.full(nv, 2.0)]
            lo = np.r_[np.full(nv, 2.0), np.full(nv, -np.inf)]
            hi = np.r_[np.full(nv, np.inf), np.ones(nv)]
        else:
            cost, lo, hi = np.ones(2 * nv), np.ones(2 * nv), np.full(2 * nv, np.inf)
    res = milp(cost, constraints=LinearConstraint(rows.tocsr(), lo, hi),
               integrality=np.ones(cost.size), bounds=Bounds(0, 1),
               options={"time_limit": MILP_SECONDS, "mip_rel_gap": 0})
    lower = _ceil_div(int(round(res.mip_dual_bound * 1e6)) - 1, 10 ** 6)
    if res.x is None:
        return lower, None, None
    x = [int(round(value)) for value in res.x]
    if kind == "domination":
        witness = {"n": n, "k": k, "set": [v for v in range(nv) if x[v]]}
    elif kind == "italian":
        witness = {"n": n, "k": k, "values": [x[v] + 2 * x[nv + v] for v in range(nv)]}
    else:
        names = {(0, 0): "0", (1, 0): "1", (0, 1): "2", (1, 1): "12"}
        witness = {"n": n, "k": k, "values": [names[x[v], x[nv + v]] for v in range(nv)]}
    return lower, witness_weight(kind, n, k, witness), witness


def _cross_check_exact(inst, value: int, witness_digest: str) -> list[str]:
    from gpid.graph import build_petersen
    from gpid.solver import solve_dp, solve_exhaustive

    notes = []
    formula = closed_form(inst.kind, inst.n, inst.k)
    if formula is not None:
        assert formula == value, (inst.id, formula, value)
        notes.append("closed-form")
    other = "exhaustive" if inst.op == "dp" else "dp"
    if other == "exhaustive" and 2 * inst.n > EXHAUSTIVE_MAX_VERTICES[inst.kind]:
        return notes
    if other == "exhaustive":
        result = solve_exhaustive(build_petersen(inst.n, inst.k), inst.kind)
    else:
        result = solve_dp(inst.n, inst.k, inst.kind)
    payload = result.to_json_dict()
    assert payload["optimum"] == value, (inst.id, other, payload["optimum"], value)
    assert digest(payload["witness"]) == witness_digest, (inst.id, other)
    notes.append(other)
    return notes


def _bnb_entry(inst, out: dict) -> dict:
    if out["exc"] is not None:
        pinned = {"crash": out["exc"].split(":")[0]}
        known = []
    else:
        payload = json.loads(out["stdout"])
        if "optimum" in payload:
            pinned = {"lo": payload["optimum"], "hi": payload["optimum"]}
            witness = payload["witness"]
        else:
            pinned = {"lo": payload["lo"], "hi": payload["hi"]}
            witness = payload["incumbent"]
        assert witness_weight(inst.kind, inst.n, inst.k, witness) == pinned["hi"], inst.id
        known = [pinned["hi"]]
    lower = degree_bound(inst.kind, inst.n)
    milp_lower, milp_weight, _ = milp_interval(inst.kind, inst.n, inst.k)
    lower = max(lower, milp_lower)
    if milp_weight is not None:
        known.append(milp_weight)
    if inst.kind == "italian":
        from gpid.constructions import construct_pnk

        labeling = construct_pnk(inst.n, inst.k).labeling
        witness = {"n": inst.n, "k": inst.k, "values": list(labeling.values)}
        known.append(witness_weight("italian", inst.n, inst.k, witness))
    upper = min(known)
    source = "milp" if lower == upper else "degree bound, milp, best witness"
    if "lo" in pinned and pinned["lo"] == pinned["hi"]:
        assert lower <= pinned["lo"] <= upper, (inst.id, lower, upper, pinned)
        lower = upper = pinned["lo"]
        source = "branch and bound" + (", milp" if milp_lower == lower else "")
    formula = closed_form(inst.kind, inst.n, inst.k)
    if formula is not None:
        assert lower <= formula <= upper, (inst.id, formula, lower, upper)
    return {"pinned": pinned, "truth": [lower, upper], "truth_from": source}


def entry(inst, outputs: list[dict]) -> dict:
    if inst.op == "bnb":
        return _bnb_entry(inst, outputs[0])
    for out in outputs:
        assert out["exc"] is None and out["rc"] == 0, (inst.id, out)
    payload = json.loads(outputs[0]["stdout"])
    if inst.op in ("dp", "exhaustive"):
        value, witness = payload["optimum"], payload["witness"]
        assert witness_weight(inst.kind, inst.n, inst.k, witness) == value, inst.id
        ref = {"value": value, "digest": digest(witness)}
        ref["cross_checked"] = _cross_check_exact(inst, value, ref["digest"])
        return ref
    if inst.op == "construct":
        weight = payload["actual_weight"]
        assert payload["valid"], inst.id
        assert witness_weight("italian", inst.n, inst.k, payload["labeling"]) == weight
        return {"weight": weight}
    assert payload["ok"], inst.id
    return {"rows": payload["rows"]}


def main() -> int:
    refs = {}
    for workload in WORKLOADS:
        insts = instances(workload)
        calls = [[inst.id, list(argv)] for inst in insts for argv in inst.calls]
        results = iter(run.spawn_child([], {"calls": calls, "trace": False})["results"])
        for inst in insts:
            refs[inst.id] = entry(inst, [next(results) for _ in inst.calls])
            print(f"{inst.id}: {refs[inst.id]}", file=sys.stderr)
    document = {
        "generated_by": "python3 perfbench/make_refs.py",
        "commit": run.git_commit(),
        "bnb_budget": BNB_BUDGET,
    }
    # One instance per line keeps the file diffable.
    lines = [f"  {json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
             for key, value in sorted(refs.items())]
    header = json.dumps(document, sort_keys=True)[1:-1]
    text = "{" + header + ', "instances": {\n' + ",\n".join(lines) + "\n}}\n"
    (HERE / "refs.json").write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
