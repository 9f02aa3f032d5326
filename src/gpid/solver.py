"""Exact solvers for domination, Italian domination and 2-rainbow
domination numbers on P(n, k).

Three routes with overlapping domains keep each other honest:

* ``solve_exhaustive`` -- full enumeration, gated to tiny instances; the
  oracle everything else is compared against.
* ``solve_dp``         -- cyclic profile dynamic program, exact for k <= 3.
* ``solve_branch_and_bound`` -- depth-first search with a charge-counting
  cut; exact when it completes, otherwise certified bounds.

Every returned witness is re-validated and its weight checked against the
reported optimum before the result is handed back.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Union

from . import dp, exhaustive
from .errors import GpidError, InvalidParameters
from .graph import PetersenGraph, build_petersen
from .labeling import (
    RAINBOW_MASK_TO_STR,
    Labeling,
    RainbowLabeling,
    validate_2rdf,
    validate_dominating,
    validate_idf,
    weight,
)

KINDS = ("domination", "italian", "rainbow2")

Witness = Union[Labeling, RainbowLabeling, tuple]


@dataclass(frozen=True)
class SolveResult:
    invariant: str
    n: int
    k: int
    optimum: int
    witness: Witness
    method: str
    explored: int

    def to_json_dict(self) -> dict:
        return {
            "invariant": self.invariant,
            "n": self.n,
            "k": self.k,
            "optimum": self.optimum,
            "method": self.method,
            "explored": self.explored,
            "witness": _witness_json(self.n, self.k, self.witness),
        }


@dataclass(frozen=True)
class BoundsOnly:
    invariant: str
    n: int
    k: int
    lo: int
    hi: int
    incumbent: Witness
    explored: int

    def to_json_dict(self) -> dict:
        return {
            "invariant": self.invariant,
            "n": self.n,
            "k": self.k,
            "lo": self.lo,
            "hi": self.hi,
            "explored": self.explored,
            "incumbent": _witness_json(self.n, self.k, self.incumbent),
        }


def _witness_json(n: int, k: int, witness: Witness) -> dict:
    if isinstance(witness, tuple):
        return {"n": n, "k": k, "set": list(witness)}
    if isinstance(witness, RainbowLabeling):
        return {
            "n": n,
            "k": k,
            "values": [RAINBOW_MASK_TO_STR[v] for v in witness.values],
        }
    return {"n": n, "k": k, "values": list(witness.values)}


def _witness_from_values(n: int, k: int, kind: str, values) -> Witness:
    values = tuple(int(v) for v in values)
    if kind == "italian":
        return Labeling(n, k, values)
    if kind == "rainbow2":
        return RainbowLabeling(n, k, values)
    return tuple(v for v, val in enumerate(values) if val == 1)


def _witness_weight(kind: str, witness: Witness) -> int:
    if isinstance(witness, tuple):
        return len(witness)
    return weight(witness)


def _check_witness(g: PetersenGraph, kind: str, witness: Witness, optimum: int) -> None:
    if kind == "italian":
        ok = validate_idf(witness).valid
    elif kind == "rainbow2":
        ok = validate_2rdf(witness).valid
    else:
        ok = validate_dominating(g, witness).valid
    if not ok or _witness_weight(kind, witness) != optimum:
        raise GpidError(
            f"internal error: unsound witness for {kind} on P({g.n},{g.k})"
        )


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise InvalidParameters(f"unknown invariant kind {kind!r}")


def degree_lower_bound(g: PetersenGraph) -> int:
    """ceil(2|V| / (Delta + 2)) with Delta = 3, i.e. ceil(4n/5)."""
    return -(-2 * g.num_vertices // 5)


# Most coverage demand one unit of weight can meet on a cubic graph: a
# chosen vertex covers at most 4 closed neighborhoods (domination), and a
# weight unit serves at most 5 units of coverage demand (italian and
# 2-rainbow, where every vertex demands 2).
_UNIT_COVER = {"domination": 4, "italian": 5, "rainbow2": 5}


def kind_floor(g: PetersenGraph, kind: str) -> int:
    """A cheap unconditional lower bound for the invariant on P(n, k):
    ceil(|V|/4) for domination and ceil(2|V|/5) otherwise."""
    demand = 1 if kind == "domination" else 2
    return -(-demand * g.num_vertices // _UNIT_COVER[kind])


def solve_exhaustive(g: PetersenGraph, kind: str) -> SolveResult:
    """Global optimum by full enumeration (tiny instances only)."""
    _check_kind(kind)
    return _solve_exhaustive_cached(g.n, g.k, kind)


@lru_cache(maxsize=None)
def _solve_exhaustive_cached(n: int, k: int, kind: str) -> SolveResult:
    g = build_petersen(n, k)
    opt, values, examined = exhaustive.exhaustive_minimum(g, kind)
    witness = _witness_from_values(n, k, kind, values)
    _check_witness(g, kind, witness, opt)
    return SolveResult(kind, n, k, opt, witness, "exhaustive", examined)


@lru_cache(maxsize=None)
def solve_dp(n: int, k: int, kind: str) -> SolveResult:
    """Exact optimum via the cyclic profile DP; supported for k <= 3."""
    _check_kind(kind)
    if k > 3:
        raise InvalidParameters(f"dp solver supports k <= 3, got k={k}")
    g = build_petersen(n, k)
    opt, seq, explored = dp.solve_cycle(n, k, kind)
    witness = _witness_from_values(n, k, kind, seq)
    _check_witness(g, kind, witness, opt)
    return SolveResult(kind, n, k, opt, witness, "dp", explored)


def greedy_labeling(g: PetersenGraph, kind: str) -> tuple[int, ...]:
    """A valid labeling found by start-full-then-drop; used for incumbents."""
    _check_kind(kind)
    adj = g.adjacency
    nv = g.num_vertices
    start = {"italian": 1, "domination": 1, "rainbow2": 3}[kind]
    need = {"italian": 2, "domination": 1, "rainbow2": 3}[kind]
    vals = [start] * nv

    def covered(v: int) -> bool:
        if vals[v] != 0:
            return True
        a, b, c = adj[v]
        if kind == "rainbow2":
            return (vals[a] | vals[b] | vals[c]) == need
        return vals[a] + vals[b] + vals[c] >= need

    def local_ok(v: int) -> bool:
        return covered(v) and all(covered(u) for u in adj[v])

    for v in range(nv):
        old = vals[v]
        vals[v] = 0
        if not local_ok(v):
            vals[v] = old
    if kind == "rainbow2":
        for v in range(nv):
            if vals[v] == 3:
                for trial in (1, 2):
                    vals[v] = trial
                    if local_ok(v):
                        break
                    vals[v] = 3
    return tuple(vals)


def repair_idf(g: PetersenGraph, values) -> tuple[int, ...]:
    """Raise labels until the Italian condition holds everywhere.

    Deterministic: repeatedly bump the lowest-id violating vertex to 1.
    """
    adj = g.adjacency
    vals = list(values)
    while True:
        bumped = False
        for v in range(g.num_vertices):
            if vals[v] == 0:
                a, b, c = adj[v]
                if vals[a] + vals[b] + vals[c] < 2:
                    vals[v] = 1
                    bumped = True
                    break
        if not bumped:
            return tuple(vals)


def solve_branch_and_bound(
    g: PetersenGraph,
    kind: str,
    budget: int = 200_000,
    initial: tuple[int, ...] | None = None,
) -> SolveResult | BoundsOnly:
    """DFS over vertices in id order, labels tried ascending.

    A node is cut when its partial weight plus ceil(total unmet demand /
    (deg+2)) cannot beat the incumbent.  `budget` counts label
    assignments; on exhaustion the result degrades to BoundsOnly with
    lo = the unconditional kind floor and hi = the incumbent's weight.
    An `initial` labeling, when given, seeds the incumbent and must be
    valid for the kind.
    """
    _check_kind(kind)
    adj = g.adjacency
    nv = g.num_vertices
    alg = dp.ALGEBRAS[kind]
    wt = alg.weight
    need = alg.need
    rainbow = kind == "rainbow2"
    divisor = _UNIT_COVER[kind]

    if initial is not None:
        seed = _witness_from_values(g.n, g.k, kind, initial)
        seed_w = sum(wt[v] for v in initial)
        _check_witness(g, kind, seed, seed_w)
        best_vals = tuple(initial)
    else:
        best_vals = greedy_labeling(g, kind)
    best_w = sum(wt[v] for v in best_vals)

    vals = [-1] * nv
    got = [0] * nv
    pending = [3] * nv
    # deficit of an open vertex: coverage still required if it stays 0
    defv = [2 if kind != "domination" else 1] * nv
    total = sum(defv)

    st = {
        "nodes": 0,
        "truncated": False,
        "best_w": best_w,
        "best_vals": best_vals,
        "total": total,
    }

    def unmet(v: int) -> int:
        if rainbow:
            missing = need & ~got[v]
            return (missing & 1) + (missing >> 1)
        return need - got[v] if got[v] < need else 0

    def current_deficit(v: int) -> int:
        if vals[v] > 0:
            return 0
        return unmet(v)

    def set_def(v: int, value: int) -> None:
        st["total"] += value - defv[v]
        defv[v] = value

    def dfs(v: int, w: int) -> None:
        if v == nv:
            if w < st["best_w"]:
                st["best_w"] = w
                st["best_vals"] = tuple(vals)
            return
        for lab in alg.labels:
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
            feasible = not (lab == 0 and pending[v] == 0 and unmet(v) > 0)
            touched = []
            for u in adj[v]:
                old_got = got[u]
                if rainbow:
                    got[u] |= lab
                else:
                    got[u] += lab
                touched.append((u, old_got))
                pending[u] -= 1
                saved.append((u, defv[u]))
                set_def(u, current_deficit(u))
                if vals[u] == 0 and pending[u] == 0 and unmet(u) > 0:
                    feasible = False
            if feasible and w2 + -(-st["total"] // divisor) < st["best_w"]:
                dfs(v + 1, w2)
            for u, old_got in touched:
                got[u] = old_got
                pending[u] += 1
            for x, old_def in reversed(saved):
                set_def(x, old_def)
            vals[v] = -1

    dfs(0, 0)
    witness = _witness_from_values(g.n, g.k, kind, st["best_vals"])
    _check_witness(g, kind, witness, st["best_w"])
    if not st["truncated"]:
        return SolveResult(
            kind, g.n, g.k, st["best_w"], witness, "branch_and_bound", st["nodes"]
        )
    lo = max(kind_floor(g, kind), 0)
    return BoundsOnly(kind, g.n, g.k, lo, st["best_w"], witness, st["nodes"])
