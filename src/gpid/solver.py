"""Exact solvers for domination, Italian domination and 2-rainbow
domination numbers on P(n, k).

Three routes with overlapping domains keep each other honest:

* ``solve_exhaustive`` -- exhaustive search by ascending weight class,
  gated to tiny instances; the oracle everything else is compared against.
* ``solve_dp``         -- cyclic profile dynamic program, exact for k <= 3.
* ``solve_branch_and_bound`` -- depth-first search with a charge-counting
  cut; exact when it completes, otherwise certified bounds.

All three read what a kind is (labels, weights, need, residual demand)
from its record in ``labeling.KINDS``.  Every returned witness is built,
re-validated and weighed by one helper, ``_witness``, before the result is
handed back.  Results (exhaustive, DP) and graphs are cached, each cache
bounded by ``CACHE_SIZE`` entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import dp, exhaustive
from .errors import InternalError, InvalidParameters
from .graph import CACHE_SIZE, PetersenGraph, build_petersen
from .labeling import (  # the validators are called by name, see _witness
    Kind,
    Witness,
    kind_of,
    validate_2rdf,  # noqa: F401
    validate_dominating,  # noqa: F401
    validate_idf,  # noqa: F401
    witness_json,
)


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
            "witness": witness_json(self.n, self.k, self.witness),
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
            "incumbent": witness_json(self.n, self.k, self.incumbent),
        }


def _witness(g: PetersenGraph, kd: Kind, values, optimum: int | None = None) -> Witness:
    """The kind's witness built from label values, after validating it and
    checking that it weighs `optimum` (when given)."""
    values = tuple(int(v) for v in values)
    witness = kd.witness(g.n, g.k, values)
    # By name at call time: wrappers installed on this module see the call.
    validate = globals()[kd.validator]
    # a vertex set carries no graph; a labeling does
    report = validate(g, witness) if isinstance(witness, tuple) else validate(witness)
    w = sum(kd.weight[v] for v in values)
    if not report.valid or (optimum is not None and w != optimum):
        raise InternalError(f"unsound witness for {kd.name} on P({g.n},{g.k})")
    return witness


def degree_lower_bound(g: PetersenGraph) -> int:
    """ceil(2|V| / (Delta + 2)) with Delta = 3, i.e. ceil(4n/5)."""
    return -(-2 * g.num_vertices // 5)


def _unit_cover(kd: Kind) -> int:
    """Most coverage demand one unit of weight meets on a cubic graph.

    Every vertex demands weight[need] (1 for domination, 2 otherwise); a
    label of weight w >= 1 meets its own vertex's demand and at most w at
    each of 3 neighbors, so per unit of weight at most weight[need] + 3.
    """
    return kd.weight[kd.need] + 3


def kind_floor(g: PetersenGraph, kind: str) -> int:
    """A cheap unconditional lower bound for the invariant on P(n, k):
    ceil(|V|/4) for domination and ceil(2|V|/5) otherwise."""
    kd = kind_of(kind)
    return -(-kd.weight[kd.need] * g.num_vertices // _unit_cover(kd))


def solve_exhaustive(g: PetersenGraph, kind: str) -> SolveResult:
    """Global optimum by exhaustive search (tiny instances only)."""
    kind_of(kind)  # an unknown kind is rejected before it reaches the cache
    return _solve_exhaustive_cached(g.n, g.k, kind)


@lru_cache(maxsize=CACHE_SIZE)
def _solve_exhaustive_cached(n: int, k: int, kind: str) -> SolveResult:
    g = build_petersen(n, k)
    opt, values, examined = exhaustive.exhaustive_minimum(g, kind)
    witness = _witness(g, kind_of(kind), values, opt)
    return SolveResult(kind, n, k, opt, witness, "exhaustive", examined)


@lru_cache(maxsize=CACHE_SIZE)
def solve_dp(n: int, k: int, kind: str) -> SolveResult:
    """Exact optimum via the cyclic profile DP; supported for k <= 3."""
    kd = kind_of(kind)
    if k > 3:
        raise InvalidParameters(f"dp solver supports k <= 3, got k={k}")
    g = build_petersen(n, k)
    opt, seq, explored = dp.solve_cycle(n, k, kind)
    witness = _witness(g, kd, seq, opt)
    return SolveResult(kind, n, k, opt, witness, "dp", explored)


def greedy_labeling(g: PetersenGraph, kind: str) -> tuple[int, ...]:
    """A valid labeling found by start-full-then-drop; used for incumbents.

    Every vertex starts at the smallest label of which two neighbors cover
    a 0-vertex; then, in id order, each vertex drops to 0 where its closed
    neighborhood stays covered, and finally to the first lighter nonzero
    label that keeps it covered.
    """
    kd = kind_of(kind)
    adj = g.adjacency
    combine = kd.combine
    need = kd.need
    wt = kd.weight
    start = min(c for c in kd.labels if combine(c, c) >= need)
    vals = [start] * g.num_vertices

    def covered(v: int) -> bool:
        a, b, c = adj[v]
        return vals[v] != 0 or combine(combine(vals[a], vals[b]), vals[c]) >= need

    def lower(v: int, trials) -> None:
        old = vals[v]
        for trial in trials:
            vals[v] = trial
            if covered(v) and all(covered(u) for u in adj[v]):
                return
        vals[v] = old

    for v in range(g.num_vertices):
        lower(v, (0,))
    for v in range(g.num_vertices):
        lower(v, [c for c in kd.labels[1:] if wt[c] < wt[vals[v]]])
    return tuple(vals)


def repair_idf(g: PetersenGraph, values) -> tuple[int, ...]:
    """Raise labels until the Italian condition holds everywhere.

    Deterministic: one pass in id order labels 1 each uncovered 0-vertex.
    Labels only rise, so a bump never uncovers a vertex already passed;
    the result is the one of bumping the lowest-id violating vertex
    until none is left.
    """
    kd = kind_of("italian")
    combine = kd.combine
    vals = list(values)
    for v, (a, b, c) in enumerate(g.adjacency):
        if vals[v] == 0 and combine(combine(vals[a], vals[b]), vals[c]) < kd.need:
            vals[v] = 1
    return tuple(vals)


def solve_branch_and_bound(
    g: PetersenGraph,
    kind: str,
    budget: int = 200_000,
    initial: tuple[int, ...] | None = None,
) -> SolveResult | BoundsOnly:
    """DFS over vertices in id order, labels tried ascending.

    Each vertex carries its residual demand, reduced by the kind's table
    as its neighbors are labeled.  A node is cut when its partial weight
    plus ceil(total unmet demand / unit cover) cannot beat the incumbent,
    the unmet demand of an open or 0-labeled vertex being the weight of
    its residual.  `budget` counts label assignments; on exhaustion the
    result degrades to BoundsOnly with lo = the unconditional kind floor
    and hi = the incumbent's weight.  An `initial` labeling, when given,
    seeds the incumbent and must be valid for the kind.
    """
    kd = kind_of(kind)
    adj = g.adjacency
    nv = g.num_vertices
    wt = kd.weight
    red = kd.reduce
    divisor = _unit_cover(kd)

    if initial is not None:
        _witness(g, kd, initial)
        best_vals = tuple(initial)
    else:
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
