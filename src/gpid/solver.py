"""Exact solvers for domination, Italian domination and 2-rainbow
domination numbers on P(n, k).

Three routes with overlapping domains keep each other honest:

* ``solve_exhaustive`` -- exhaustive search by ascending weight class,
  gated to tiny instances; the oracle everything else is compared against.
* ``solve_dp``         -- cyclic profile dynamic program, exact for k <= 3;
  its deepening starts at the kind's closed form (``formulas.VALUES``)
  where that is exact, which saves passes and cannot change a result.
* ``solve_branch_and_bound`` -- depth-first search with a charge-counting
  cut; each label is tested against the cut and the neighbors' demands
  before anything is written, and only surviving labels are applied.
  Exact when it completes, otherwise certified bounds.

All three read what a kind is (labels, weights, need, residual demand)
from its record in ``labeling.KINDS``.  Every returned witness is built,
re-validated and weighed by one helper, ``_witness``, before the result is
handed back.  Results (exhaustive, DP) and graphs are cached, each cache
bounded by ``CACHE_SIZE`` entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import dp, exhaustive, formulas
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


def _witness(g: PetersenGraph, kd: Kind, values, optimum: int) -> Witness:
    """The kind's witness built from label values, after validating it and
    checking that it weighs `optimum`."""
    values = tuple(int(v) for v in values)
    witness = kd.witness(g.n, g.k, values)
    # By name at call time: wrappers installed on this module see the call.
    validate = globals()[kd.validator]
    # a vertex set carries no graph; a labeling does
    report = validate(g, witness) if isinstance(witness, tuple) else validate(witness)
    w = sum(kd.weight[v] for v in values)
    if not report.valid or w != optimum:
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


@lru_cache(maxsize=CACHE_SIZE)
def solve_exhaustive(g: PetersenGraph, kind: str) -> SolveResult:
    """Global optimum by exhaustive search (tiny instances only)."""
    kd = kind_of(kind)
    opt, values, examined = exhaustive.exhaustive_minimum(g, kind)
    witness = _witness(g, kd, values, opt)
    return SolveResult(kind, g.n, g.k, opt, witness, "exhaustive", examined)


@lru_cache(maxsize=CACHE_SIZE)
def solve_dp(n: int, k: int, kind: str) -> SolveResult:
    """Exact optimum via the cyclic profile DP; supported for k <= 3.

    The DP's deepening starts at the kind's closed form where that is
    exact; a wrong closed form costs passes, never a wrong optimum."""
    kd = kind_of(kind)
    if k > 3:
        raise InvalidParameters(f"dp solver supports k <= 3, got k={k}")
    g = build_petersen(n, k)
    f = formulas.VALUES[kind](n, k)
    first = f.value if f.kind == "exact" else 0
    opt, seq, explored = dp.solve_cycle(n, k, kind, first)
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


def solve_branch_and_bound(
    g: PetersenGraph, kind: str, budget: int = 200_000
) -> SolveResult | BoundsOnly:
    """DFS over vertices in id order, labels tried ascending, each label
    tested before it is applied.

    Each vertex carries its residual demand, reduced by the kind's table
    as its neighbors are labeled; it is final once the highest-id
    neighbor is labeled.  An open or 0-labeled vertex's unmet demand is
    its residual's weight.  A label's effect on the three neighbors
    (distinct from it and from each other, as 2k < n) and on the total
    unmet demand is computed into locals; the label is dropped, nothing
    written, when it leaves a 0-labeled vertex with final unmet demand or
    when its partial weight plus ceil(total unmet demand / unit cover)
    cannot beat the incumbent.  Only a surviving label is written,
    searched below and undone.
    `budget` counts labels tested; on exhaustion the result degrades to
    BoundsOnly with lo = the unconditional kind floor and hi = the
    incumbent's weight.  The first incumbent is the greedy labeling.
    """
    kd = kind_of(kind)
    adj = g.adjacency
    nv = g.num_vertices
    labels = kd.labels
    wt = kd.weight
    red = kd.reduce
    divisor = _unit_cover(kd)
    # gain[d][c]: change in the unmet demand of an open or 0-labeled vertex
    # of residual d when a neighbor takes label c; no_gain for label > 0
    gain = tuple(tuple(wt[r] - wt[d] for r in row) for d, row in enumerate(red))
    no_gain = (0,) * len(labels)
    last = [max(nbrs) for nbrs in adj]

    best_vals = greedy_labeling(g, kind)
    best_w = sum(wt[v] for v in best_vals)

    vals = [-1] * nv
    res = [kd.need] * nv  # residual demand
    nodes = 0

    def dfs(v: int, w: int, total: int) -> bool:
        """Search below v; False once the budget is exhausted."""
        nonlocal nodes, best_w, best_vals
        if v == nv:
            if w < best_w:
                best_w, best_vals = w, tuple(vals)
            return True
        a, b, c = adj[v]
        ra, rb, rc = res[a], res[b], res[c]
        rowa, rowb, rowc = red[ra], red[rb], red[rc]
        ga = no_gain if vals[a] > 0 else gain[ra]
        gb = no_gain if vals[b] > 0 else gain[rb]
        gc = no_gain if vals[c] > 0 else gain[rc]
        # a 0-labeled vertex whose demand turns final must end up covered
        fa = vals[a] == 0 and last[a] == v
        fb = vals[b] == 0 and last[b] == v
        fc = vals[c] == 0 and last[c] == v
        zero_dead = last[v] < v and res[v] != 0  # label 0 leaves v uncovered
        own = wt[res[v]]  # v's unmet demand, cleared by a positive label
        for lab in labels:
            nodes += 1
            if nodes > budget:
                return False
            na, nb, nc = rowa[lab], rowb[lab], rowc[lab]
            if (fa and na) or (fb and nb) or (fc and nc) or (zero_dead and lab == 0):
                continue
            w2 = w + wt[lab]
            t2 = total + ga[lab] + gb[lab] + gc[lab] - (own if lab else 0)
            if w2 + -(-t2 // divisor) >= best_w:
                continue
            vals[v] = lab
            res[a], res[b], res[c] = na, nb, nc
            in_budget = dfs(v + 1, w2, t2)
            res[a], res[b], res[c] = ra, rb, rc
            if not in_budget:
                return False
        vals[v] = -1
        return True

    complete = dfs(0, 0, nv * wt[kd.need])
    witness = _witness(g, kd, best_vals, best_w)
    if complete:
        return SolveResult(kind, g.n, g.k, best_w, witness, "branch_and_bound", nodes)
    return BoundsOnly(kind, g.n, g.k, kind_floor(g, kind), best_w, witness, nodes)
