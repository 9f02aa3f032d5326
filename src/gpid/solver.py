"""Exact solvers for domination, Italian domination and 2-rainbow
domination numbers on P(n, k).

Three routes with overlapping domains keep each other honest:

* ``solve_exhaustive`` -- exhaustive search by ascending weight class,
  gated to tiny instances; the oracle everything else is compared against.
* ``solve_dp``         -- cyclic profile dynamic program, exact for k <= 3;
  its deepening starts at the kind's closed form (``formulas.VALUES``)
  where that is exact, and otherwise at the degree floor ``kind_floor``,
  which saves passes and cannot change a result.
* ``solve_branch_and_bound`` -- depth-first search with a charge-counting
  cut; each vertex carries one state code, and the labels a vertex can
  take in its state, with their effects, come from one table per kind,
  shared by every solve of the process and filled once per state on
  first use, so a node only adds, compares and writes.  Exact when it
  completes or when the incumbent meets the kind floor, otherwise
  certified bounds.

All three read what a kind is (labels, weights, need, residual demand)
from its record in ``labeling.KINDS``.  Every returned witness is built,
re-validated and weighed by one helper, ``_witness``, before the result is
handed back.  Results (exhaustive, DP) and graphs are cached, each cache
bounded by ``CACHE_SIZE`` entries; the label tables of branch and bound
and the halves of the exhaustive enumerator (``exhaustive._halves``)
depend on the kind and the vertex count only and are kept per process,
bounded by their key domains.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import dp, exhaustive, formulas
from .errors import InternalError, InvalidParameters
from .graph import CACHE_SIZE, PetersenGraph, build_petersen
from .labeling import (  # the validators are called by name, see _witness
    KINDS,
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


def _unit_cover(kd: Kind) -> int:
    """Most coverage demand one unit of weight meets on a cubic graph.

    Every vertex demands weight[need] (1 for domination, 2 otherwise); a
    label of weight w >= 1 meets its own vertex's demand and at most w at
    each of 3 neighbors, so per unit of weight at most weight[need] + 3.
    """
    return kd.weight[kd.need] + 3


def kind_floor(g: PetersenGraph, kind: str) -> int:
    """The degree bound of the invariant on P(n, k) (`_unit_cover`):
    ceil(|V|/4) = ceil(n/2) for domination, and otherwise
    ceil(2|V| / (Delta + 2)) = ceil(4n/5), the Italian bound of Chellali,
    Haynes, Hedetniemi and McRae, which 2-rainbow domination inherits."""
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
    exact and at the degree floor (`kind_floor`) otherwise; a pass below
    the optimum closes nothing, so a wrong closed form costs passes,
    never a wrong optimum."""
    kd = kind_of(kind)
    if k > 3:
        raise InvalidParameters(f"dp solver supports k <= 3, got k={k}")
    dp.require_fits(n, kind)  # before the O(n) graph
    g = build_petersen(n, k)
    f = formulas.VALUES[kind](n, k)
    first = f.value if f.kind == "exact" else kind_floor(g, kind)
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
    closed = [(v, *nbrs) for v, nbrs in enumerate(adj)]
    for drop in (True, False):
        for v, nbhd in enumerate(closed):
            old = vals[v]
            trials = (0,) if drop else [c for c in kd.labels[1:] if wt[c] < wt[old]]
            for trial in trials:
                vals[v] = trial
                # the trial stands when every 0-vertex of v's closed
                # neighborhood stays covered
                for u in nbhd:
                    if not vals[u]:
                        a, b, c = adj[u]
                        if combine(combine(vals[a], vals[b]), vals[c]) < need:
                            break
                else:
                    break
            else:
                vals[v] = old
    return tuple(vals)


# The status part of a vertex's state code in branch and bound,
# residual * 3 + status; a positive vertex's residual no longer matters,
# so its code is _POS.
_OPEN, _ZERO, _POS = 0, 1, 2


class _LabelTable(dict):
    """The labels branch and bound lists at a vertex v, keyed by v's state
    (pattern, codes of v's neighbors a, b, c, code of v), each state's
    entry filled on first use.  An entry reads only the kind record and
    the key, so one table per kind serves every solve (`_label_table`);
    it holds at most 16 * codes^4 entries, codes = 3 * (need + 1).

    Pattern bits 1, 2, 4 mark the neighbors whose demand v's label makes
    final, bit 8 that v's own demand is final.  A label fails the cover
    test when it leaves a final 0-labeled neighbor, or v itself labeled 0,
    with demand left; it is counted but not listed.  Each listed label is
    (labels tested up to and including it, the label, the new codes of
    a, b, c and v, the change in the potential unit * weight + unmet
    demand).
    """

    def __init__(self, kd: Kind):
        super().__init__()
        self.kd = kd
        self.unit = _unit_cover(kd)

    def __missing__(self, key: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        kd, unit = self.kd, self.unit
        wt = kd.weight
        pattern, *codes, code_v = key
        rv = code_v // 3
        listed = []
        for tested, lab in enumerate(kd.labels, 1):
            alive = not (lab == 0 and pattern & 8 and rv)
            delta = unit * wt[lab] - (wt[rv] if lab else 0)
            new = []
            for bit, code in zip((1, 2, 4), codes):
                r, status = divmod(code, 3)
                if status == _POS:
                    new.append(code)
                    continue
                r2 = kd.reduce[r][lab]
                alive = alive and not (pattern & bit and status == _ZERO and r2)
                delta += wt[r2] - wt[r]
                new.append(r2 * 3 + status)
            if alive:
                listed.append((tested, lab, *new, _POS if lab else rv * 3 + _ZERO, delta))
        self[key] = entry = tuple(listed)
        return entry


@lru_cache(maxsize=len(KINDS))
def _label_table(kind: str) -> _LabelTable:
    return _LabelTable(kind_of(kind))


def solve_branch_and_bound(
    g: PetersenGraph, kind: str, budget: int = 200_000
) -> SolveResult | BoundsOnly:
    """DFS over vertices in id order, labels tested ascending, each label
    tested before it is applied.

    Each vertex holds one state code, residual * 3 + status (open, 0 or
    positive).  Its residual demand drops by the kind's table as its
    neighbors are labeled, and is final once its highest-id neighbor is
    labeled; an open or 0-labeled vertex's unmet demand is its residual's
    weight.  A static 4-bit pattern per vertex v records which neighbors
    v's label makes final and whether v's own demand is final.  A call at
    v reads its labels from `_LabelTable` under (pattern, codes of v's
    three neighbors, code of v); those neighbors are distinct from v and
    from each other (2k < n), so a listed label writes its four new codes
    and descends.  Labels failing the cover test are counted but never
    listed.  The search threads the potential
    s = unit_cover * weight + unmet demand and cuts a label when
    s > unit_cover * (best - 1), which is exactly
    weight + ceil(unmet / unit_cover) >= best.  At a leaf no demand is
    unmet, so its weight is s / unit_cover.

    `budget` counts labels tested.  The count is threaded through the
    calls and checked before each descent and when a call returns; as it
    only grows, the search stops where a check at every label would
    stop it.  On exhaustion `explored` is budget + 1 and the result is
    BoundsOnly with lo = the unconditional kind floor and hi = the
    incumbent's weight, or a SolveResult when the incumbent meets that
    floor.  The first incumbent is the greedy labeling.

    The search takes one Python frame per vertex, so a search deeper than
    the recursion limit ends in RecursionError.  It unwinds the way an
    exhausted budget does and the error is raised again from here.
    """
    kd = kind_of(kind)
    adj = g.adjacency
    nv = g.num_vertices
    size = len(kd.labels)
    unit = _unit_cover(kd)
    last = [max(nbrs) for nbrs in adj]
    pattern = [
        (last[a] == v) | (last[b] == v) << 1 | (last[c] == v) << 2 | (last[v] < v) << 3
        for v, (a, b, c) in enumerate(adj)
    ]

    greedy = greedy_labeling(g, kind)
    best = sum(kd.weight[v] for v in greedy), greedy
    cut = unit * (best[0] - 1)  # a potential above it cannot beat the incumbent

    vals = [-1] * nv
    code = [kd.need * 3 + _OPEN] * nv
    table = _label_table(kind)
    overflow = None  # a RecursionError met below, raised again at the top

    def dfs(v: int, s: int, nodes: int) -> int:
        """Search below v with potential s after `nodes` labels tested;
        the count after the subtree, above `budget` once it is exhausted."""
        nonlocal best, cut, overflow
        if v == nv:
            if s % unit:
                raise InternalError("branch and bound left demand unmet at a leaf")
            best = s // unit, tuple(vals)
            cut = s - unit
            return nodes
        a, b, c = adj[v]
        ca = code[a]
        cb = code[b]
        cc = code[c]
        cv = code[v]
        for tested, lab, na, nb, nc, nx, delta in table[pattern[v], ca, cb, cc, cv]:
            if s + delta > cut:
                continue
            nodes += tested
            if nodes > budget:
                return nodes
            vals[v] = lab
            code[a] = na
            code[b] = nb
            code[c] = nc
            code[v] = nx
            try:
                nodes = dfs(v + 1, s + delta, nodes)
            except RecursionError as error:
                # unwind like an exhausted budget: a traceback through
                # every level would hold a frame object per vertex
                overflow = error.with_traceback(None)
                return budget + 1
            if nodes > budget:
                return nodes
            nodes -= tested
        code[a] = ca
        code[b] = cb
        code[c] = cc
        code[v] = cv
        return nodes + size

    nodes = dfs(0, nv * kd.weight[kd.need], 0)
    del dfs  # dfs refers to itself: drop the cycle and free the search's state now
    if overflow is not None:
        raise overflow
    best_w, best_vals = best
    witness = _witness(g, kd, best_vals, best_w)
    lo = best_w if nodes <= budget else kind_floor(g, kind)
    explored = min(nodes, budget + 1)
    if lo == best_w:
        return SolveResult(kind, g.n, g.k, best_w, witness, "branch_and_bound", explored)
    return BoundsOnly(kind, g.n, g.k, lo, best_w, witness, explored)
