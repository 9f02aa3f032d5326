import numpy as np
import pytest

from gpid import dp, exhaustive, formulas, solver
from gpid.constructions import construct_pn2
from gpid.errors import BudgetExceeded, InvalidParameters
from gpid.graph import build_petersen
from gpid.labeling import KINDS, kind_of, validate_2rdf, validate_dominating, validate_idf, weight
from gpid.solver import (
    BoundsOnly,
    SolveResult,
    greedy_labeling,
    kind_floor,
    solve_branch_and_bound,
    solve_dp,
    solve_exhaustive,
)

from conftest import oracle_adjacency, oracle_is_2rdf, oracle_is_idf


def test_exhaustive_examples():
    assert solve_exhaustive(build_petersen(3, 1), "italian").optimum == 3
    assert solve_exhaustive(build_petersen(5, 2), "italian").optimum == 4
    assert solve_exhaustive(build_petersen(6, 2), "domination").optimum == 4


def test_exhaustive_size_gates():
    with pytest.raises(BudgetExceeded):
        solve_exhaustive(build_petersen(9, 1), "italian")
    with pytest.raises(BudgetExceeded):
        solve_exhaustive(build_petersen(7, 1), "rainbow2")


def test_dp_examples():
    assert solve_dp(10, 1, "italian").optimum == 10
    assert solve_dp(7, 2, "italian").optimum == 7
    assert solve_dp(5, 2, "rainbow2").optimum == 5


def test_dp_rejects_large_k():
    with pytest.raises(InvalidParameters):
        solve_dp(15, 4, "italian")
    with pytest.raises(InvalidParameters):
        solve_dp(5, 2, "roman")


def test_dp_equals_exhaustive_spot():
    for n, k, kind in [(6, 1, "italian"), (7, 2, "domination"), (7, 3, "italian"),
                       (5, 2, "rainbow2"), (6, 1, "rainbow2")]:
        a = solve_dp(n, k, kind)
        b = solve_exhaustive(build_petersen(n, k), kind)
        assert a.optimum == b.optimum, (n, k, kind)


def test_dp_witness_is_lex_min():
    """Both exact routes break ties to the lexicographically smallest
    optimal label vector, so their witnesses agree exactly."""
    for n, k, kind in [(5, 1, "italian"), (6, 2, "italian"), (5, 2, "domination"),
                       (5, 2, "rainbow2")]:
        a = solve_dp(n, k, kind)
        b = solve_exhaustive(build_petersen(n, k), kind)
        wa = a.witness if isinstance(a.witness, tuple) else a.witness.values
        wb = b.witness if isinstance(b.witness, tuple) else b.witness.values
        assert wa == wb, (n, k, kind)


def test_witness_soundness():
    r = solve_dp(9, 2, "italian")
    assert validate_idf(r.witness).valid
    assert weight(r.witness) == r.optimum
    r = solve_dp(8, 1, "rainbow2")
    assert validate_2rdf(r.witness).valid
    assert weight(r.witness) == r.optimum
    r = solve_dp(8, 2, "domination")
    assert validate_dominating(build_petersen(8, 2), r.witness).valid
    assert len(r.witness) == r.optimum


def test_dp_determinism():
    from gpid.dp import solve_cycle

    a = solve_cycle(9, 2, "italian")
    b = solve_cycle(9, 2, "italian")
    assert a[:2] == b[:2]


def test_degree_lower_bound_examples():
    assert kind_floor(build_petersen(10, 3), "italian") == 8
    assert kind_floor(build_petersen(7, 2), "italian") == 6
    assert kind_floor(build_petersen(15, 7), "italian") == 12


def test_bnb_exact_small():
    r = solve_branch_and_bound(build_petersen(5, 2), "italian", budget=10**6)
    assert isinstance(r, SolveResult)
    assert r.optimum == 4


def test_bnb_seeded_certifies_p15_7():
    """Seeded with its greedy incumbent (weight 15), the search closes at
    the degree bound 12 within the budget."""
    g = build_petersen(15, 7)
    r = solve_branch_and_bound(g, "italian", budget=50_000)
    assert isinstance(r, SolveResult)
    assert r.optimum == 12 == kind_floor(g, "italian")
    assert sum(greedy_labeling(g, "italian")) == 15


def test_bnb_budget_zero_degenerates_to_bounds():
    g = build_petersen(10, 3)
    r = solve_branch_and_bound(g, "italian", budget=0)
    assert isinstance(r, BoundsOnly)
    assert r.lo == kind_floor(g, "italian")
    assert r.lo <= r.hi <= 2 * g.num_vertices
    assert validate_idf(r.incumbent).valid


def test_bnb_matches_dp_all_kinds():
    for kind in ("italian", "domination", "rainbow2"):
        r = solve_branch_and_bound(build_petersen(6, 2), kind, budget=10**7)
        assert isinstance(r, SolveResult)
        assert r.optimum == solve_dp(6, 2, kind).optimum


def test_bnb_matches_dp_k3_beyond_exhaustive_gate():
    for n, kind in [(9, "italian"), (10, "italian"), (11, "domination")]:
        r = solve_branch_and_bound(build_petersen(n, 3), kind, budget=2 * 10**7)
        assert isinstance(r, SolveResult)
        assert r.optimum == solve_dp(n, 3, kind).optimum


@pytest.mark.parametrize("kind", list(KINDS))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_the_degree_floor_bounds_the_dp_optimum(kind, k):
    # solve_dp starts its deepening here where no closed form is exact
    for n in range(2 * k + 1, 25):
        assert kind_floor(build_petersen(n, k), kind) <= dp.solve_cycle(n, k, kind)[0], n


# (kind, n, k, passes from the degree floor, passes from the cost-to-go bound)
FLOOR_SEEDED = [("domination", 15, 3, 2, 3), ("italian", 8, 3, 1, 3), ("rainbow2", 7, 3, 2, 4)]


@pytest.mark.parametrize("kind,n,k,seeded,unseeded", FLOOR_SEEDED)
def test_solve_dp_starts_at_the_degree_floor(kind, n, k, seeded, unseeded, monkeypatch):
    passes = []
    sweep = dp._sweep

    def counted(tables, steps, costs, prune, *offsets):
        passes.append(prune)
        return sweep(tables, steps, costs, prune, *offsets)

    monkeypatch.setattr(dp, "_sweep", counted)
    assert formulas.VALUES[kind](n, k).kind != "exact"
    solver.solve_dp.cache_clear()
    try:
        r = solve_dp(n, k, kind)
    finally:
        solver.solve_dp.cache_clear()
    floor = kind_floor(build_petersen(n, k), kind)
    assert passes == list(range(floor, r.optimum + 1))
    assert len(passes) == seeded
    passes.clear()
    assert dp.solve_cycle(n, k, kind)[0] == r.optimum
    assert len(passes) == unseeded


def test_invariant_chain_small():
    """degree bound <= gamma_I <= construction weight; gamma_I <= gamma_r2;
    gamma_I <= 2 gamma on every solved instance."""
    for n, k in [(5, 2), (8, 2), (10, 2), (7, 1), (12, 1)]:
        g = build_petersen(n, k)
        gi = solve_dp(n, k, "italian").optimum
        r2 = solve_dp(n, k, "rainbow2").optimum
        dom = solve_dp(n, k, "domination").optimum
        assert kind_floor(g, "italian") <= gi <= r2
        assert gi <= 2 * dom
        if k == 2 and n % 10 in (0, 5, 8):
            assert gi <= construct_pn2(n).actual_weight


def _reference_greedy(g, kind):
    """The loop `greedy_labeling` replaced, kept verbatim: two passes of
    `lower` calls, each trial checked by `covered` at v and at every
    neighbor of v."""
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


@pytest.mark.parametrize("kind", list(KINDS))
def test_greedy_matches_reference(kind):
    graphs = [build_petersen(n, k) for n in range(3, 41) for k in range(1, (n - 1) // 2 + 1)]
    for g in graphs + [build_petersen(600, 4)]:
        assert greedy_labeling(g, kind) == _reference_greedy(g, kind), (g.n, g.k)


def test_greedy_labelings_are_valid():
    for kind in ("italian", "domination", "rainbow2"):
        g = build_petersen(9, 3)
        vals = greedy_labeling(g, kind)
        adj = oracle_adjacency(9, 3)
        if kind == "italian":
            assert oracle_is_idf(adj, vals)
        elif kind == "domination":
            chosen = {v for v, x in enumerate(vals) if x}
            assert all(v in chosen or chosen & adj[v] for v in range(18))
        else:
            assert oracle_is_2rdf(adj, vals)


def test_result_json_shapes():
    r = solve_dp(6, 2, "domination")
    d = r.to_json_dict()
    assert d["invariant"] == "domination" and sorted(d["witness"]["set"]) == list(
        d["witness"]["set"]
    )
    r = solve_dp(5, 2, "rainbow2")
    d = r.to_json_dict()
    assert set(d["witness"]["values"]) <= {"0", "1", "2", "12"}
    b = solve_branch_and_bound(build_petersen(12, 5), "italian", budget=10)
    assert isinstance(b, BoundsOnly)
    d = b.to_json_dict()
    assert d["lo"] <= d["hi"]


def test_result_caches_are_bounded():
    from gpid.graph import CACHE_SIZE

    for cached in (solve_dp, solve_exhaustive, build_petersen):
        assert cached.cache_info().maxsize == CACHE_SIZE


def test_per_process_tables_are_bounded_and_read_only():
    # one label table per kind, its keys within the kind's state codes
    assert solver._label_table.cache_info().maxsize == len(KINDS)
    for kind, kd in KINDS.items():
        solve_branch_and_bound(build_petersen(9, 4), kind, budget=5000)
        table = solver._label_table(kind)
        codes = 3 * (kd.need + 1)
        assert 0 < len(table) <= 16 * codes**4
        assert all(p < 16 and all(0 <= c < codes for c in rest) for p, *rest in table)
    # one pair of halves per (vertex count, kind) in the gates, each with
    # at most one suffix block per weight range clamped to [0, max weight]
    assert exhaustive._halves.cache_info().maxsize == sum(exhaustive.SIZE_GATES.values())
    for kind in KINDS:
        exhaustive.exhaustive_minimum(build_petersen(5, 1), kind)
        halves = exhaustive._halves(10, kind)
        top = halves.max_sw
        assert all(0 <= lo <= hi <= top for lo, hi in halves.fits)
        assert len(halves.fits) <= (top + 1) * (top + 2) // 2
        arrays = (halves.prefixes_t, halves.suffixes_t, halves.sw, halves.classes, halves.cls)
        assert not any(a.flags.writeable for a in arrays + tuple(halves.fits.values()))
        # each block holds the fitting suffixes themselves, vertex-major
        for (lo, hi), fit in halves.fits.items():
            expected = halves.suffixes_t[:, (lo <= halves.sw) & (halves.sw <= hi)]
            assert fit.flags.c_contiguous and fit.shape == expected.shape  # (5, count)
            assert np.array_equal(fit, expected)


def test_uncapped_enumeration_adds_one_clamped_range():
    exhaustive._halves.cache_clear()
    g = build_petersen(5, 2)
    for cap in (None, 10**9):
        for _ in exhaustive.iter_valid_labelings(g, "italian", cap):
            pass
    halves = exhaustive._halves(10, "italian")
    assert set(halves.fits) == {(0, halves.max_sw)}
    assert exhaustive._halves.cache_info().currsize == 1
