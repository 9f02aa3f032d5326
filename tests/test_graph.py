import pytest
from hypothesis import given, strategies as st

from gpid.dp import solve_cycle
from gpid.errors import InvalidParameters
from gpid.formulas import domination_value, italian_value, rainbow2_value
from gpid.graph import build_petersen, is_admissible

from conftest import oracle_adjacency, oracle_connected, oracle_girth


def test_p62_figure_adjacency(p62):
    assert p62.num_vertices == 12
    assert all(len(nbrs) == 3 for nbrs in p62.adjacency)
    assert p62.adjacency[1] == (0, 5, 9)
    assert p62.adjacency[0] == (1, 2, 10)


def test_smallest_case_is_the_prism():
    g = build_petersen(3, 1)
    assert g.num_vertices == 6
    assert len(g.edges()) == 9


def test_p52_girth_five():
    g = build_petersen(5, 2)
    adj = [set(nbrs) for nbrs in g.adjacency]
    assert oracle_girth(adj) == 5


def test_p41_inner_vertex_neighbors():
    g = build_petersen(4, 1)
    assert g.adjacency[3] == (1, 2, 5)


@pytest.mark.parametrize(
    "n,k,i,expected",
    [(6, 2, 0, (0, 1)), (6, 2, 5, (10, 11)), (5, 2, 3, (6, 7))],
)
def test_column_views(n, k, i, expected):
    """Column i is the spoke (v_{2i}, v_{2i+1}): an outer and an inner
    vertex adjacent to each other."""
    g = build_petersen(n, k)
    outer, inner = expected
    assert (outer, inner) == (2 * i, 2 * i + 1)
    assert inner in g.adjacency[outer] and outer in g.adjacency[inner]


def test_columns_partition_vertices():
    """The columns (v_{2i}, v_{2i+1}) hold every vertex once, each a spoke."""
    g = build_petersen(7, 3)
    spokes = [(2 * i, 2 * i + 1) for i in range(g.n)]
    assert sorted(v for spoke in spokes for v in spoke) == list(range(g.num_vertices))
    assert set(spokes) <= set(g.edges())


@pytest.mark.parametrize("n,k", [(3, 1), (5, 2), (7, 3), (9, 4), (30, 14)])
def test_matches_oracle_adjacency(n, k):
    g = build_petersen(n, k)
    oracle = oracle_adjacency(n, k)
    assert [set(nbrs) for nbrs in g.adjacency] == oracle


def test_all_small_graphs_are_cubic_and_connected():
    for n in range(3, 31):
        for k in range(1, (n - 1) // 2 + 1):
            g = build_petersen(n, k)
            adj = [set(x) for x in g.adjacency]
            assert all(len(s) == 3 for s in adj)
            assert oracle_connected(adj)
            # symmetry and irreflexivity
            for u in range(g.num_vertices):
                assert u not in adj[u]
                for v in adj[u]:
                    assert u in adj[v]


@given(
    st.integers(3, 40).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(1, (n - 1) // 2))
    )
)
def test_column_locality(nk):
    n, k = nk
    g = build_petersen(n, k)
    for i in range(n):
        outer, inner = 2 * i, 2 * i + 1
        outer_cols = {(u // 2 - i) % n for u in g.adjacency[outer] if u % 2 == 0}
        assert outer_cols == {1, n - 1} or (n == 3 and outer_cols == {1, 2})
        inner_cols = {(u // 2 - i) % n for u in g.adjacency[inner] if u % 2 == 1}
        assert inner_cols == {k % n, (n - k) % n}


def test_determinism():
    a = build_petersen(11, 4)
    b = build_petersen(11, 4)
    assert a.adjacency == b.adjacency
    assert a is b  # shared immutable instance


@pytest.mark.parametrize("n,k", [(2, 1), (5, 0), (6, 3), (4, 2), (10, 5)])
def test_invalid_parameters(n, k):
    assert not is_admissible(n, k)
    message = f"P(n,k) requires n >= 3, k >= 1, 2k < n; got n={n}, k={k}"
    for call in (build_petersen, italian_value, domination_value, rainbow2_value,
                 lambda n, k: solve_cycle(n, k, "italian")):
        with pytest.raises(InvalidParameters) as exc:
            call(n, k)
        assert str(exc.value) == message


def test_edge_list_export():
    g = build_petersen(3, 1)
    pairs = g.edges()
    assert len(pairs) == 9
    assert pairs == sorted(pairs)
    assert all(u < v for u, v in pairs)
    assert (0, 1) in pairs and (0, 2) in pairs
    assert len(build_petersen(6, 2).edges()) == 18
