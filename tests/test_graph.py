import json

import pytest
from hypothesis import given, strategies as st

from gpid import (
    build_petersen,
    column,
    domination_value,
    italian_value,
    neighbors,
    rainbow2_value,
)
from gpid.dp import solve_cycle
from gpid.errors import InvalidParameters, OutOfRange
from gpid.graph import (
    export_descriptor_json,
    export_edge_list,
    graph_descriptor,
    is_admissible,
)

from conftest import oracle_adjacency, oracle_connected, oracle_girth


def test_p62_figure_adjacency(p62):
    assert p62.num_vertices == 12
    assert all(len(nbrs) == 3 for nbrs in p62.adjacency)
    assert neighbors(p62, 1) == {5, 9, 0}
    assert neighbors(p62, 0) == {2, 10, 1}


def test_smallest_case_is_the_prism():
    g = build_petersen(3, 1)
    assert g.num_vertices == 6
    assert g.num_edges == 9
    assert len(g.edges()) == 9


def test_p52_girth_five():
    g = build_petersen(5, 2)
    adj = [set(nbrs) for nbrs in g.adjacency]
    assert oracle_girth(adj) == 5


def test_p41_inner_vertex_neighbors():
    g = build_petersen(4, 1)
    assert neighbors(g, 3) == {1, 5, 2}


@pytest.mark.parametrize(
    "n,k,i,expected",
    [(6, 2, 0, (0, 1)), (6, 2, 5, (10, 11)), (5, 2, 3, (6, 7))],
)
def test_column_views(n, k, i, expected):
    g = build_petersen(n, k)
    view = column(g, i)
    assert view.vertices == expected
    assert (view.outer, view.inner) == expected


def test_columns_partition_vertices():
    g = build_petersen(7, 3)
    seen = set()
    for i in range(g.n):
        seen.update(column(g, i).vertices)
    assert seen == set(range(g.num_vertices))


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
        outer, inner = column(g, i).vertices
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


def test_out_of_range():
    g = build_petersen(5, 2)
    with pytest.raises(OutOfRange):
        neighbors(g, 10)
    with pytest.raises(OutOfRange):
        column(g, 5)


def test_edge_list_export():
    g = build_petersen(3, 1)
    text = export_edge_list(g)
    lines = text.strip().splitlines()
    assert len(lines) == 9
    pairs = [tuple(map(int, line.split())) for line in lines]
    assert pairs == sorted(pairs)
    assert all(u < v for u, v in pairs)
    assert (0, 1) in pairs and (0, 2) in pairs


def test_descriptor_json():
    g = build_petersen(6, 2)
    assert graph_descriptor(g) == {"n": 6, "k": 2, "vertices": 12, "edges": 18}
    assert json.loads(export_descriptor_json(g))["edges"] == 18
