"""Shared fixtures and independent oracle helpers.

The oracles re-derive adjacency and validity from first principles so
tests do not lean on the code paths they are checking.
"""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import settings

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


def oracle_adjacency(n: int, k: int) -> list[set[int]]:
    """Adjacency of P(n,k) straight from the edge rule, as neighbor sets."""
    adj = [set() for _ in range(2 * n)]

    def add(u, v):
        adj[u].add(v)
        adj[v].add(u)

    for i in range(n):
        add(2 * i, 2 * ((i + 1) % n))          # outer cycle
        add(2 * i, 2 * i + 1)                  # spoke
        add(2 * i + 1, 2 * ((i + k) % n) + 1)  # inner chords
    return adj


def oracle_girth(adj: list[set[int]]) -> int:
    """Shortest cycle length by BFS from every vertex."""
    best = len(adj) + 1
    for s in range(len(adj)):
        dist = {s: 0}
        parent = {s: None}
        q = deque([s])
        while q:
            u = q.popleft()
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    q.append(v)
                elif parent[u] != v:
                    best = min(best, dist[u] + dist[v] + 1)
    return best


def oracle_is_idf(adj: list[set[int]], values) -> bool:
    return all(
        values[v] != 0 or sum(values[u] for u in adj[v]) >= 2
        for v in range(len(adj))
    )


def oracle_is_2rdf(adj: list[set[int]], masks) -> bool:
    out = True
    for v in range(len(adj)):
        if masks[v] == 0:
            got = 0
            for u in adj[v]:
                got |= masks[u]
            out = out and got == 3
    return out


def oracle_is_dominating(adj: list[set[int]], chosen: set[int]) -> bool:
    return all(
        v in chosen or any(u in chosen for u in adj[v]) for v in range(len(adj))
    )


def oracle_connected(adj: list[set[int]]) -> bool:
    seen = {0}
    q = deque([0])
    while q:
        u = q.popleft()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                q.append(v)
    return len(seen) == len(adj)


@pytest.fixture(scope="session")
def p62():
    from gpid.graph import build_petersen

    return build_petersen(6, 2)
