"""Generalized Petersen graphs P(n, k).

Vertex numbering: even ids 0, 2, ..., 2n-2 form the outer cycle, odd ids
1, 3, ..., 2n-1 are the inner vertices.  Column i is the spoke pair
(v_{2i}, v_{2i+1}).  The outer vertex of column i is adjacent to the outer
vertices of columns i+-1 (mod n) and to its spoke partner; the inner
vertex is adjacent to the inner vertices of columns i+-k (mod n) and to
its spoke partner.  Requiring 2k < n keeps the graph simple and 3-regular.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import InvalidParameters


@dataclass(frozen=True)
class PetersenGraph:
    """Immutable adjacency structure of P(n, k)."""

    n: int
    k: int
    adjacency: tuple[tuple[int, int, int], ...]

    @property
    def num_vertices(self) -> int:
        return 2 * self.n

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, sorted ascending."""
        out = []
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if u < v:
                    out.append((u, v))
        out.sort()
        return out


# Entries kept by each result cache (graphs here; exhaustive and DP results
# in the solver): enough for `verify-theorems` and each benchmark workload,
# so that a long `value` sweep holds at most this many graphs and witnesses.
CACHE_SIZE = 1024


def is_admissible(n: int, k: int) -> bool:
    """Whether P(n, k) is defined here: n >= 3, k >= 1 and 2k < n."""
    return n >= 3 and k >= 1 and 2 * k < n


def require_admissible(n: int, k: int) -> None:
    """Raise InvalidParameters unless P(n, k) is admissible."""
    if not is_admissible(n, k):
        raise InvalidParameters(
            f"P(n,k) requires n >= 3, k >= 1, 2k < n; got n={n}, k={k}"
        )


@lru_cache(maxsize=CACHE_SIZE)
def build_petersen(n: int, k: int) -> PetersenGraph:
    """Construct P(n, k).

    Requires n >= 3 and 1 <= k with 2k < n.  Identical arguments always
    yield an identical (cached, shared, immutable) graph while it is among
    the CACHE_SIZE most recently used.  Neighbor lists are stored in
    ascending id order so serialized output is canonical.
    """
    if not isinstance(n, int) or not isinstance(k, int):
        raise InvalidParameters(f"n and k must be integers, got n={n!r}, k={k!r}")
    require_admissible(n, k)
    adj = []
    for i in range(n):
        outer = 2 * i
        inner = 2 * i + 1
        adj.append(tuple(sorted((2 * ((i + 1) % n), 2 * ((i - 1) % n), inner))))
        adj.append(
            tuple(sorted((2 * ((i + k) % n) + 1, 2 * ((i - k) % n) + 1, outer)))
        )
    return PetersenGraph(n=n, k=k, adjacency=tuple(adj))
