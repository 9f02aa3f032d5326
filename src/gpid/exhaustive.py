"""Chunked full enumeration of labeling spaces on P(n, k).

Labelings are identified with base-b integers whose most significant
digit is vertex 0, so ascending index order is lexicographic order on
label vectors.  Enumeration is vectorized with numpy and processed in
chunks to bound memory; the largest gated instance (3^16 labelings)
scans in a few seconds.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .errors import BudgetExceeded, InvalidParameters
from .graph import PetersenGraph
from .labeling import kind_of

SIZE_GATES = {"domination": 16, "italian": 16, "rainbow2": 12}


def label_block(num_vertices: int, base: int, start: int, stop: int) -> np.ndarray:
    """Digits of indices start..stop-1 as a (stop-start, num_vertices) array."""
    idx = np.arange(start, stop, dtype=np.int64)
    out = np.empty((stop - start, num_vertices), dtype=np.uint8)
    for v in range(num_vertices):
        power = base ** (num_vertices - 1 - v)
        out[:, v] = (idx // power) % base
    return out


def validity_mask(labels: np.ndarray, g: PetersenGraph, kind: str) -> np.ndarray:
    """Boolean mask of rows satisfying the kind's domination condition."""
    kd = kind_of(kind)
    combine = kd.combine
    ok = np.ones(labels.shape[0], dtype=bool)
    for v in range(g.num_vertices):
        a, b, c = g.adjacency[v]
        got = combine(combine(labels[:, a], labels[:, b]), labels[:, c])
        ok &= (labels[:, v] != 0) | (got >= kd.need)
    return ok


def weights_of(labels: np.ndarray, kind: str) -> np.ndarray:
    kd = kind_of(kind)
    if kd.weight == kd.labels:  # each label weighs its value
        return labels.sum(axis=1, dtype=np.int64)
    return np.array(kd.weight, np.uint8)[labels].sum(axis=1, dtype=np.int64)


def iter_valid_labelings(
    g: PetersenGraph,
    kind: str,
    weight_cap: int | None = None,
    chunk: int = 1 << 20,
) -> Iterator[np.ndarray]:
    """Yield arrays of valid labelings (optionally weight-capped), in
    ascending lexicographic order across yields."""
    base = len(kind_of(kind).labels)
    total = base ** g.num_vertices
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        labels = label_block(g.num_vertices, base, start, stop)
        mask = validity_mask(labels, g, kind)
        if weight_cap is not None:
            mask &= weights_of(labels, kind) <= weight_cap
        if mask.any():
            yield labels[mask]


def exhaustive_minimum(
    g: PetersenGraph, kind: str, chunk: int = 1 << 20
) -> tuple[int, tuple[int, ...], int]:
    """Globally optimal weight by full enumeration.

    Returns (optimum, witness label vector, labelings examined).  The
    witness is the lexicographically smallest optimal vector.  Raises
    BudgetExceeded when the instance is beyond the size gate for the kind.
    """
    base = len(kind_of(kind).labels)
    if g.num_vertices > SIZE_GATES[kind]:
        raise BudgetExceeded(
            f"exhaustive {kind} search gated at 2n <= {SIZE_GATES[kind]}, "
            f"got 2n = {g.num_vertices}"
        )
    total = base ** g.num_vertices
    best_weight: int | None = None
    best_index: int | None = None
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        labels = label_block(g.num_vertices, base, start, stop)
        mask = validity_mask(labels, g, kind)
        if not mask.any():
            continue
        w = weights_of(labels, kind)
        w = np.where(mask, w, np.iinfo(np.int64).max)
        pos = int(np.argmin(w))
        if best_weight is None or int(w[pos]) < best_weight:
            best_weight = int(w[pos])
            best_index = start + pos
    if best_weight is None:
        raise InvalidParameters("no valid labeling exists (impossible for P(n,k))")
    witness = label_block(g.num_vertices, base, best_index, best_index + 1)[0]
    return best_weight, tuple(int(x) for x in witness), total
