"""Weight-bounded exhaustive enumeration of labelings on P(n, k).

Labelings are identified with base-b integers whose most significant
digit is vertex 0, so ascending index order is lexicographic order on
label vectors.  Only the rows of the weights asked for are generated:
the prefix and the suffix halves of the vertex list are enumerated once
each and joined where their weights add up to the range, in
lexicographic order and in blocks that bound memory.  A block is stored
vertex-major (one contiguous run of rows per vertex) and handed out as
its (rows, vertices) transpose, so per-vertex reads are contiguous while
the row order and the public shape stay those of a label table.  The oracle
(``exhaustive_minimum``) walks weight classes upwards and stops at the
first class holding a valid labeling, so it examines the classes below
the optimum and part of the optimum's class, not all b^(2n) vectors.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .errors import BudgetExceeded, InvalidParameters
from .graph import PetersenGraph
from .labeling import kind_of

SIZE_GATES = {"domination": 16, "italian": 16, "rainbow2": 12}


def label_block(num_vertices: int, base: int, start: int, stop: int) -> np.ndarray:
    """Digits of indices start..stop-1 as a (stop-start, num_vertices) array.

    Built vertex-major and handed out as its transpose.  Digit v is
    constant over runs of base^(num_vertices-1-v) indices and cycles
    through 0..base-1 from run to run, so each vertex repeats the digits
    of the runs the range meets: one integer pass per run, not per index.
    """
    size = stop - start
    out = np.empty((num_vertices, size), np.uint8)
    for v in range(num_vertices):
        run = base ** (num_vertices - 1 - v)
        first, skip = divmod(start, run)
        count = (skip + size - 1) // run + 1  # runs met
        if count <= 2:
            cut = min(run - skip, size)
            out[v, :cut] = first % base
            out[v, cut:] = (first + 1) % base
            continue
        unit = min(count, base << 10)  # the digits cycle with period base
        digits = (np.arange(first, first + unit) % base).astype(np.uint8)
        if count > unit:
            digits = np.tile(digits, -(-count // unit))[:count]
        out[v] = np.repeat(digits, run)[skip:skip + size] if run > 1 else digits
    return out.T


def _check_gate(g: PetersenGraph, kind: str) -> None:
    """Raise BudgetExceeded when g is beyond the size gate for the kind."""
    if g.num_vertices > SIZE_GATES[kind]:
        raise BudgetExceeded(
            f"exhaustive {kind} search gated at 2n <= {SIZE_GATES[kind]}, "
            f"got 2n = {g.num_vertices}"
        )


def validity_mask(labels: np.ndarray, g: PetersenGraph, kind: str) -> np.ndarray:
    """Boolean mask of rows satisfying the kind's domination condition.

    Reads one vertex at a time from `labels.T`, which is contiguous for
    the vertex-major blocks the enumerator yields."""
    kd = kind_of(kind)
    combine = kd.combine
    lt = labels.T
    ok = np.ones(labels.shape[0], dtype=bool)
    for v in range(g.num_vertices):
        a, b, c = g.adjacency[v]
        got = combine(combine(lt[a], lt[b]), lt[c])
        ok &= (lt[v] != 0) | (got >= kd.need)
    return ok


def weights_of(labels: np.ndarray, kind: str) -> np.ndarray:
    """Weight of each row of a (rows, vertices) label array, as int64.

    Summed one vertex (a contiguous run of a vertex-major block) at a time
    in a narrow accumulator, with no table gather.  The label weights of
    every kind rise by 0 or 1 from one label to the next, so label l
    weighs l less the number of flat steps t <= l.
    """
    kd = kind_of(kind)
    flat = [t for t in kd.labels[1:] if kd.weight[t] == kd.weight[t - 1]]
    narrow = labels.dtype == np.uint8 and labels.shape[1] * max(kd.labels) < 256
    acc = np.zeros(labels.shape[0], np.uint8 if narrow else np.int64)
    for row in labels.T:
        acc += row
        for t in flat:
            acc -= row >= t
    return acc.astype(np.int64)


def _rows_by_weight(
    num_vertices: int, kind: str, lo: int, hi: int, chunk: int
) -> Iterator[np.ndarray]:
    """Label rows of weight lo..hi in ascending lexicographic order, in
    blocks of at most `chunk` rows.

    Meet in the middle: the first half of the vertices (prefix) and the
    rest (suffix) are enumerated once each.  Each prefix, in index order,
    is followed by the suffixes of fitting weight, in index order, which
    is lexicographic order on the whole vector.

    Each block is written vertex-major, as a C-contiguous (vertices, rows)
    array, and yielded as its (rows, vertices) transpose, so that the
    kernels read every vertex as one contiguous run.
    """
    base = len(kind_of(kind).labels)
    head = num_vertices // 2
    prefixes = label_block(head, base, 0, base**head)
    suffixes = label_block(num_vertices - head, base, 0, base ** (num_vertices - head))
    sw = weights_of(suffixes, kind)
    classes, cls = np.unique(weights_of(prefixes, kind), return_inverse=True)
    # fits[c]: the suffixes completing a prefix of weight classes[c]
    fits = [np.flatnonzero((lo - w <= sw) & (sw <= hi - w)) for w in classes.tolist()]
    sizes = np.array([len(f) for f in fits], dtype=np.int64)
    offsets = np.cumsum(sizes) - sizes
    flat = np.concatenate(fits)
    counts = sizes[cls]  # rows emitted after each prefix
    ends = np.cumsum(counts)
    starts = ends - counts
    shift = offsets[cls] - starts  # row r of prefix p: suffix flat[r + shift[p]]
    total = int(ends[-1])
    prefixes_t = np.ascontiguousarray(prefixes.T)
    suffixes_t = np.ascontiguousarray(suffixes.T)
    for first in range(0, total, chunk):
        last = min(first + chunk, total)
        # the prefixes of rows first..last-1, each repeated once per row
        lo_p = int(np.searchsorted(ends, first, side="right"))
        hi_p = int(np.searchsorted(ends, last - 1, side="right")) + 1
        here = np.minimum(ends[lo_p:hi_p], last) - np.maximum(starts[lo_p:hi_p], first)
        p = np.repeat(np.arange(lo_p, hi_p), here)
        block = np.empty((num_vertices, last - first), np.uint8)
        np.take(prefixes_t, p, axis=1, out=block[:head])
        suffix_ids = flat[np.arange(first, last) + shift[p]]
        np.take(suffixes_t, suffix_ids, axis=1, out=block[head:])
        del p, suffix_ids  # not held while the consumer works on the block
        yield block.T


def iter_valid_labelings(
    g: PetersenGraph,
    kind: str,
    weight_cap: int | None = None,
    chunk: int = 1 << 20,
) -> Iterator[np.ndarray]:
    """Yield arrays of valid labelings (optionally weight-capped), in
    ascending lexicographic order across yields.

    Each array is the (rows, vertices) transpose of a vertex-major block.
    Raises BudgetExceeded when the instance is beyond the size gate for
    the kind.
    """
    _check_gate(g, kind)
    kd = kind_of(kind)
    hi = g.num_vertices * max(kd.weight) if weight_cap is None else weight_cap
    for labels in _rows_by_weight(g.num_vertices, kind, 0, hi, chunk):
        mask = validity_mask(labels, g, kind)
        if mask.any():
            yield labels.T.compress(mask, axis=1).T


def exhaustive_minimum(
    g: PetersenGraph, kind: str, chunk: int = 1 << 20
) -> tuple[int, tuple[int, ...], int]:
    """Globally optimal weight by exhaustive search over weight classes.

    Returns (optimum, witness label vector, labelings examined).  Weight
    classes are searched in ascending order, each in lexicographic order,
    so the first valid row is the lexicographically smallest optimal
    vector; labelings examined counts the rows generated and checked.
    Raises BudgetExceeded when the instance is beyond the size gate for
    the kind.
    """
    kd = kind_of(kind)
    _check_gate(g, kind)
    examined = 0
    for w in range(g.num_vertices * max(kd.weight) + 1):
        for labels in _rows_by_weight(g.num_vertices, kind, w, w, chunk):
            examined += labels.shape[0]
            mask = validity_mask(labels, g, kind)
            if mask.any():
                return w, tuple(int(x) for x in labels[int(np.argmax(mask))]), examined
    raise InvalidParameters("no valid labeling exists (impossible for P(n,k))")
