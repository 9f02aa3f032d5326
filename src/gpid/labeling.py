"""Labelings on P(n, k), the kind table and the validators.

The kind table.  Each invariant gpid computes is one ``Kind`` record in
``KINDS``, and every route (validators, exhaustive masks, column DP,
branch and bound, witnesses) reads it instead of switching on the name:

* ``italian``    -- labels 0, 1, 2 of weight 0, 1, 2; a 0-vertex needs
  neighbor labels summing to at least 2 (an Italian dominating function,
  IDF).
* ``domination`` -- labels 0, 1; a 0-vertex needs a neighbor labeled 1.
* ``rainbow2``   -- labels are subsets of {1, 2} as 2-bit masks 0..3
  (bit 1 = color 1, bit 2 = color 2) weighing their size; a 0-vertex
  needs both colors among its neighbors (a 2-rainbow dominating
  function).

A record holds the labels (always 0..L-1), their weights, the cover
``need`` of a 0-vertex and the ``combine`` op of neighbor labels (``+``,
or ``|`` for 2-rainbow), so that for every kind a 0-vertex is covered iff
combine(neighbor labels) >= need.  The residual-demand table ``reduce``
follows from these, as do the witness type (``Labeling``,
``RainbowLabeling`` or a dominating vertex set) and the name of its
validator.

Validators return a report listing all violating vertices instead of
raising; invalid input is data, not an error.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Union

import numpy as np

from .errors import FormatError, InvalidParameters, NotA2RDF
from .graph import PetersenGraph, build_petersen


@dataclass(frozen=True)
class _Assignment:
    """A vertex -> label assignment on P(n, k) for one kind."""

    n: int
    k: int
    values: tuple[int, ...]

    kind: ClassVar[str]
    _bad_label: ClassVar[str]  # the error for a label outside the kind's
    _tokens: ClassVar[tuple]  # the JSON form of each label

    def __post_init__(self):
        if len(self.values) != 2 * self.n:
            raise InvalidParameters(
                f"expected {2 * self.n} values for n={self.n}, got {len(self.values)}"
            )
        labels = KINDS[self.kind].labels
        if any(v not in labels for v in self.values):
            raise InvalidParameters(self._bad_label)

    def graph(self) -> PetersenGraph:
        return build_petersen(self.n, self.k)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "k": self.k, "values": [self._tokens[v] for v in self.values]}


@dataclass(frozen=True)
class Labeling(_Assignment):
    """A vertex -> {0,1,2} assignment on P(n, k): a candidate IDF."""

    kind = "italian"
    _bad_label = "labels must be 0, 1 or 2"
    _tokens = (0, 1, 2)

    def level_sets(self) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
        """(V_0, V_1, V_2): vertices labeled 0, 1, 2."""
        sets = ([], [], [])
        for v, val in enumerate(self.values):
            sets[val].append(v)
        return tuple(frozenset(s) for s in sets)  # type: ignore[return-value]


@dataclass(frozen=True)
class RainbowLabeling(_Assignment):
    """A vertex -> subset-of-{1,2} assignment, stored as 2-bit masks: a
    candidate 2-rainbow dominating function."""

    kind = "rainbow2"
    _bad_label = "rainbow labels must be masks 0..3"
    _tokens = ("0", "1", "2", "12")


def dominating_set(n: int, k: int, values) -> tuple[int, ...]:
    """The vertices labeled 1: the witness of the domination kind."""
    return tuple(v for v, val in enumerate(values) if val == 1)


Witness = Union[Labeling, RainbowLabeling, tuple]


@dataclass(frozen=True)
class Kind:
    """What an invariant is; see the module docstring."""

    name: str
    labels: tuple[int, ...]
    weight: tuple[int, ...]
    need: int
    combine: Callable[[int, int], int]
    witness: Callable[[int, int, tuple[int, ...]], Witness]
    validator: str  # the name of the witness validator in this module
    # reduce[d][c]: the demand left of d once a neighbor labeled c is seen
    reduce: tuple[tuple[int, ...], ...] = field(init=False)

    def __post_init__(self):
        # demand d left means cover need - d seen so far (for masks, the
        # colors of need not in d)
        need = self.need
        object.__setattr__(self, "reduce", tuple(
            tuple(need - min(need, self.combine(need - d, c)) for c in self.labels)
            for d in range(need + 1)
        ))


KINDS = {
    "italian": Kind("italian", (0, 1, 2), (0, 1, 2), 2, operator.add,
                    Labeling, "validate_idf"),
    "domination": Kind("domination", (0, 1), (0, 1), 1, operator.add,
                       dominating_set, "validate_dominating"),
    "rainbow2": Kind("rainbow2", (0, 1, 2, 3), (0, 1, 1, 2), 3, operator.or_,
                     RainbowLabeling, "validate_2rdf"),
}


def kind_of(name: str) -> Kind:
    """The kind record named `name`."""
    try:
        return KINDS[name]
    except KeyError:
        raise InvalidParameters(f"unknown invariant kind {name!r}") from None


@dataclass(frozen=True)
class ColumnWeight:
    i: int
    w: int


@dataclass(frozen=True)
class EdgeClasses:
    """Edges inside V_1 (e11) and between V_1 and V_2 (e12)."""

    e11: frozenset[tuple[int, int]]
    e12: frozenset[tuple[int, int]]


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a validator; violations lists (vertex, observed) pairs."""

    valid: bool
    violations: tuple[tuple[int, int], ...]


def weight(f: Labeling | RainbowLabeling) -> int:
    """Total weight: the sum of the label weights (|f(v)| for 2-rainbow)."""
    wt = KINDS[f.kind].weight
    return sum(wt[v] for v in f.values)


def _violations(kind: Kind, g: PetersenGraph, vals) -> ValidationReport:
    """The 0-vertices whose combined neighbor labels fall short of the
    kind's need, each with that combined value."""
    adj = g.adjacency
    combine = kind.combine
    need = kind.need
    bad = []
    for v, val in enumerate(vals):
        if val == 0:
            a, b, c = adj[v]
            got = combine(combine(vals[a], vals[b]), vals[c])
            if got < need:
                bad.append((v, got))
    return ValidationReport(valid=not bad, violations=tuple(bad))


def validate_idf(f: Labeling) -> ValidationReport:
    """Check the Italian domination condition at every 0-vertex."""
    return _violations(KINDS["italian"], f.graph(), f.values)


def validate_2rdf(f: RainbowLabeling) -> ValidationReport:
    """Check that every empty-labeled vertex sees both colors among neighbors."""
    return _violations(KINDS["rainbow2"], f.graph(), f.values)


def validate_dominating(g: PetersenGraph, s) -> ValidationReport:
    """Check that the closed neighborhood of s covers every vertex."""
    chosen = set(s)
    vals = [int(v in chosen) for v in range(g.num_vertices)]
    return _violations(KINDS["domination"], g, vals)


def rainbow_rows_to_idf(g: PetersenGraph, rows: np.ndarray) -> np.ndarray:
    """Convert valid 2RDFs on g, one row of masks in vertex order each, into
    the IDF rows g(v) = |f(v)| of equal weight."""
    from .exhaustive import validity_mask  # exhaustive imports this module

    valid = validity_mask(rows, g, "rainbow2")
    if not valid.all():
        row = int(np.argmin(valid))
        report = _violations(KINDS["rainbow2"], g, rows[row].tolist())
        where = f" (row {row})" if len(rows) > 1 else ""
        raise NotA2RDF(
            f"labeling{where} violates the 2RDF condition at {len(report.violations)} vertices"
        )
    # |f(v)| of a mask in {0, {1}, {2}, {1,2}} = {0, 1, 2, 3}: its two bits
    return ((rows & 1) + (rows >> 1)).astype(np.uint8, copy=False)


def rainbow_to_idf(f: RainbowLabeling) -> Labeling:
    """Convert a valid 2RDF into the IDF g(v) = |f(v)| of equal weight."""
    row = rainbow_rows_to_idf(f.graph(), np.array([f.values], np.uint8))[0]
    return Labeling(f.n, f.k, tuple(row.tolist()))


def column_weights(f: Labeling) -> list[ColumnWeight]:
    """Per-column label sums w_i = f(v_{2i}) + f(v_{2i+1})."""
    return [
        ColumnWeight(i, f.values[2 * i] + f.values[2 * i + 1]) for i in range(f.n)
    ]


def edge_classes(f: Labeling) -> EdgeClasses:
    g = f.graph()
    vals = f.values
    e11 = []
    e12 = []
    for u, v in g.edges():
        a, b = vals[u], vals[v]
        if a == 1 and b == 1:
            e11.append((u, v))
        elif (a, b) in ((1, 2), (2, 1)):
            e12.append((u, v))
    return EdgeClasses(e11=frozenset(e11), e12=frozenset(e12))


def render_matrix(f: Labeling) -> str:
    """Two-row matrix text: top row outer labels, bottom row inner labels."""
    top = " ".join(str(f.values[2 * i]) for i in range(f.n))
    bottom = " ".join(str(f.values[2 * i + 1]) for i in range(f.n))
    return top + "\n" + bottom


def parse_matrix(text: str, n: int, k: int) -> Labeling:
    """Parse matrix text (rows split on newline or '/') back into a Labeling."""
    rows = [r for r in text.replace("/", "\n").splitlines() if r.strip()]
    if len(rows) != 2:
        raise FormatError(f"expected 2 rows, got {len(rows)}")
    grid = []
    for row in rows:
        toks = row.split()
        if len(toks) != n:
            raise FormatError(f"expected {n} columns, got {len(toks)} in {row!r}")
        try:
            digits = [int(t) for t in toks]
        except ValueError as exc:
            raise FormatError(f"non-numeric token in {row!r}") from exc
        if any(d not in (0, 1, 2) for d in digits):
            raise FormatError("matrix digits must be 0, 1 or 2")
        grid.append(digits)
    values = []
    for i in range(n):
        values.append(grid[0][i])
        values.append(grid[1][i])
    return Labeling(n, k, tuple(values))


def witness_json(n: int, k: int, witness: Witness) -> dict:
    """The JSON form of a witness: a labeling's values (2-rainbow masks as
    "0", "1", "2", "12"), or the members of a dominating set."""
    if isinstance(witness, tuple):
        return {"n": n, "k": k, "set": list(witness)}
    return witness.to_json_dict()


def labeling_to_json(f: Labeling) -> str:
    return json.dumps(f.to_json_dict(), sort_keys=True)


def labeling_from_json(text: str) -> Labeling:
    try:
        obj = json.loads(text)
        return Labeling(int(obj["n"]), int(obj["k"]), tuple(int(v) for v in obj["values"]))
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise FormatError(f"bad labeling JSON: {exc}") from exc
