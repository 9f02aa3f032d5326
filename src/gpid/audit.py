"""Executable forms of the lower-bound proof devices.

* column lemma (P(n,1)): a zero-weight column forces its two neighbor
  columns to carry total weight at least 4.
* bagging certificate (P(n,1)): columns are partitioned into five bags in
  four marking passes; weighted bag counts certify weight >= n.
* discharge ledger (P(n,2)): per-vertex charges in exact integer tenths
  whose total equals ten times the labeling weight, so the residual total
  is 10*w(f) - 8n tenths; `charge_identity` proves that identity per label
  from the charge table, for every labeling of every P(n,2).
* findings (P(n,2)): eight local configurations, each forcing a floor on
  the residual total of a valid IDF.

All tenth-valued arithmetic is integer arithmetic on tenths; nothing here
touches floating point.

The sweeps run the kernels on the blocks of `exhaustive.BLOCK_ROWS`
labelings that the enumerator yields, and each returns one `Sweep`
record: its result table, one-line summary and violation count.  A
kernel takes a (rows, vertices) label table and computes on its
vertex-major transpose, which is contiguous for enumerated blocks.
On P(n,2) every per-vertex quantity of the discharging argument is read
off one uint8 charge cell, own label * 16 + #1-neighbours +
4 * #2-neighbours (below 48), through two 48-entry tables: `CHARGE`, the
charge in tenths, and `FINDING_BITS`, the findings whose hypothesis the
vertex meets (finding 1: whose conclusion it breaks).  A findings sweep reduces a block to one uint8 code per
row, counts its codes with one bincount, and checks conclusions only on
the rows whose residual 10*w - 8n could break one.  Column weights are
uint8 too: a column weighs at most 4 (its two flanks at most 8).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exhaustive
from .errors import WrongFamily
from .graph import build_petersen
from .labeling import EdgeClasses, Labeling, column_weights, edge_classes, weight

# The P(n,k) family each audit target applies to: k by target name.
TARGET_K = {"discharge": 2, "findings": 2, "bagging": 1, "column-lemma": 1}


def _require_k(f: Labeling, target: str, what: str) -> None:
    k = TARGET_K[target]
    if f.k != k:
        raise WrongFamily(f"{what} applies to P(n,{k}) only, got k={f.k}")


def _rows(f: Labeling) -> np.ndarray:
    """The labeling as a one-row block, the input shape of the kernels."""
    return np.array([f.values], dtype=np.uint8)


# ---------------------------------------------------------------------------
# Kernels take one row per labeling and one column per vertex, and compute on
# `labels.T`: one row per vertex (or per column), one column per labeling.


def _column_lemma(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masks over (row, column) of zero-weight columns and of the zero
    columns whose two neighbor columns sum to less than 4."""
    lt = labels.T
    cw = lt[0::2] + lt[1::2]  # uint8: a column weighs at most 4
    zero = cw == 0
    flank = np.roll(cw, 1, axis=0) + np.roll(cw, -1, axis=0)  # at most 8
    return zero.T, (zero & (flank < 4)).T


# Findings 1..8 on P(n,2), each a local configuration of a valid IDF:
#   1. every vertex keeps charge >= 0.4;
#   2. a zero vertex with two 1-neighbours forces residual >= 0;
#   3. a zero vertex with three 1-neighbours forces residual >= 0.2;
#   4. a 2-labelled vertex forces residual >= 0.4;
#   5. an edge inside V1 forces residual >= 0.4;
#   6. a zero vertex with one 1- and one 2-neighbour forces residual >= 0.6;
#   7. a zero vertex with two 1- and one 2-neighbour forces residual >= 0.8;
#   8. an edge between V1 and V2 forces residual >= 1.


def _cell_tables() -> tuple[np.ndarray, np.ndarray]:
    """`CHARGE` and `FINDING_BITS`, indexed by the charge cell of a vertex
    of P(n,2): own label * 16 + #1-neighbours + 4 * #2-neighbours, below 48.

    The charge in tenths is the own base 0.4 for label 1 and 0.5 for label
    2, plus 0.2 per 1- and 0.5 per 2-neighbour: at most 5 + 2*3 + 5*3 = 26.
    Bit i-1 of a cell's finding bits stands for finding i.  For i >= 2 it
    is set when the vertex meets finding i's hypothesis; an edge inside V1
    (or from V1 to V2) is a 1-vertex with a 1- (or 2-) neighbour.  Finding
    1's hypothesis holds on every row, so its bit is set when its
    conclusion fails: a charge below 4 tenths.
    """
    cell = np.arange(48)
    own, ones, twos = cell >> 4, cell & 3, (cell >> 2) & 3
    charge = (np.array([0, 4, 5])[own] + 2 * ones + 5 * twos).astype(np.uint8)
    zero = own == 0
    bits = np.zeros(48, dtype=np.uint8)
    for bit, mask in enumerate((
        charge < 4,
        zero & (ones == 2),
        zero & (ones == 3),
        own == 2,
        (own == 1) & (ones > 0),
        zero & (ones == 1) & (twos == 1),
        zero & (ones == 2) & (twos == 1),
        (own == 1) & (twos > 0),
    )):
        bits |= mask.astype(np.uint8) << bit
    return charge, bits


CHARGE, FINDING_BITS = _cell_tables()


def charge_identity() -> list[tuple[str, int, int]]:
    """The facts that prove total charge = 10 * weight (in tenths) for every
    labeling of every P(n,2), as (fact, value, required) rows; the identity
    holds when each row's value equals its requirement.

    Each label l has a base, `CHARGE[l << 4]`, and hands each neighbour a
    share, `CHARGE[1] - CHARGE[0]` for l = 1 and `CHARGE[4] - CHARGE[0]` for
    l = 2 (nothing for l = 0).  If every one of the 48 cells is its own
    label's base plus its neighbours' shares, the total charge is the sum
    over vertices of base + 3 * share on a cubic graph, which is 10 * l
    tenths per vertex labelled l when the three label rows hold.
    """
    table = CHARGE.tolist()
    base = table[0::16]
    share = [0, table[1] - table[0], table[4] - table[0]]
    facts = [(f"cell {c}", table[c], base[c >> 4] + (c & 3) * share[1] + (c >> 2 & 3) * share[2])
             for c in range(48)]
    facts += [(f"label {l}", base[l] + 3 * share[l], 10 * l) for l in range(3)]
    return facts


# Residual floors in tenths of findings 2..8, which bind the residual total.
_FINDING_FLOORS = {2: 0, 3: 2, 4: 4, 5: 4, 6: 6, 7: 8, 8: 10}

# Row (i-1, code): whether a code carries finding i's bit.
_CODE_BITS = (np.arange(256) >> np.arange(8)[:, None]) & 1


def _cells(labels: np.ndarray, adj: np.ndarray) -> np.ndarray:
    """The (vertex, row) charge cells of a (row, vertex) label table on
    P(n,2): a label squared is 0, 1 or 4, so the neighbours' squares sum
    to #1-neighbours + 4 * #2-neighbours."""
    lt = labels.T
    sq = lt * lt
    a, b, c = adj.T
    cells = sq[a]
    cells += sq[b]
    cells += sq[c]
    cells += lt << 4
    return cells


def _read(table: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """table[cells] as uint8, looked up one vertex at a time: numpy copies
    the indices to intp, and one vertex's copy stays small."""
    out = np.empty_like(cells)
    for v, row in enumerate(cells):
        np.take(table, row, out=out[v])
    return out


def _codes(labels: np.ndarray, adj: np.ndarray) -> np.ndarray:
    """Per row, the OR of its vertices' `FINDING_BITS`: the findings whose
    hypothesis the row meets, and finding 1 when it fails."""
    return np.bitwise_or.reduce(_read(FINDING_BITS, _cells(labels, adj)), axis=0)


def _failed(codes: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """The bits of `codes` whose finding fails at the rows' residual totals
    (in tenths): finding 1's bit, and each finding 2..8 whose floor lies
    above the residual."""
    below = np.ones_like(codes)
    for i, floor in _FINDING_FLOORS.items():
        below |= (residual < floor).astype(np.uint8) << (i - 1)
    return codes & below


# ---------------------------------------------------------------------------
# Column lemma


@dataclass(frozen=True)
class ColumnLemmaReport:
    holds: bool
    zero_columns: tuple[int, ...]
    counterexamples: tuple[int, ...]


def check_column_lemma(f: Labeling) -> ColumnLemmaReport:
    """For every column of weight 0, the two adjacent columns must sum to >= 4."""
    _require_k(f, "column-lemma", "the column lemma")
    zero, breach = _column_lemma(_rows(f))
    zeros = tuple(np.flatnonzero(zero[0]).tolist())
    bad = tuple(np.flatnonzero(breach[0]).tolist())
    return ColumnLemmaReport(holds=not bad, zero_columns=zeros, counterexamples=bad)


# ---------------------------------------------------------------------------
# Bagging certificate


@dataclass(frozen=True)
class BagCertificate:
    """Result of the four marking passes plus the leftover fifth bag.

    Pass semantics: each pass scans columns in ascending index with
    immediate marking; a trigger fires only if every column it would
    consume is still unmarked.  Triggers blocked by an earlier mark are
    recorded in `conflicts` as (pass number, column).  `lemma_breaches`
    records pass-4 triggers whose appeal to the column lemma failed
    (impossible for a valid IDF).
    """

    n: int
    weight: int
    bags: tuple[frozenset, frozenset, frozenset, frozenset, frozenset]
    counts: tuple[int, int, int, int, int]
    marks: tuple[int, ...]
    conflicts: tuple[tuple[int, int], ...]
    lemma_breaches: tuple[int, ...]
    stranded_zero_columns: tuple[int, ...]
    implied_bound: int
    accounting_ok: bool

    @property
    def consistent(self) -> bool:
        return (
            self.accounting_ok
            and not self.stranded_zero_columns
            and not self.lemma_breaches
            and self.implied_bound <= self.weight
        )


def bagging_certificate(f: Labeling) -> BagCertificate:
    """Run the four marking passes and account for the implied bound.

    The certified inequality is weight >= 2*m1 + 3*m2 + 3*m3 + 3*m4 + m5,
    which is at least n whenever the accounting identity
    2*m1 + 3*m2 + 2*m3 + 2*m4 + m5 = n holds and no zero-weight column is
    left unmarked.
    """
    _require_k(f, "bagging", "the bagging certificate")
    n = f.n
    w = column_weights(f)
    marks = [0] * n
    bags: list[set] = [set() for _ in range(5)]
    counts = [0] * 5
    conflicts: list[tuple[int, int]] = []
    breaches: list[int] = []

    def fire(step: int, i: int, cols: tuple[int, ...]) -> None:
        if all(marks[c] == 0 for c in cols):
            for c in cols:
                marks[c] = 1
                bags[step - 1].add(c)
            counts[step - 1] += 1
        else:
            conflicts.append((step, i))

    for i in range(n):  # pass 1: zero column followed by a weight-2 column
        j = (i + 1) % n
        if w[i] == 0 and w[j] == 2:
            fire(1, i, (i, j))
    for i in range(n):  # pass 2: zero, heavy, zero triple (third unmarked)
        j, l = (i + 1) % n, (i + 2) % n
        if w[i] == 0 and w[j] >= 3 and w[l] == 0 and marks[l] == 0:
            fire(2, i, (i, j, l))
    for i in range(n):  # pass 3: zero, heavy pair when the triple is unavailable
        j, l = (i + 1) % n, (i + 2) % n
        if w[i] == 0 and w[j] >= 3 and (w[l] >= 1 or marks[l] == 1):
            fire(3, i, (i, j))
    for i in range(n):  # pass 4: zero column with light successor leans left
        j, h = (i + 1) % n, (i - 1) % n
        if w[i] == 0 and w[j] <= 1:
            if w[h] >= 3:
                fire(4, i, (h, i))
            else:
                breaches.append(i)

    leftover = frozenset(i for i in range(n) if marks[i] == 0)
    counts[4] = len(leftover)
    bags[4] = set(leftover)
    stranded = tuple(sorted(i for i in leftover if w[i] == 0))
    accounting = (
        2 * counts[0] + 3 * counts[1] + 2 * counts[2] + 2 * counts[3] + counts[4] == n
    )
    implied = 2 * counts[0] + 3 * counts[1] + 3 * counts[2] + 3 * counts[3] + counts[4]
    return BagCertificate(
        n=n,
        weight=weight(f),
        bags=tuple(frozenset(b) for b in bags),  # type: ignore[arg-type]
        counts=tuple(counts),  # type: ignore[arg-type]
        marks=tuple(marks),
        conflicts=tuple(conflicts),
        lemma_breaches=tuple(breaches),
        stranded_zero_columns=stranded,
        implied_bound=implied,
        accounting_ok=accounting,
    )


# ---------------------------------------------------------------------------
# Discharge ledger


@dataclass(frozen=True)
class DischargeLedger:
    """Per-vertex charges and residuals on P(n,2), in integer tenths."""

    n: int
    weight: int
    charge_tenths: tuple[int, ...]
    residual_tenths: tuple[int, ...]
    total_charge_tenths: int
    total_residual_tenths: int
    edge_classes: EdgeClasses

    @property
    def identity_ok(self) -> bool:
        """Total charge telescopes to the labeling weight (any labeling)."""
        return self.total_charge_tenths == 10 * self.weight

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "weight": self.weight,
            "charge_tenths": list(self.charge_tenths),
            "residual_tenths": list(self.residual_tenths),
            "total_charge_tenths": self.total_charge_tenths,
            "total_residual_tenths": self.total_residual_tenths,
            "identity_ok": self.identity_ok,
            "e11": sorted(map(list, self.edge_classes.e11)),
            "e12": sorted(map(list, self.edge_classes.e12)),
        }


def discharge(f: Labeling) -> DischargeLedger:
    """Compute the charge ledger; validity of f is not required for the
    telescoping identity, only for the per-vertex floor."""
    _require_k(f, "discharge", "the discharge ledger")
    adj = np.array(f.graph().adjacency, dtype=np.int64)
    charges = _read(CHARGE, _cells(_rows(f), adj))[:, 0].tolist()
    residuals = [value - 4 for value in charges]
    return DischargeLedger(
        n=f.n,
        weight=weight(f),
        charge_tenths=tuple(charges),
        residual_tenths=tuple(residuals),
        total_charge_tenths=sum(charges),
        total_residual_tenths=sum(residuals),
        edge_classes=edge_classes(f),
    )


# ---------------------------------------------------------------------------
# Vectorized sweeps over enumerated labelings


@dataclass(frozen=True)
class Sweep:
    """One audit target checked on every enumerated valid IDF of P(n,k) of
    weight at most `weight_cap` (None: of any weight).  `header` and
    `rows` are the target's result table, `summary` its one-line report,
    and `violations` the number of failed conditions it counted."""

    target: str
    n: int
    weight_cap: int | None
    labelings_checked: int
    header: tuple[str, ...]
    rows: tuple[tuple, ...]
    summary: str
    violations: int

    @property
    def ok(self) -> bool:
        return self.violations == 0


def sweep_findings(n: int, weight_cap: int | None = None) -> Sweep:
    """Check findings 1..8 on every valid IDF of P(n,2) (optionally capped
    by weight), one row per finding.  Vectorized; intended for desk-scale n."""
    g = build_petersen(n, TARGET_K["findings"])
    adj = np.array(g.adjacency, dtype=np.int64)
    met = np.zeros(256, dtype=np.int64)  # rows by code
    failed = np.zeros(256, dtype=np.int64)  # rows by the code of their failures
    top = max(_FINDING_FLOORS.values())  # a row at or above it fails finding 1 at most
    total = 0
    for block in exhaustive.iter_valid_labelings(g, "italian", weight_cap):
        total += block.shape[0]
        codes = _codes(block, adj)
        met += np.bincount(codes, minlength=256)
        # int16: a row within the exhaustive size gate weighs at most 32
        residual = 10 * block.T.sum(axis=0, dtype=np.int16) - 8 * n
        suspect = (residual < top) | ((codes & 1) != 0)
        failed += np.bincount(_failed(codes[suspect], residual[suspect]), minlength=256)
    hyp_counts = (_CODE_BITS @ met).tolist()
    hyp_counts[0] = total
    bad_counts = (_CODE_BITS @ failed).tolist()
    bad = sum(bad_counts)
    return Sweep("findings", n, weight_cap, total,
                 header=("n", "finding", "hypotheses", "violations"),
                 rows=tuple((n, i, hyp_counts[i - 1], bad_counts[i - 1]) for i in range(1, 9)),
                 summary=(f"findings sweep P({n},2) cap={weight_cap}: {total} valid IDFs, "
                          f"violations {bad}"),
                 violations=bad)


def sweep_discharge(n: int, weight_cap: int | None = None) -> Sweep:
    """Check the telescoping identity and the per-vertex charge floor over
    every valid IDF of P(n,2) up to the weight cap."""
    g = build_petersen(n, TARGET_K["discharge"])
    adj = np.array(g.adjacency, dtype=np.int64)
    total = 0
    id_bad = 0
    floor_bad = 0
    for block in exhaustive.iter_valid_labelings(g, "italian", weight_cap):
        total += block.shape[0]
        charge = _read(CHARGE, _cells(block, adj))
        id_bad += _identity_failures(block, charge)
        floor_bad += int((charge.min(axis=0) < 4).sum())
    return Sweep("discharge", n, weight_cap, total,
                 header=("n", "weight_cap", "labelings", "identity_failures", "floor_failures"),
                 rows=((n, weight_cap, total, id_bad, floor_bad),),
                 summary=(f"discharge sweep P({n},2) cap={weight_cap}: {total} labelings, "
                          f"{id_bad} identity failures, {floor_bad} charge-floor failures"),
                 violations=id_bad + floor_bad)


def _identity_failures(labels: np.ndarray, charge: np.ndarray) -> int:
    """Rows whose (vertex, row) charges do not sum to ten times their weight."""
    sums = charge.sum(axis=0, dtype=np.uint16)
    return int((sums != 10 * labels.sum(axis=1, dtype=np.uint16)).sum())


def sweep_column_lemma(n: int, weight_cap: int | None = None) -> Sweep:
    """Check the column lemma over every valid IDF of P(n,1)."""
    g = build_petersen(n, TARGET_K["column-lemma"])
    total = 0
    bad = 0
    for block in exhaustive.iter_valid_labelings(g, "italian", weight_cap):
        total += block.shape[0]
        bad += int(_column_lemma(block)[1].any(axis=1).sum())
    return Sweep("column-lemma", n, weight_cap, total,
                 header=("n", "labelings", "counterexamples"),
                 rows=((n, total, bad),),
                 summary=f"column lemma sweep P({n},1): {total} valid IDFs, {bad} counterexamples",
                 violations=bad)


def sweep_bagging(n: int) -> Sweep:
    """Certify every valid IDF on P(n,1) of weight at most n: consistent
    bags, implied bound equal to n.  By Theorem 2.3 these are the optimal
    IDFs, of weight n; a lighter one would refute it, and fails here."""
    g = build_petersen(n, TARGET_K["bagging"])
    checked = 0
    inconsistent = 0
    wrong_bound = 0
    conflicts = 0
    for block in exhaustive.iter_valid_labelings(g, "italian", n):
        for row in block:
            f = Labeling(n, g.k, tuple(int(x) for x in row))
            cert = bagging_certificate(f)
            checked += 1
            if not cert.consistent:
                inconsistent += 1
            if cert.implied_bound != n:
                wrong_bound += 1
            conflicts += len(cert.conflicts)
    return Sweep("bagging", n, n, checked,
                 header=("n", "labelings", "inconsistent", "wrong_bound", "conflicts"),
                 rows=((n, checked, inconsistent, wrong_bound, conflicts),),
                 summary=(f"bagging sweep P({n},1): {checked} IDFs of weight <= {n}, "
                          f"{inconsistent} inconsistent, {wrong_bound} with bound != n"),
                 violations=inconsistent + wrong_bound)
