"""Executable forms of the lower-bound proof devices.

* column lemma (P(n,1)): a zero-weight column forces its two neighbor
  columns to carry total weight at least 4.
* bagging certificate (P(n,1)): columns are partitioned into five bags in
  four marking passes; weighted bag counts certify weight >= n.
* discharge ledger (P(n,2)): per-vertex charges in exact integer tenths
  whose total equals ten times the labeling weight, so the residual total
  is 10*w(f) - 8n tenths.
* findings (P(n,2)): eight local configurations, each forcing a floor on
  the residual total of a valid IDF.

All tenth-valued arithmetic is integer arithmetic on tenths; nothing here
touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exhaustive
from .errors import InvalidParameters, WrongFamily
from .graph import build_petersen
from .labeling import (
    EdgeClasses,
    Labeling,
    column_weights,
    edge_classes,
    validate_idf,
    weight,
)

_BASE_TENTHS = np.array((0, 4, 5), dtype=np.int64)  # charge a vertex keeps, by label


def _require_k(f: Labeling, k: int, what: str) -> None:
    if f.k != k:
        raise WrongFamily(f"{what} applies to P(n,{k}) only, got k={f.k}")


def _rows(f: Labeling) -> np.ndarray:
    """The labeling as a one-row block, the input shape of the kernels."""
    return np.array([f.values], dtype=np.uint8)


# ---------------------------------------------------------------------------
# Kernels: one row per labeling, one column per vertex (or per column pair)


def _column_lemma(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masks over (row, column) of zero-weight columns and of the zero
    columns whose two neighbor columns sum to less than 4."""
    cw = labels[:, 0::2].astype(np.int64) + labels[:, 1::2]
    zero = cw == 0
    flank = np.roll(cw, 1, axis=1) + np.roll(cw, -1, axis=1)
    return zero, zero & (flank < 4)


def _charges(
    labels: np.ndarray, adj: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per (row, vertex): number of 1-neighbors, number of 2-neighbors, and
    the charge in tenths (own base plus 0.2 per 1- and 0.5 per 2-neighbor)."""
    nb = labels[:, adj]  # (rows, 2n, 3)
    ones = (nb == 1).sum(axis=2)
    twos = (nb == 2).sum(axis=2)
    return ones, twos, _BASE_TENTHS[labels] + 2 * ones + 5 * twos


# Residual floors in tenths: findings 2..8 bind the residual total;
# finding 1 binds every per-vertex charge (at 0.4).
_FINDING_FLOORS = {2: 0, 3: 2, 4: 4, 5: 4, 6: 6, 7: 8, 8: 10}
_FINDING_DESCRIPTIONS = {
    1: "every vertex keeps charge >= 0.4",
    2: "a zero vertex with two 1-neighbors forces residual >= 0",
    3: "a zero vertex with three 1-neighbors forces residual >= 0.2",
    4: "a 2-labeled vertex forces residual >= 0.4",
    5: "an edge inside V1 forces residual >= 0.4",
    6: "a zero vertex with one 1- and one 2-neighbor forces residual >= 0.6",
    7: "a zero vertex with two 1- and one 2-neighbor forces residual >= 0.8",
    8: "an edge between V1 and V2 forces residual >= 1",
}


def _findings(
    labels: np.ndarray, adj: np.ndarray, edges: np.ndarray
) -> tuple[dict, dict]:
    """Per-row hypothesis and conclusion masks of findings 1..8 on P(n,2)."""
    ones, twos, charge = _charges(labels, adj)
    r = 10 * labels.sum(axis=1, dtype=np.int64) - 4 * labels.shape[1]
    isz = labels == 0
    lu = labels[:, edges[:, 0]]
    lv = labels[:, edges[:, 1]]
    hyp = {
        1: np.ones(labels.shape[0], dtype=bool),
        2: (isz & (ones == 2)).any(axis=1),
        3: (isz & (ones == 3)).any(axis=1),
        4: (labels == 2).any(axis=1),
        5: ((lu == 1) & (lv == 1)).any(axis=1),
        6: (isz & (ones == 1) & (twos == 1)).any(axis=1),
        7: (isz & (ones == 2) & (twos == 1)).any(axis=1),
        8: (((lu == 1) & (lv == 2)) | ((lu == 2) & (lv == 1))).any(axis=1),
    }
    concl = {i: r >= _FINDING_FLOORS[i] for i in range(2, 9)}
    concl[1] = charge.min(axis=1) >= 4
    return hyp, concl


# ---------------------------------------------------------------------------
# Column lemma


@dataclass(frozen=True)
class ColumnLemmaReport:
    holds: bool
    zero_columns: tuple[int, ...]
    counterexamples: tuple[int, ...]


def check_column_lemma(f: Labeling) -> ColumnLemmaReport:
    """For every column of weight 0, the two adjacent columns must sum to >= 4."""
    _require_k(f, 1, "the column lemma")
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

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "weight": self.weight,
            "bags": [sorted(b) for b in self.bags],
            "counts": list(self.counts),
            "marks": list(self.marks),
            "conflicts": [list(c) for c in self.conflicts],
            "lemma_breaches": list(self.lemma_breaches),
            "stranded_zero_columns": list(self.stranded_zero_columns),
            "implied_bound": self.implied_bound,
            "accounting_ok": self.accounting_ok,
            "consistent": self.consistent,
        }


def bagging_certificate(f: Labeling) -> BagCertificate:
    """Run the four marking passes and account for the implied bound.

    The certified inequality is weight >= 2*m1 + 3*m2 + 3*m3 + 3*m4 + m5,
    which is at least n whenever the accounting identity
    2*m1 + 3*m2 + 2*m3 + 2*m4 + m5 = n holds and no zero-weight column is
    left unmarked.
    """
    _require_k(f, 1, "the bagging certificate")
    n = f.n
    w = [cw.w for cw in column_weights(f)]
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

    @property
    def min_charge_tenths(self) -> int:
        return min(self.charge_tenths)

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
    _require_k(f, 2, "the discharge ledger")
    adj = np.array(f.graph().adjacency, dtype=np.int64)
    charges = _charges(_rows(f), adj)[2][0].tolist()
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


def threshold_check(n: int) -> int:
    """ceil(4n/5) - 4n/5 in integer tenths (2 when n = 1 mod 5, 4 when
    n = 2 mod 5, the residues the lower-bound argument names)."""
    if n < 1:
        raise InvalidParameters(f"n must be positive, got {n}")
    return 10 * (-(-4 * n // 5)) - 8 * n


# ---------------------------------------------------------------------------
# Findings


@dataclass(frozen=True)
class FindingResult:
    index: int
    description: str
    hypothesis: bool
    conclusion: bool | None  # None when the hypothesis is vacuous

    @property
    def ok(self) -> bool:
        return (not self.hypothesis) or bool(self.conclusion)


@dataclass(frozen=True)
class FindingsReport:
    n: int
    weight: int
    residual_total_tenths: int
    results: tuple[FindingResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def triggered(self) -> tuple[int, ...]:
        return tuple(r.index for r in self.results if r.hypothesis)


def check_findings(f: Labeling) -> FindingsReport:
    """Evaluate findings 1..8 on a valid IDF of P(n,2)."""
    _require_k(f, 2, "the findings table")
    if not validate_idf(f).valid:
        raise InvalidParameters("findings are stated for valid IDFs only")
    g = f.graph()
    hyp, concl = _findings(
        _rows(f),
        np.array(g.adjacency, dtype=np.int64),
        np.array(g.edges(), dtype=np.int64),
    )
    results = tuple(
        FindingResult(i, _FINDING_DESCRIPTIONS[i], bool(hyp[i][0]),
                      bool(concl[i][0]) if hyp[i][0] else None)
        for i in range(1, 9)
    )
    w = weight(f)
    return FindingsReport(
        n=f.n, weight=w, residual_total_tenths=10 * w - 8 * f.n, results=results
    )


# ---------------------------------------------------------------------------
# Vectorized sweeps over enumerated labelings


@dataclass(frozen=True)
class FindingsSweep:
    n: int
    weight_cap: int | None
    labelings_checked: int
    hypothesis_counts: dict
    violation_counts: dict

    @property
    def ok(self) -> bool:
        return all(v == 0 for v in self.violation_counts.values())


def sweep_findings(n: int, weight_cap: int | None = None) -> FindingsSweep:
    """Check findings 1..8 on every valid IDF of P(n,2) (optionally capped
    by weight).  Vectorized; intended for desk-scale n."""
    g = build_petersen(n, 2)
    adj = np.array(g.adjacency, dtype=np.int64)
    edges = np.array(g.edges(), dtype=np.int64)
    hyp_counts = {i: 0 for i in range(1, 9)}
    bad_counts = {i: 0 for i in range(1, 9)}
    total = 0
    for block in exhaustive.iter_valid_labelings(g, "italian", weight_cap, chunk=1 << 19):
        total += block.shape[0]
        hyp, concl = _findings(block, adj, edges)
        for i in range(1, 9):
            hyp_counts[i] += int(hyp[i].sum())
            bad_counts[i] += int((hyp[i] & ~concl[i]).sum())
    return FindingsSweep(
        n=n,
        weight_cap=weight_cap,
        labelings_checked=total,
        hypothesis_counts=hyp_counts,
        violation_counts=bad_counts,
    )


@dataclass(frozen=True)
class DischargeSweep:
    n: int
    weight_cap: int | None
    labelings_checked: int
    identity_failures: int
    charge_floor_failures: int

    @property
    def ok(self) -> bool:
        return self.identity_failures == 0 and self.charge_floor_failures == 0


def sweep_discharge(n: int, weight_cap: int | None = None) -> DischargeSweep:
    """Check the telescoping identity and the per-vertex charge floor over
    every valid IDF of P(n,2) up to the weight cap."""
    g = build_petersen(n, 2)
    adj = np.array(g.adjacency, dtype=np.int64)
    total = 0
    id_bad = 0
    floor_bad = 0
    for block in exhaustive.iter_valid_labelings(g, "italian", weight_cap, chunk=1 << 19):
        total += block.shape[0]
        w = block.sum(axis=1, dtype=np.int64)
        charge = _charges(block, adj)[2]
        id_bad += int((charge.sum(axis=1) != 10 * w).sum())
        floor_bad += int((charge.min(axis=1) < 4).sum())
    return DischargeSweep(
        n=n,
        weight_cap=weight_cap,
        labelings_checked=total,
        identity_failures=id_bad,
        charge_floor_failures=floor_bad,
    )


def random_identity_check(n: int, samples: int, seed: int = 0) -> int:
    """Count identity failures over random (not necessarily valid)
    labelings of P(n,2); the telescoping holds for every labeling, so the
    expected count is zero."""
    g = build_petersen(n, 2)
    adj = np.array(g.adjacency, dtype=np.int64)
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 3, size=(samples, g.num_vertices), dtype=np.uint8)
    w = labels.sum(axis=1, dtype=np.int64)
    charge = _charges(labels, adj)[2]
    return int((charge.sum(axis=1) != 10 * w).sum())


@dataclass(frozen=True)
class ColumnLemmaSweep:
    n: int
    weight_cap: int | None
    labelings_checked: int
    counterexamples: int

    @property
    def ok(self) -> bool:
        return self.counterexamples == 0


def sweep_column_lemma(n: int, weight_cap: int | None = None) -> ColumnLemmaSweep:
    """Check the column lemma over every valid IDF of P(n,1)."""
    g = build_petersen(n, 1)
    total = 0
    bad = 0
    for block in exhaustive.iter_valid_labelings(g, "italian", weight_cap, chunk=1 << 19):
        total += block.shape[0]
        bad += int(_column_lemma(block)[1].any(axis=1).sum())
    return ColumnLemmaSweep(
        n=n, weight_cap=weight_cap, labelings_checked=total, counterexamples=bad
    )


@dataclass(frozen=True)
class BaggingSweep:
    n: int
    labelings_checked: int
    inconsistent: int
    wrong_bound: int
    conflict_count: int

    @property
    def ok(self) -> bool:
        return self.inconsistent == 0 and self.wrong_bound == 0


def sweep_bagging(n: int, optimal_weight: int | None = None) -> BaggingSweep:
    """Certify every optimal IDF on P(n,1): consistent bags, implied bound
    equal to n.  `optimal_weight` defaults to n (the known optimum)."""
    g = build_petersen(n, 1)
    target = n if optimal_weight is None else optimal_weight
    checked = 0
    inconsistent = 0
    wrong_bound = 0
    conflicts = 0
    for block in exhaustive.iter_valid_labelings(g, "italian", target, chunk=1 << 19):
        w = block.sum(axis=1, dtype=np.int64)
        for row in block[w == target]:
            f = Labeling(n, 1, tuple(int(x) for x in row))
            cert = bagging_certificate(f)
            checked += 1
            if not cert.consistent:
                inconsistent += 1
            if cert.implied_bound != target:
                wrong_bound += 1
            conflicts += len(cert.conflicts)
    return BaggingSweep(
        n=n,
        labelings_checked=checked,
        inconsistent=inconsistent,
        wrong_bound=wrong_bound,
        conflict_count=conflicts,
    )
