"""Explicit periodic IDF patterns for P(n,1), P(n,2) and P(n,k), k >= 4.

Patterns are stored column-major: a block is a tuple of (outer, inner)
digit pairs, one pair per column.  ``construct_*`` functions emit the
labeling, evaluate the pattern's claimed weight exactly, validate the
result, and report everything in a ``ConstructionResult``; a mismatch
between claimed and actual weight or a failed validation is recorded,
never raised.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidParameters
from .formulas import ceil_div
from .graph import require_admissible
from .labeling import Labeling, validate_idf, weight

Column = tuple[int, int]


@dataclass(frozen=True)
class ConstructionResult:
    n: int
    k: int
    case: str
    claimed_weight: int
    actual_weight: int
    valid: bool
    violations: tuple[tuple[int, int], ...]
    labeling: Labeling

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "case": self.case,
            "claimed_weight": self.claimed_weight,
            "actual_weight": self.actual_weight,
            "valid": self.valid,
            "violations": [list(v) for v in self.violations],
            "labeling": self.labeling.to_json_dict(),
        }


@dataclass(frozen=True)
class Unavailable:
    """No printed pattern covers this residue class."""

    n: int
    k: int
    reason: str


# Five-column building blocks, written (outer, inner) per column.
_MAIN5 = ((1, 0), (0, 0), (1, 0), (0, 1), (0, 1))
_SHIFT5 = ((0, 1), (1, 0), (0, 0), (1, 0), (0, 1))
_MIRROR5 = ((1, 0), (0, 1), (0, 1), (1, 0), (0, 0))
_OFFSET5 = ((0, 1), (0, 1), (1, 0), (0, 0), (1, 0))
_PN2_5 = ((0, 0), (1, 0), (0, 1), (0, 1), (1, 0))
_PN2_TAIL3 = ((0, 1), (0, 1), (1, 0))
_CLOSE3 = ((0, 1), (1, 0), (0, 0))
_CLOSE3B = ((0, 0), (1, 0), (0, 1))
_SHIFT4 = ((0, 1), (1, 0), (0, 0), (1, 0))
_MIRROR4 = ((1, 0), (0, 1), (0, 1), (1, 0))


def _labeling_from_columns(n: int, k: int, cols) -> Labeling:
    values = []
    for a, b in cols:
        values.append(a)
        values.append(b)
    return Labeling(n, k, tuple(values))


def _result(n: int, k: int, case: str, claimed: int, cols) -> ConstructionResult:
    f = _labeling_from_columns(n, k, cols)
    report = validate_idf(f)
    return ConstructionResult(
        n=n,
        k=k,
        case=case,
        claimed_weight=claimed,
        actual_weight=weight(f),
        valid=report.valid,
        violations=report.violations,
        labeling=f,
    )


def construct_pn1(n: int) -> ConstructionResult:
    """Alternating (1/0),(0/1) columns; weight n for every n >= 3."""
    require_admissible(n, 1)
    cols = [((1, 0) if i % 2 == 0 else (0, 1)) for i in range(n)]
    # odd n ends on (1/0) after (n-1)/2 full repeats of the 2-column block
    return _result(n, 1, "pn1", n, cols)


def construct_pn2(n: int) -> ConstructionResult | Unavailable:
    """Period-5 block for n = 0, 5 (mod 10), block plus 3-column tail for
    n = 8 (mod 10).  Other residues have no printed pattern; the exact
    solver supplies optimal labelings there instead."""
    require_admissible(n, 2)
    r = n % 10
    if r in (0, 5):
        cols = list(_PN2_5) * (n // 5)
        return _result(n, 2, "pn2-periodic", 4 * n // 5, cols)
    if r == 8:
        cols = list(_PN2_5) * ((n - 3) // 5) + list(_PN2_TAIL3)
        return _result(n, 2, "pn2-tail", (4 * n + 3) // 5, cols)
    return Unavailable(
        n=n,
        k=2,
        reason=f"no printed pattern for n = {r} (mod 10); use the exact solver",
    )


def _case_block(k: int) -> tuple[str, tuple[Column, ...], int]:
    """Periodic block for P(n,k), k >= 4, chosen by k mod 5.

    Returns (case tag, block columns, exact block weight).
    """
    r = k % 5
    if r == 0:
        q = k // 5
        cols = (
            _MAIN5 * q
            + ((1, 0),)
            + _SHIFT5 * q
            + _MIRROR5 * q
            + _MAIN5 * q
            + ((1, 1),)
            + _SHIFT5 * (q - 1)
            + _CLOSE3
        )
        return "kmod5=0", cols, 4 * k + 1
    if r == 1:
        q = (k - 1) // 5
        cols = (
            _MAIN5 * q
            + ((1, 0),)
            + _OFFSET5 * q
            + _PN2_TAIL3
            + _OFFSET5 * q
        )
        return "kmod5=1", cols, 12 * q + 4
    if r in (2, 3):
        return "kmod5=2,3", _MAIN5, 4
    q = (k - 4) // 5
    cols = (
        _MAIN5 * ((k + 1) // 5)
        + ((1, 1),)
        + _SHIFT5 * q
        + _SHIFT4
        + _PN2_5 * q
        + _CLOSE3B
        + _MIRROR5 * q
        + _MIRROR4
        + _SHIFT5 * q
        + _CLOSE3
    )
    return "kmod5=4", cols, 4 * k + 1


def tail_h(k: int) -> tuple[Column, ...]:
    """The k-column closing block: inner row all 1, outer row 1,0,0 repeating.

    Weight is ceil(4k/3) for every k >= 4.
    """
    if k < 4:
        raise InvalidParameters(f"tail block requires k >= 4, got {k}")
    base = ((1, 1), (0, 1), (0, 1))
    cols = base * (k // 3)
    if k % 3 == 1:
        cols = cols + ((1, 1),)
    elif k % 3 == 2:
        cols = cols + ((1, 1), (0, 1))
    return cols


def construct_pnk(n: int, k: int) -> ConstructionResult:
    """Periodic pattern when the case's divisibility holds, otherwise the
    block prefix on columns 0..n-k-1 plus the k-column tail.

    The claimed weight follows the case's printed expression; the actual
    weight is measured on the emitted labeling and the validity flag
    records the IDF check.  Disagreements are audit findings, not errors.
    """
    if k < 4:
        raise InvalidParameters(f"construct_pnk requires k >= 4, got k={k}")
    require_admissible(n, k)
    case, block, block_weight = _case_block(k)
    period = len(block)
    if n % period == 0:
        cols = list(block) * (n // period)
        claimed = block_weight * (n // period)
        return _result(n, k, case + ",periodic", claimed, cols)
    prefix = [block[c % period] for c in range(n - k)]
    cols = prefix + list(tail_h(k))
    claimed = ceil_div(block_weight * (n - k), period) + ceil_div(4 * k, 3)
    return _result(n, k, case + ",tail", claimed, cols)

