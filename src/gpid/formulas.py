"""Closed-form values and bounds for the three invariants on P(n, k).

Each entry returns a ``FormulaResult`` tagged with the family it came
from.  Exact entries are integers; the open k >= 4 cases return an
integer bound pair plus the exact rational upper-bound expression for
auditing.  k = 3 Italian values are known elsewhere but not carried
here, so they come back as kind="external"; families with no published
formula come back as kind="unknown" rather than an extrapolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidParameters


@dataclass(frozen=True)
class FormulaResult:
    kind: str  # exact | bounds | external | unknown
    value: int | None
    lo: int | None
    hi: int | None
    theorem: str
    exact_rational: Fraction | None = None

    def to_json_dict(self) -> dict:
        out: dict = {"kind": self.kind, "theorem": self.theorem}
        if self.kind == "exact":
            out["value"] = self.value
        elif self.kind == "bounds":
            out["lo"] = self.lo
            out["hi"] = self.hi
        if self.exact_rational is not None:
            out["exact_rational"] = [
                self.exact_rational.numerator,
                self.exact_rational.denominator,
            ]
        return out


def _exact(value: int, theorem: str) -> FormulaResult:
    return FormulaResult("exact", value, value, value, theorem)


def _check_params(n: int, k: int) -> None:
    if n < 3 or k < 1 or 2 * k >= n:
        raise InvalidParameters(f"P(n,k) requires n >= 3, 2k < n; got n={n}, k={k}")


def ceil_div(a: int, b: int) -> int:
    """ceil(a / b) in exact integer arithmetic, for b > 0."""
    return -(-a // b)


def pnk_upper_bound_expression(n: int, k: int) -> Fraction:
    """The open-case upper bound 4(n-k)/5 * (3k+2)/(3k+1) + (4k+6)/3."""
    return Fraction(4 * (n - k), 5) * Fraction(3 * k + 2, 3 * k + 1) + Fraction(
        4 * k + 6, 3
    )


def italian_value(n: int, k: int) -> FormulaResult:
    """Italian domination number: exact for k = 1, k = 2 and the
    k = 2,3 (mod 5), n = 0 (mod 5) family; bounds otherwise."""
    _check_params(n, k)
    if k == 1:
        return _exact(n, "italian-pn1")
    if k == 2:
        bump = 1 if n % 5 in (1, 2) else 0
        return _exact(-(-4 * n // 5) + bump, "italian-pn2")
    if k == 3:
        return FormulaResult("external", None, None, None, "italian-pn3-external")
    if k % 5 in (2, 3) and n % 5 == 0:
        return _exact(4 * n // 5, "italian-pnk-exact")
    expr = pnk_upper_bound_expression(n, k)
    return FormulaResult(
        "bounds",
        None,
        -(-4 * n // 5),
        ceil_div(expr.numerator, expr.denominator),
        "italian-pnk-bound",
        exact_rational=expr,
    )


def rainbow2_value(n: int, k: int) -> FormulaResult:
    """2-rainbow domination number for k = 1 (n >= 5) and k = 2."""
    _check_params(n, k)
    if k == 1:
        if n < 5:
            # the k=1 formula is stated from n = 5; smaller n go to the solver
            return FormulaResult("unknown", None, None, None, "rainbow2-pn1-range")
        return _exact(n, "rainbow2-pn1")
    if k == 2:
        bump = 1 if n % 10 in (1, 2, 5, 6, 7, 8) else 0
        return _exact(-(-4 * n // 5) + bump, "rainbow2-pn2")
    return FormulaResult("unknown", None, None, None, "rainbow2-unknown")


def domination_value(n: int, k: int) -> FormulaResult:
    """Domination number for k = 1 and k = 2."""
    _check_params(n, k)
    if k == 1:
        if n % 4 == 2:
            return _exact(n // 2 + 1, "domination-pn1")
        return _exact(-(-n // 2), "domination-pn1")
    if k == 2:
        return _exact(-(-3 * n // 5), "domination-pn2")
    return FormulaResult("unknown", None, None, None, "domination-unknown")


@dataclass(frozen=True)
class ItalianGraphVerdict:
    is_italian: bool | None
    gamma_italian: int | None
    double_gamma: int | None


def italian_graph_predicate(n: int, k: int) -> ItalianGraphVerdict:
    """Whether gamma_I = 2*gamma on P(n,k) for k in {1, 2}.

    P(n,1) is Italian exactly when n = 0 (mod 4); P(n,2) never is.
    """
    _check_params(n, k)
    if k not in (1, 2):
        raise InvalidParameters(f"predicate stated for k in {{1,2}}, got k={k}")
    gi = italian_value(n, k).value
    dom = domination_value(n, k).value
    return ItalianGraphVerdict(
        is_italian=(gi == 2 * dom), gamma_italian=gi, double_gamma=2 * dom
    )


@dataclass(frozen=True)
class RelationReport:
    relation: str  # "equal" or "minus_one"
    gamma_italian: int | None
    gamma_rainbow2: int | None


def relation_report(n: int, k: int) -> RelationReport:
    """gamma_I versus gamma_r2: equal on P(n,1); equal on P(n,2) except
    n = 5, 8 (mod 10) where gamma_I = gamma_r2 - 1."""
    _check_params(n, k)
    if k not in (1, 2):
        raise InvalidParameters(f"relation stated for k in {{1,2}}, got k={k}")
    gi = italian_value(n, k).value
    r2 = rainbow2_value(n, k).value
    if k == 1:
        return RelationReport("equal", gi, r2)
    relation = "minus_one" if n % 10 in (5, 8) else "equal"
    return RelationReport(relation, gi, r2)
