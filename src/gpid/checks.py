"""Named desk-scale verification checks.

Each check pairs a claimed value, construction, or certificate scheme
with an independent verification route (exhaustive enumeration, the
cyclic DP, or direct validation) and reports pass/fail with a one-line
detail.  The registry backs the `verify-theorems` CLI command; check ids
are stable interface names.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass
from typing import Callable

from . import audit
from .constructions import Unavailable, construct_pn1, construct_pn2, construct_pnk
from .errors import InvalidParameters
from .exhaustive import SIZE_GATES
from .formulas import (
    ceil_div,
    domination_value,
    italian_graph_predicate,
    italian_value,
    pnk_upper_bound_expression,
    rainbow2_value,
    relation_report,
)
from .graph import build_petersen
from .solver import kind_floor, solve_dp, solve_exhaustive

THM_3_3_SET = (5, 8, 10, 15, 18, 20, 25, 28)
THM_4_1_EXACT_SET = ((7, 15), (8, 20), (12, 25), (13, 30))
BAGGING_NS = range(4, 9)


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    ok: bool
    instances: int
    detail: str


def check_thm_2_3(n_max: int = 16) -> CheckResult:
    """gamma_I(P(n,1)) = n: DP value and explicit pattern, n = 3..n_max."""
    bad = []
    count = 0
    for n in range(3, n_max + 1):
        count += 1
        expected = italian_value(n, 1).value
        r = solve_dp(n, 1, "italian")
        c = construct_pn1(n)
        if r.optimum != expected or not c.valid or c.actual_weight != expected:
            bad.append((n, r.optimum, c.valid, c.actual_weight))
    detail = "all exact" if not bad else f"failures: {bad[:5]}"
    return CheckResult("thm-2.3", not bad, count, detail)


def check_thm_3_3(n_max: int = 28) -> CheckResult:
    """P(n,2) patterns for the printed residues: valid, weight ceil(4n/5)."""
    bad = []
    count = 0
    for n in THM_3_3_SET:
        if n > n_max:
            continue
        count += 1
        c = construct_pn2(n)
        if isinstance(c, Unavailable):
            bad.append((n, "unavailable"))
            continue
        if not c.valid or c.actual_weight != italian_value(n, 2).value:
            bad.append((n, c.valid, c.actual_weight))
    detail = "all valid at ceil(4n/5)" if not bad else f"failures: {bad}"
    return CheckResult("thm-3.3", not bad, count, detail)


def check_thm_3_6(n_max: int = 20) -> CheckResult:
    """gamma_I(P(n,2)) piecewise formula against the DP, n = 5..n_max."""
    bad = []
    count = 0
    for n in range(5, n_max + 1):
        count += 1
        r = solve_dp(n, 2, "italian")
        f = italian_value(n, 2)
        if f.kind != "exact" or r.optimum != f.value:
            bad.append((n, r.optimum, f.value))
    detail = "dp matches formula" if not bad else f"failures: {bad[:5]}"
    return CheckResult("thm-3.6", not bad, count, detail)


def check_thm_4_1(k_max: int = 12, n_max: int = 60) -> CheckResult:
    """Exact family certified without search; bound sweep for the rest.

    Exact family: construction weight = 4n/5 = degree lower bound.  Sweep:
    every construction must be a valid IDF within the open-case upper
    bound.
    """
    bad = []
    count = 0
    for k, n in THM_4_1_EXACT_SET:  # certified without search, so not bounded by k_max
        if n > n_max:
            continue
        count += 1
        c = construct_pnk(n, k)
        dlb = kind_floor(build_petersen(n, k), "italian")
        if not (c.valid and c.actual_weight == italian_value(n, k).value == dlb):
            bad.append(("exact", n, k, c.valid, c.actual_weight, dlb))
    for k in range(4, k_max + 1):
        for n in range(2 * k + 1, n_max + 1):
            count += 1
            c = construct_pnk(n, k)
            expr = pnk_upper_bound_expression(n, k)
            cap = ceil_div(expr.numerator, expr.denominator)
            if not c.valid:
                bad.append(("invalid", n, k))
            if c.actual_weight > cap:
                bad.append(("bound", n, k, c.actual_weight, cap))
    detail = "all valid within the open-case bound" if not bad else f"failures: {bad[:5]}"
    return CheckResult("thm-4.1", not bad, count, detail)


def check_oracle_equivalence() -> CheckResult:
    """DP equals exhaustive search on every instance within the size gates."""
    bad = []
    count = 0
    for k in (1, 2, 3):
        for n in range(2 * k + 1, max(SIZE_GATES.values()) // 2 + 1):
            for kind, gate in SIZE_GATES.items():
                if 2 * n > gate:
                    continue
                count += 1
                a = solve_dp(n, k, kind)
                b = solve_exhaustive(build_petersen(n, k), kind)
                if a.optimum != b.optimum:
                    bad.append((n, k, kind, a.optimum, b.optimum))
    detail = "dp = exhaustive everywhere" if not bad else f"failures: {bad}"
    return CheckResult("oracle-eq", not bad, count, detail)


def check_cited_formulas(n_max: int = 16) -> CheckResult:
    """Domination and 2-rainbow formulas (k = 1, 2) against the DP."""
    bad = []
    count = 0
    for k in (1, 2):
        for n in range(max(3, 2 * k + 1), n_max + 1):
            for kind, oracle in (
                ("domination", domination_value),
                ("rainbow2", rainbow2_value),
            ):
                f = oracle(n, k)
                if f.kind != "exact":
                    continue
                count += 1
                r = solve_dp(n, k, kind)
                if r.optimum != f.value:
                    bad.append((n, k, kind, r.optimum, f.value))
    detail = "formulas match dp" if not bad else f"failures: {bad}"
    return CheckResult("cited-formulas", not bad, count, detail)


def _sweep_check(check_id: str, passed: str, sweeps: list[audit.Sweep], instances: int = 0,
                 other_bad: tuple = ()) -> CheckResult:
    """A check over audit sweeps, which fails on a sweep with a violation
    and on one over no labeling; `instances` and `other_bad` count and
    list the check's other routes and their failures."""
    bad = [*(s.summary for s in sweeps if not s.ok or s.labelings_checked == 0), *other_bad]
    instances += sum(s.labelings_checked for s in sweeps)
    return CheckResult(check_id, not bad, instances, passed if not bad else f"failures: {bad}")


def check_discharge() -> CheckResult:
    """The charge identity per label, which covers every labeling of every
    P(n,2), and the identity and per-vertex floor over enumerated
    near-optimal IDFs of P(6,2), P(7,2)."""
    sweeps = [audit.sweep_discharge(n, weight_cap=italian_value(n, 2).value + 1) for n in (6, 7)]
    facts = audit.charge_identity()
    broken = tuple(fact for fact in facts if fact[1] != fact[2])
    return _sweep_check("discharge", "identity and floor hold", sweeps, len(facts), broken)


def check_findings() -> CheckResult:
    """Findings 1..8 over every valid IDF of P(6,2) and P(7,2)."""
    return _sweep_check("findings", "no violations", [audit.sweep_findings(n) for n in (6, 7)])


def check_bagging() -> CheckResult:
    """Every valid IDF of P(n,1) of weight at most n certifies weight >= n
    via the bags."""
    return _sweep_check("bagging", "all certificates bound n",
                        [audit.sweep_bagging(n) for n in BAGGING_NS])


def check_classification(n_max: int = 16) -> CheckResult:
    """The Italian-graph rule and the gamma_I/gamma_r2 relation rule
    against solver-computed values."""
    bad = []
    count = 0
    for k in (1, 2):
        for n in range(max(4, 2 * k + 1), n_max + 1):
            count += 1
            gi = solve_dp(n, k, "italian").optimum
            dom = solve_dp(n, k, "domination").optimum
            if italian_graph_predicate(n, k) != (gi == 2 * dom):
                bad.append(("predicate", n, k, gi, 2 * dom))
        for n in range(max(3, 2 * k + 1), n_max + 1):
            count += 1
            gi = solve_dp(n, k, "italian").optimum
            r2 = solve_dp(n, k, "rainbow2").optimum
            expected = "equal" if gi == r2 else ("minus_one" if gi == r2 - 1 else "?")
            if relation_report(n, k) != expected:
                bad.append(("relation", n, k, gi, r2))
    detail = "classification matches solver" if not bad else f"failures: {bad}"
    return CheckResult("classification", not bad, count, detail)


CHECKS: dict[str, Callable[..., CheckResult]] = {
    "thm-2.3": check_thm_2_3,
    "thm-3.3": check_thm_3_3,
    "thm-3.6": check_thm_3_6,
    "thm-4.1": check_thm_4_1,
    "oracle-eq": check_oracle_equivalence,
    "cited-formulas": check_cited_formulas,
    "discharge": check_discharge,
    "findings": check_findings,
    "bagging": check_bagging,
    "classification": check_classification,
}


def checks_taking(param: str) -> list[str]:
    """Ids of the checks whose signature takes `param` (a range override)."""
    return [i for i, fn in CHECKS.items() if param in inspect.signature(fn).parameters]


def run_checks(
    only: list[str] | None = None,
    n_max: int | None = None,
    k_max: int | None = None,
) -> list[tuple[CheckResult, float]]:
    """Run the selected checks, returning (result, seconds) pairs.  Each
    id runs once, in the order first given.  `n_max` and `k_max` go to
    the checks that take them; a pass on no instance proves nothing, so
    it raises InvalidParameters (an empty range), and so does a range no
    selected check takes."""
    ids = list(CHECKS) if not only else list(dict.fromkeys(only))
    unknown = [i for i in ids if i not in CHECKS]
    if unknown:
        raise InvalidParameters(f"unknown check ids: {unknown}; known: {sorted(CHECKS)}")
    overrides = {"n_max": n_max, "k_max": k_max}
    for p, v in overrides.items():
        takers = checks_taking(p)
        if v is not None and not set(ids) & set(takers):
            flag = "--" + p.replace("_", "-")
            raise InvalidParameters(
                f"--only selects no check that {flag} bounds ({', '.join(takers)})")
    out = []
    for check_id in ids:
        kwargs = {
            p: v for p, v in overrides.items() if v is not None and check_id in checks_taking(p)
        }
        start = time.perf_counter()
        result = CHECKS[check_id](**kwargs)
        if result.ok and result.instances == 0:
            given = ", ".join(f"{p}={v}" for p, v in kwargs.items())
            raise InvalidParameters(f"check {check_id} has no instance with {given}")
        out.append((result, time.perf_counter() - start))
    return out
