"""Acceptance: every `verify-theorems` check, run as shipped.

`checks.CHECKS` is the one statement of each claim; these tests run it
and pin its results, make sure each check can fail, and pin how
`run_checks` routes the range overrides.  The table below is the output
of

    PYTHONPATH=src python -m gpid.cli verify-theorems --format json
"""

import dataclasses

import pytest

from gpid import audit, checks
from gpid.cli import main
from gpid.constructions import ConstructionResult
from gpid.labeling import Labeling, validate_idf

PINNED = {
    "thm-2.3": (True, 14, "all exact"),
    "thm-3.3": (True, 8, "all valid at ceil(4n/5)"),
    "thm-3.6": (True, 16, "dp matches formula"),
    "thm-4.1": (True, 400, "0 constructions needed the incumbent fallback"),
    "oracle-eq": (True, 30, "dp = exhaustive everywhere"),
    "cited-formulas": (True, 50, "formulas match dp"),
    "discharge": (True, 12587, "identity and floor hold"),
    "findings": (True, 3281738, "no violations"),
    "bagging": (True, 166, "all certificates bound n"),
    "classification": (True, 51, "classification matches solver"),
}


def outcome(result):
    return (result.check_id, result.ok, result.instances, result.detail)


@pytest.mark.parametrize("check_id", list(checks.CHECKS))
def test_check_matches_pinned_result(check_id):
    [(result, _)] = checks.run_checks(only=[check_id])
    assert outcome(result) == (check_id, *PINNED[check_id])


def test_every_check_is_pinned():
    assert set(PINNED) == set(checks.CHECKS)


@pytest.mark.parametrize("kwargs,expected", [
    (dict(only=["thm-4.1"], n_max=70, k_max=13),
     [("thm-4.1", True, 534, "0 constructions needed the incumbent fallback")]),
    # the sweeps take no range: n_max leaves them at their defaults
    (dict(only=["discharge", "findings", "bagging"], n_max=12),
     [("discharge", *PINNED["discharge"]), ("findings", *PINNED["findings"]),
      ("bagging", *PINNED["bagging"])]),
    (dict(only=["classification", "thm-3.3"], n_max=12),
     [("classification", True, 35, "classification matches solver"),
      ("thm-3.3", True, 3, "all valid at ceil(4n/5)")]),
])
def test_range_overrides_reach_the_checks_that_take_them(kwargs, expected):
    assert [outcome(r) for r, _ in checks.run_checks(**kwargs)] == expected


def test_override_flags_list_the_checks_they_apply_to():
    assert checks.checks_taking("n_max") == [
        "thm-2.3", "thm-3.3", "thm-3.6", "thm-4.1", "cited-formulas", "classification",
    ]
    assert checks.checks_taking("k_max") == ["thm-4.1"]


# ---------------------------------------------------------------------------
# planted faults: each route fed a wrong answer must fail the checks reading it


def dp_off_by_one(real):
    def planted(n, k, kind):
        r = real(n, k, kind)
        return dataclasses.replace(r, optimum=r.optimum + 1)
    return planted


def predicate_values_off_by_one(real):  # same verdict, wrong values
    def planted(n, k):
        v = real(n, k)
        return dataclasses.replace(v, gamma_italian=v.gamma_italian + 1)
    return planted


def all_zero_pn2(real):
    def planted(n):
        f = Labeling(n, 2, (0,) * (2 * n))
        report = validate_idf(f)
        return ConstructionResult(n, 2, "planted", 0, 0, report.valid, report.violations, f)
    return planted


def returning(value):
    return lambda real: lambda *args, **kwargs: value


def findings(labelings, violations):
    counts = dict.fromkeys(range(1, 9), 0)
    return audit.FindingsSweep(6, None, labelings, counts, {**counts, 3: violations})


FAULTS = {
    "dp-off-by-one": (checks, "solve_dp", dp_off_by_one,
                      ["thm-2.3", "thm-3.6", "oracle-eq", "cited-formulas", "classification"]),
    "predicate-values": (checks, "italian_graph_predicate", predicate_values_off_by_one,
                         ["classification"]),
    "pn2-invalid": (checks, "construct_pn2", all_zero_pn2, ["thm-3.3"]),
    "findings-violation": (audit, "sweep_findings", returning(findings(5, 1)), ["findings"]),
    "findings-empty": (audit, "sweep_findings", returning(findings(0, 0)), ["findings"]),
    "discharge-empty": (audit, "sweep_discharge",
                        returning(audit.DischargeSweep(6, None, 0, 0, 0)), ["discharge"]),
    "bagging-empty": (audit, "sweep_bagging",
                      returning(audit.BaggingSweep(6, 0, 0, 0, 0)), ["bagging"]),
}


@pytest.mark.parametrize("fault", list(FAULTS))
def test_a_planted_fault_fails_the_checks_that_read_it(monkeypatch, capsys, fault):
    owner, name, plant, affected = FAULTS[fault]
    monkeypatch.setattr(owner, name, plant(getattr(owner, name)))
    code = main(["verify-theorems", *(arg for i in affected for arg in ("--only", i))])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert [line.split()[:2] for line in lines[:-1]] == [["✗", i] for i in affected]
    assert lines[-1] == "SOME CHECKS FAILED"


# ---------------------------------------------------------------------------
# the P(n,k), k >= 4 criteria: thm-4.1's two loops, each shown to cover its
# instances and to fail on a wrong answer


def recording(seen, real):
    def planted(*args):
        seen.append(args)
        return real(*args)
    return planted


def test_criterion_04_pnk_exact_family(monkeypatch):
    """gamma_I(P(n,k)) = 4n/5 on the exact family, certified without search:
    a degree bound one short of the construction fails each instance.
    The family is bounded by n_max only, so the default range reaches
    P(30,13) although k_max = 12."""
    seen = []
    monkeypatch.setattr(checks, "degree_lower_bound",
                        recording(seen, checks.degree_lower_bound))
    assert checks.check_thm_4_1().ok
    assert [(g.n, g.k) for (g,) in seen] == [(15, 7), (20, 8), (25, 12), (30, 13)]

    monkeypatch.setattr(checks, "degree_lower_bound", lambda g: 4 * g.n // 5 - 1)
    result = checks.check_thm_4_1()
    expected = [("exact", n, k, True, 4 * n // 5, 4 * n // 5 - 1)
                for n, k in [(15, 7), (20, 8), (25, 12), (30, 13)]]
    assert (result.ok, result.detail) == (False, f"failures: {expected}")


def test_criterion_05_pnk_bound_sweep(monkeypatch):
    """k = 4..12, n <= 60: every construction respects the open-case bound,
    an invalid one is covered by the branch-and-bound incumbent, and one
    over the bound fails the check."""
    seen = []
    monkeypatch.setattr(checks, "pnk_upper_bound_expression",
                        recording(seen, checks.pnk_upper_bound_expression))
    assert checks.check_thm_4_1().ok
    assert seen == [(n, k) for k in range(4, 13) for n in range(2 * k + 1, 61)]

    real = checks.construct_pnk

    def invalid_at_9_4(n, k):
        c = real(n, k)
        return dataclasses.replace(c, valid=False) if (n, k) == (9, 4) else c
    monkeypatch.setattr(checks, "construct_pnk", invalid_at_9_4)
    result = checks.check_thm_4_1()
    assert (result.ok, result.detail) == (True, "1 constructions needed the incumbent fallback")

    expr = checks.pnk_upper_bound_expression(30, 6)
    cap = checks.ceil_div(expr.numerator, expr.denominator)

    def overweight_at_30_6(n, k):
        c = real(n, k)
        return dataclasses.replace(c, actual_weight=cap + 1) if (n, k) == (30, 6) else c
    monkeypatch.setattr(checks, "construct_pnk", overweight_at_30_6)
    result = checks.check_thm_4_1()
    assert (result.ok, result.detail) == (False, f"failures: {[('bound', 30, 6, cap + 1, cap)]}")
