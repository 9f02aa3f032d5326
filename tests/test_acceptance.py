"""Acceptance: every `verify-theorems` check, run as shipped.

`checks.CHECKS` is the one statement of each claim; these tests run it
and pin its results, make sure each check can fail, and pin how
`run_checks` routes the range overrides.  The table below is the output
of

    PYTHONPATH=src python -m gpid.cli verify-theorems --format json
"""

import dataclasses

import pytest

from gpid import audit, checks, dp, exhaustive, formulas, solver
from gpid.cli import main
from gpid.constructions import ConstructionResult
from gpid.graph import build_petersen
from gpid.labeling import Labeling, validate_idf

PINNED = {
    "thm-2.3": (True, 14, "all exact"),
    "thm-3.3": (True, 8, "all valid at ceil(4n/5)"),
    "thm-3.6": (True, 16, "dp matches formula"),
    "thm-4.1": (True, 400, "all valid within the open-case bound"),
    "oracle-eq": (True, 30, "dp = exhaustive everywhere"),
    "cited-formulas": (True, 50, "formulas match dp"),
    "discharge": (True, 2638, "identity and floor hold"),
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
     [("thm-4.1", True, 534, "all valid within the open-case bound")]),
    # the sweeps take no range: n_max, read by thm-3.3, leaves them at their defaults
    (dict(only=["discharge", "findings", "bagging", "thm-3.3"], n_max=12),
     [("discharge", *PINNED["discharge"]), ("findings", *PINNED["findings"]),
      ("bagging", *PINNED["bagging"]), ("thm-3.3", True, 3, "all valid at ceil(4n/5)")]),
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


def test_oracle_eq_covers_the_exhaustive_size_gates(monkeypatch):
    """The 30 instances are those within `exhaustive.SIZE_GATES`: a
    2-rainbow gate of 2n <= 10 drops P(6,1) and P(6,2)."""
    monkeypatch.setitem(exhaustive.SIZE_GATES, "rainbow2", 10)
    assert checks.check_oracle_equivalence().instances == PINNED["oracle-eq"][1] - 2


# ---------------------------------------------------------------------------
# planted faults: each route fed a wrong answer must fail the checks reading it


def dp_off_by_one(real):
    def planted(n, k, kind):
        r = real(n, k, kind)
        return dataclasses.replace(r, optimum=r.optimum + 1)
    return planted


def flipped(real):  # the rule's answer negated
    return lambda n, k: not real(n, k)


def all_zero_pn2(real):
    def planted(n):
        f = Labeling(n, 2, (0,) * (2 * n))
        report = validate_idf(f)
        return ConstructionResult(n, 2, "planted", 0, 0, report.valid, report.violations, f)
    return planted


def returning(value):
    return lambda real: lambda *args, **kwargs: value


def sweep(target, labelings, violations):
    """A sweep record of `target` on P(6,k) over `labelings` rows, with
    `violations` failed conditions."""
    return audit.Sweep(target, 6, None, labelings, ("n", "violations"), ((6, violations),),
                       f"planted {target} sweep", violations)


def off_by(real, off):  # every exact closed form off by `off`
    def planted(n, k):
        f = real(n, k)
        if f.kind != "exact":
            return f
        return dataclasses.replace(f, value=f.value + off, lo=f.lo + off, hi=f.hi + off)
    return planted


def patched(owner, name, plant):
    return lambda monkeypatch: monkeypatch.setattr(owner, name, plant(getattr(owner, name)))


def closed_forms_off_by(off):
    """A wrong closed form of every kind, where the checks read it and where
    the DP starts its deepening (solver.solve_dp reads formulas.VALUES)."""
    def plant(monkeypatch):
        for kind, real in list(formulas.VALUES.items()):
            monkeypatch.setitem(formulas.VALUES, kind, off_by(real, off))
            monkeypatch.setattr(checks, real.__name__, off_by(real, off))
    return plant


FAULTS = {
    "dp-off-by-one": (patched(checks, "solve_dp", dp_off_by_one),
                      ["thm-2.3", "thm-3.6", "oracle-eq", "cited-formulas", "classification"]),
    "predicate-values": (patched(checks, "italian_graph_predicate", flipped),
                         ["classification"]),
    "pn2-invalid": (patched(checks, "construct_pn2", all_zero_pn2), ["thm-3.3"]),
    "findings-violation": (patched(audit, "sweep_findings",
                                   returning(sweep("findings", 5, 1))), ["findings"]),
    "findings-empty": (patched(audit, "sweep_findings", returning(sweep("findings", 0, 0))),
                       ["findings"]),
    "discharge-violation": (patched(audit, "sweep_discharge",
                                    returning(sweep("discharge", 5, 1))), ["discharge"]),
    "discharge-empty": (patched(audit, "sweep_discharge", returning(sweep("discharge", 0, 0))),
                        ["discharge"]),
    "discharge-identity": (patched(audit, "charge_identity", returning([("label 1", 11, 10)])),
                           ["discharge"]),
    "bagging-violation": (patched(audit, "sweep_bagging", returning(sweep("bagging", 5, 1))),
                          ["bagging"]),
    "bagging-empty": (patched(audit, "sweep_bagging", returning(sweep("bagging", 0, 0))),
                      ["bagging"]),
    "formula-plus-one": (closed_forms_off_by(1), ["thm-3.6", "cited-formulas"]),
    "formula-minus-one": (closed_forms_off_by(-1), ["thm-3.6", "cited-formulas"]),
}


@pytest.mark.parametrize("fault", list(FAULTS))
def test_a_planted_fault_fails_the_checks_that_read_it(monkeypatch, capsys, fault):
    plant, affected = FAULTS[fault]
    plant(monkeypatch)
    solver.solve_dp.cache_clear()  # so that no check reads a result solved before the fault
    try:
        code = main(["verify-theorems", *(arg for i in affected for arg in ("--only", i))])
    finally:
        solver.solve_dp.cache_clear()
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert [line.split()[:2] for line in lines[:-1]] == [["✗", i] for i in affected]
    assert lines[-1] == "SOME CHECKS FAILED"


@pytest.mark.parametrize("off", [1, -1])
def test_a_wrong_closed_form_changes_no_dp_result(monkeypatch, off):
    grid = [(n, k, kind) for kind in formulas.VALUES for k in (1, 2) for n in (2 * k + 1, 10, 11)]
    solver.solve_dp.cache_clear()
    right = {key: solver.solve_dp(*key) for key in grid}
    closed_forms_off_by(off)(monkeypatch)
    firsts = {}
    solve_cycle = dp.solve_cycle

    def recorded(n, k, kind, first=0):
        firsts[n, k, kind] = first
        return solve_cycle(n, k, kind, first)

    monkeypatch.setattr(dp, "solve_cycle", recorded)
    solver.solve_dp.cache_clear()
    try:
        got = {key: solver.solve_dp(*key) for key in grid}
    finally:
        solver.solve_dp.cache_clear()
    for key, r in right.items():
        assert (got[key].optimum, got[key].witness) == (r.optimum, r.witness), key
        # the DP was started at the wrong value wherever the form is exact,
        # and at the degree floor elsewhere
        n, k, kind = key
        exact = formulas.VALUES[kind](n, k).kind == "exact"
        floor = solver.kind_floor(build_petersen(n, k), kind)
        assert firsts[key] == (r.optimum + off if exact else floor), key


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
    monkeypatch.setattr(checks, "kind_floor", recording(seen, checks.kind_floor))
    assert checks.check_thm_4_1().ok
    assert [(g.n, g.k, kind) for g, kind in seen] == [
        (15, 7, "italian"), (20, 8, "italian"), (25, 12, "italian"), (30, 13, "italian")]

    monkeypatch.setattr(checks, "kind_floor", lambda g, kind: 4 * g.n // 5 - 1)
    result = checks.check_thm_4_1()
    expected = [("exact", n, k, True, 4 * n // 5, 4 * n // 5 - 1)
                for n, k in [(15, 7), (20, 8), (25, 12), (30, 13)]]
    assert (result.ok, result.detail) == (False, f"failures: {expected}")


def test_criterion_05_pnk_bound_sweep(monkeypatch):
    """k = 4..12, n <= 60: every construction is valid and respects the
    open-case bound; an invalid one fails the check, and so does one over
    the bound."""
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
    assert (result.ok, result.detail) == (False, f"failures: {[('invalid', 9, 4)]}")

    expr = checks.pnk_upper_bound_expression(30, 6)
    cap = checks.ceil_div(expr.numerator, expr.denominator)

    def overweight_at_30_6(n, k):
        c = real(n, k)
        return dataclasses.replace(c, actual_weight=cap + 1) if (n, k) == (30, 6) else c
    monkeypatch.setattr(checks, "construct_pnk", overweight_at_30_6)
    result = checks.check_thm_4_1()
    assert (result.ok, result.detail) == (False, f"failures: {[('bound', 30, 6, cap + 1, cap)]}")
