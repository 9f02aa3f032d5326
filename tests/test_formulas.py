from fractions import Fraction

import pytest

from gpid.constructions import construct_pnk
from gpid.errors import InvalidParameters
from gpid.formulas import (
    domination_value,
    italian_graph_predicate,
    italian_value,
    pnk_upper_bound_expression,
    rainbow2_value,
    relation_report,
)
from gpid.solver import solve_dp


def test_italian_value_examples():
    assert italian_value(9, 1).value == 9
    assert italian_value(12, 2).value == 11  # 12 = 2 (mod 5): ceil(48/5) + 1
    r = italian_value(15, 7)
    assert r.kind == "exact" and r.value == 12


def test_italian_value_k3_external():
    r = italian_value(10, 3)
    assert r.kind == "external"
    assert r.value is None


def test_italian_value_bounds_case():
    r = italian_value(23, 7)  # 23 != 0 (mod 5) so only bounds apply
    assert r.kind == "bounds"
    assert r.lo == -(-4 * 23 // 5)
    expr = pnk_upper_bound_expression(23, 7)
    assert r.hi == -((-expr.numerator) // expr.denominator)
    assert r.lo <= r.hi


def test_bounds_bracket_construction_weight():
    for k, n in [(4, 11), (6, 20), (7, 23), (9, 28), (11, 30)]:
        r = italian_value(n, k)
        c = construct_pnk(n, k)
        if r.kind == "bounds" and c.valid:
            assert r.lo <= c.actual_weight <= r.hi


def test_rainbow2_value_examples():
    assert rainbow2_value(5, 2).value == 5
    assert rainbow2_value(10, 2).value == 8
    assert rainbow2_value(8, 1).value == 8
    assert rainbow2_value(3, 1).kind == "unknown"
    assert rainbow2_value(9, 4).kind == "unknown"


def test_domination_value_examples():
    assert domination_value(6, 1).value == 4
    assert domination_value(8, 1).value == 4
    assert domination_value(7, 2).value == 5
    assert domination_value(9, 4).kind == "unknown"


def test_predicate_examples():
    assert italian_graph_predicate(8, 1) is True
    assert italian_graph_predicate(6, 1) is False
    assert italian_graph_predicate(10, 2) is False


def test_predicate_is_mod4_for_k1():
    for n in range(3, 40):
        assert italian_graph_predicate(n, 1) == (n % 4 == 0)
    for n in range(5, 40):
        assert not italian_graph_predicate(n, 2)
    for n in range(5, 40):  # the rule agrees with the closed forms
        for k in (1, 2):
            double_gamma = 2 * domination_value(n, k).value
            assert italian_graph_predicate(n, k) == (italian_value(n, k).value == double_gamma)


def test_relation_examples():
    assert relation_report(5, 2) == "minus_one"
    assert relation_report(10, 2) == "equal"
    assert relation_report(7, 1) == "equal"


def test_relation_residues():
    for n in range(5, 60):
        assert relation_report(n, 2) == ("minus_one" if n % 10 in (5, 8) else "equal")
        for k in (1, 2):  # the rule agrees with the closed forms
            gap = rainbow2_value(n, k).value - italian_value(n, k).value
            assert relation_report(n, k) == {0: "equal", 1: "minus_one"}[gap]


def test_invalid_parameters():
    for fn in (italian_value, rainbow2_value, domination_value):
        with pytest.raises(InvalidParameters):
            fn(4, 2)
        with pytest.raises(InvalidParameters):
            fn(2, 1)
    with pytest.raises(InvalidParameters):
        italian_graph_predicate(9, 3)
    with pytest.raises(InvalidParameters):
        relation_report(9, 3)


def test_formula_vs_dp_spot():
    for n, k in [(7, 1), (11, 1), (7, 2), (13, 2)]:
        assert italian_value(n, k).value == solve_dp(n, k, "italian").optimum
        assert domination_value(n, k).value == solve_dp(n, k, "domination").optimum


@pytest.mark.parametrize("kind,k,formula", [
    ("domination", 1, domination_value),
    ("italian", 1, italian_value),
    ("domination", 2, domination_value),
    ("rainbow2", 1, rainbow2_value),
])
def test_formula_vs_dp_on_long_cycles(kind, k, formula):
    # the four (kind, k) whose middle columns the DP crosses in one step
    for n in [*range(1000, 1011), 4999, 5000]:
        assert formula(n, k).value == solve_dp(n, k, kind).optimum, n


def test_exact_rational_is_kept_reduced():
    expr = pnk_upper_bound_expression(23, 7)
    assert isinstance(expr, Fraction)
    assert expr == Fraction(4 * 16, 5) * Fraction(23, 22) + Fraction(34, 3)

