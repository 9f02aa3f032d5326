import pytest
from hypothesis import given, strategies as st

from gpid.constructions import (
    Unavailable,
    construct_pn1,
    construct_pn2,
    construct_pnk,
    tail_h,
)
from gpid.errors import InvalidParameters
from gpid.formulas import pnk_upper_bound_expression
from gpid.graph import build_petersen
from gpid.labeling import Labeling, render_matrix, validate_idf, weight


def ceil_div(a, b):
    return -(-a // b)


def rotate(f, shift):
    """f with column i moved to column i + shift (mod n)."""
    return Labeling(f.n, f.k, f.values[-2 * shift:] + f.values[:-2 * shift])


def test_pn1_examples():
    c = construct_pn1(4)
    assert render_matrix(c.labeling) == "1 0 1 0\n0 1 0 1"
    assert c.valid and c.actual_weight == 4 == c.claimed_weight
    c = construct_pn1(5)
    assert render_matrix(c.labeling) == "1 0 1 0 1\n0 1 0 1 0"
    assert c.valid and c.actual_weight == 5
    c = construct_pn1(3)
    assert c.valid and c.actual_weight == 3


def test_pn1_sweep_to_200():
    for n in range(3, 201):
        c = construct_pn1(n)
        assert c.valid and c.actual_weight == n == c.claimed_weight


def test_pn2_examples():
    c = construct_pn2(15)
    assert c.valid and c.actual_weight == 12 == c.claimed_weight
    c = construct_pn2(8)
    assert c.valid and c.actual_weight == 7 == c.claimed_weight
    c = construct_pn2(10)
    assert c.valid and c.actual_weight == 8


def test_pn2_sweep_to_200():
    for n in range(5, 201):
        c = construct_pn2(n)
        if n % 10 in (0, 5, 8):
            assert not isinstance(c, Unavailable)
            assert c.valid
            assert c.actual_weight == ceil_div(4 * n, 5) == c.claimed_weight
        else:
            assert isinstance(c, Unavailable)


def test_pn2_rejects_small_n():
    with pytest.raises(InvalidParameters):
        construct_pn2(4)
    with pytest.raises(InvalidParameters):
        construct_pn1(2)


@pytest.mark.parametrize("k,n,expected", [(7, 15, 12), (8, 20, 16), (12, 25, 20), (13, 30, 24)])
def test_pnk_exact_family(k, n, expected):
    c = construct_pnk(n, k)
    assert c.case.endswith("periodic")
    assert c.valid
    assert c.actual_weight == expected == c.claimed_weight


def test_pnk_case2_periodic_example():
    c = construct_pnk(19, 6)
    assert c.case == "kmod5=1,periodic"
    assert c.actual_weight == 16 == c.claimed_weight
    assert c.valid


@pytest.mark.parametrize("k,n", [(5, 25), (10, 50), (4, 20), (9, 45), (6, 19), (11, 34)])
def test_pnk_periodic_claimed_equals_actual(k, n):
    c = construct_pnk(n, k)
    assert c.case.endswith("periodic")
    assert c.claimed_weight == c.actual_weight
    assert c.valid


def test_pnk_tail_recipe_shape():
    c = construct_pnk(23, 7)
    assert c.case == "kmod5=2,3,tail"
    # tail columns occupy the last k columns and carry the closing block
    got = [
        (c.labeling.values[2 * i], c.labeling.values[2 * i + 1])
        for i in range(23 - 7, 23)
    ]
    assert tuple(got) == tail_h(7)


def test_pnk_invalid_parameters():
    with pytest.raises(InvalidParameters):
        construct_pnk(15, 3)
    with pytest.raises(InvalidParameters):
        construct_pnk(8, 4)
    with pytest.raises(InvalidParameters):
        tail_h(3)


def block_weight(columns):
    return sum(a + b for a, b in columns)


def test_tail_h_examples():
    t6 = tail_h(6)
    assert t6 == ((1, 1), (0, 1), (0, 1)) * 2
    assert block_weight(t6) == 8
    t7 = tail_h(7)
    assert t7 == ((1, 1), (0, 1), (0, 1)) * 2 + ((1, 1),)
    assert block_weight(t7) == 10
    t5 = tail_h(5)
    assert t5 == ((1, 1), (0, 1), (0, 1)) + ((1, 1), (0, 1))
    assert block_weight(t5) == 7


def test_tail_h_weight_formula():
    for k in range(4, 31):
        assert block_weight(tail_h(k)) == ceil_div(4 * k, 3)
        assert len(tail_h(k)) == k


def test_pnk_bound_invariant_wide_sweep():
    """Every emitted pattern is a valid IDF whose weight respects the open
    upper bound, across n <= 120, k <= 12."""
    for k in range(4, 13):
        for n in range(2 * k + 1, 121):
            c = construct_pnk(n, k)
            bound = pnk_upper_bound_expression(n, k)
            cap = ceil_div(bound.numerator, bound.denominator)
            assert c.valid, (n, k)
            assert c.actual_weight <= cap, (n, k, c.actual_weight, cap)
            assert validate_idf(c.labeling).valid


@given(st.sampled_from([10, 15, 20, 25, 40, 55]), st.integers(0, 54))
def test_rotation_closure_pn2(n, shift):
    c = construct_pn2(n)
    rotated = rotate(c.labeling, shift % n)
    assert validate_idf(rotated).valid
    assert weight(rotated) == c.actual_weight


@given(st.sampled_from([4, 6, 8, 10, 12]), st.integers(0, 11))
def test_rotation_closure_pn1(n, shift):
    c = construct_pn1(n)
    rotated = rotate(c.labeling, shift % n)
    assert validate_idf(rotated).valid


@given(st.sampled_from([(7, 15), (8, 20), (7, 25), (12, 25)]), st.integers(0, 24))
def test_rotation_closure_pnk_periodic(kn, shift):
    k, n = kn
    c = construct_pnk(n, k)
    rotated = rotate(c.labeling, shift % n)
    assert validate_idf(rotated).valid


def test_construction_json_round_trip():
    c = construct_pn2(8)
    d = c.to_json_dict()
    assert d["claimed_weight"] == 7 and d["valid"] is True
    assert d["labeling"]["values"] == list(c.labeling.values)
    g = build_petersen(8, 2)
    assert len(d["labeling"]["values"]) == g.num_vertices
