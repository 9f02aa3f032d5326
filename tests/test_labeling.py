import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gpid.constructions import construct_pn1, construct_pn2
from gpid.errors import FormatError, InvalidParameters, NotA2RDF
from gpid.exhaustive import iter_valid_labelings
from gpid.graph import build_petersen
from gpid.labeling import (
    Labeling,
    RainbowLabeling,
    column_weights,
    edge_classes,
    labeling_from_json,
    labeling_to_json,
    parse_matrix,
    rainbow_rows_to_idf,
    rainbow_to_idf,
    render_matrix,
    validate_2rdf,
    validate_dominating,
    validate_idf,
    weight,
)

from conftest import oracle_adjacency, oracle_is_2rdf, oracle_is_dominating, oracle_is_idf


def const(n, k, value):
    return Labeling(n, k, (value,) * (2 * n))


def test_weight_examples():
    assert weight(const(6, 2, 0)) == 0
    assert weight(const(6, 2, 1)) == 12
    assert weight(construct_pn1(4).labeling) == 4


def test_validate_idf_examples():
    assert validate_idf(const(6, 2, 2)).valid
    report = validate_idf(const(6, 2, 0))
    assert not report.valid
    assert len(report.violations) == 12
    f15 = construct_pn2(15).labeling
    assert validate_idf(f15).valid
    assert weight(f15) == 15 // 5 * 4


def test_validate_idf_matches_oracle_on_random_cases():
    adj = oracle_adjacency(7, 2)
    for values in itertools.islice(itertools.product((0, 1, 2), repeat=14), 0, 3**14, 40351):
        f = Labeling(7, 2, values)
        assert validate_idf(f).valid == oracle_is_idf(adj, values)


def test_validate_2rdf_examples():
    assert validate_2rdf(RainbowLabeling(6, 1, (3,) * 12)).valid
    report = validate_2rdf(RainbowLabeling(6, 1, (0,) * 12))
    assert not report.valid
    assert len(report.violations) == 12
    # columns alternately colored {1}, {2}: no vertex is empty, hence valid
    masks = tuple(1 if i % 4 < 2 else 2 for i in range(12))
    f = RainbowLabeling(6, 1, masks)
    assert validate_2rdf(f).valid == oracle_is_2rdf(oracle_adjacency(6, 1), masks)
    assert validate_2rdf(f).valid


def test_validate_dominating_examples():
    g = build_petersen(5, 2)
    assert validate_dominating(g, set(range(10))).valid
    assert not validate_dominating(g, set()).valid
    # gamma(P(5,2)) = 3: find a dominating 3-subset by exhaustive search
    adj = oracle_adjacency(5, 2)
    found = [
        s
        for s in itertools.combinations(range(10), 3)
        if oracle_is_dominating(adj, set(s))
    ]
    assert found
    assert validate_dominating(g, set(found[0])).valid
    assert not any(
        oracle_is_dominating(adj, set(s)) for s in itertools.combinations(range(10), 2)
    )


def test_rainbow_to_idf_examples():
    f = RainbowLabeling(4, 1, (3,) * 8)
    g = rainbow_to_idf(f)
    assert g.values == (2,) * 8
    assert weight(g) == 16
    with pytest.raises(NotA2RDF):
        rainbow_to_idf(RainbowLabeling(4, 1, (0,) * 8))
    rows = np.array([(3,) * 8, (0,) * 8, (3,) * 8], np.uint8)
    with pytest.raises(NotA2RDF, match=r"\(row 1\) violates .* at 8 vertices"):
        rainbow_rows_to_idf(build_petersen(4, 1), rows)


def test_rainbow_to_idf_alternating_columns_weight_n():
    # even-n alternating pattern: outer {1} on even columns, inner {2} on odd
    for n in (4, 6, 8):
        masks = [0] * (2 * n)
        for c in range(n):
            if c % 2 == 0:
                masks[2 * c] = 1
            else:
                masks[2 * c + 1] = 2
        f = RainbowLabeling(n, 1, tuple(masks))
        assert validate_2rdf(f).valid
        g = rainbow_to_idf(f)
        assert validate_idf(g).valid
        assert weight(g) == n


@pytest.mark.parametrize("n,k", [(3, 1), (4, 1), (5, 1), (5, 2)])
def test_rainbow_to_idf_exhaustive_small(n, k):
    """Conversion of every valid 2RDF is a valid IDF of equal weight.  Many
    2RDFs convert to the same IDF (665,731 rows to 41,501 on P(5,1)), so
    the oracle checks each distinct image once, found by its base-3 code."""
    g = build_petersen(n, k)
    adj = oracle_adjacency(n, k)
    digit = 3 ** np.arange(2 * n)
    total = 0
    images = []
    for block in iter_valid_labelings(g, "rainbow2"):
        out = rainbow_rows_to_idf(g, block)
        rainbow_weight = (block & 1).sum(axis=1) + ((block >> 1) & 1).sum(axis=1)
        assert (out.sum(axis=1) == rainbow_weight).all()
        images.append(np.unique(out @ digit))
        one = rainbow_to_idf(RainbowLabeling(n, k, tuple(block[-1].tolist())))
        assert one.values == tuple(out[-1].tolist())
        total += len(block)
    assert total > 0
    for values in (np.unique(np.concatenate(images))[:, None] // digit % 3).tolist():
        assert oracle_is_idf(adj, values)


@pytest.mark.parametrize("n,k", [(6, 1), (6, 2)])
def test_rainbow_to_idf_exhaustive_vectorized(n, k):
    """Same property at n = 6, with the conversion check vectorized."""
    import numpy as np

    from gpid.exhaustive import validity_mask

    g = build_petersen(n, k)
    pop = np.array([0, 1, 1, 2], dtype=np.uint8)
    total = 0
    for block in iter_valid_labelings(g, "rainbow2"):
        converted = pop[block]
        assert validity_mask(converted, g, "italian").all()
        rainbow_weight = (block & 1).sum(axis=1) + ((block >> 1) & 1).sum(axis=1)
        assert (converted.sum(axis=1) == rainbow_weight).all()
        total += block.shape[0]
    assert total > 0


def test_column_weights_examples():
    assert column_weights(construct_pn1(4).labeling) == [1, 1, 1, 1]
    assert column_weights(const(5, 2, 0)) == [0] * 5
    f15 = construct_pn2(15).labeling
    assert column_weights(f15) == [0, 1, 1, 1, 1] * 3


def test_weight_equals_column_weight_sum():
    f = construct_pn2(25).labeling
    assert weight(f) == sum(column_weights(f))


def test_edge_classes_examples():
    empty = edge_classes(const(6, 2, 0))
    assert not empty.e11 and not empty.e12
    ones = edge_classes(const(6, 2, 1))
    assert len(ones.e11) == 18 and not ones.e12
    # one adjacent pair of 1s: the spoke at column 0 on P(12,2)
    values = [0] * 24
    values[0] = values[1] = 1
    ec = edge_classes(Labeling(12, 2, tuple(values)))
    assert len(ec.e11) == 1
    assert ec.e11 == frozenset({(0, 1)})
    mixed = [0] * 24
    mixed[0], mixed[1] = 1, 2
    ec = edge_classes(Labeling(12, 2, tuple(mixed)))
    assert not ec.e11 and ec.e12 == frozenset({(0, 1)})


def test_render_matrix_examples():
    assert render_matrix(construct_pn1(4).labeling) == "1 0 1 0\n0 1 0 1"
    assert render_matrix(const(3, 1, 0)) == "0 0 0\n0 0 0"


def test_parse_matrix_accepts_slash_rows():
    f = parse_matrix("1 0 1 0 / 0 1 0 1", 4, 1)
    assert f.values == (1, 0, 0, 1, 1, 0, 0, 1)


@pytest.mark.parametrize(
    "text", ["1 0\n0 1\n1 0", "1 0 1\n0 1", "1 x\n0 1", "3 0\n0 1"]
)
def test_parse_matrix_rejects_malformed(text):
    with pytest.raises(FormatError):
        parse_matrix(text, 2 if "x" in text or "3" in text else 3, 1)


@given(
    st.integers(3, 30).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(1, (n - 1) // 2),
            st.lists(st.integers(0, 2), min_size=2 * n, max_size=2 * n),
        )
    )
)
def test_matrix_round_trip(nkv):
    n, k, values = nkv
    f = Labeling(n, k, tuple(values))
    assert parse_matrix(render_matrix(f), n, k) == f


@given(
    st.integers(3, 20).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(1, (n - 1) // 2),
            st.lists(st.integers(0, 2), min_size=2 * n, max_size=2 * n),
        )
    )
)
def test_weight_is_column_sum(nkv):
    n, k, values = nkv
    f = Labeling(n, k, tuple(values))
    assert weight(f) == sum(column_weights(f))
    assert labeling_from_json(labeling_to_json(f)) == f


def test_labeling_validation():
    with pytest.raises(InvalidParameters):
        Labeling(4, 1, (0, 1, 2))
    with pytest.raises(InvalidParameters):
        Labeling(4, 1, (3,) * 8)
    with pytest.raises(InvalidParameters):
        RainbowLabeling(4, 1, (4,) * 8)


def _scalar_route(kind, g, row):
    """(valid, weight) of one labeling row by the kind's scalar validator."""
    if kind == "italian":
        f = Labeling(g.n, g.k, row)
        return validate_idf(f).valid, weight(f)
    if kind == "rainbow2":
        f = RainbowLabeling(g.n, g.k, row)
        return validate_2rdf(f).valid, weight(f)
    chosen = {v for v, x in enumerate(row) if x}
    return validate_dominating(g, chosen).valid, len(chosen)


def _oracle_route(kind, adj, row):
    """(valid, weight) of one labeling row by the conftest oracles."""
    if kind == "italian":
        return oracle_is_idf(adj, row), sum(row)
    if kind == "rainbow2":
        return oracle_is_2rdf(adj, row), sum(bin(x).count("1") for x in row)
    chosen = {v for v, x in enumerate(row) if x}
    return oracle_is_dominating(adj, chosen), len(chosen)


@pytest.mark.parametrize("kind", ["italian", "domination", "rainbow2"])
@pytest.mark.parametrize("n,k", [(7, 2), (6, 1)])
def test_validity_routes_agree_row_for_row(kind, n, k):
    """Scalar validator, exhaustive.validity_mask and the conftest oracle
    agree on validity, and weight / len(set) / weights_of on weight, for
    3000 random labelings (label 0 drawn with probability 0.35, so that
    valid and invalid rows both occur)."""
    import numpy as np

    from gpid.exhaustive import validity_mask, weights_of

    g = build_petersen(n, k)
    adj = oracle_adjacency(n, k)
    nlabels = {"italian": 3, "domination": 2, "rainbow2": 4}[kind]
    rng = np.random.default_rng(20260418)
    p = [0.35] + [0.65 / (nlabels - 1)] * (nlabels - 1)
    rows = rng.choice(nlabels, size=(3000, 2 * n), p=p).astype(np.uint8)
    mask = validity_mask(rows, g, kind)
    weights = weights_of(rows, kind)
    for row, ok, w in zip(rows.tolist(), mask.tolist(), weights.tolist()):
        row = tuple(row)
        assert _scalar_route(kind, g, row) == (ok, w), row
        assert _oracle_route(kind, adj, row) == (ok, w), row
    assert 0 < mask.sum() < len(rows)


@pytest.mark.parametrize("kind", ["italian", "domination", "rainbow2"])
def test_kind_reduce_table_matches_the_cover_rule(kind):
    """Reducing the need by three neighbor labels leaves no demand iff
    the labels, combined, reach the need."""
    from gpid.labeling import KINDS

    kd = KINDS[kind]
    for a, b, c in itertools.product(kd.labels, repeat=3):
        left = kd.reduce[kd.reduce[kd.reduce[kd.need][a]][b]][c]
        assert (left == 0) == (kd.combine(kd.combine(a, b), c) >= kd.need)
        assert kd.weight[left] <= kd.weight[kd.need]
