import pytest

from gpid import (
    Labeling,
    build_petersen,
    construct_pn1,
    construct_pn2,
    solve_dp,
    validate_idf,
    weight,
)
from gpid.audit import (
    bagging_certificate,
    check_column_lemma,
    check_findings,
    discharge,
    random_identity_check,
    sweep_bagging,
    sweep_column_lemma,
    sweep_discharge,
    sweep_findings,
    threshold_check,
)
from gpid.errors import InvalidParameters, WrongFamily
from gpid.exhaustive import iter_valid_labelings


def columns_labeling(n, k, cols):
    values = []
    for a, b in cols:
        values += [a, b]
    return Labeling(n, k, tuple(values))


# ---------------------------------------------------------------------------
# column lemma


def test_column_lemma_vacuous_on_pn1_pattern():
    rep = check_column_lemma(construct_pn1(6).labeling)
    assert rep.holds and rep.zero_columns == ()


def test_column_lemma_equality_case():
    # columns (1,1),(0,0),(1,1),(0,0): still a valid IDF, flanks sum to 4
    f = columns_labeling(4, 1, [(1, 1), (0, 0), (1, 1), (0, 0)])
    assert validate_idf(f).valid
    rep = check_column_lemma(f)
    assert rep.holds
    assert rep.zero_columns == (1, 3)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_column_lemma_exhaustive(n):
    """Validity forces the column lemma across the whole labeling space."""
    sweep = sweep_column_lemma(n)
    assert sweep.ok
    assert sweep.labelings_checked > 0


def test_column_lemma_sweep_pinned_and_matches_scalar():
    sweep = sweep_column_lemma(7, weight_cap=8)
    assert (sweep.labelings_checked, sweep.counterexamples) == (1127, 0)
    rows = 0
    for block in iter_valid_labelings(build_petersen(7, 1), "italian", 8):
        for row in block:
            rows += 1
            assert check_column_lemma(Labeling(7, 1, tuple(int(x) for x in row))).holds
    assert rows == 1127


def test_column_lemma_wrong_family():
    with pytest.raises(WrongFamily):
        check_column_lemma(construct_pn2(10).labeling)


def test_column_lemma_reports_counterexample_on_invalid_input():
    # invalid labeling: an isolated zero column flanked by weight-1 columns
    f = columns_labeling(4, 1, [(1, 0), (0, 0), (1, 0), (1, 1)])
    assert not validate_idf(f).valid
    rep = check_column_lemma(f)
    assert not rep.holds
    assert 1 in rep.counterexamples


# ---------------------------------------------------------------------------
# bagging


def test_bagging_all_light_columns_go_to_the_fifth_bag():
    cert = bagging_certificate(construct_pn1(4).labeling)
    assert cert.counts == (0, 0, 0, 0, 4)
    assert cert.implied_bound == 4 == cert.weight
    assert cert.accounting_ok and cert.consistent
    assert cert.bags[4] == frozenset({0, 1, 2, 3})


def test_bagging_zero_then_heavy_pair_lands_in_bag_one():
    f = columns_labeling(6, 1, [(1, 1), (0, 0), (1, 1), (0, 0), (1, 1), (0, 0)])
    assert validate_idf(f).valid
    cert = bagging_certificate(f)
    assert cert.counts[0] >= 1
    assert cert.accounting_ok
    assert cert.implied_bound <= weight(f)
    m1, m2, m3, m4, m5 = cert.counts
    assert 2 * m1 + 3 * m2 + 2 * m3 + 2 * m4 + m5 == 6


def test_bagging_certificate_is_a_partition():
    f = solve_dp(7, 1, "italian").witness
    cert = bagging_certificate(f)
    seen = set()
    for bag in cert.bags:
        assert not (bag & seen)
        seen |= bag
    assert seen == set(range(7))


def test_bagging_optimal_sweep_small():
    for n in (4, 5, 6):
        sweep = sweep_bagging(n)
        assert sweep.ok, (n, sweep)
        assert sweep.labelings_checked > 0


def test_bagging_wrong_family():
    with pytest.raises(WrongFamily):
        bagging_certificate(construct_pn2(10).labeling)


# ---------------------------------------------------------------------------
# discharge


def test_discharge_all_zero_is_degenerate_but_telescopes():
    f = Labeling(6, 2, (0,) * 12)
    led = discharge(f)
    assert led.total_charge_tenths == 0
    assert led.total_residual_tenths == -8 * 6
    assert led.identity_ok


def test_discharge_pn2_15_has_zero_residual():
    led = discharge(construct_pn2(15).labeling)
    assert led.total_charge_tenths == 10 * 12
    assert led.total_residual_tenths == 0
    assert led.identity_ok
    assert led.min_charge_tenths >= 4


def test_discharge_weight_7_on_p72():
    f = solve_dp(7, 2, "italian").witness
    assert weight(f) == 7
    led = discharge(f)
    assert led.total_residual_tenths == 70 - 56  # 1.4 in tenths
    assert led.total_residual_tenths > 4


def test_discharge_wrong_family():
    with pytest.raises(WrongFamily):
        discharge(construct_pn1(6).labeling)


def test_discharge_random_identity():
    assert random_identity_check(12, 2000, seed=7) == 0


def test_threshold_examples():
    assert threshold_check(6) == 2
    assert threshold_check(7) == 4
    assert threshold_check(10) == 0
    assert threshold_check(8) == 6
    assert threshold_check(9) == 8
    with pytest.raises(InvalidParameters):
        threshold_check(0)


# ---------------------------------------------------------------------------
# findings


def test_findings_with_a_two_label():
    f = Labeling(6, 2, (2,) * 12)
    rep = check_findings(f)
    by_index = {r.index: r for r in rep.results}
    assert by_index[4].hypothesis and by_index[4].conclusion
    assert rep.ok


def test_findings_vacuous_without_twos_or_e11():
    f = construct_pn2(15).labeling
    rep = check_findings(f)
    by_index = {r.index: r for r in rep.results}
    for idx in (4, 5, 8):
        assert not by_index[idx].hypothesis
        assert by_index[idx].conclusion is None
        assert by_index[idx].ok
    assert rep.ok
    assert rep.residual_total_tenths == 0


def test_findings_requires_validity():
    with pytest.raises(InvalidParameters):
        check_findings(Labeling(6, 2, (0,) * 12))
    with pytest.raises(WrongFamily):
        check_findings(construct_pn1(6).labeling)


def test_findings_sweep_small():
    sweep = sweep_findings(6, weight_cap=7)
    assert sweep.ok
    assert sweep.labelings_checked > 0
    assert sweep.hypothesis_counts[1] == sweep.labelings_checked


P62_CAP7_HYPOTHESES = {1: 984, 2: 972, 3: 492, 4: 726, 5: 900, 6: 636, 7: 360, 8: 348}


def test_findings_sweep_pinned_counts():
    sweep = sweep_findings(6, weight_cap=7)
    assert sweep.labelings_checked == 984
    assert sweep.hypothesis_counts == P62_CAP7_HYPOTHESES
    assert sweep.violation_counts == {i: 0 for i in range(1, 9)}


def test_scalar_findings_and_discharge_match_the_sweep():
    counts = {i: 0 for i in range(1, 9)}
    rows = 0
    for block in iter_valid_labelings(build_petersen(6, 2), "italian", 7):
        for row in block:
            f = Labeling(6, 2, tuple(int(x) for x in row))
            rows += 1
            for idx in check_findings(f).triggered():
                counts[idx] += 1
            assert discharge(f).min_charge_tenths >= 4
    assert rows == 984
    assert counts == P62_CAP7_HYPOTHESES


def test_discharge_sweep_small():
    sweep = sweep_discharge(6, weight_cap=7)
    assert sweep.ok
    assert sweep.labelings_checked > 0


def test_certificate_json_dumps():
    cert = bagging_certificate(construct_pn1(5).labeling)
    d = cert.to_json_dict()
    assert d["n"] == 5 and isinstance(d["bags"], list)
    led = discharge(construct_pn2(10).labeling)
    d = led.to_json_dict()
    assert d["identity_ok"] is True
    assert len(d["charge_tenths"]) == 20
