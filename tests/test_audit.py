import tracemalloc

import numpy as np
import pytest

from gpid import audit, exhaustive
from gpid.audit import (
    bagging_certificate,
    check_column_lemma,
    discharge,
    sweep_bagging,
    sweep_column_lemma,
    sweep_discharge,
    sweep_findings,
)
from gpid.cli import main
from gpid.constructions import construct_pn1, construct_pn2
from gpid.errors import WrongFamily
from gpid.exhaustive import iter_valid_labelings, validity_mask
from gpid.graph import build_petersen
from gpid.labeling import KINDS, Labeling, validate_idf, weight
from gpid.solver import solve_dp


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
    assert sweep.labelings_checked == 1127
    assert sweep.rows == ((7, 1127, 0),)
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


def test_bagging_sweep_certifies_an_idf_lighter_than_n(monkeypatch):
    """An IDF of P(n,1) lighter than n would refute Theorem 2.3; the sweep
    enumerates up to weight n and must certify, and so fail, such a row."""
    light = columns_labeling(6, 1, [(1, 1), (0, 0), (0, 0), (1, 1), (0, 0), (0, 0)])
    assert weight(light) == 4 and not bagging_certificate(light).consistent
    real = exhaustive.iter_valid_labelings

    def planted(g, kind, weight_cap=None):
        yield from real(g, kind, weight_cap)
        yield np.array([light.values], dtype=np.uint8)

    optimal = sweep_bagging(6)
    monkeypatch.setattr(exhaustive, "iter_valid_labelings", planted)
    sweep = sweep_bagging(6)
    assert not sweep.ok
    assert sweep.labelings_checked == optimal.labelings_checked + 1
    assert sweep.weight_cap == 6
    # the summary counts the planted row without calling it optimal
    assert sweep.summary == ("bagging sweep P(6,1): 35 IDFs of weight <= 6, "
                             "1 inconsistent, 0 with bound != n")


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
    assert min(led.charge_tenths) >= 4


def test_discharge_weight_7_on_p72():
    f = solve_dp(7, 2, "italian").witness
    assert weight(f) == 7
    led = discharge(f)
    assert led.total_residual_tenths == 70 - 56  # 1.4 in tenths
    assert led.total_residual_tenths > 4


def test_discharge_wrong_family():
    with pytest.raises(WrongFamily):
        discharge(construct_pn1(6).labeling)


def test_discharge_identity_per_label():
    """The 48 cells and the three labels, each fact at its requirement."""
    facts = audit.charge_identity()
    assert len(facts) == 48 + 3
    assert [value for _, value, required in facts if value != required] == []
    assert facts[-3:] == [("label 0", 0, 0), ("label 1", 10, 10), ("label 2", 20, 20)]


def test_finding_1_holds_per_cell():
    """Every cell of a covered vertex (a label, or two 1-neighbours, or a
    2-neighbour) keeps charge >= 4 tenths, so no valid IDF of any P(n,2)
    breaks finding 1; the cells it does break are uncovered zeros."""
    cell = np.arange(48)
    own, ones, twos = cell >> 4, cell & 3, (cell >> 2) & 3
    covered = (own > 0) | (ones + 2 * twos >= 2)
    assert (audit.CHARGE[covered] >= 4).all()
    assert not (audit.FINDING_BITS[covered] & 1).any()
    assert ((audit.FINDING_BITS & 1) == (audit.CHARGE < 4)).all()


@pytest.mark.parametrize("cell", [2, 17, 44])
def test_a_raised_charge_entry_breaks_the_identity(monkeypatch, capsys, cell):
    """Negative control: one `CHARGE` entry one tenth too high fails the
    per-label check, the sweep's identity count and the discharge check."""
    raised = audit.CHARGE.copy()
    raised[cell] += 1
    monkeypatch.setattr(audit, "CHARGE", raised)
    assert any(value != required for _, value, required in audit.charge_identity())
    [(_, _, _, identity_failures, _)] = sweep_discharge(6).rows
    assert identity_failures > 0
    assert main(["verify-theorems", "--only", "discharge"]) == 1
    assert capsys.readouterr().out.startswith("✗ discharge")


# ---------------------------------------------------------------------------
# findings


def findings_of(f):
    """Findings 1..8 on one labeling, as {index: (hypothesis, conclusion)}:
    the sweep kernel's code on a one-row block, and the findings it fails
    at the labeling's residual (a finding whose hypothesis fails reads as
    holding)."""
    codes = audit._codes(np.array([f.values], dtype=np.uint8),
                         np.array(f.graph().adjacency, dtype=np.int64))
    failed = audit._failed(codes, np.array([10 * weight(f) - 8 * f.n]))
    code, fail = int(codes[0]), int(failed[0])
    return {i: (i == 1 or bool(code >> (i - 1) & 1), not fail >> (i - 1) & 1)
            for i in range(1, 9)}


def scalar_findings(f):
    """Charges and findings 1..8 of one labeling of P(n,2), in plain Python
    from their definitions: (charges in tenths, the findings whose
    hypothesis holds, the findings whose conclusion holds)."""
    g = f.graph()
    x = f.values
    ones = [sum(x[u] == 1 for u in nbrs) for nbrs in g.adjacency]
    twos = [sum(x[u] == 2 for u in nbrs) for nbrs in g.adjacency]
    charges = [{0: 0, 1: 4, 2: 5}[x[v]] + 2 * ones[v] + 5 * twos[v] for v in range(len(x))]
    zeros = [v for v in range(len(x)) if x[v] == 0]
    residual = 10 * sum(x) - 8 * f.n
    hypotheses = {
        1: True,
        2: any(ones[v] == 2 for v in zeros),
        3: any(ones[v] == 3 for v in zeros),
        4: 2 in x,
        5: any(x[u] == x[v] == 1 for u, v in g.edges()),
        6: any(ones[v] == 1 and twos[v] == 1 for v in zeros),
        7: any(ones[v] == 2 and twos[v] == 1 for v in zeros),
        8: any({x[u], x[v]} == {1, 2} for u, v in g.edges()),
    }
    conclusions = {1: min(charges) >= 4, 2: residual >= 0, 3: residual >= 2,
                   4: residual >= 4, 5: residual >= 4, 6: residual >= 6,
                   7: residual >= 8, 8: residual >= 10}
    return (charges, {i for i, h in hypotheses.items() if h},
            {i for i, c in conclusions.items() if c})


def test_findings_with_a_two_label():
    found = findings_of(Labeling(6, 2, (2,) * 12))
    assert found[4] == (True, True)
    assert all(c for h, c in found.values() if h)


def test_findings_vacuous_without_twos_or_e11():
    f = construct_pn2(15).labeling
    found = findings_of(f)
    for idx in (4, 5, 8):
        assert not found[idx][0]
    assert all(c for h, c in found.values() if h)
    assert discharge(f).total_residual_tenths == 0


def test_findings_sweep_small():
    sweep = sweep_findings(6, weight_cap=7)
    assert sweep.ok
    assert sweep.labelings_checked > 0
    assert sweep.rows[0][:3] == (6, 1, sweep.labelings_checked)


P62_CAP7_HYPOTHESES = {1: 984, 2: 972, 3: 492, 4: 726, 5: 900, 6: 636, 7: 360, 8: 348}


def test_findings_sweep_pinned_counts():
    sweep = sweep_findings(6, weight_cap=7)
    assert sweep.labelings_checked == 984
    assert sweep.header == ("n", "finding", "hypotheses", "violations")
    assert sweep.rows == tuple((6, i, P62_CAP7_HYPOTHESES[i], 0) for i in range(1, 9))


def test_scalar_findings_and_discharge_match_the_sweep():
    counts = {i: 0 for i in range(1, 9)}
    rows = 0
    for block in iter_valid_labelings(build_petersen(6, 2), "italian", 7):
        for row in block:
            f = Labeling(6, 2, tuple(int(x) for x in row))
            rows += 1
            for idx, (hypothesis, _) in findings_of(f).items():
                counts[idx] += hypothesis
            assert min(discharge(f).charge_tenths) >= 4
    assert rows == 984
    assert counts == P62_CAP7_HYPOTHESES


def test_discharge_sweep_small():
    sweep = sweep_discharge(6, weight_cap=7)
    assert sweep.ok
    assert sweep.labelings_checked > 0


def test_certificate_json_dumps():
    led = discharge(construct_pn2(10).labeling)
    d = led.to_json_dict()
    assert d["identity_ok"] is True
    assert len(d["charge_tenths"]) == 20


# ---------------------------------------------------------------------------
# block layout and the sweeps over many blocks


def _random_rows(n, k, labels, count=3000):
    """Random label rows, label 0 drawn with probability 0.35 so that valid
    and invalid rows both occur."""
    rng = np.random.default_rng(20261018)
    p = [0.35] + [0.65 / (labels - 1)] * (labels - 1)
    return rng.choice(labels, size=(count, 2 * n), p=p).astype(np.uint8)


def _same(a, b):
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a.dtype == b.dtype and np.array_equal(a, b)


def test_kernels_agree_on_row_major_and_vertex_major_blocks():
    g = build_petersen(7, 2)
    adj = np.array(g.adjacency, dtype=np.int64)
    for kind, kd in KINDS.items():
        rows = _random_rows(7, 2, len(kd.labels))
        mask = validity_mask(rows, g, kind)
        assert 0 < mask.sum() < len(rows)
        assert _same(mask, validity_mask(np.asfortranarray(rows), g, kind))
    rows = _random_rows(7, 2, 3)
    cols = np.asfortranarray(rows)
    assert _same(audit._cells(rows, adj), audit._cells(cols, adj))
    assert _same(audit._codes(rows, adj), audit._codes(cols, adj))
    rows = _random_rows(7, 1, 3)
    assert audit._column_lemma(rows)[1].any()
    assert _same(audit._column_lemma(rows), audit._column_lemma(np.asfortranarray(rows)))


def test_codes_and_charges_match_the_scalar_definitions():
    """Row by row, on valid and invalid labelings: the decoded code of each
    row, the findings it fails at its residual, and its `CHARGE` values."""
    g = build_petersen(7, 2)
    adj = np.array(g.adjacency, dtype=np.int64)
    rows = _random_rows(7, 2, 3)
    assert 0 < validity_mask(rows, g, "italian").sum() < len(rows)
    charge = audit._read(audit.CHARGE, audit._cells(rows, adj))
    codes = audit._codes(rows, adj)
    failed = audit._failed(codes, 10 * rows.sum(axis=1, dtype=np.int64) - 8 * 7)
    met, broken = set(), set()
    for row, code, fail, charges in zip(rows, codes.tolist(), failed.tolist(), charge.T):
        f = Labeling(7, 2, tuple(int(x) for x in row))
        scalar_charges, hypotheses, conclusions = scalar_findings(f)
        assert charges.tolist() == scalar_charges
        assert int(charges.sum()) == sum(scalar_charges) == 10 * weight(f)
        bits = {i for i in range(1, 9) if code >> (i - 1) & 1}
        assert bits == (hypotheses - {1}) | ({1} - conclusions)
        assert {i for i in range(1, 9) if fail >> (i - 1) & 1} == hypotheses - conclusions
        met |= hypotheses
        broken |= hypotheses - conclusions
    assert met == set(range(1, 9))
    assert 1 in broken and broken - {1}  # the charge floor and some residual floor


def test_failed_reads_every_floor():
    """Each finding 2..8 fails exactly below its floor, and finding 1's bit
    at any residual.  Real rows cannot pin this: on P(n,2) with n <= 8 the
    residual 10w - 8n is fixed mod 10, so it skips the values between
    some floors."""
    floors = {2: 0, 3: 2, 4: 4, 5: 4, 6: 6, 7: 8, 8: 10}
    residual = np.arange(-2, 13)
    for i, floor in [(1, residual.max() + 1), *floors.items()]:
        failed = audit._failed(np.full(residual.shape, 1 << (i - 1), np.uint8), residual)
        assert (failed != 0).tolist() == (residual < floor).tolist(), i


def test_findings_sweep_counts_planted_violations(monkeypatch):
    """Two rows no valid IDF has: a heavy one (residual 11.2) with a zero
    vertex of charge 0, which only finding 1 catches, and a light one
    (residual -0.8) meeting the hypotheses of findings 2, 4, 5 and 8."""
    g = build_petersen(6, 2)
    heavy = [2] * 12
    for v in (0, *g.adjacency[0]):
        heavy[v] = 0
    light = [0] * 12
    light[0], light[1], light[5] = 2, 1, 1  # edges 0-1 in V2-V1, 1-5 in V1
    planted = np.array([heavy, light], dtype=np.uint8)
    for row, (hypotheses, conclusions) in zip(planted, [
        ({1, 4}, set(range(2, 9))),
        ({1, 2, 4, 5, 8}, set()),
    ]):
        f = Labeling(6, 2, tuple(int(x) for x in row))
        assert scalar_findings(f)[1:] == (hypotheses, conclusions)

    def one_block(g, kind, weight_cap=None):
        yield planted

    monkeypatch.setattr(exhaustive, "iter_valid_labelings", one_block)
    sweep = sweep_findings(6)
    hypotheses = {1: 2, 2: 1, 3: 0, 4: 2, 5: 1, 6: 0, 7: 0, 8: 1}
    violations = {1: 2, 2: 1, 3: 0, 4: 1, 5: 1, 6: 0, 7: 0, 8: 1}
    assert sweep.labelings_checked == 2
    assert sweep.rows == tuple((6, i, hypotheses[i], violations[i]) for i in range(1, 9))
    assert sweep.violations == 6 and not sweep.ok


def test_enumerated_blocks_are_vertex_major(monkeypatch):
    monkeypatch.setattr(exhaustive, "BLOCK_ROWS", 1 << 12)
    blocks = list(iter_valid_labelings(build_petersen(6, 1), "italian"))
    assert len(blocks) > 1
    assert all(b.T.flags.c_contiguous and b.dtype == np.uint8 for b in blocks)


def test_findings_sweep_pinned_uncapped():
    """Pinned from the row-major kernels:
    python -c "from gpid.audit import sweep_findings; print(sweep_findings(6))"
    """
    assert 3**12 > 10 * exhaustive.BLOCK_ROWS  # the sweep crosses more than ten blocks
    sweep = sweep_findings(6)
    assert sweep.labelings_checked == 358105
    hypotheses = {
        1: 358105, 2: 214267, 3: 55930, 4: 357295,
        5: 286108, 6: 182286, 7: 153610, 8: 351604,
    }
    assert sweep.rows == tuple((6, i, hypotheses[i], 0) for i in range(1, 9))


def test_column_lemma_sweep_pinned_uncapped():
    """Pinned from the row-major kernels:
    python -c "from gpid.audit import sweep_column_lemma; print(sweep_column_lemma(6))"
    """
    assert 3**12 > 10 * exhaustive.BLOCK_ROWS
    sweep = sweep_column_lemma(6)
    assert sweep.labelings_checked == 348393
    assert sweep.rows == ((6, 348393, 0),)


def test_findings_sweep_memory_stays_block_sized():
    """numpy reports its buffers to tracemalloc; the row-major kernels on
    blocks of 2^19 rows peaked at 151.6 MiB."""
    tracemalloc.start()
    try:
        sweep_findings(6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_findings_sweep_memory_holds_one_code_per_row():
    """The cell kernels keep one uint8 code per row; the kernels that built
    a dozen (vertex, row) arrays per block peaked at 4.77 MiB."""
    tracemalloc.start()
    try:
        sweep_findings(6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20
