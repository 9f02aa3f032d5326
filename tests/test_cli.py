import json

import pytest

from gpid.cli import main
from gpid.labeling import labeling_from_json, parse_matrix


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_value_single(capsys):
    code, out, _ = run_cli(capsys, "value", "--n", "9", "--k", "1", "--invariant", "italian")
    assert code == 0
    assert out == "italian P(9,1) = 9 (exact, italian-pn1)\n"


def test_value_range_csv(capsys):
    code, out, _ = run_cli(
        capsys, "value", "--n", "5..10", "--k", "2", "--invariant", "italian",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("n,k,invariant")
    assert len(lines) == 7
    values = [int(line.split(",")[5]) for line in lines[1:]]
    assert values == [4, 6, 7, 7, 8, 8]


def test_value_formula_k7(capsys):
    code, out, _ = run_cli(capsys, "value", "--n", "15", "--k", "7", "--method", "formula")
    assert code == 0
    assert "12 (exact" in out


def test_value_mod_filter(capsys):
    code, out, _ = run_cli(
        capsys, "value", "--n", "5..20", "--k", "2", "--mod", "5=0", "--format", "csv"
    )
    assert code == 0
    ns = [int(line.split(",")[0]) for line in out.strip().splitlines()[1:]]
    assert ns == [5, 10, 15, 20]


def test_value_requires_n(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["value", "--k", "2"])
    assert exc.value.code == 2


def test_value_inadmissible_pair_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "value", "--n", "4", "--k", "2")
    assert code == 2
    assert out == ""
    assert "admissible" in err


def test_value_skips_inadmissible_pairs_in_a_range(capsys):
    code, out, err = run_cli(capsys, "value", "--n", "5..6", "--k", "0..1")
    assert code == 0
    assert out == "italian P(5,1) = 5 (exact, italian-pn1)\nitalian P(6,1) = 6 (exact, italian-pn1)\n"
    assert err == ""


def test_value_k_range(capsys):
    code, out, _ = run_cli(
        capsys, "value", "--n", "12", "--k-range", "1..2", "--format", "csv"
    )
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert [r.split(",")[1] for r in rows] == ["1", "2"]
    assert [int(r.split(",")[5]) for r in rows] == [12, 11]


def test_construct_pn1(capsys):
    code, out, _ = run_cli(capsys, "construct", "--n", "4", "--k", "1")
    assert code == 0
    assert out.splitlines()[0] == "1 0 1 0"
    assert out.splitlines()[1] == "0 1 0 1"


def test_construct_unavailable_exit_code(capsys):
    code, out, err = run_cli(capsys, "construct", "--n", "11", "--k", "2")
    assert code == 3
    assert "unavailable" in err


def test_construct_weight7(capsys):
    code, out, _ = run_cli(capsys, "construct", "--n", "8", "--k", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["actual_weight"] == 7 and payload["valid"] is True
    # JSON output round-trips through the labeling parser
    f = labeling_from_json(json.dumps(payload["labeling"]))
    assert f.n == 8 and f.k == 2


def test_solve_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--n", "7", "--k", "2", "--invariant", "italian",
        "--method", "dp", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["optimum"] == 7
    f = labeling_from_json(json.dumps(payload["witness"]))
    assert len(f.values) == 14


def test_solve_bnb_bounds(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--n", "16", "--k", "6", "--invariant", "italian",
        "--method", "bnb", "--budget", "50", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["lo"] <= payload["hi"]


def test_audit_bagging(capsys):
    code, out, _ = run_cli(capsys, "audit", "bagging", "--n", "6", "--k", "1")
    assert code == 0
    assert "0 inconsistent" in out


def test_audit_findings_csv(capsys):
    code, out, _ = run_cli(
        capsys, "audit", "findings", "--n", "6", "--k", "2",
        "--weight-cap", "8", "--format", "csv",
    )
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "n,finding,hypotheses,violations"
    assert len(rows) == 9
    assert all(row.endswith(",0") for row in rows[1:])


def test_audit_discharge_enumerate_optimal(capsys):
    code, out, _ = run_cli(
        capsys, "audit", "discharge", "--n", "6", "--k", "2", "--enumerate-optimal"
    )
    assert code == 0
    assert "0 identity failures" in out


def test_audit_column_lemma(capsys):
    code, out, _ = run_cli(capsys, "audit", "column-lemma", "--n", "5", "--k", "1")
    assert code == 0
    assert "0 counterexamples" in out


@pytest.mark.parametrize("target,k", [
    ("discharge", "1"), ("findings", "3"), ("bagging", "2"), ("column-lemma", "2"),
])
def test_audit_rejects_a_conflicting_k(capsys, target, k):
    code, out, err = run_cli(capsys, "audit", target, "--n", "6", "--k", k)
    assert code == 2
    assert out == ""
    assert "only, got --k" in err


def test_audit_accepts_the_matching_k(capsys):
    args = ["audit", "findings", "--n", "6", "--weight-cap", "7", "--format", "csv"]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert run_cli(capsys, *args, "--k", "2") == (0, out, "")


def test_render_both_directions(capsys, tmp_path):
    path = tmp_path / "lab.json"
    path.write_text('{"n": 4, "k": 1, "values": [1,0,0,1,1,0,0,1]}')
    code, out, _ = run_cli(capsys, "render", "--in", str(path))
    assert code == 0
    assert out == "1 0 1 0\n0 1 0 1\n"
    mat = tmp_path / "lab.txt"
    mat.write_text("1 0 1 0\n0 1 0 1\n")
    code, out, _ = run_cli(
        capsys, "render", "--in", str(mat), "--from-matrix", "--n", "4", "--k", "1"
    )
    assert code == 0
    f = labeling_from_json(out)
    assert f == parse_matrix("1 0 1 0\n0 1 0 1", 4, 1)


def test_verify_theorems_single(capsys):
    code, out, err = run_cli(
        capsys, "verify-theorems", "--only", "thm-3.6", "--n-max", "12"
    )
    assert code == 0
    assert "thm-3.6" in out
    assert "all checks passed" in out
    assert "thm-3.6" in err  # timing goes to stderr


def test_verify_theorems_unknown_id(capsys):
    code, _, err = run_cli(capsys, "verify-theorems", "--only", "thm-9.9")
    assert code == 2
    assert "unknown check" in err


def test_deterministic_output(capsys):
    args = ["value", "--n", "5..12", "--k", "2", "--format", "csv"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_out_file(capsys, tmp_path):
    target = tmp_path / "rows.csv"
    code, out, _ = run_cli(
        capsys, "value", "--n", "5..6", "--k", "2", "--format", "csv",
        "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("n,k,invariant")


def test_console_entry_point():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "gpid.cli", "value", "--n", "9", "--k", "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "9 (exact" in proc.stdout


@pytest.mark.parametrize("argv", [
    ["value", "--n", "7", "--k", "3", "--mod", "0=1"],
    ["value", "--n", "7", "--k", "3", "--mod", "5"],
    ["audit", "discharge", "--n", "6", "--labeling", "/nonexistent/labeling.json"],
    ["solve", "--n", "7", "--k", "2", "--out", "/nonexistent/x.json"],
    ["render", "--in", "/nonexistent/labeling.json"],
    ["solve", "--n", "16", "--k", "6", "--method", "bnb", "--budget", "-5"],
    ["value", "--n", "9", "--k", "4", "--method", "bnb", "--budget", "0"],
    ["audit", "findings", "--n", "6", "--weight-cap", "-1"],
    ["audit", "column-lemma", "--n", "5", "--weight-cap", "-3"],
    ["audit", "findings", "--n", "20"],
    ["audit", "column-lemma", "--n", "9"],
    ["value", "--n", "5", "--k", "0"],
    ["verify-theorems", "--only", "thm-3.3", "--n-max", "4"],
    ["verify-theorems", "--only", "thm-4.1", "--n-max", "8"],
    ["construct", "--n", "5", "--k", "0"],
    ["construct", "--n", "5", "--k", "-1"],
    ["construct", "--n", "5", "--k", "3"],
])
def test_bad_input_is_a_one_line_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_unsound_solver_output_is_an_internal_error(capsys, monkeypatch):
    from gpid import dp, solver

    def corrupted(n, k, kind, state_cap=dp.DP_STATE_CAP):
        return n, bytes(2 * n), 0  # all zeros: not a valid labeling

    monkeypatch.setattr(dp, "solve_cycle", corrupted)
    solver.solve_dp.cache_clear()
    try:
        code, out, err = run_cli(capsys, "solve", "--n", "7", "--k", "2", "--method", "dp")
    finally:
        solver.solve_dp.cache_clear()
    assert code == 4
    assert out == ""
    assert err == "internal error: unsound witness for italian on P(7,2)\n"


@pytest.mark.parametrize("argv", [
    ["solve", "--n", "abc", "--k", "2"],
    ["value", "--n", "5..x", "--k", "2"],
    ["value", "--n", "9..5", "--k", "2"],
    ["audit", "bagging", "--n", "six"],
    ["verify-theorems", "--only", "thm-9.9"],
])
def test_unparsable_arguments_are_a_one_line_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("error", [KeyError("stray"), RecursionError("too deep")])
def test_unexpected_exceptions_are_internal_errors(capsys, monkeypatch, error):
    from gpid import cli

    def broken(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "solve_branch_and_bound", broken)
    code, out, err = run_cli(capsys, "solve", "--n", "9", "--k", "4", "--method", "bnb")
    assert code == 4
    assert out == ""
    assert err == f"internal error: {type(error).__name__}: {error}\n"
