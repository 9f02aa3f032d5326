import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gpid.cli import main
from gpid.labeling import labeling_from_json, parse_matrix

SRC = Path(__file__).resolve().parent.parent / "src"


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
    code, out, err = run_cli(capsys, "value", "--k", "2")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "--n" in err


@pytest.mark.parametrize("argv", [["--help"], ["audit", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: gpid")


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
        capsys, "value", "--n", "12", "--k", "1..2", "--format", "csv"
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


def test_budget_is_read_by_bnb_only(capsys):
    # refused as a flag exhaustive never reads, before its value is checked
    code, out, err = run_cli(capsys, "solve", "--n", "7", "--k", "2",
                             "--method", "exhaustive", "--budget", "0")
    assert (code, out, err) == (2, "", "error: --method exhaustive does not take --budget\n")
    # without --budget, bnb runs at the solver's default budget
    code, out, _ = run_cli(capsys, "value", "--n", "9", "--k", "4", "--method", "bnb")
    assert (code, out) == (0, "italian P(9,4) = 8 (exact, bnb)\n")


def test_bnb_out_of_budget_at_the_kind_floor_is_exact(capsys):
    # the greedy incumbent of Italian P(9,2) weighs 8 = ceil(4n/5), so a
    # search cut short by its budget has still proved it optimal
    code, out, _ = run_cli(capsys, "value", "--n", "9", "--k", "2", "--method", "bnb",
                           "--budget", "1")
    assert (code, out) == (0, "italian P(9,2) = 8 (exact, bnb)\n")
    code, out, _ = run_cli(capsys, "solve", "--n", "9", "--k", "4", "--method", "bnb",
                           "--budget", "1")
    assert (code, out) == (0, "italian P(9,4) = 8 (branch_and_bound, explored 2)\n")


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


@pytest.mark.parametrize("target", ["discharge", "findings"])
def test_audit_enumerate_optimal_refuses_past_the_gate_before_solving(capsys, monkeypatch,
                                                                      target):
    # no sweep runs past the gate, so the cap's DP solve (seconds at n = 50000) would be waste
    from gpid import cli

    def refuse(*args):
        raise AssertionError("solved the cap of a sweep past the size gate")

    monkeypatch.setattr(cli, "solve_dp", refuse)
    code, out, err = run_cli(capsys, "audit", target, "--n", "50000", "--enumerate-optimal")
    assert (code, out) == (2, "")
    assert err == "error: exhaustive italian search gated at 2n <= 16, got 2n = 100000\n"


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


@pytest.mark.parametrize("only,ran", [
    (["thm-2.3", "thm-2.3"], ["thm-2.3"]),
    (["thm-4.1", "thm-2.3", "thm-4.1"], ["thm-4.1", "thm-2.3"]),
], ids=["repeated", "first-order"])
def test_verify_theorems_runs_each_id_once_in_the_order_first_given(capsys, only, ran):
    code, out, err = run_cli(capsys, "verify-theorems", *(a for i in only for a in ("--only", i)))
    assert code == 0
    assert [line.split()[1] for line in out.splitlines()] == [*ran, "checks"]
    assert [line.split(":")[0] for line in err.splitlines()] == [f"# {i}" for i in ran]


@pytest.mark.parametrize("argv,flag,takers", [
    (["--only", "thm-3.6", "--k-max", "0"], "--k-max", "thm-4.1"),
    (["--only", "findings", "--n-max", "20"], "--n-max",
     "thm-2.3, thm-3.3, thm-3.6, thm-4.1, cited-formulas, classification"),
], ids=["k-max", "n-max"])
def test_verify_theorems_refuses_a_range_no_selected_check_takes(capsys, argv, flag, takers):
    code, out, err = run_cli(capsys, "verify-theorems", *argv)
    assert (code, out) == (2, "")
    assert err == f"error: --only selects no check that {flag} bounds ({takers})\n"


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


def _fresh_python(*args, openblas_threads=None):
    """Run a fresh interpreter with gpid's sources on its path and
    OPENBLAS_NUM_THREADS set to `openblas_threads`, or unset for None."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_console_entry_point():
    proc = _fresh_python("-m", "gpid.cli", "value", "--n", "9", "--k", "1")
    assert proc.returncode == 0
    assert "9 (exact" in proc.stdout


# Runs two gpid calls in-process, then reports their exit codes, the
# process's OS threads and its OPENBLAS_NUM_THREADS.
_THREAD_REPORT = """
import contextlib, io, json, os
from gpid.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [main(["solve", "--n", "7", "--k", "2"]), main(["audit", "findings", "--n", "5"])]
print(json.dumps([codes, len(os.listdir("/proc/self/task")),
                  os.environ.get("OPENBLAS_NUM_THREADS")]))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_a_gpid_process_runs_on_one_thread():
    proc = _fresh_python("-c", _THREAD_REPORT)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, 0], 1, None]
    proc = _fresh_python("-c", _THREAD_REPORT, openblas_threads="2")
    assert proc.returncode == 0, proc.stderr
    codes, _, given = json.loads(proc.stdout)
    assert (codes, given) == ([0, 0], "2")


@pytest.fixture
def inputs(monkeypatch, tmp_path):
    """A 2 x 3 label matrix, the JSON of a labeling of P(3,5), which is
    undefined, of labelings of P(6,2) and P(4,1), the matrix of the
    P(4,1) labeling, and malformed labeling JSON files (a list, an object
    without n, and the P(4,1) labeling with a label or n, k that is not
    a JSON integer), in the working directory."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "matrix.txt").write_text("1 0 1\n0 1 0\n")
    (tmp_path / "undefined.json").write_text('{"n": 3, "k": 5, "values": [1, 0, 0, 1, 1, 0]}')
    (tmp_path / "p62.json").write_text('{"n": 6, "k": 2, "values": [2, 0, 0, 1, 1, 0, 0, 2, 0, 0, 1, 1]}')
    (tmp_path / "p41.json").write_text('{"n": 4, "k": 1, "values": [1, 0, 0, 1, 1, 0, 0, 1]}')
    (tmp_path / "p41.txt").write_text("1 0 1 0\n0 1 0 1\n")
    (tmp_path / "list.json").write_text("[6, 2, [1, 0, 0, 1]]")
    (tmp_path / "no-n.json").write_text('{"k": 2, "values": [1, 0, 0, 1]}')
    for name, (n, k, last) in NOT_INTEGERS.items():
        (tmp_path / name).write_text(
            f'{{"n": {n}, "k": {k}, "values": [1, 0, 0, 1, 1, 0, 0, {last}]}}')


# Variants of the P(4,1) labeling with one field that is not a JSON integer.
NOT_INTEGERS = {
    "float-label.json": (4, 1, "1.9"),
    "bool-label.json": (4, 1, "true"),
    "string-label.json": (4, 1, '"1"'),
    "string-n.json": ('"4"', 1, 1),
    "float-k.json": (4, "1.0", 1),
}


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
    ["render", "--in", "matrix.txt", "--from-matrix"],
    ["render", "--in", "matrix.txt", "--from-matrix", "--n", "3", "--k", "5"],
    ["render", "--in", "undefined.json"],
    # flags the mode never reads
    ["audit", "findings", "--n", "6", "--labeling", "p62.json"],
    ["audit", "bagging", "--n", "6", "--enumerate-optimal", "--labeling", "p62.json"],
    ["audit", "column-lemma", "--n", "6", "--enumerate-optimal"],
    ["audit", "discharge", "--n", "6", "--enumerate-optimal", "--weight-cap", "3"],
    ["audit", "discharge", "--n", "6", "--labeling", "p62.json", "--weight-cap", "3"],
    ["audit", "discharge", "--n", "9", "--labeling", "p62.json"],
    ["audit", "column-lemma", "--n", "5", "--labeling", "p41.json"],
    ["render", "--in", "p62.json", "--n", "9", "--k", "4"],
    ["solve", "--n", "7", "--k", "2", "--method", "exhaustive", "--budget", "0"],
    ["solve", "--n", "7", "--k", "2", "--method", "dp", "--budget", "5"],
    ["value", "--n", "7", "--k", "2", "--budget", "5"],
    ["value", "--n", "7", "--k", "2", "--method", "formula", "--budget", "5"],
    # bagging sweeps the IDFs of weight at most n and takes no cap, even the
    # optimum 6; and sweeps over no labeling
    ["audit", "bagging", "--n", "6", "--weight-cap", "7"],
    ["audit", "bagging", "--n", "6", "--weight-cap", "5"],
    ["audit", "bagging", "--n", "6", "--weight-cap", "6"],
    ["audit", "discharge", "--n", "6", "--weight-cap", "3"],
    ["audit", "findings", "--n", "6", "--weight-cap", "3"],
    ["audit", "column-lemma", "--n", "6", "--weight-cap", "3"],
    # a remainder outside 0..m-1, and a remainder no n of the range has
    ["value", "--n", "10", "--k", "2", "--mod", "3=5"],
    ["value", "--n", "10", "--k", "2", "--mod", "3=2"],
    ["render", "--in", "list.json"],
    ["render", "--in", "no-n.json"],
    # refused by argparse itself
    [],
    ["value", "--k", "2"],
    ["value", "--n", "9", "--bogus"],
    ["value", "--n", "9", "--format", "xml"],
    ["value", "--n", "9", "--invariant", "foo"],
    ["solve", "--n", "7", "--k", "2", "--method", "bnb", "--budget", "x"],
    ["audit", "findings", "--n", "6", "--weight-cap", "x"],
    ["verify-theorems", "--n-max", "x"],
    ["solve", "--n", "7.0", "--k", "2"],
    # a prefix of a flag is not the flag
    ["value", "--n", "9", "--meth", "formula"],
    ["audit", "findings", "--n", "6", "--weight", "7"],
    # a range flag that no selected check reads
    ["verify-theorems", "--only", "thm-3.6", "--k-max", "0"],
    ["verify-theorems", "--only", "discharge", "--only", "bagging", "--n-max", "12"],
])
def test_bad_input_is_a_one_line_usage_error(capsys, inputs, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("mod,message", [
    ("3=5", "error: argument --mod: expected m=r with integers 0 <= r < m, got '3=5'\n"),
    ("3=-1", "error: argument --mod: expected m=r with integers 0 <= r < m, got '3=-1'\n"),
    ("3=2", "error: no n in --n 10 has n % 3 == 2 (--mod 3=2)\n"),
])
def test_mod_errors_name_the_filter(capsys, mod, message):
    code, out, err = run_cli(capsys, "value", "--n", "10", "--k", "2", "--mod", mod)
    assert (code, out, err) == (2, "", message)


@pytest.mark.parametrize("argv", [
    ["render", "--in", "list.json"],
    ["render", "--in", "no-n.json"],
    ["audit", "discharge", "--n", "6", "--labeling", "list.json"],
    *(argv + [name] for name in NOT_INTEGERS
      for argv in (["render", "--in"], ["audit", "column-lemma", "--n", "4", "--labeling"])),
])
def test_malformed_labeling_json_names_the_expected_shape(capsys, inputs, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (
        "error: bad labeling JSON: expected an object with integer n, k and a values list\n"
    )


def test_audit_reads_a_labeling_of_the_given_n(capsys, inputs):
    code, out, _ = run_cli(capsys, "audit", "discharge", "--n", "6", "--labeling", "p62.json")
    assert code == 0 and json.loads(out)["identity_ok"] is True
    code, out, _ = run_cli(capsys, "audit", "column-lemma", "--n", "4", "--labeling", "p41.json")
    assert (code, out) == (0, "column lemma: holds=True counterexamples=[]\n")


@pytest.mark.parametrize("argv", [
    ["render", "--in", "matrix.txt", "--from-matrix", "--n", "3", "--k", "5"],
    ["render", "--in", "undefined.json"],
])
def test_labelings_of_undefined_graphs_are_refused(capsys, inputs, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "P(n,k) requires n >= 3, k >= 1, 2k < n; got n=3, k=5" in err


def test_unsound_solver_output_is_an_internal_error(capsys, monkeypatch):
    from gpid import dp, solver

    def corrupted(n, k, kind, first=0):
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


def _each_format(argv, formats, *pins):
    """One (argv, exit code, stdout sha256) row per format.  `--format`
    follows the command word, so that ids cut short still differ, and
    is left out for text, the default."""
    command, rest = argv.split(" ", 1)
    return [(argv if fmt == "text" else f"{command} --format {fmt} {rest}", code, digest)
            for fmt, (code, digest) in zip(formats, pins)]


TJC = ("text", "json", "csv")
TJ = ("text", "json")

# Exit code and stdout sha256 of one call of each subcommand in each
# format it takes, recorded before the CLI's parsing and writing were
# merged into one path each.
PINNED_STDOUT = [
    *_each_format("value --n 5..8 --k 1..3", TJC,
                  (0, "438a4e653baf58d0ecc8aa34b8d590587143f07ba5b6920e3052617e6171bba8"),
                  (0, "96bb6a200b1004389170750b4cd9975224ecf0e9355e9858531de72b4be67242"),
                  (0, "57c669a0fbaf997e8f3f683bb4c06470c089cbd12d838b93c7d74538b6927e6d")),
    *_each_format("value --n 7..10 --k 2..4 --method formula", TJC,
                  (0, "865a36bb44be1a304e5dc0b0979fa1442aff9e36bfb2c6ec84df05e35dbbe922"),
                  (0, "90b4ac58b6a3c55daa84288dedd49500a16a598ad45033e74f651994fba26a43"),
                  (0, "bbe9156e718a24b18815a07ada2ca2e48e54fa9bc61958094531558996eac109")),
    *_each_format("value --n 7..9 --k 3 --invariant rainbow2 --method formula", TJC,
                  (0, "812615dd6e8aa004f92584f152d2a4975c248841330a81d530ad807535951c26"),
                  (0, "357a3c6c4674b21cf77200be54e270a5d431f18d48945d7270b1a0b05a831f6d"),
                  (0, "a5456783bf7ea99a3a8006c5d3ef3b4c490246f94435df5c157ad424bd3c32a1")),
    *_each_format("value --n 6..7 --k 1..2 --invariant domination --method dp", TJC,
                  (0, "697e537f8c3d0ecca2b83f83ef9802f2ca6c783bedc49772cb5d9f958a6cc33a"),
                  (0, "52db2bf1d013af89801aa99a17c0fc9c0ad59493d3da3162956cebb852cc229e"),
                  (0, "a2accf14eb3f94070cc1b4b6899193a9a67aabc28125aa1d1038c20092a58eb7")),
    *_each_format("value --n 5..6 --k 1..2 --invariant rainbow2 --method exhaustive", TJC,
                  (0, "398b2e7878658467f85c5132b72e173e19b0c507ba6b3392250b784260ecfb85"),
                  (0, "b810693e74108d29dce84253e39a8da89c2bc2a9c649a61851b4ad8798ea4073"),
                  (0, "c102addea402123592b42f993dceeb25bdf95fa7e7747b81b6b38b73cc160256")),
    *_each_format("value --n 16 --k 6 --method bnb --budget 50", TJC,
                  (0, "74c5208a8aac6333fe7244924fddc3cc2a3c6a3dd2f9a08d6ee0a9838895c1c3"),
                  (0, "c5fbe4db1b8bfcfdaaf9c4b36487bdffa54dd8725344fb35c0d9c5b7de49f7ef"),
                  (0, "e6ba3f4f0850283832c0b1845451e46fb5a2414bbce0e4685117b400526cc5fd")),
    ("value --n 5..20 --k 2 --mod 5=0", 0,
     "c268655d14517503e62fbfe09bbea656eed871ec55dbd5028041c06259d4b041"),
    *_each_format("solve --n 7 --k 2 --method dp", TJ,
                  (0, "d518ee8cb0e8d6d2d11fb929ef9d33173a1d7e850ac6f131e8adf3767c532088"),
                  (0, "b10721d6e6b74267ac0adca00e6161addc6053ecb323458c83ef98fa934c1e5b")),
    *_each_format("solve --n 6 --k 2 --invariant rainbow2 --method exhaustive", TJ,
                  (0, "92f9d2b50571417f3beab82e80f06e23e41560b1c11ae549a7031e896ec480e6"),
                  (0, "fef884772212da4cc81a93139ad755b5e8de5621f0a8e5d6ede9146deb7d4a42")),
    *_each_format("solve --n 16 --k 6 --method bnb --budget 50", TJ,
                  (0, "7c5775f100c61d4d4ee9fd3b4f147a004e4a6a457d28f4615a56f9cd2cc943ed"),
                  (0, "dc3afcd6a5913c06ea07415257f5bb0c4d221f51e80347d51bc337dec66ce84e")),
    *_each_format("solve --n 9 --k 4 --invariant domination --method bnb --budget 500", TJ,
                  (0, "f7b32ec8d4dff6c7e7fe7ac6cd08ae525736339d21c15344305435da60b42af5"),
                  (0, "7eb0f1ecefd7d5280bcd7897efa1b8c51b900d69d1d25b9a84f70b9e9ce2aa86")),
    *_each_format("construct --n 8 --k 1", TJ,
                  (0, "770e7926e194d7c5bc157a86c058a1ac1be206f3b396f3b657eda5afda48ee3e"),
                  (0, "822283652eef3c98b007e9e953298745f0d7d327d54bcdb1bccf52ee866e7c98")),
    *_each_format("construct --n 8 --k 2", TJ,
                  (0, "742dc9320076702ab119c5773ca1de6cff1ac2ef97faa6e4c9c1e0b05ee3e949"),
                  (0, "e8ce9eed5b597833ee9396b5fd2a237dfa59af1cd35720945ed745a1f937fb98")),
    *_each_format("construct --n 11 --k 2", TJ,
                  (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
                  (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")),
    *_each_format("construct --n 9 --k 3", TJ,
                  (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
                  (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")),
    *_each_format("construct --n 10 --k 4", TJ,
                  (0, "f2b4abc836c864ab4f399dddc160220dabfac58a4975308da8ce5c2440a78c92"),
                  (0, "724267b336a7d7ed888cf83ca0cd35631ec8241d636ef9217e5d70f8906cbb9c")),
    *_each_format("construct --n 15 --k 7", TJ,
                  (0, "6c1d55a98c79253fde91ad5909e5f886dec5a4164d8a023713ae3e5f2a11c039"),
                  (0, "496877cfe302a7bf9a2acbd83f38d4b7c01dbb667585afe9dd091e55fb845d2f")),
    *_each_format("audit discharge --n 6 --enumerate-optimal", TJC,
                  (0, "8c2c303fd64afb34dfb988fbfbc6f03da92a4e7722197e7c86e797740c552e84"),
                  (0, "e8ea3f4da7ed2139023254773e9e4dda054063506505bba792276f373b6c5604"),
                  (0, "5ec0dd3bc98e7fc4f0303dc278d184bfe603ab56439fb0d2a15ca123d6ca45f5")),
    *_each_format("audit findings --n 6 --weight-cap 8", TJC,
                  (0, "09867977227f1ea715ae6c89ec4b99f9586d46f78bbfde9c41cc09b49dde0714"),
                  (0, "6c5fed832a902689726be3be85d8828014c7dbc80db2980922b6277ecdfbc9cb"),
                  (0, "6830d03fa2d2c23d81de3f7031efffdaeb1163b8d4660ee227cdf42a9663294c")),
    ("audit findings --n 6 --enumerate-optimal", 0,
     "c75d4d380cbaeea0651d390d0abacfc070bd794efb12eded809b91d241684eee"),
    *_each_format("audit bagging --n 6", TJC,
                  (0, "8547b03da37dda33cb255e8d332c34c82a3f0026d5b831946c0c0e30ec043dd4"),
                  (0, "b540afe89b8f750856e167c0d5de93bf3dc3256a7b73f09900459f8c490ef778"),
                  (0, "09f90688e4a4b8982c545cab8ab12bc05392325fd51f3240439ac9ba33fa83a9")),
    *_each_format("audit column-lemma --n 5", TJC,
                  (0, "0d5d5bcaeceb50cb88a525cbc173f107f9e87cc8a517409ac59e21df0a530023"),
                  (0, "dd417d303875f12477f19e8fe54f0549b4a3531d188870fac0f25726eab226c2"),
                  (0, "d18ff871c7ec1edebb91466dc172c6b334b944ea6b019f37bc1ca6274dd98f41")),
    ("audit column-lemma --n 6 --weight-cap 6", 0,
     "a7c2cd2e3c4618af9161b8269bc475ca0f203ced37896986c65100c0979fdc97"),
    *_each_format("audit discharge --n 6 --labeling p62.json", TJC,
                  (0, "466022f2eabf518765fa3c44198f374de66468e7f2e7d71408ac593b79d15952"),
                  (0, "466022f2eabf518765fa3c44198f374de66468e7f2e7d71408ac593b79d15952"),
                  (0, "466022f2eabf518765fa3c44198f374de66468e7f2e7d71408ac593b79d15952")),
    *_each_format("audit column-lemma --n 4 --labeling p41.json", TJC,
                  (0, "54a54baeac596610b65b2da75953528552684138fce7b6b57f8ef15644f86b82"),
                  (0, "9725822e01323d31b31e86cf91ddf0c268242e3a2f70d856624499627c940ffe"),
                  (0, "ab658295ff593dd6ca7222695dc06ece0b0c16a8d9c246a835eac5ff0914e4b5")),
    ("render --in p41.json", 0,
     "f6e01e87b3d9f6c13a1b8aef27358f2c8d78e40103f0215774cfe67dcd6fe307"),
    ("render --in p41.txt --from-matrix --n 4 --k 1", 0,
     "640cb34c0b08c6e9afaf4af1dff2e51c95533a1fb4a6d3d3bf92318b1f2adefc"),
    *_each_format("verify-theorems --only thm-4.1", TJC,
                  (0, "049d6249c69245f241117c590b8de7ac6d95476d1af78a65f93d380ea51b2a83"),
                  (0, "12487875cb81d76de040b72d848a95a09ec66efb747c20dac2c48cc5c55960a5"),
                  (0, "6d47642bd468a52ee17bb623e750cc828a767a6931224a59d3cc6a48620535e2")),
]


@pytest.mark.parametrize("argv,code,digest", PINNED_STDOUT,
                         ids=[argv for argv, _, _ in PINNED_STDOUT])
def test_stdout_is_pinned(capsys, inputs, argv, code, digest):
    got, out, _ = run_cli(capsys, *argv.split())
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)
