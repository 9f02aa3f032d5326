"""Batch command-line front end.

Commands: value | construct | solve | audit | render | verify-theorems.
Exit codes: 0 ok, 1 violation or failed check, 2 usage error (bad
arguments, unreadable input, unwritable output), 3 construction
unavailable for the requested residue, 4 internal error (a solver
contradicted itself, or any other exception: a bug).  Every refused
argument, whether missing, unknown, mistyped or excluded by another,
exits 2 with one `error:` line on stderr and nothing on stdout;
`--help` exits 0.

Output rows are emitted in (n, k) order, and timing information goes to
stderr, never stdout.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from functools import cache

from . import audit, checks, exhaustive
from .constructions import Unavailable, construct_pn1, construct_pn2, construct_pnk
from .errors import GpidError, InternalError, InvalidParameters
from .formulas import VALUES
from .graph import build_petersen, is_admissible, require_admissible
from .labeling import (
    KINDS,
    Labeling,
    labeling_from_json,
    labeling_to_json,
    parse_matrix,
    render_matrix,
)
from .solver import (
    BoundsOnly,
    solve_branch_and_bound,
    solve_dp,
    solve_exhaustive,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_UNAVAILABLE = 3
EXIT_INTERNAL = 4

_FORMULAS = VALUES  # under its earlier name: perfbench/layers.py wraps its entries

_VALUE_COLUMNS = ["n", "k", "invariant", "method", "kind", "value", "lo", "hi", "provenance"]

# The optional flags each audit target reads.  They form one mutually
# exclusive group: --labeling checks one labeling instead of sweeping,
# and --enumerate-optimal sets the weight cap.
_AUDIT_FLAGS = {
    "discharge": ("--enumerate-optimal", "--weight-cap", "--labeling"),
    "findings": ("--enumerate-optimal", "--weight-cap"),
    "bagging": (),
    "column-lemma": ("--weight-cap", "--labeling"),
}


# Converters of flag values.  argparse reports what they raise as
# `argument <flag>: <message>`, so each message names the bad text.


def _int_range(text: str) -> range:
    """`value --n/--k`: an integer or an inclusive range a..b."""
    lo, dots, hi = text.partition("..")
    try:
        values = range(int(lo), int(hi if dots else lo) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or a range a..b, got {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return values


def _residue(text: str) -> tuple[int, int]:
    """`--mod m=r`: keep the n with n % m == r."""
    try:
        m, r = (int(part) for part in text.split("="))
    except ValueError:
        m, r = 0, 0  # reported below
    if not 0 <= r < m:
        raise argparse.ArgumentTypeError(
            f"expected m=r with integers 0 <= r < m, got {text!r}")
    return m, r


def _weight_cap(text: str) -> int:
    """`--weight-cap`: an integer >= 0."""
    try:
        cap = int(text)
    except ValueError:
        cap = -1  # reported below
    if cap < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return cap


def _emit(args, text: str | None, payload=None, header=None, rows=None) -> None:
    """Write a command's output to `args.out`, or stdout without it:
    `payload` as JSON for `--format json`, `header` and `rows` as CSV for
    `--format csv`, and `text` otherwise.  An output with no text form
    (`text` None) is JSON in every format."""
    if args.format == "json" or text is None:
        out = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        out = buf.getvalue()
    else:
        out = text + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


# ---------------------------------------------------------------------------
# value


def _budget(args) -> int | None:
    """`--budget`, which only `--method bnb` takes; that is checked
    before its value."""
    if args.budget is not None and args.method != "bnb":
        raise InvalidParameters(f"--method {args.method} does not take --budget")
    if args.budget is not None and args.budget < 1:
        raise InvalidParameters(f"--budget must be at least 1, got {args.budget}")
    return args.budget


def _solve(n: int, k: int, invariant: str, method: str, budget: int | None):
    """Run one exact solver; only bnb reads `budget` (None: its default)
    and only bnb can end in a BoundsOnly."""
    if method == "dp":
        return solve_dp(n, k, invariant)
    if method == "exhaustive":
        return solve_exhaustive(build_petersen(n, k), invariant)
    limits = {} if budget is None else {"budget": budget}
    return solve_branch_and_bound(build_petersen(n, k), invariant, **limits)


def _value_row(n: int, k: int, invariant: str, method: str, budget: int | None) -> dict:
    """One `value` row.  `auto` takes the formula when it is exact or k >= 4,
    and the DP otherwise."""
    if method in ("formula", "auto"):
        f = VALUES[invariant](n, k)
        if method == "formula" or f.kind == "exact" or k > 3:
            cells = ("formula", f.kind, f.value, f.lo, f.hi, f.theorem)
            return dict(zip(_VALUE_COLUMNS, (n, k, invariant, *cells)))
        method = "dp"
    r = _solve(n, k, invariant, method, budget)
    if isinstance(r, BoundsOnly):
        cells = (method, "bounds", None, r.lo, r.hi, "bnb-bounds")
    else:
        cells = (method, "exact", r.optimum, r.optimum, r.optimum, method)
    return dict(zip(_VALUE_COLUMNS, (n, k, invariant, *cells)))


def _value_line(row: dict) -> str:
    if row["kind"] == "exact":
        shown = f"{row['value']} (exact, {row['provenance']})"
    elif row["kind"] == "bounds":
        shown = f"{row['lo']}..{row['hi']} (bounds, {row['provenance']})"
    else:
        shown = f"{row['kind']} ({row['provenance']})"
    return f"{row['invariant']} P({row['n']},{row['k']}) = {shown}"


def cmd_value(args) -> int:
    budget = _budget(args)
    ns = args.n
    if args.mod:
        m, r = args.mod
        ns = [n for n in ns if n % m == r]
        if not ns:
            span = f"{args.n[0]}..{args.n[-1]}" if len(args.n) > 1 else args.n[0]
            raise InvalidParameters(f"no n in --n {span} has n % {m} == {r} (--mod {m}={r})")
    pairs = [(n, k) for n in ns for k in args.k if is_admissible(n, k)]
    if not pairs:
        raise GpidError(
            "no admissible (n, k) pairs in the requested ranges "
            "(need n >= 3, k >= 1, 2k < n)"
        )
    rows = [_value_row(n, k, args.invariant, args.method, budget) for n, k in sorted(pairs)]
    _emit(args, "\n".join(map(_value_line, rows)), rows,
          _VALUE_COLUMNS, [[row[h] for h in _VALUE_COLUMNS] for row in rows])
    return EXIT_OK


# ---------------------------------------------------------------------------
# construct


def cmd_construct(args) -> int:
    n, k = args.n, args.k
    require_admissible(n, k)
    if k == 1:
        result = construct_pn1(n)
    elif k == 2:
        result = construct_pn2(n)
    elif k == 3:
        result = Unavailable(n=n, k=3, reason="no printed pattern for k = 3")
    else:
        result = construct_pnk(n, k)
    if isinstance(result, Unavailable):
        sys.stderr.write(f"construction unavailable for P({n},{k}): {result.reason}\n")
        return EXIT_UNAVAILABLE
    summary = (
        f"# P({n},{k}) case={result.case} claimed={result.claimed_weight} "
        f"actual={result.actual_weight} valid={result.valid}"
    )
    _emit(args, render_matrix(result.labeling) + "\n" + summary, result.to_json_dict())
    return EXIT_OK if result.valid else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# solve


def cmd_solve(args) -> int:
    n, k = args.n, args.k
    result = _solve(n, k, args.invariant, args.method, _budget(args))
    if isinstance(result, BoundsOnly):
        text = (f"{args.invariant} P({n},{k}) in [{result.lo}, {result.hi}] "
                f"(budget exhausted after {result.explored} nodes)")
    else:
        text = (f"{args.invariant} P({n},{k}) = {result.optimum} "
                f"({result.method}, explored {result.explored})")
    _emit(args, text, result.to_json_dict())
    return EXIT_OK


# ---------------------------------------------------------------------------
# audit


def _load_labeling(path: str, n: int) -> Labeling:
    """The labeling of an `audit --labeling` run, which must be on P(n, .)."""
    with open(path) as fh:
        f = labeling_from_json(fh.read())
    if f.n != n:
        raise InvalidParameters(f"--n {n} does not match the labeling's n={f.n}")
    return f


def cmd_audit(args) -> int:
    n, k, target = args.n, audit.TARGET_K[args.target], args.target
    if args.k is not None and args.k != k:
        raise GpidError(f"audit {target} applies to P(n,{k}) only, got --k {args.k}")
    given = {
        "--enumerate-optimal": args.enumerate_optimal,
        "--weight-cap": args.weight_cap is not None,
        "--labeling": args.labeling is not None,
    }
    unread = [flag for flag, on in given.items() if on and flag not in _AUDIT_FLAGS[target]]
    if unread:
        raise InvalidParameters(f"audit {target} does not take {unread[0]}")
    if args.labeling is not None:
        f = _load_labeling(args.labeling, n)
        if target == "discharge":
            ledger = audit.discharge(f)
            _emit(args, None, ledger.to_json_dict())
            return EXIT_OK if ledger.identity_ok else EXIT_VIOLATION
        rep = audit.check_column_lemma(f)  # column-lemma, the other target taking --labeling
        header = ["n", "holds", "counterexamples"]
        rows = [[n, rep.holds, len(rep.counterexamples)]]
        text = f"column lemma: holds={rep.holds} counterexamples={list(rep.counterexamples)}"
        _emit(args, text, {"rows": rows, "header": header, "ok": rep.holds}, header, rows)
        return EXIT_OK if rep.holds else EXIT_VIOLATION
    exhaustive.check_gate(2 * n, "italian")  # every sweep enumerates IDFs: refuse before the cap
    cap = solve_dp(n, k, "italian").optimum if args.enumerate_optimal else args.weight_cap
    sweep_target = getattr(audit, f"sweep_{target.replace('-', '_')}")
    sweep = sweep_target(n) if cap is None else sweep_target(n, weight_cap=cap)
    if sweep.labelings_checked == 0:  # a sweep over no labeling proves nothing
        raise InvalidParameters(
            f"audit {target}: no valid IDF of P({n},{k}) has weight at most {cap}"
        )
    _emit(args, sweep.summary, {"rows": sweep.rows, "header": sweep.header, "ok": sweep.ok},
          sweep.header, sweep.rows)
    return EXIT_OK if sweep.ok else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# render


def cmd_render(args) -> int:
    if args.from_matrix and (args.n is None or args.k is None):
        raise InvalidParameters("--from-matrix requires --n and --k")
    if not args.from_matrix and (args.n is not None or args.k is not None):
        raise InvalidParameters("--n and --k are read with --from-matrix only")
    if args.infile:
        with open(args.infile) as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    if args.from_matrix:
        _emit(args, labeling_to_json(parse_matrix(text, args.n, args.k)))
    else:
        _emit(args, render_matrix(labeling_from_json(text)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify-theorems


def cmd_verify(args) -> int:
    timed = checks.run_checks(only=args.only or None, n_max=args.n_max, k_max=args.k_max)
    results = [r for r, _ in timed]
    all_ok = all(r.ok for r in results)
    width = max(len(r.check_id) for r in results)
    lines = [f"{'✓' if r.ok else '✗'} {r.check_id:<{width}}  [{r.instances:>6} checks]  {r.detail}"
             for r in results]
    lines.append("all checks passed" if all_ok else "SOME CHECKS FAILED")
    _emit(args, "\n".join(lines),
          [{"check": r.check_id, "ok": r.ok, "instances": r.instances, "detail": r.detail}
           for r in results],
          ["check", "status", "instances", "detail"],
          [[r.check_id, "pass" if r.ok else "FAIL", r.instances, r.detail] for r in results])
    for r, elapsed in timed:
        sys.stderr.write(f"# {r.check_id}: {elapsed:.2f}s\n")
    return EXIT_OK if all_ok else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """An argument parser whose refusals are usage errors that `main`
    reports in one line, instead of a usage block and an exit.  It reads
    no prefix of a flag as the flag, and `add_subparsers` builds every
    subcommand's parser from this class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs, allow_abbrev=False)

    def error(self, message: str):
        raise InvalidParameters(message)


def _add_output(parser: argparse.ArgumentParser, *formats: str) -> None:
    """`--out`, and `--format` (text by default) for a command that also
    writes `formats`."""
    parser.set_defaults(format="text")
    if formats:
        parser.add_argument("--format", choices=["text", *formats])
    parser.add_argument("--out", default=None)


@cache  # built on the first `main` call, not at import; reused by later calls
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gpid",
        description="Italian domination on generalized Petersen graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_value = sub.add_parser("value", help="invariant values over (n, k) ranges")
    p_value.add_argument("--n", type=_int_range, required=True,
                         help="n or inclusive range a..b")
    p_value.add_argument("--k", type=_int_range, default="1", help="k or inclusive range a..b")
    p_value.add_argument("--invariant", default="italian", choices=list(KINDS))
    p_value.add_argument("--method", default="auto",
                         choices=["auto", "formula", "dp", "exhaustive", "bnb"])
    p_value.add_argument("--mod", type=_residue, default=None,
                         help="keep n with n %% m == r, as m=r")
    p_value.add_argument("--budget", type=int, default=None,
                         help="bnb node budget (default 200000); --method bnb only")
    _add_output(p_value, "json", "csv")
    p_value.set_defaults(fn=cmd_value)

    p_con = sub.add_parser("construct", help="emit an explicit IDF pattern")
    p_con.add_argument("--n", type=int, required=True)
    p_con.add_argument("--k", type=int, required=True)
    _add_output(p_con, "json")
    p_con.set_defaults(fn=cmd_construct)

    p_solve = sub.add_parser("solve", help="run one exact solver instance")
    p_solve.add_argument("--n", type=int, required=True)
    p_solve.add_argument("--k", type=int, required=True)
    p_solve.add_argument("--invariant", default="italian", choices=list(KINDS))
    p_solve.add_argument("--method", default="dp",
                         choices=["dp", "exhaustive", "bnb"])
    p_solve.add_argument("--budget", type=int, default=None,
                         help="bnb node budget (default 200000); --method bnb only")
    _add_output(p_solve, "json")
    p_solve.set_defaults(fn=cmd_solve)

    p_audit = sub.add_parser("audit", help="run certificate sweeps")
    p_audit.add_argument("target",
                         choices=["discharge", "findings", "bagging", "column-lemma"])
    p_audit.add_argument("--n", type=int, required=True)
    p_audit.add_argument("--k", type=int, default=None, help="implied by the audit target")
    mode = p_audit.add_mutually_exclusive_group()
    mode.add_argument("--enumerate-optimal", action="store_true")
    mode.add_argument("--weight-cap", type=_weight_cap, default=None)
    mode.add_argument("--labeling", default=None, help="labeling JSON file")
    _add_output(p_audit, "json", "csv")
    p_audit.set_defaults(fn=cmd_audit)

    p_render = sub.add_parser("render", help="labeling JSON <-> matrix text")
    p_render.add_argument("--in", dest="infile", default=None)
    p_render.add_argument("--from-matrix", action="store_true")
    p_render.add_argument("--n", type=int, default=None)
    p_render.add_argument("--k", type=int, default=None)
    _add_output(p_render)
    p_render.set_defaults(fn=cmd_render)

    p_ver = sub.add_parser("verify-theorems", help="run the named checks")
    p_ver.add_argument("--only", action="append", default=None,
                       help=f"check id, repeatable; known: {', '.join(checks.CHECKS)}")
    p_ver.add_argument("--n-max", type=int, default=None,
                       help=f"largest n for: {', '.join(checks.checks_taking('n_max'))}")
    p_ver.add_argument("--k-max", type=int, default=None,
                       help=f"largest k for: {', '.join(checks.checks_taking('k_max'))}")
    _add_output(p_ver, "json", "csv")
    p_ver.set_defaults(fn=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.fn(args)
    except InternalError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_INTERNAL
    except (GpidError, OSError) as exc:  # OSError: unreadable input, unwritable output
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except Exception as exc:  # a bug, never a usage error or a violation
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
