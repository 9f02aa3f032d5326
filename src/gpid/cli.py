"""Batch command-line front end.

Commands: value | construct | solve | audit | render | verify-theorems.
Exit codes: 0 ok, 1 violation or failed check, 2 usage error (bad
arguments, unreadable input, unwritable output), 3 construction
unavailable for the requested residue, 4 internal error (a solver
contradicted itself, or any other exception: a bug).

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

from . import audit, checks
from .constructions import Unavailable, construct_pn1, construct_pn2, construct_pnk
from .errors import GpidError, InternalError, InvalidParameters
from .formulas import domination_value, italian_value, rainbow2_value
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

_FORMULAS = {
    "italian": italian_value,
    "domination": domination_value,
    "rainbow2": rainbow2_value,
}

_VALUE_COLUMNS = ["n", "k", "invariant", "method", "kind", "value", "lo", "hi", "provenance"]

# P(n,k) family each audit target applies to
_AUDIT_K = {"discharge": 2, "findings": 2, "bagging": 1, "column-lemma": 1}


def _parse_int(text: str, flag: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InvalidParameters(f"{flag} takes an integer, got {text!r}") from None


def _parse_range(text: str, flag: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo_i, hi_i = _parse_int(lo, flag), _parse_int(hi, flag)
        if hi_i < lo_i:
            raise InvalidParameters(f"empty range {text!r}")
        return list(range(lo_i, hi_i + 1))
    return [_parse_int(text, flag)]


def _parse_mod(text: str) -> tuple[int, int]:
    try:
        m, r = (int(part) for part in text.split("="))
    except ValueError:
        m, r = 0, 0  # reported below
    if m < 1:
        raise InvalidParameters(f"--mod takes m=r with integers m >= 1 and r, got {text!r}")
    return m, r


def _emit(out_path: str | None, text: str) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# value


def _solve(n: int, k: int, invariant: str, method: str, budget: int):
    """Run one exact solver; only bnb can end in a BoundsOnly."""
    if method == "dp":
        return solve_dp(n, k, invariant)
    if method == "exhaustive":
        return solve_exhaustive(build_petersen(n, k), invariant)
    return solve_branch_and_bound(build_petersen(n, k), invariant, budget=budget)


def _value_row(n: int, k: int, invariant: str, method: str, budget: int) -> dict:
    """One `value` row.  `auto` takes the formula when it is exact or k >= 4,
    and the DP otherwise."""
    if method in ("formula", "auto"):
        f = _FORMULAS[invariant](n, k)
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


def cmd_value(args) -> int:
    ns = _parse_range(args.n_range or args.n, "--n")
    ks = _parse_range(args.k_range or args.k, "--k")
    if args.mod:
        m, r = _parse_mod(args.mod)
        ns = [n for n in ns if n % m == r]
    pairs = [(n, k) for n in ns for k in ks if is_admissible(n, k)]
    if not pairs:
        raise GpidError(
            "no admissible (n, k) pairs in the requested ranges "
            "(need n >= 3, k >= 1, 2k < n)"
        )
    rows = [_value_row(n, k, args.invariant, args.method, args.budget)
            for n, k in sorted(pairs)]
    if args.format == "json":
        _emit(args.out, json.dumps(rows, indent=2, sort_keys=True) + "\n")
    elif args.format == "csv":
        _emit(args.out, _csv_text(_VALUE_COLUMNS,
                                  [[row[h] for h in _VALUE_COLUMNS] for row in rows]))
    else:
        lines = []
        for row in rows:
            if row["kind"] == "exact":
                shown = f"{row['value']} (exact, {row['provenance']})"
            elif row["kind"] == "bounds":
                shown = f"{row['lo']}..{row['hi']} (bounds, {row['provenance']})"
            else:
                shown = f"{row['kind']} ({row['provenance']})"
            lines.append(
                f"{row['invariant']} P({row['n']},{row['k']}) = {shown}"
            )
        _emit(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# construct


def cmd_construct(args) -> int:
    n, k = _parse_int(args.n, "--n"), _parse_int(args.k, "--k")
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
    if args.format == "json":
        _emit(args.out, json.dumps(result.to_json_dict(), indent=2, sort_keys=True) + "\n")
    else:
        text = render_matrix(result.labeling)
        summary = (
            f"# P({n},{k}) case={result.case} claimed={result.claimed_weight} "
            f"actual={result.actual_weight} valid={result.valid}"
        )
        _emit(args.out, text + "\n" + summary + "\n")
    return EXIT_OK if result.valid else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# solve


def cmd_solve(args) -> int:
    n, k = _parse_int(args.n, "--n"), _parse_int(args.k, "--k")
    result = _solve(n, k, args.invariant, args.method, args.budget)
    payload = result.to_json_dict()
    if args.format == "json":
        _emit(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        if isinstance(result, BoundsOnly):
            _emit(
                args.out,
                f"{args.invariant} P({n},{k}) in [{result.lo}, {result.hi}] "
                f"(budget exhausted after {result.explored} nodes)\n",
            )
        else:
            _emit(
                args.out,
                f"{args.invariant} P({n},{k}) = {result.optimum} "
                f"({result.method}, explored {result.explored})\n",
            )
    return EXIT_OK


# ---------------------------------------------------------------------------
# audit


def _load_labeling(path: str) -> Labeling:
    with open(path) as fh:
        return labeling_from_json(fh.read())


def cmd_audit(args) -> int:
    n = _parse_int(args.n, "--n")
    if args.k is not None and _parse_int(args.k, "--k") != _AUDIT_K[args.target]:
        raise GpidError(
            f"audit {args.target} applies to P(n,{_AUDIT_K[args.target]}) only, "
            f"got --k {args.k}"
        )
    ok = True
    lines: list[str] = []
    rows: list[list] = []
    header: list[str] = []
    if args.target == "discharge":
        if args.labeling:
            ledger = audit.discharge(_load_labeling(args.labeling))
            _emit(args.out, json.dumps(ledger.to_json_dict(), indent=2, sort_keys=True) + "\n")
            return EXIT_OK if ledger.identity_ok else EXIT_VIOLATION
        cap = args.weight_cap
        if args.enumerate_optimal:
            cap = solve_dp(n, 2, "italian").optimum
        sweep = audit.sweep_discharge(n, weight_cap=cap)
        ok = sweep.ok
        header = ["n", "weight_cap", "labelings", "identity_failures", "floor_failures"]
        rows = [[n, cap, sweep.labelings_checked, sweep.identity_failures,
                 sweep.charge_floor_failures]]
        lines = [
            f"discharge sweep P({n},2) cap={cap}: {sweep.labelings_checked} labelings, "
            f"{sweep.identity_failures} identity failures, "
            f"{sweep.charge_floor_failures} charge-floor failures"
        ]
    elif args.target == "findings":
        cap = args.weight_cap
        if args.enumerate_optimal:
            cap = solve_dp(n, 2, "italian").optimum
        sweep = audit.sweep_findings(n, weight_cap=cap)
        ok = sweep.ok
        header = ["n", "finding", "hypotheses", "violations"]
        rows = [
            [n, i, sweep.hypothesis_counts[i], sweep.violation_counts[i]]
            for i in range(1, 9)
        ]
        lines = [
            f"findings sweep P({n},2) cap={cap}: {sweep.labelings_checked} valid IDFs, "
            f"violations {sum(sweep.violation_counts.values())}"
        ]
    elif args.target == "bagging":
        target_w = None
        if args.weight_cap is not None:
            target_w = args.weight_cap
        sweep = audit.sweep_bagging(n, optimal_weight=target_w)
        ok = sweep.ok
        header = ["n", "labelings", "inconsistent", "wrong_bound", "conflicts"]
        rows = [[n, sweep.labelings_checked, sweep.inconsistent, sweep.wrong_bound,
                 sweep.conflict_count]]
        lines = [
            f"bagging sweep P({n},1): {sweep.labelings_checked} optimal IDFs, "
            f"{sweep.inconsistent} inconsistent, {sweep.wrong_bound} with bound != n"
        ]
    elif args.target == "column-lemma":
        if args.labeling:
            rep = audit.check_column_lemma(_load_labeling(args.labeling))
            ok = rep.holds
            lines = [f"column lemma: holds={rep.holds} counterexamples={list(rep.counterexamples)}"]
            header = ["n", "holds", "counterexamples"]
            rows = [[n, rep.holds, len(rep.counterexamples)]]
        else:
            sweep = audit.sweep_column_lemma(n, weight_cap=args.weight_cap)
            ok = sweep.ok
            header = ["n", "labelings", "counterexamples"]
            rows = [[n, sweep.labelings_checked, sweep.counterexamples]]
            lines = [
                f"column lemma sweep P({n},1): {sweep.labelings_checked} valid IDFs, "
                f"{sweep.counterexamples} counterexamples"
            ]
    else:  # pragma: no cover - argparse restricts choices
        raise GpidError(f"unknown audit target {args.target}")
    if args.format == "csv":
        _emit(args.out, _csv_text(header, rows))
    elif args.format == "json":
        _emit(args.out, json.dumps({"rows": rows, "header": header, "ok": ok},
                                   indent=2, sort_keys=True) + "\n")
    else:
        _emit(args.out, "\n".join(lines) + "\n")
    return EXIT_OK if ok else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# render


def cmd_render(args) -> int:
    if args.infile:
        with open(args.infile) as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    if args.from_matrix:
        if args.n is None or args.k is None:
            sys.stderr.write("--from-matrix requires --n and --k\n")
            return EXIT_USAGE
        f = parse_matrix(text, _parse_int(args.n, "--n"), _parse_int(args.k, "--k"))
        _emit(args.out, labeling_to_json(f) + "\n")
    else:
        f = labeling_from_json(text)
        _emit(args.out, render_matrix(f) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify-theorems


def cmd_verify(args) -> int:
    results = checks.run_checks(
        only=args.only or None, n_max=args.n_max, k_max=args.k_max
    )
    all_ok = all(r.ok for r, _ in results)
    if args.format == "json":
        payload = [
            {
                "check": r.check_id,
                "ok": r.ok,
                "instances": r.instances,
                "detail": r.detail,
            }
            for r, _ in results
        ]
        _emit(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    elif args.format == "csv":
        header = ["check", "status", "instances", "detail"]
        rows = [
            [r.check_id, "pass" if r.ok else "FAIL", r.instances, r.detail]
            for r, _ in results
        ]
        _emit(args.out, _csv_text(header, rows))
    else:
        width = max(len(r.check_id) for r, _ in results)
        lines = []
        for r, _ in results:
            mark = "✓" if r.ok else "✗"
            lines.append(f"{mark} {r.check_id:<{width}}  [{r.instances:>6} checks]  {r.detail}")
        lines.append("all checks passed" if all_ok else "SOME CHECKS FAILED")
        _emit(args.out, "\n".join(lines) + "\n")
    for r, elapsed in results:
        sys.stderr.write(f"# {r.check_id}: {elapsed:.2f}s\n")
    return EXIT_OK if all_ok else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# parser


@cache  # built on the first `main` call, not at import; reused by later calls
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpid",
        description="Italian domination on generalized Petersen graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_value = sub.add_parser("value", help="invariant values over (n, k) ranges")
    p_value.add_argument("--n", default=None, help="n or inclusive range a..b")
    p_value.add_argument("--n-range", dest="n_range", default=None)
    p_value.add_argument("--k", default="1", help="k or inclusive range a..b")
    p_value.add_argument("--k-range", dest="k_range", default=None)
    p_value.add_argument("--invariant", default="italian", choices=list(KINDS))
    p_value.add_argument("--method", default="auto",
                         choices=["auto", "formula", "dp", "exhaustive", "bnb"])
    p_value.add_argument("--mod", default=None, help="keep n with n %% m == r, as m=r")
    p_value.add_argument("--budget", type=int, default=200_000)
    p_value.add_argument("--format", default="text", choices=["text", "json", "csv"])
    p_value.add_argument("--out", default=None)
    p_value.set_defaults(fn=cmd_value)

    p_con = sub.add_parser("construct", help="emit an explicit IDF pattern")
    p_con.add_argument("--n", required=True)
    p_con.add_argument("--k", required=True)
    p_con.add_argument("--format", default="text", choices=["text", "json"])
    p_con.add_argument("--out", default=None)
    p_con.set_defaults(fn=cmd_construct)

    p_solve = sub.add_parser("solve", help="run one exact solver instance")
    p_solve.add_argument("--n", required=True)
    p_solve.add_argument("--k", required=True)
    p_solve.add_argument("--invariant", default="italian", choices=list(KINDS))
    p_solve.add_argument("--method", default="dp",
                         choices=["dp", "exhaustive", "bnb"])
    p_solve.add_argument("--budget", type=int, default=200_000)
    p_solve.add_argument("--format", default="text", choices=["text", "json"])
    p_solve.add_argument("--out", default=None)
    p_solve.set_defaults(fn=cmd_solve)

    p_audit = sub.add_parser("audit", help="run certificate sweeps")
    p_audit.add_argument("target",
                         choices=["discharge", "findings", "bagging", "column-lemma"])
    p_audit.add_argument("--n", required=True)
    p_audit.add_argument("--k", default=None, help="implied by the audit target")
    p_audit.add_argument("--enumerate-optimal", action="store_true")
    p_audit.add_argument("--weight-cap", type=int, default=None)
    p_audit.add_argument("--labeling", default=None, help="labeling JSON file")
    p_audit.add_argument("--format", default="text", choices=["text", "json", "csv"])
    p_audit.add_argument("--out", default=None)
    p_audit.set_defaults(fn=cmd_audit)

    p_render = sub.add_parser("render", help="labeling JSON <-> matrix text")
    p_render.add_argument("--in", dest="infile", default=None)
    p_render.add_argument("--from-matrix", action="store_true")
    p_render.add_argument("--n", default=None)
    p_render.add_argument("--k", default=None)
    p_render.add_argument("--out", default=None)
    p_render.set_defaults(fn=cmd_render)

    p_ver = sub.add_parser("verify-theorems", help="run the named checks")
    p_ver.add_argument("--only", action="append", default=None,
                       help=f"check id, repeatable; known: {', '.join(checks.CHECKS)}")
    p_ver.add_argument("--n-max", type=int, default=None,
                       help=f"largest n for: {', '.join(checks.checks_taking('n_max'))}")
    p_ver.add_argument("--k-max", type=int, default=None,
                       help=f"largest k for: {', '.join(checks.checks_taking('k_max'))}")
    p_ver.add_argument("--format", default="text", choices=["text", "json", "csv"])
    p_ver.add_argument("--out", default=None)
    p_ver.set_defaults(fn=cmd_verify)
    return parser


def _check_bounds(args) -> None:
    if getattr(args, "budget", 1) < 1:
        raise InvalidParameters(f"--budget must be at least 1, got {args.budget}")
    cap = getattr(args, "weight_cap", None)
    if cap is not None and cap < 0:
        raise InvalidParameters(f"--weight-cap must be >= 0, got {cap}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "value" and not (args.n or args.n_range):
        parser.error("value requires --n or --n-range")
    try:
        _check_bounds(args)
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
