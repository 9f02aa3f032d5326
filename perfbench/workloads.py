"""Instance lists of the three benchmark workloads.

Each instance is one unit of user work: one or two `gpid` CLI calls whose
outputs are checked together.  The lists are fixed; the workload seed
only permutes their order, so every seed does the same work.
"""

from __future__ import annotations

import random
from typing import NamedTuple

KINDS = ("italian", "domination", "rainbow2")

# Node budget of every branch-and-bound call.  At about 3.4 us per node a
# budget-limited instance costs about 0.2 s.
BNB_BUDGET = 50_000


class Instance(NamedTuple):
    id: str
    op: str  # dp | exhaustive | bnb | construct | audit
    kind: str  # invariant, or the audit target for op == "audit"
    n: int
    k: int
    calls: tuple[tuple[str, ...], ...]


def _pnk(n: int, k: int) -> tuple[str, ...]:
    return ("--n", str(n), "--k", str(k))


def _solve(op: str, kind: str, n: int, k: int, *extra: str) -> Instance:
    argv = ("solve", *_pnk(n, k), "--invariant", kind, "--method", op,
            *extra, "--format", "json")
    return Instance(f"{op}/{kind}/P({n},{k})", op, kind, n, k, (argv,))


def _dp(kind: str, n: int, k: int) -> Instance:
    solve = _solve("dp", kind, n, k)
    value = ("value", *_pnk(n, k), "--invariant", kind, "--method", "auto",
             "--format", "json")
    return solve._replace(calls=solve.calls + (value,))


def _audit(target: str, n: int, k: int, *extra: str) -> Instance:
    argv = ("audit", target, "--n", str(n), *extra, "--format", "json")
    ident = " ".join((f"audit/{target}/P({n},{k})", *extra))
    return Instance(ident, "audit", target, n, k, (argv,))


def _dp_sweep() -> list[Instance]:
    # Small cycles (closing phase dominates), long cycles (middle phase
    # dominates) and seam-heavy cases: Italian k=3 runs 3^4 = 81 seams,
    # 2-rainbow k=2 and k=3 run 4^3 = 64 and 4^4 = 256 seams.
    pairs = {
        "italian": [(n, 1) for n in range(3, 13)]
        + [(n, 2) for n in range(5, 13)]
        + [(n, 3) for n in range(7, 10)]
        + [(n, 1) for n in (20, 30, 40, 50, 60)]
        + [(n, 2) for n in (20, 30)],
        "domination": [(n, 1) for n in range(3, 13)]
        + [(n, 2) for n in range(5, 13)]
        + [(n, 3) for n in range(7, 13)]
        + [(n, 1) for n in (20, 30, 40, 50, 60)]
        + [(n, 2) for n in (15, 20, 25, 30)]
        + [(n, 3) for n in (15, 20, 25, 30)],
        "rainbow2": [(n, 1) for n in range(3, 13)]
        + [(n, 2) for n in range(5, 8)]
        + [(7, 3)]
        + [(n, 1) for n in (20, 40, 60)],
    }
    return [_dp(kind, n, k) for kind in KINDS for n, k in pairs[kind]]


# k >= 4 instances of branch and bound and the constructions: small ones
# that close exactly within the budget, mid-size ones that end as bounds,
# and P(600,4), where the recursive search of gpid 0.1.0 overflows the
# Python stack for domination and 2-rainbow.
PNK_INSTANCES = ((9, 4), (11, 5), (13, 6), (15, 7), (21, 4), (40, 6), (60, 11), (600, 4))


def _exact_search() -> list[Instance]:
    exhaustive = {
        "italian": ((5, 1), (5, 2), (6, 1), (6, 2), (7, 2)),
        "domination": ((5, 1), (6, 2), (7, 3), (8, 1), (8, 2), (8, 3)),
        "rainbow2": ((5, 1), (5, 2)),
    }
    out = [_solve("exhaustive", kind, n, k) for kind in KINDS for n, k in exhaustive[kind]]
    out += [
        _solve("bnb", kind, n, k, "--budget", str(BNB_BUDGET))
        for kind in KINDS
        for n, k in PNK_INSTANCES
    ]
    out += [
        Instance(f"construct/italian/P({n},{k})", "construct", "italian", n, k,
                 (("construct", *_pnk(n, k), "--format", "json"),))
        for n, k in PNK_INSTANCES
    ]
    return out


def _audit_sweeps() -> list[Instance]:
    return [
        _audit("discharge", 6, 2, "--enumerate-optimal"),
        _audit("discharge", 7, 2, "--enumerate-optimal"),
        _audit("findings", 6, 2),
        _audit("findings", 7, 2, "--weight-cap", "7"),
        _audit("bagging", 6, 1),
        _audit("bagging", 7, 1),
        _audit("column-lemma", 6, 1),
        _audit("column-lemma", 7, 1, "--weight-cap", "8"),
    ]


WORKLOADS = {
    "dp-sweep": _dp_sweep,
    "exact-search": _exact_search,
    "audit": _audit_sweeps,
}


def instances(workload: str, seed: int | None = None) -> list[Instance]:
    """The workload's instances, in an order fixed by `seed` (None: listed order)."""
    out = WORKLOADS[workload]()
    if seed is not None:
        random.Random(seed).shuffle(out)
    return out
