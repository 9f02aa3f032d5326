"""Output checks of the benchmark, independent of `gpid`.

The witness checker rebuilds the adjacency of P(n, k) from the edge rule
and tests the Italian, 2-rainbow and domination conditions itself, so a
bug in `gpid.labeling` cannot hide a wrong witness.

`verify()` judges one instance's captured CLI outputs against its pinned
reference entry and returns an `Outcome`:

* status "ok";
* status "crash": an exception or a non-zero exit code;
* status "wrong": a value, witness, digest, bound or audit count that
  disagrees with the reference, or a missing reference entry.

Exact results have gap 0, bounds results `hi - lo`, failures `2n` (the
gap of the trivial bounds 0..2n).
"""

from __future__ import annotations

import hashlib
import json
from typing import NamedTuple

RAINBOW_WEIGHT = {"0": 0, "1": 1, "2": 1, "12": 2}  # label -> weight


class Outcome(NamedTuple):
    status: str  # ok | crash | wrong
    gap: int
    detail: str


def petersen_adjacency(n: int, k: int) -> list[set[int]]:
    """Neighbour sets of P(n, k): outer ids 2i, inner ids 2i+1."""
    adj = [set() for _ in range(2 * n)]
    for i in range(n):
        for u, v in ((2 * i, 2 * ((i + 1) % n)),          # outer cycle
                     (2 * i, 2 * i + 1),                  # spoke
                     (2 * i + 1, 2 * ((i + k) % n) + 1)):  # inner chord
            adj[u].add(v)
            adj[v].add(u)
    return adj


def witness_weight(kind: str, n: int, k: int, witness: dict) -> int | None:
    """Weight of a valid witness in gpid's JSON form; None if it is invalid."""
    if witness.get("n") != n or witness.get("k") != k:
        return None
    adj = petersen_adjacency(n, k)
    if kind == "domination":
        chosen = set(witness.get("set", ()))
        if not chosen <= set(range(2 * n)):
            return None
        ok = all(v in chosen or adj[v] & chosen for v in range(2 * n))
        return len(chosen) if ok else None
    values = witness.get("values", ())
    if len(values) != 2 * n:
        return None
    if kind == "italian":
        if any(value not in (0, 1, 2) for value in values):
            return None
        ok = all(values[v] or sum(values[u] for u in adj[v]) >= 2 for v in range(2 * n))
        return sum(values) if ok else None
    if any(value not in RAINBOW_WEIGHT for value in values):
        return None
    colours = [set(value) - {"0"} for value in values]
    ok = all(colours[v] or set().union(*(colours[u] for u in adj[v])) == {"1", "2"}
             for v in range(2 * n))
    return sum(RAINBOW_WEIGHT[value] for value in values) if ok else None


def digest(witness: dict) -> str:
    """Short stable digest of a witness's JSON form."""
    text = json.dumps(witness, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class _Wrong(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise _Wrong(message)


def _checked_witness(kind: str, n: int, k: int, witness: dict, weight: int) -> None:
    got = witness_weight(kind, n, k, witness)
    _require(got is not None, "witness rejected by the independent checker")
    _require(got == weight, f"witness weight {got} != reported {weight}")


def _exact(inst, payload: dict, ref: dict) -> int:
    value = payload["optimum"]
    _require(value == ref["value"], f"value {value} != reference {ref['value']}")
    _checked_witness(inst.kind, inst.n, inst.k, payload["witness"], value)
    _require(digest(payload["witness"]) == ref["digest"],
             "witness is not the pinned lexicographically smallest one")
    return value


def _bounds(inst, payload: dict, ref: dict) -> int:
    if "optimum" in payload:
        lo = hi = payload["optimum"]
        witness = payload["witness"]
    else:
        lo, hi, witness = payload["lo"], payload["hi"], payload["incumbent"]
    _checked_witness(inst.kind, inst.n, inst.k, witness, hi)
    truth_lo, truth_hi = ref["truth"]
    _require(lo <= hi, f"empty bounds [{lo}, {hi}]")
    _require(lo <= truth_hi and truth_lo <= hi,
             f"bounds [{lo}, {hi}] exclude the reference [{truth_lo}, {truth_hi}]")
    return hi - lo


def _judge(inst, outputs: list[dict], ref: dict) -> int:
    payloads = [json.loads(out["stdout"]) for out in outputs]
    if inst.op in ("dp", "exhaustive"):
        value = _exact(inst, payloads[0], ref)
        if inst.op == "dp":
            (row,) = payloads[1]
            _require(row["kind"] == "exact" and row["value"] == value,
                     f"value --method auto gave {row['value']} ({row['kind']}), "
                     f"solve --method dp gave {value}")
        return 0
    if inst.op == "bnb":
        return _bounds(inst, payloads[0], ref)
    if inst.op == "construct":
        result = payloads[0]
        weight = result["actual_weight"]
        _require(result["valid"], "construction reported invalid")
        _require(weight == ref["weight"], f"weight {weight} != reference {ref['weight']}")
        _checked_witness("italian", inst.n, inst.k, result["labeling"], weight)
        return 0
    result = payloads[0]  # audit
    _require(result["ok"], "audit sweep reported a violation")
    _require(result["rows"] == ref["rows"], f"rows {result['rows']} != reference {ref['rows']}")
    return 0


def verify(inst, outputs: list[dict], refs: dict) -> Outcome:
    """Judge one instance's outputs (one dict per CLI call) against `refs`."""
    failed_gap = 2 * inst.n
    for out in outputs:
        if out["exc"] is not None or out["rc"] != 0:
            detail = out["exc"] or f"exit code {out['rc']}: {out['stderr'].strip()}"
            return Outcome("crash", failed_gap, detail)
    ref = refs.get(inst.id)
    if ref is None:
        return Outcome("wrong", failed_gap, "no reference entry")
    try:
        return Outcome("ok", _judge(inst, outputs, ref), "")
    except _Wrong as wrong:
        return Outcome("wrong", failed_gap, str(wrong))
    except (KeyError, TypeError, ValueError) as error:  # malformed output
        return Outcome("wrong", failed_gap, f"unreadable output: {error!r}")
