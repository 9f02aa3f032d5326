"""Per-layer tracing of a benchmark repetition.

`Tracer.install()` replaces each layer's public functions at the sites
where other gpid modules look them up (for example `gpid.dp.solve_cycle`,
which `gpid.solver` calls through the module, and `gpid.solver.validate_idf`,
which it imported by name).  No file under `src/` is edited.  Each call
records a span `[name, start, end, parent index, instance id, attrs]`;
spans stay in memory and are handed to the parent process at exit.

`layer_metrics()` turns one repetition's spans into the per-layer
metrics.  A span's self time is its duration minus the durations of its
child spans; calls are single-threaded, so children never overlap.

Which end-to-end metric each layer should move, and on which workload:

    cli            wall_s on dp-sweep (many small calls)
    graph          peak_rss_mb on all workloads, wall_s on exact-search
    labeling       wall_s on exact-search
    formulas       wall_s on dp-sweep (expected not to move)
    constructions  wall_s and bound_span on exact-search
    dp             wall_s, cpu_s and peak_rss_mb on dp-sweep
    exhaustive     wall_s on exact-search (min_s); wall_s on audit (enum_s)
    audit          wall_s on audit
    solver         bound_span and wall_s on exact-search
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

AUDIT_TARGETS = ("discharge", "findings", "bagging", "column-lemma")
KINDS = ("italian", "domination", "rainbow2")

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("cli.calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("graph.builds", "count", "lower"),
    ("graph.build_s", "s", "lower"),
    ("graph.cache_hit_ratio", "ratio", "higher"),
    ("labeling.validations", "count", "lower"),
    ("labeling.validate_s", "s", "lower"),
    ("labeling.vertices_per_s", "1/s", "higher"),
    ("formulas.calls", "count", "lower"),
    ("formulas.eval_s", "s", "lower"),
    ("formulas.exact_ratio", "ratio", "higher"),
    ("constructions.calls", "count", "lower"),
    ("constructions.build_s", "s", "lower"),
    ("constructions.valid_ratio", "ratio", "higher"),
    ("dp.calls", "count", "lower"),
    ("dp.solve_s", "s", "lower"),
    *((f"dp.solve_s.{kind}", "s", "lower") for kind in KINDS),
    ("dp.states", "count", "lower"),
    ("dp.states_per_s", "1/s", "higher"),
    ("dp.seams", "count", "lower"),
    ("exhaustive.min_s", "s", "lower"),
    ("exhaustive.candidates", "count", "lower"),
    ("exhaustive.candidates_per_s", "1/s", "higher"),
    ("exhaustive.enum_s", "s", "lower"),
    ("exhaustive.rows_yielded", "count", "lower"),
    ("audit.sweep_s", "s", "lower"),
    *((f"audit.sweep_s.{target}", "s", "lower") for target in AUDIT_TARGETS),
    ("audit.labelings", "count", "higher"),
    ("audit.labelings_per_s", "1/s", "higher"),
    ("audit.kernel_s", "s", "lower"),
    ("solver.bnb_s", "s", "lower"),
    ("solver.bnb_nodes", "count", "lower"),
    ("solver.bnb_nodes_per_s", "1/s", "higher"),
    ("solver.bnb_exact_ratio", "ratio", "higher"),
    ("solver.overhead_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _labeling_attrs(args, result):
    return {"vertices": len(args[0].values)}


def _dominating_attrs(args, result):
    return {"vertices": args[0].num_vertices}


def _dp_attrs(args, result):
    from gpid.dp import ALGEBRAS

    _, k, kind = args[:3]
    return {"kind": kind, "states": result[2],
            "seams": len(ALGEBRAS[kind].labels) ** (k + 1)}


def _audit_attrs(target):
    return lambda args, result: {"target": target, "labelings": result.labelings_checked}


# (module, attribute, span name, attrs from (args, result) or None)
_SITES = (
    ("gpid.cli", "main", "cli", None),
    *((module, "build_petersen", "graph", None)
      for module in ("gpid.cli", "gpid.solver", "gpid.labeling", "gpid.audit")),
    ("gpid.solver", "validate_idf", "labeling", _labeling_attrs),
    ("gpid.solver", "validate_2rdf", "labeling", _labeling_attrs),
    ("gpid.solver", "validate_dominating", "labeling", _dominating_attrs),
    ("gpid.constructions", "validate_idf", "labeling", _labeling_attrs),
    *(("gpid.cli", f"construct_{family}", "constructions",
       lambda args, result: {"valid": bool(getattr(result, "valid", False))})
      for family in ("pn1", "pn2", "pnk")),
    ("gpid.dp", "solve_cycle", "dp", _dp_attrs),
    ("gpid.exhaustive", "exhaustive_minimum", "exhaustive.min",
     lambda args, result: {"candidates": result[2]}),
    *(("gpid.audit", f"sweep_{target.replace('-', '_')}", "audit.sweep",
       _audit_attrs(target)) for target in AUDIT_TARGETS),
    ("gpid.cli", "solve_dp", "solver.dp", None),
    ("gpid.cli", "solve_exhaustive", "solver.exhaustive", None),
    ("gpid.cli", "solve_branch_and_bound", "solver.bnb",
     lambda args, result: {"nodes": result.explored, "exact": hasattr(result, "optimum")}),
)


class Tracer:
    """Records spans around the wrapped layer functions of one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.instance: str | None = None
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.instance, {}])
        self._stack.append(index)
        return index

    def _close(self, index: int, attrs: dict) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[5].update(attrs)
        self._stack.pop()

    def _wrap(self, name, fn, describe):
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as error:
                self._close(index, {"error": type(error).__name__})
                raise
            self._close(index, describe(args, result) if describe else {})
            return result

        return traced

    def _wrap_generator(self, name, fn):
        # Times each step of the generator, not the consumer's loop body.
        def traced(*args, **kwargs):
            blocks = fn(*args, **kwargs)
            while True:
                index = self._open(name)
                try:
                    block = next(blocks)
                except StopIteration:
                    self._close(index, {"rows": 0})
                    return
                except BaseException as error:
                    self._close(index, {"error": type(error).__name__})
                    raise
                self._close(index, {"rows": int(block.shape[0])})
                yield block

        return traced

    def install(self) -> None:
        for module_name, attr, name, describe in _SITES:
            module = importlib.import_module(module_name)
            setattr(module, attr, self._wrap(name, getattr(module, attr), describe))
        exhaustive = importlib.import_module("gpid.exhaustive")
        exhaustive.iter_valid_labelings = self._wrap_generator(
            "exhaustive.enum", exhaustive.iter_valid_labelings)
        # `value` reaches the formulas through this table, not by name.
        formulas = importlib.import_module("gpid.cli")._FORMULAS
        for kind, fn in formulas.items():
            formulas[kind] = self._wrap(
                "formulas", fn, lambda args, result: {"exact": result.kind == "exact"})

    @staticmethod
    def graph_cache_info() -> dict:
        info = importlib.import_module("gpid.graph").build_petersen.cache_info()
        return {"hits": info.hits, "misses": info.misses}


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list[list], graph_cache: dict) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (without trace.overhead_s)."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    total = defaultdict(float)  # span name -> summed duration
    own = defaultdict(float)  # span name -> summed self time
    calls = defaultdict(int)
    counts = defaultdict(int)  # "<span name>.<attr>" -> summed count attr
    for index, (name, start, end, _, _, attrs) in enumerate(spans):
        total[name] += end - start
        own[name] += end - start - covered[index]
        calls[name] += 1
        for key, value in attrs.items():
            if key in ("kind", "target"):  # a label: split the duration by it
                total[f"{name}.{value}"] += end - start
            elif key != "error":
                counts[f"{name}.{key}"] += value
    lookups = graph_cache["hits"] + graph_cache["misses"]
    return {
        "cli.calls": calls["cli"],
        "cli.self_s": own["cli"],
        "graph.builds": graph_cache["misses"],
        "graph.build_s": total["graph"],
        "graph.cache_hit_ratio": _rate(graph_cache["hits"], lookups),
        "labeling.validations": calls["labeling"],
        "labeling.validate_s": total["labeling"],
        "labeling.vertices_per_s": _rate(counts["labeling.vertices"], total["labeling"]),
        "formulas.calls": calls["formulas"],
        "formulas.eval_s": total["formulas"],
        "formulas.exact_ratio": _rate(counts["formulas.exact"], calls["formulas"]),
        "constructions.calls": calls["constructions"],
        "constructions.build_s": total["constructions"],
        "constructions.valid_ratio": _rate(counts["constructions.valid"],
                                           calls["constructions"]),
        "dp.calls": calls["dp"],
        "dp.solve_s": total["dp"],
        **{f"dp.solve_s.{kind}": total[f"dp.{kind}"] for kind in KINDS},
        "dp.states": counts["dp.states"],
        "dp.states_per_s": _rate(counts["dp.states"], total["dp"]),
        "dp.seams": counts["dp.seams"],
        "exhaustive.min_s": total["exhaustive.min"],
        "exhaustive.candidates": counts["exhaustive.min.candidates"],
        "exhaustive.candidates_per_s": _rate(counts["exhaustive.min.candidates"],
                                             total["exhaustive.min"]),
        "exhaustive.enum_s": total["exhaustive.enum"],
        "exhaustive.rows_yielded": counts["exhaustive.enum.rows"],
        "audit.sweep_s": total["audit.sweep"],
        **{f"audit.sweep_s.{target}": total[f"audit.sweep.{target}"]
           for target in AUDIT_TARGETS},
        "audit.labelings": counts["audit.sweep.labelings"],
        "audit.labelings_per_s": _rate(counts["audit.sweep.labelings"],
                                       total["audit.sweep"]),
        "audit.kernel_s": total["audit.sweep"] - total["exhaustive.enum"],
        "solver.bnb_s": total["solver.bnb"],
        "solver.bnb_nodes": counts["solver.bnb.nodes"],
        "solver.bnb_nodes_per_s": _rate(counts["solver.bnb.nodes"], total["solver.bnb"]),
        "solver.bnb_exact_ratio": _rate(counts["solver.bnb.exact"], calls["solver.bnb"]),
        "solver.overhead_s": own["solver.dp"] + own["solver.exhaustive"],
    }
