#!/usr/bin/env python3
"""Benchmark harness of gpid.

    python3 perfbench/run.py --workload dp-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one table each

A run repeats its workload for about `--seconds` seconds.  Each
repetition is a fresh child Python process (perfbench/child.py) that
drives the public CLI in-process, one `gpid.cli.main([...])` call per
CLI invocation, so caches start cold as in a user's run.  One child
runs at a time, with GPID_THREADS and every PYTHON* variable removed
from its environment.  Every output is checked against the pinned
references in perfbench/refs.json.

The last line of stdout is one JSON object: `correct`, `attempted`,
`failed` and `metrics`.  With `--trace 0` the metrics are the end-to-end
ones, from medians over the run's repetitions, with the times of
pure-Python calls scaled to a reference interpreter speed (see `run_rep`); with `--trace 1` the run
alternates plain and traced repetitions and reports the per-layer
metrics of perfbench/layers.py, plus the tracing overhead.
perfbench/README.md describes the workloads and metrics.

Exit codes: 0 when every output that was produced is correct (crashes
are counted in `failed`, not here), 1 when an output disagrees with its
reference, 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from statistics import median

from check import verify
from layers import PER_LAYER, layer_metrics
from workloads import WORKLOADS, instances

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
REFS = HERE / "refs.json"

# (name, unit, better) of every end-to-end metric.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_frac", "ratio", "higher"),
    ("bound_span", "count", "lower"),
)

SETUP_PROBES = 2  # import-only children per repetition of an untraced run
CHILD_TIMEOUT_S = 150
# Scaled times are in units of this many seconds per speed probe, about
# the probe's median time on a shared 2-core virtual machine.
PROBE_REF_S = 5e-4
# Operations whose time is mostly interpreted Python, which the speed
# probe tracks.  The numpy code of exhaustive search and of the audit
# sweeps slows down differently under load (scaling it raised the spread
# of audit runs from 1 % to 14 %), so those calls keep their raw times.
SCALED_OPS = frozenset({"dp", "bnb", "construct"})


class BenchError(Exception):
    """The benchmark cannot run (missing program, broken child)."""


def child_env() -> tuple[dict, list[str]]:
    """The scrubbed child environment and the names removed from it."""
    removed = sorted(name for name in os.environ
                     if name == "GPID_THREADS" or name.startswith("PYTHON"))
    env = {name: value for name, value in os.environ.items() if name not in removed}
    env["PYTHONHASHSEED"] = "0"
    return env, removed


def spawn_child(args: list[str], job: dict | None) -> dict:
    """Run child.py with `args`, feed it `job`, and return its report."""
    env, _ = child_env()
    spawned_at = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), *args], cwd=ROOT, env=env, text=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        out, err = proc.communicate(json.dumps(job) if job else "", timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child exceeded {CHILD_TIMEOUT_S} s") from None
    finally:
        if proc.poll() is None:  # timed out or interrupted: leave no child behind
            proc.kill()
            proc.communicate()
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"child exited with code {proc.returncode}: {err.strip()[-2000:]}")
    report = json.loads(out.splitlines()[-1])
    report["setup_s"] = report["ready_at"] - spawned_at
    return report


def run_rep(insts, refs: dict, trace: bool) -> dict:
    """One repetition in a fresh child: its measurements and checked outcomes.

    The times of a call of SCALED_OPS are multiplied by PROBE_REF_S over
    the mean of the two speed probes around the call, which removes most
    of the slow-down that other tenants of a shared machine cause while
    the call runs.
    """
    calls = [[inst.id, list(argv)] for inst in insts for argv in inst.calls]
    report = spawn_child([], {"calls": calls, "trace": trace})
    probes = report.pop("probes")
    results = iter(zip(report.pop("results"), probes, probes[1:]))
    for key in ("outcomes", "wall", "cpu", "raw_wall"):
        report[key] = []
    for inst in insts:
        done = [next(results) for _ in inst.calls]
        outputs = [out for out, _, _ in done]
        scales = [2 * PROBE_REF_S / (before + after) if inst.op in SCALED_OPS else 1.0
                  for _, before, after in done]
        report["outcomes"].append(verify(inst, outputs, refs))
        report["wall"].append(sum(out["wall_s"] * f for out, f in zip(outputs, scales)))
        report["cpu"].append(sum(out["cpu_s"] * f for out, f in zip(outputs, scales)))
        report["raw_wall"].append(sum(out["wall_s"] for out in outputs))
    return report


def _list_time(reps: list[dict], key: str) -> float:
    """Time of the whole instance list: the sum over instances of each
    instance's median over the repetitions.  Load bursts from outside
    the benchmark last about a second, so they hit an instance in few
    repetitions and drop out of its median."""
    return sum(median(times) for times in zip(*(rep[key] for rep in reps)))


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 refs: dict, insts=None) -> dict:
    """Repeat one workload for about `seconds` and summarise it."""
    insts = instances(name, seed) if insts is None else insts
    started = time.monotonic()
    setups, plain, traced = [], [], []
    while True:
        if trace:
            traced.append(run_rep(insts, refs, trace=True))
        else:
            setups += [spawn_child(["--setup-only"], None) for _ in range(SETUP_PROBES)]
        plain.append(run_rep(insts, refs, trace=False))
        elapsed = time.monotonic() - started
        if elapsed * (1 + 1 / len(plain)) > seconds:
            break
    reps = plain + traced
    outcomes = [outcome for rep in reps for outcome in rep["outcomes"]]
    failed = [o for o in outcomes if o.status != "ok"]
    summary = {
        "workload": name,
        "repetitions": len(reps),
        "instances": len(insts),
        "attempted": len(outcomes),
        "failed": len(failed),
        "wrong": sum(o.status == "wrong" for o in outcomes),
        "fail_frac": len(failed) / len(outcomes),
        "bound_gap": median([sum(o.gap for o in rep["outcomes"]) for rep in reps]),
        "failures": sorted({f"{inst.id}: {o.status}: {o.detail}"
                            for rep in reps
                            for inst, o in zip(insts, rep["outcomes"]) if o.status != "ok"}),
    }
    if trace:
        per_rep = [layer_metrics(rep["spans"], rep["graph_cache"]) for rep in traced]
        metrics = {metric: median([m[metric] for m in per_rep]) for metric in per_rep[0]}
        metrics["trace.overhead_s"] = (_list_time(traced, "raw_wall")
                                       - _list_time(plain, "raw_wall"))
        units = {metric: unit for metric, unit, _ in PER_LAYER}
    else:
        metrics = {
            "setup_s": median([rep["setup_s"] for rep in setups + plain]),
            "wall_s": _list_time(plain, "wall"),
            "cpu_s": _list_time(plain, "cpu"),
            "peak_rss_mb": median([rep["peak_rss_mb"] for rep in plain]),
            "ok_frac": 1 - summary["fail_frac"],
            "bound_span": median([sum(o.gap + 1 for o in rep["outcomes"])
                                   for rep in plain]),
        }
        units = {metric: unit for metric, unit, _ in END_TO_END}
        summary["raw_wall_s"] = _list_time(plain, "raw_wall")
    summary["metrics"] = {metric: {"value": value, "unit": units[metric]}
                          for metric, value in metrics.items()}
    return summary


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def environment(seed: int) -> dict:
    _, removed = child_env()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "commit": git_commit(),
        "seed": seed,
        "child_env": {"removed": removed, "set": {"PYTHONHASHSEED": "0"}},
    }


def load_refs() -> dict:
    if not (ROOT / "src" / "gpid" / "cli.py").is_file():
        raise BenchError(f"gpid sources not found under {ROOT / 'src'}")
    try:
        return json.loads(REFS.read_text())["instances"]
    except (OSError, ValueError, KeyError) as error:
        raise BenchError(f"cannot read references {REFS}: {error}") from None


def _print_summary(summary: dict) -> None:
    print(f"== {summary['workload']}: {summary['instances']} instances x "
          f"{summary['repetitions']} repetitions")
    for metric, entry in summary["metrics"].items():
        print(f"  {metric:<32} {entry['value']:>14.6g} {entry['unit']}")
    if "raw_wall_s" in summary:
        print(f"  {'raw_wall_s':<32} {summary['raw_wall_s']:>14.6g} s (unscaled)")
    print(f"  {'fail_frac':<32} {summary['fail_frac']:>14.6g} ratio")
    print(f"  {'bound_gap':<32} {summary['bound_gap']:>14.6g} count")
    for line in summary["failures"]:
        print(f"  failed: {line}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        refs = load_refs()
        print("env " + json.dumps(environment(args.seed), sort_keys=True))
        summaries = []
        for name in names:
            summary = run_workload(name, args.seed, args.seconds, bool(args.trace), refs)
            _print_summary(summary)
            summaries.append(summary)
    except BenchError as error:
        print(f"benchmark error: {error}", file=sys.stderr)
        return 2
    results = {
        s["workload"]: {"correct": s["wrong"] == 0, "attempted": s["attempted"],
                        "failed": s["failed"], "metrics": s["metrics"]}
        for s in summaries
    }
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0 if all(s["wrong"] == 0 for s in summaries) else 1


if __name__ == "__main__":
    # Turn SIGTERM into SystemExit so a running child is killed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
