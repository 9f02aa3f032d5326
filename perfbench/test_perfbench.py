"""Tests of the benchmark itself: tiny workload slices, the metric
contract of BENCHMARK.json, the output checks and the failure paths.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from check import witness_weight
from layers import PER_LAYER
from workloads import WORKLOADS, instances

ROOT = Path(__file__).resolve().parent.parent

# A few cheap instances of each workload, by id.
SLICES = {
    "dp-sweep": ("dp/italian/P(5,1)", "dp/domination/P(7,3)", "dp/rainbow2/P(6,2)"),
    "exact-search": ("exhaustive/domination/P(6,2)", "bnb/italian/P(9,4)",
                     "bnb/domination/P(11,5)", "construct/italian/P(600,4)"),
    "audit": ("audit/column-lemma/P(6,1)", "audit/bagging/P(6,1)"),
}


def _slice(workload: str):
    wanted = SLICES[workload]
    return [inst for inst in instances(workload) if inst.id in wanted]


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        *run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [*PER_LAYER]


def test_seed_permutes_instances_only():
    for workload in WORKLOADS:
        first, second = instances(workload, 1), instances(workload, 2)
        assert first != second
        assert sorted(first) == sorted(second) == sorted(instances(workload))


def test_every_instance_has_a_reference():
    refs = run.load_refs()
    for workload in WORKLOADS:
        assert {inst.id for inst in instances(workload)} <= set(refs)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_slice(workload):
    insts = _slice(workload)
    assert len(insts) == len(SLICES[workload])
    refs = run.load_refs()
    plain = run.run_workload(workload, 0, 0, False, refs, insts)
    assert (plain["failed"], plain["wrong"]) == (0, 0), plain["failures"]
    assert [*plain["metrics"]] == [name for name, _, _ in run.END_TO_END]
    assert all(entry["value"] > 0 for entry in plain["metrics"].values())
    traced = run.run_workload(workload, 0, 0, True, refs, insts)
    assert traced["failed"] == 0
    assert sorted(traced["metrics"]) == sorted(name for name, _, _ in PER_LAYER)
    assert traced["metrics"]["cli.calls"]["value"] == sum(len(i.calls) for i in insts)


def test_known_recursion_defect_is_counted_as_a_failure():
    (inst,) = [i for i in instances("exact-search") if i.id == "bnb/domination/P(600,4)"]
    summary = run.run_workload("exact-search", 0, 0, False, run.load_refs(), [inst])
    assert (summary["failed"], summary["wrong"]) == (1, 0)
    assert summary["bound_gap"] == 2 * 600
    assert summary["metrics"]["bound_span"]["value"] == 2 * 600 + 1


def test_corrupted_reference_fails_the_run(tmp_path, monkeypatch, capsys):
    document = json.loads(run.REFS.read_text())
    document["instances"]["dp/italian/P(5,1)"]["value"] += 1
    corrupted = tmp_path / "refs.json"
    corrupted.write_text(json.dumps(document))
    monkeypatch.setattr(run, "REFS", corrupted)
    monkeypatch.setattr(run, "instances", lambda name, seed: _slice(name))
    code = run.main(["--workload", "dp-sweep", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == 1 and result["metrics"]["ok_frac"]["value"] < 1


def test_witness_checker():
    values = [1, 0, 0, 1, 1, 0, 0, 1, 1, 0]  # the alternating P(5,1) pattern
    witness = {"n": 5, "k": 1, "values": values}
    assert witness_weight("italian", 5, 1, witness) == 5
    assert witness_weight("italian", 5, 1, {**witness, "values": [0] + values[1:]}) is None
    assert witness_weight("italian", 5, 2, witness) is None  # wrong graph
    rainbow = {"n": 5, "k": 1, "values": ["12" if v else "0" for v in values]}
    assert witness_weight("rainbow2", 5, 1, rainbow) == 10
    one_colour = {**rainbow, "values": ["1" if v else "0" for v in values]}
    assert witness_weight("rainbow2", 5, 1, one_colour) is None
    assert witness_weight("domination", 5, 1, {"n": 5, "k": 1, "set": [0, 5, 7]}) == 3
    assert witness_weight("domination", 5, 1, {"n": 5, "k": 1, "set": [0, 5]}) is None


def test_missing_program_exits_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
