"""Tests of the benchmark itself:  python3 -m pytest wqobench -q

They run every workload at test size through the command line, inject a
wrong verdict into each verifier, and check that the deterministic counts
repeat for one seed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import workloads  # noqa: E402
from metrics import E2E_METRICS, LAYER_METRICS  # noqa: E402
from treewqo import default_signature, parse_tree  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCHMARK["workloads"]]


def _run(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / BENCHMARK["command"][1]), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc) -> tuple[list[str], dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_benchmark_json_matches_the_declared_metrics():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(E2E_METRICS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(LAYER_METRICS)
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    lines, result = _result(_run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))
        assert any(line.startswith(f"{m['name']} ") and line.endswith(f" {m['unit']}")
                   for line in lines)
    assert any(line.startswith("error_rate 0 ") for line in lines)
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def _tiny_workload(name: str):
    wl = workloads.WORKLOADS[name](5, workloads.TINY)
    wl.run(time.perf_counter_ns() + 50_000_000)
    return wl


def test_flipped_verdict_drives_error_rate_above_zero():
    online = _tiny_workload("whistle-online")
    assert online.verify()[1] == 0
    whistles, comparisons, raised = online.outcomes["H"][0]
    flipped = workloads.array("i", [p for p in whistles if p != whistles[0]])
    online.outcomes["H"][0] = (flipped, comparisons, raised)
    assert online.verify()[1] > 0

    antichain = _tiny_workload("whistle-antichain")
    assert antichain.verify()[1] == 0
    antichain.outcomes["E"][0][0].append(3)
    assert antichain.verify()[1] > 0

    census = _tiny_workload("census")
    assert census.verify()[1] == 0
    _, _, _, sampled = census.outcomes[0]
    verdicts = sampled[0][2]
    verdicts["H"] = not verdicts["H"]
    assert census.verify()[1] > 0


def _deterministic(lines: list[str], result: dict) -> tuple:
    counts = [line for line in lines if line.startswith("counts: ")]
    exact = {name: entry["value"] for name, entry in result["metrics"].items()
             if name.endswith((".comparisons", "_ratio"))}
    return counts, exact


@pytest.mark.parametrize("workload", NAMES)
def test_counts_repeat_exactly_for_one_seed(workload):
    first = _deterministic(*_result(_run(workload, 1, seed=11)))
    second = _deterministic(*_result(_run(workload, 1, seed=11)))
    assert first[0] and first == second


def test_reference_relations_on_the_worked_example():
    sig = default_signature()
    s = reference.Flat(parse_tree("b(b(a))", sig))
    t = reference.Flat(parse_tree("d(b(a),b(a),b(a))", sig))
    assert reference.relation("E", s, t)
    assert not reference.relation("H", s, t)
    assert reference.relation("H", s, reference.Flat(parse_tree("b(c(b(a),a))", sig)))
    assert reference.relation("P", s, t) and reference.relation("B", s, t)
    assert not reference.relation("Z", s, t) and reference.relation("S", s, t)


def test_fails_without_a_result_when_the_package_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(NAMES[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
