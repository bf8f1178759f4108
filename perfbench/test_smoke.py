"""Smoke test of the benchmark runner at n = 4 and 5; runs in seconds.

    python3 -m pytest -q perfbench/test_smoke.py

Checks the result schema against BENCHMARK.json, the exact per-layer counts
the benchmark promises, and that the correctness gate catches a changed
artifact.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads((HERE / "reference.json").read_text())


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


@pytest.mark.parametrize(
    "workload,trace",
    [("pipeline-n4", 0), ("pipeline-n5", 1), ("skeletons-n5", 0), ("skeletons-n5", 1),
     ("hypertri-n5", 0), ("hypertri-n5", 1)],
)
def test_result_schema_and_gate(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= len(workloads.plan(workloads.parse_workload(workload)))
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)
        return

    layers = {name: got["value"] for name, got in result["metrics"].items()}
    spec = workloads.parse_workload(workload)
    ref = REFERENCE[str(spec.n)]
    assert layers["flipgraph.nodes"] == ref["nodes"]
    assert layers["flipgraph.edges"] == ref["edges"]
    if spec.family == "pipeline":
        # enumerate, classify, diameters, n-2 hypertri stages, chains, potential
        assert layers["flipgraph.enumerations_per_config"] == spec.n + 3
        assert layers["regularity.verdicts_per_tiling"] == 2.0
    if spec.family == "skeletons":
        all_classes = sum(sum(pair) for pair in ref["classes"].values())
        assert layers["flipgraph.bfs_sweeps"] == all_classes
        assert layers["secondary.classes"] == all_classes
        assert layers["regularity.verdicts"] == 0
    if spec.family == "hypertri":
        assert layers["hypertri.reduced_paths"] == ref["classes"][str(spec.hypertri_k)][1]
        assert layers["regularity.verdicts"] == 0


def test_check_catches_changed_artifacts(tmp_path):
    spec = workloads.parse_workload("pipeline-n4")
    configs = workloads.make_inputs(spec, seed=7)
    outcome = workloads.run_flow(spec, configs, tmp_path)
    assert workloads.check(spec, configs, outcome, tmp_path, REFERENCE) == set()

    graph = tmp_path / "std" / "graph_n4.json"
    graph.write_text(graph.read_text() + " ")
    chains = tmp_path / "seeded" / "chains_n4.json"
    data = json.loads(chains.read_text())
    data["samples"] += 1
    chains.write_text(json.dumps(data))
    (tmp_path / "seeded" / "potential_n4_ref0.json").unlink()
    outcome["exit"]["seeded.classify"] = 1
    assert workloads.check(spec, configs, outcome, tmp_path, REFERENCE) == {
        "std.graph_n4.json.digest",
        "seeded.chains_n4.json.digest",
        "seeded.potential_n4_ref0.json.digest",
        "seeded.classify.exit",
    }


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("pipeline-n4", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
