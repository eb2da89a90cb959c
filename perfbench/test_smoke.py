"""Smoke test for the benchmark: every workload at tiny sizes, untraced
and traced, must pass its output checks and print the result line the
benchmark contract asks for. Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _run(workload: str, trace: int, cwd: str = ROOT, seed: int = 3):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_result_line(workload, trace):
    result = _result(_run(workload, trace))
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _printed_counts(proc) -> dict:
    """Every count and byte size the run printed, including those only
    some workloads have (such as graphs.node_fits), as {name: value}."""
    assert proc.returncode == 0, proc.stderr
    counts = {}
    for line in proc.stdout.splitlines():
        parts = line.split()
        if len(parts) >= 3 and parts[2] in ("count", "bytes") and not line.startswith("#"):
            counts[parts[0]] = None if parts[1] == "absent" else int(parts[1])
    return counts


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_exact_counts_repeat(workload):
    first = _printed_counts(_run(workload, 1))
    second = _printed_counts(_run(workload, 1))
    declared = {m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes")}
    assert first == second
    assert all(first[name] > 0 for name in declared)
    if workload == "graph-ring":
        assert first["graphs.node_fits"] > 0


def test_fails_without_package_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("graph-ring", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
