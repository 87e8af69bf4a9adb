"""Fast self-test of the benchmark: every workload at toy size, both passes.

    python3 -m pytest perfbench -q

Asserts that the result line names every metric BENCHMARK.json declares,
with its unit, that the toy outputs pass every check, and that the
benchmark fails without printing a result when the sources are missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)
# the gated workloads plus mc_route_d2, which runs but is not gated
WORKLOADS = [w["name"] for w in BENCH["workloads"]] + ["mc_route_d2"]


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric(workload, trace):
    res = _run(RUN, "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--toy")
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, res.stdout
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)) and not isinstance(metric["value"], bool), name


def test_declared_metrics_match_the_code():
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import run
    import tracing

    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCH["per_layer"]} == {
        k: v[:2] for k, v in tracing.LAYER_METRICS.items()
    }


def test_fails_without_sources():
    bare = os.path.join(ROOT, ".perfbench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        res = _run(*BENCH["command"][1:], "--workload", "exact_d3_large", "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
