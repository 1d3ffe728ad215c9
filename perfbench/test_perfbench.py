"""The benchmark's own test: every workload on seed 0 and on a second
seed, end to end and traced.

Run from the repository root (takes a few minutes)::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
SEEDS = (0, 1)
_traced = {}


def _run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    return result


def _check_metrics(result: dict, declared: list) -> None:
    assert list(result["metrics"]) == [metric["name"] for metric in declared]
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert math.isfinite(reported["value"])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end(workload, seed):
    result = _run(workload, seed, trace=0)
    _check_metrics(result, BENCHMARK["end_to_end"])
    for metric in BENCHMARK["end_to_end"]:
        assert result["metrics"][metric["name"]]["value"] > 0


def _traced_metrics(workload: str) -> dict:
    if workload not in _traced:
        result = _run(workload, 0, trace=1)
        _check_metrics(result, BENCHMARK["per_layer"])
        _traced[workload] = {name: metric["value"]
                             for name, metric in result["metrics"].items()}
    return _traced[workload]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_split_adds_up(workload):
    metrics = _traced_metrics(workload)
    shares = [value for name, value in metrics.items()
              if name.endswith(".share")]
    assert sum(shares) == pytest.approx(1.0, abs=1e-9)
    assert metrics["unattributed.share"] >= 0.0
    assert metrics["trace.overhead_ratio"] > 0.0


def test_layer_predictions():
    """The issue's predictions, as recorded in NOTES.md."""
    layer = {workload: _traced_metrics(workload) for workload in WORKLOADS}
    assert layer["catalog"]["repo.share"] > layer["flashcrowd"]["repo.share"]
    for workload in WORKLOADS:
        exercised = {
            "journal.share": workload == "catalog-churn",
            "mrq.share": workload == "mrq",
            "relational.share": workload == "mrq",
            "sql.share": workload == "mrq",
            "obs.share": workload == "flashcrowd",
        }
        for name, expected in exercised.items():
            assert (layer[workload][name] > 0) == expected, (workload, name)
