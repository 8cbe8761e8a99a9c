"""Smoke test of the benchmark harness at tiny sizes.

Run from the repository root: python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from seasonal_cusum.intensity import IntensityModel  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_names_match_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOAD_CLASSES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == workloads.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = run.execute(workload, seed=3, seconds=0.0, trace=bool(trace), sizes=workloads.TINY)["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
        if not trace:
            assert m["value"] > 0, name


def test_failed_command_raises_failed_frac():
    # Fewer than 100 replications is rejected by the calibrate command (exit 2).
    sizes = replace(workloads.TINY, qs_cal_reps=10)
    record = run.execute("quickstart", seed=3, seconds=0.0, trace=False, sizes=sizes)
    assert not record["result"]["correct"]
    assert record["checks"]["failed_frac"] > 0
    assert any(f["name"] == "cli calibrate" for f in record["checks"]["failures"])


def test_wrong_detector_output_fails_the_oracle_check(monkeypatch):
    original = IntensityModel.slot_rate
    monkeypatch.setattr(IntensityModel, "slot_rate", lambda self, d, k: original(self, d, k) * 1.001)
    record = run.execute("monitor", seed=3, seconds=0.0, trace=False, sizes=workloads.TINY)
    assert record["result"]["failed"] >= 1
    assert record["checks"]["failed_frac"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "monitor", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
