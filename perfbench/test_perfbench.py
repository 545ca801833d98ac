"""Smoke test of the benchmark itself (seconds, not a timing gate).

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
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
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    return result


def test_benchmark_json_matches_the_code():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert BENCHMARK["per_layer"] == layers.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    for layer in layers.LAYERS:
        assert set(layer["workloads"]) <= set(workloads.WORKLOADS)
        assert set(layer["moves"]) <= set(run.END_TO_END)


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_reports_every_metric_with_its_unit(trace):
    result = _result(_bench("--size", "smoke", "--workload", "all",
                            "--seconds", "1", "--trace", str(trace)))
    expected = ({m: u for m, u in run.END_TO_END.items()} if trace == 0
                else {m["name"]: m["unit"] for m in layers.PER_LAYER})
    metrics = result["metrics"]
    for workload in workloads.WORKLOADS:
        for name, unit in expected.items():
            entry = metrics[f"{workload}.{name}"]
            assert entry["unit"] == unit
            assert isinstance(entry["value"], (int, float))
    if trace == 1:
        # Spans from the sweep's fork workers arrive: every point is counted,
        # and the training steps include the sweep's.
        for workload in workloads.WORKLOADS:
            plan = workloads.plan(workload, "smoke", 0, 2)
            assert metrics[f"{workload}.sweep.points_ok"]["value"] == plan.points
            assert metrics[f"{workload}.model.train.steps"]["value"] == (
                plan.size.train_steps + plan.points * plan.size.sweep_steps)


def test_output_checks_catch_a_bad_artifact(tmp_path):
    plan = workloads.plan("desk", "smoke", 0, 2)
    ops = run.Ops()
    rt = run.round_trip(plan, tmp_path, 0, False, ops,
                        deadline=time.monotonic() + 120, workers=2)
    assert rt.ok and ops.failed == 0 and ops.attempted > len(plan.commands)
    report = tmp_path / "rt0" / "eval" / "report.csv"
    report.write_text(report.read_text().replace("top_k_error,1,", "top_k_error,1,7"))
    (tmp_path / "rt0" / "sweep" / "failures.csv").write_text(
        "point,error\nhxe_0.1_true_seed0,ValueError: boom\n")
    ops = run.Ops()
    run.check_outputs(plan, tmp_path / "rt0", ops)
    assert ops.failures == ["evaluate report in range",
                            "sweep point listed in failures.csv"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "desk", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
