"""Smoke test of the benchmark at reduced size.

Every metric is emitted, with its unit, for each workload it is listed under,
and every output check passes.  Run with::

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

UNITS = {
    "setup_s": "s", "train_s": "s", "train_samples_per_s": "1/s", "test_mse_hybrid": "mse",
    "predict_s": "s", "windows_per_s": "1/s", "compare_s": "s", "gen_data_s": "s",
    "train_linear_s": "s", "evaluate_s": "s", "test_mse_linear": "mse", "peak_rss_mb": "MB",
    "error_rate": "ratio",
}
NAMED = {
    "train_hybrid": ("setup_s", "train_s", "train_samples_per_s", "test_mse_hybrid",
                     "peak_rss_mb", "error_rate"),
    "score_history": ("setup_s", "predict_s", "windows_per_s", "compare_s", "peak_rss_mb",
                      "error_rate"),
    "ingest_linear": ("setup_s", "gen_data_s", "train_linear_s", "evaluate_s",
                      "test_mse_linear", "peak_rss_mb", "error_rate"),
}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, cwd: Path = HERE.parent):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


def results(workload: str, trace: int) -> tuple[dict, dict]:
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def test_spec_covers_named_workloads():
    assert sorted(WORKLOADS) == sorted(NAMED)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    detail, result = results(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name in NAMED[workload]:
        assert detail["issue_metrics"][name]["unit"] == UNITS[name], name
        assert detail["end_to_end"][name]["unit"] == UNITS[name], name
    assert detail["end_to_end"]["error_rate"]["value"] == 0
    assert detail["probe"]["n"] > 0
    for name in ("setup_s", "cycle_s"):
        assert detail["normalised"][name]["value"] > 0, name
    env = detail["environment"]
    for key in ("nproc", "cpu_model", "cache_bytes", "python", "numpy", "blas", "git", "seed",
                "working_set_bytes", "last_level_cache_bytes"):
        assert key in env, key


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    detail, result = results(workload, trace=1)
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert 0.5 < metrics["trace.span_coverage"] <= 1.0
    assert "trace.overhead_ratio" in metrics
    assert metrics["cli.main.calls"] >= 2
    layer_calls = [v for k, v in metrics.items() if k.startswith("layers.") and k.endswith(".calls")]
    if workload == "ingest_linear":
        assert not any(layer_calls)
        assert metrics["synth.news_items"] > 0 and metrics["models.linreg_fit.calls"] == 1
    else:
        assert metrics["layers.LSTMCell.forward.calls"] > 0
        assert metrics["models.forward_calls_per_window"] == 1.0
        assert metrics["layers.lstm.forward.macs_per_s"] > 0
    if workload == "train_hybrid":
        assert metrics["training.epochs_run"] >= 1
        assert metrics["layers.LSTMCell.backward.calls"] > 0


def test_fails_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("train_hybrid", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
