"""Tiny-size smoke runs of the benchmark. They check the result schema and
the metric names against BENCHMARK.json, never timings.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ENV_KEYS = {"nproc", "blas", "blas_threads_env", "blas_threads", "python", "numpy", "git_commit", "src_sha256"}


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["train-paper", "train-reduced", "infer-analyze"])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, env_line, result_line = proc.stdout.strip().splitlines()
    assert set(json.loads(env_line)["env"]) == ENV_KEYS
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_run_without_sources_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    proc = run_bench(tmp_path, "train-reduced", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracer_reports_missing_target_as_absent(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import layer_trace

    targets = layer_trace.SPAN_TARGETS + (("tfps.encoder", "no_such_layer", "encoder.gone"),)
    monkeypatch.setattr(layer_trace, "SPAN_TARGETS", targets)
    tracer = layer_trace.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["tfps.encoder.no_such_layer"]
    assert tracer.layer_metrics(per=1)["trace.absent"] == 1.0
