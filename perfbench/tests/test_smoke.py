"""Smoke test of the benchmark at tiny input sizes.

Run from the root of the repository:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}


def test_missing_hook_target_is_reported_unobserved(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(ROOT / "perfbench"))
    try:
        from tracing import LayerStats, Tracer
        from trikernel import gen
    finally:
        del sys.path[:2]
    monkeypatch.delattr(gen, "generate")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert "gen.generate" in tracer.unobserved
    assert LayerStats(tracer, {}).calls["gen.generate"] == 0


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "corpus_allk", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
