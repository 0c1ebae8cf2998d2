"""Smoke run of the benchmark: tiny shapes, every named metric emitted.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.01", "--trace", str(trace), "--scale", "smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, kind):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == expected
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and m["value"] == m["value"]


def test_patched_attributes_are_restored():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import tracing

        targets = []
        for module_name, owner_name, attr, _, _ in tracing._PATCHES:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            targets.append((owner, attr, vars(owner)[attr]))
        recorder = tracing.SpanRecorder()
        with tracing.Patcher(recorder) as patcher:
            tracing.install_layer_spans(patcher)
            assert all(vars(owner)[attr] is not raw for owner, attr, raw in targets)
        assert all(vars(owner)[attr] is raw for owner, attr, raw in targets)
    finally:
        del sys.path[:2]
