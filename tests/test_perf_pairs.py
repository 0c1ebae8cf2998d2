"""The parent/change pairs runner of the two-clock benchmark.

One smoke pair of the repository against itself runs end to end; the
verdicts are checked on fixed runs.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "benchmarks" / "perf_pairs.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

_spec = importlib.util.spec_from_file_location("perf_pairs", SCRIPT)
perf_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_pairs)


def _runs(**values):
    """One run per index of the given per-metric value lists; metrics not
    named read 1.0."""
    count = len(next(iter(values.values())))
    names = [m["name"] for m in SPEC["end_to_end"]]
    return [
        {"correct": True, "failed": 0,
         "metrics": {name: {"value": values.get(name, [1.0] * count)[k]} for name in names}}
        for k in range(count)
    ]


def test_one_smoke_pair_of_the_repository_against_itself():
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), str(ROOT), str(ROOT), "--workload", "one_big",
         "--seed", "3", "--pairs", "1", "--seconds", "0.01", "--scale", "smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["failures"] == []
    assert set(summary["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(row["pairs"] == 1 for row in summary["metrics"].values())


def test_gain_needs_nine_tenths_of_the_pairs_and_a_gap_wider_than_the_iqr():
    # Parent median 105, quartiles 100 and 110.
    parent = _runs(throughput_rows_per_s=[100] * 5 + [110] * 5)
    verdict = {
        name: perf_pairs.summarize(parent, _runs(throughput_rows_per_s=values))[
            "throughput_rows_per_s"
        ]
        for name, values in (
            ("clear", [120] * 9 + [99]),
            ("short", [120] * 8 + [99] * 2),
            ("narrow", [111] * 10),
        )
    }
    assert verdict["clear"]["wins"] == 9 and verdict["clear"]["gain"]
    assert verdict["short"]["wins"] == 8 and not verdict["short"]["gain"]
    # Every pair won, but by less than the parent's spread.
    assert verdict["narrow"]["wins"] == 10 and not verdict["narrow"]["gain"]


def test_bounds_follow_each_metrics_direction():
    # p50 latency is lower-better with a 25% bound.
    parent = _runs(**{"latency_ms.p50": [100.0] * 4})
    worse = perf_pairs.summarize(parent, _runs(**{"latency_ms.p50": [130.0] * 4}))
    held = perf_pairs.summarize(parent, _runs(**{"latency_ms.p50": [120.0] * 4}))
    assert not worse["latency_ms.p50"]["within_bound"]
    assert held["latency_ms.p50"]["within_bound"]
    assert not held["latency_ms.p50"]["unresolved"]
    spread = _runs(**{"latency_ms.p50": [50.0, 80.0, 120.0, 150.0]})
    assert perf_pairs.summarize(spread, spread)["latency_ms.p50"]["unresolved"]


def test_a_wrong_or_failed_run_is_reported():
    runs = _runs(setup_s=[1.0, 1.0, 1.0])
    runs[1]["correct"] = False
    runs[2]["failed"] = 2
    assert perf_pairs.failures(runs) == [
        "run 1: correct=False failed=0",
        "run 2: correct=True failed=2",
    ]
