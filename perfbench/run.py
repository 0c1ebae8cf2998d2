"""Two-clock benchmark of the tridiagonal solver, from the repository root.

    python3 perfbench/run.py --workload one_big --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no spans recorded:
set-up time, steady-state throughput, request latency and peak memory.
``--trace 1`` is the separate traced run: it alternates untraced and
traced units of work and reports every per-layer metric, prints the
two-clock table (host ms next to priced ms) on stderr, and writes the
spans to ``.perfbench_out/``. Every answer is checked outside the timed
region; the last line of stdout is the JSON result, and a wrong answer
makes the exit code non-zero.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before NumPy loads, so the load never exceeds
# the worker threads the workloads start themselves.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"

#: Seed kept out of tuning; later performance claims must also hold on it.
HELD_OUT_SEED = 7919
#: Consecutive windows a run is split into; each figure is their median.
WINDOWS = 5
#: A run stops extending for its minimum request count at this multiple
#: of ``--seconds``, which bounds its length on a slow host.
MAX_RUN_FACTOR = 2.5


def _import_program() -> None:
    """Make the checkout's own ``src/`` importable, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no program source at {src}/repro")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))


def git_sha(root: Path):
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args) -> dict:
    from workloads import nproc

    return {
        "git_sha": git_sha(ROOT),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": nproc(),
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
    }


def _percentile_ms(latencies_s, q: float) -> float:
    return float(np.percentile(latencies_s, q)) * 1e3


def host_speed_ms() -> float:
    """Median time of a fixed reference loop; shows how fast the host ran."""
    a = np.arange(1 << 18, dtype=np.float64)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0
        for i in range(50_000):
            total += i
        for _ in range(10):
            a = a * 1.0000001 + 1.0
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Measured(NamedTuple):
    wall_s: float
    rows: int
    latencies_s: list


class Tally:
    """Requests attempted, failed and wrong across a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def add(self, unit) -> None:
        self.attempted += unit.requests
        self.failed += unit.failed
        self.wrong += unit.check()

    def result(self, metrics: dict) -> dict:
        return {
            "correct": self.wrong == 0,
            "attempted": self.attempted,
            "failed": self.failed + self.wrong,
            "metrics": metrics,
        }


def run_untraced(workload, args, scale) -> tuple:
    """The end-to-end metrics, measured with tracing off."""
    setups = []
    runner = None
    for _ in range(scale.setups):
        if runner is not None:
            runner.close()
        t0 = time.perf_counter()
        runner = workload.setup()
        setups.append(time.perf_counter() - t0)
    tally = Tally()
    units, busy = [], 0.0
    try:
        while busy < args.seconds or (
            tally.attempted < scale.min_requests and busy < MAX_RUN_FACTOR * args.seconds
        ):
            unit = runner.run(len(units))
            tally.add(unit)
            # Keep only the figures: answers held past their check would
            # show up in peak_rss_mb.
            units.append(Measured(unit.wall_s, unit.rows, unit.latencies_s))
            busy += unit.wall_s
    finally:
        runner.close()
    # Interference on a shared host comes in bursts of a few seconds, so
    # each figure is the median over consecutive windows of the run.
    windows = [units[w * len(units) // WINDOWS:(w + 1) * len(units) // WINDOWS]
               for w in range(WINDOWS)]
    windows = [w for w in windows if w]
    latencies = [[lat for u in w for lat in u.latencies_s] for w in windows]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_rows_per_s": (
            statistics.median(sum(u.rows for u in w) / sum(u.wall_s for u in w)
                              for w in windows),
            "rows/s",
        ),
        "latency_ms.p50": (statistics.median(_percentile_ms(w, 50) for w in latencies), "ms"),
        "latency_ms.p90": (statistics.median(_percentile_ms(w, 90) for w in latencies), "ms"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    extra = {
        "requests": sum(len(w) for w in latencies),
        "units": len(units),
        "windows": len(windows),
        "setups_s": setups,
        "unit_wall_s": [u.wall_s for u in units],
    }
    return tally, metrics, extra, None


def run_traced(workload, args, scale) -> tuple:
    """Per-layer metrics: alternate untraced and traced units of work.

    Traced units take the even unit indices and untraced ones the odd,
    so both halves see the same mix and the traced half never replays
    inputs its untraced twin has just warmed. The number of units is
    fixed by ``--seconds``, so counts repeat exactly for a given seed.
    """
    from layers import PER_LAYER, SpanIndex, layer_metrics, two_clock_table
    from tracing import Patcher, SpanRecorder, install_layer_spans

    recorder = SpanRecorder()
    with Patcher(recorder) as patcher:
        install_layer_spans(patcher)
        runner = workload.setup()
    setup_index = SpanIndex(recorder.take())
    pairs = max(2, int(args.seconds * workload.trace_units_per_s))
    tally = Tally()
    plain = {"wall": 0.0, "priced": 0.0, "requests": 0}
    traced = {"wall": 0.0, "priced": 0.0, "requests": 0}
    try:
        before = runner.counters()
        for k in range(pairs):
            with Patcher(recorder) as patcher:
                install_layer_spans(patcher)
                unit = runner.run(2 * k)
            tally.add(unit)
            traced["wall"] += unit.wall_s
            traced["priced"] += unit.priced_ms
            traced["requests"] += unit.requests
            unit = runner.run(2 * k + 1)
            tally.add(unit)
            plain["wall"] += unit.wall_s
            plain["priced"] += unit.priced_ms
            plain["requests"] += unit.requests
        after = runner.counters()
    finally:
        runner.close()
    spans = recorder.take()
    delta = {
        key: after[key] - before[key] for key in after if isinstance(after[key], (int, float))
    }
    m = layer_metrics(
        SpanIndex(spans),
        requests=traced["requests"],
        setup_spans=setup_index,
        cache_before=before["cache"],
        cache_after=after["cache"],
        counters_delta=delta,
    )
    m["priced_ms_per_request"] = (plain["priced"] + traced["priced"]) / tally.attempted
    m["host_ms_per_priced_ms"] = plain["wall"] * 1e3 / plain["priced"]
    m["error_rate"] = (tally.failed + tally.wrong) / tally.attempted
    m["trace.overhead_frac"] = (
        (traced["wall"] / traced["requests"]) / (plain["wall"] / plain["requests"]) - 1.0
    )
    m.update(workload.dist_metrics(traced["priced"] / traced["requests"]))
    metrics = {name: (m[name], unit) for name, unit in PER_LAYER}
    table = two_clock_table(m, plain["wall"] * 1e3 / plain["requests"])
    extra = {"pairs": pairs, "spans": len(spans), "two_clock_table": table}
    return tally, metrics, extra, spans


def _write_record(args, record: dict, spans) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if spans is not None:
        rows = [[s.id, s.name, s.thread, s.start, s.end, s.parent] for s in spans]
        payload = {"columns": ["id", "name", "thread", "start_s", "end_s", "parent"],
                   "spans": rows}
        (OUT_DIR / f"{stem}.spans.json").write_text(json.dumps(payload) + "\n")


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("one_big", "mixed_serve", "dist8_governed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny shapes for the benchmark's own test")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_program()
    from workloads import SCALES, make_workload

    scale = SCALES[args.scale]
    workload = make_workload(args.workload, args.seed, scale)
    run = run_traced if args.trace else run_untraced
    speed_before = host_speed_ms()
    tally, metrics, extra, spans = run(workload, args, scale)
    extra["host_speed_ms"] = [speed_before, host_speed_ms()]
    result = tally.result(
        {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    )
    record = {"provenance": provenance(args), "run": {k: v for k, v in extra.items()
                                                      if k != "two_clock_table"},
              "result": result}
    _write_record(args, record, spans)
    if "two_clock_table" in extra:
        print(extra["two_clock_table"], file=sys.stderr)
    print(json.dumps({"provenance": record["provenance"], "run": record["run"]}))
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    sys.exit(0 if main()["correct"] else 1)
