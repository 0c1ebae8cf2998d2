"""Throughput of the batched solve service vs sequential one-shot solves.

The ROADMAP's serving scenario: 1k independent mixed-shape solve
requests arrive; the service groups plan-compatible requests into merged
multi-stage solves (amortising per-launch overhead and filling the
machine), while the baseline re-plans and launches once per request.
The acceptance bar is >= 5x simulated throughput with bit-identical
answers; typical runs land well above it.

The second bench is the serving-tier ablation: the same seeded
Poisson stream through fixed fleets of 4, 6, 8 and 16 workers and
through the autoscaled fleet, each behind per-tenant admission, via
the deterministic serving simulation. Each row gives p50, p99, shed
rate, peak and mean width and worker-ms, and the table sets the
narrowest fixed fleet holding the autoscaler's p99 against it.
Results land in ``benchmarks/results/serve_scaling.json``; the nightly
CLI run writes its 100k-request counterpart to the uncommitted
``results/serve_scaling_100k.json``.
"""

import numpy as np
import pytest

from _results import write_results

from repro.analysis import ascii_table
from repro.core import MultiStageSolver
from repro.serve import ServingSimConfig, fleet_ablation
from repro.serve.simulate import ablation_payload, render_ablation
from repro.service import BatchSolveService
from repro.systems import generators

NUM_REQUESTS = 1000
SEED = 2011  # the paper's year; any fixed seed works

SERVE_REQUESTS = 20_000
SERVE_RATE = 12_000.0

# The fusion bench: split-heavy mixed traffic, where the interleaved
# sweeps must beat even the merged-unfused path (on-chip-only shapes are
# the auto mode's job — see test_service_fused_vs_unfused).
FUSION_REQUESTS = 400
FUSION_SIZES = (1024, 2048, 4096)
FUSION_DEVICE = "gtx280"


def test_service_throughput_vs_oneshot(benchmark, emit):
    requests = generators.mixed_requests(NUM_REQUESTS, rng=SEED)

    def serve():
        service = BatchSolveService(
            "gtx470", "static", max_workers=8, max_pending=NUM_REQUESTS
        )
        with service:
            results = service.solve_many(requests)
        return service, results

    service, results = benchmark.pedantic(serve, rounds=1, iterations=1)
    batched_ms = service.stats.simulated_ms

    # Sequential baseline with identical switch points (so the only
    # difference is batching), checking bit-identity along the way.
    solvers = {
        dtype: MultiStageSolver(
            "gtx470", service.switch_points_for(dtype=np.dtype(dtype))
        )
        for dtype in ("float32", "float64")
    }
    sequential_ms = 0.0
    for batch, res in zip(requests, results):
        direct = solvers[str(batch.dtype)].solve(batch)
        sequential_ms += direct.report.total_ms
        np.testing.assert_array_equal(direct.x, res.x)

    snap = service.stats.snapshot()
    speedup = sequential_ms / batched_ms
    rows = [
        ["requests", NUM_REQUESTS, NUM_REQUESTS],
        ["solver launches (solves)", NUM_REQUESTS, snap["groups_executed"]],
        ["systems solved", snap["systems_solved"], snap["systems_solved"]],
        ["simulated ms", round(sequential_ms, 3), round(batched_ms, 3)],
        ["requests per group", 1.0, round(snap["mean_group_requests"], 1)],
    ]
    text = (
        ascii_table(
            ["metric", "sequential one-shot", "batched service"],
            rows,
            title=f"Batched service vs one-shot solves "
            f"({NUM_REQUESTS} mixed requests, GTX 470)",
        )
        + f"\nsimulated throughput speedup: {speedup:.1f}x"
    )
    emit("service_throughput", text)

    assert snap["requests_completed"] == NUM_REQUESTS
    assert snap["requests_failed"] == 0
    # The acceptance criterion: >= 5x simulated throughput.
    assert speedup >= 5.0, f"batched speedup only {speedup:.2f}x"


def test_serve_fleet_ablation(benchmark, emit, results_dir):
    config = ServingSimConfig(
        requests=SERVE_REQUESTS, rate_per_s=SERVE_RATE, seed=SEED
    )

    def ablation():
        return fleet_ablation(config)

    reports = benchmark.pedantic(ablation, rounds=1, iterations=1)
    text = render_ablation(
        reports,
        title=f"Serving fleet ablation ({SERVE_REQUESTS} simulated "
        f"requests at {SERVE_RATE:g}/s, seed {SEED})",
    )
    emit("serve_scaling", text)
    write_results("serve_scaling", ablation_payload(config, reports), results_dir)

    # The acceptance criteria: every request is served or shed; the
    # 4-wide pool saturates and sheds, while the 16-wide pool and the
    # autoscaler serve everything; the autoscaler grew the fleet; and
    # worker-ms is the width summed over ticks times the tick length.
    for report in reports.values():
        assert report.served + report.shed_total == config.requests
        assert report.worker_ms == config.flush_every_ms * sum(
            width for _, width in report.worker_trajectory
        )
    assert reports["fixed 4"].shed_total > 0
    assert reports["fixed 16"].served == config.requests
    assert reports["autoscale"].served == config.requests
    assert reports["autoscale"].max_workers > config.workers


@pytest.mark.fusion
def test_service_fused_vs_unfused(benchmark, emit, results_dir):
    """Batched fusion on the service's merged groups.

    Split-heavy mixed traffic through three service configurations —
    merged-unfused, merged-fused, and the default auto mode — against
    the sequential one-shot baseline, with bit-identity checked across
    all of them. The trajectory (plus a priced many-small concat sweep)
    lands in ``benchmarks/results/batch_fusion.json``.
    """
    requests = generators.mixed_requests(
        FUSION_REQUESTS, rng=SEED, sizes=FUSION_SIZES
    )

    def run_service(fuse):
        service = BatchSolveService(
            FUSION_DEVICE,
            "static",
            max_workers=8,
            max_pending=FUSION_REQUESTS,
            fuse=fuse,
        )
        with service:
            results = service.solve_many(requests)
        return service, results

    service, fused_results = benchmark.pedantic(
        lambda: run_service(True), rounds=1, iterations=1
    )
    fused_ms = service.stats.simulated_ms
    unfused_service, unfused_results = run_service(False)
    unfused_ms = unfused_service.stats.simulated_ms
    auto_service, auto_results = run_service("auto")
    auto_ms = auto_service.stats.simulated_ms

    # Sequential one-shot unfused baseline with identical switch points;
    # every path must reproduce it bit for bit.
    solvers = {
        dtype: MultiStageSolver(
            FUSION_DEVICE, service.switch_points_for(dtype=np.dtype(dtype))
        )
        for dtype in ("float32", "float64")
    }
    sequential_ms = 0.0
    for batch, fused, unfused, auto in zip(
        requests, fused_results, unfused_results, auto_results
    ):
        direct = solvers[str(batch.dtype)].solve(batch)
        sequential_ms += direct.report.total_ms
        np.testing.assert_array_equal(direct.x, fused.x)
        np.testing.assert_array_equal(direct.x, unfused.x)
        np.testing.assert_array_equal(direct.x, auto.x)

    # Priced many-small concat sweep: N single-system subprograms vs the
    # one fused batched program the pass rewrites them into (data-free).
    from repro.core import plan_solve
    from repro.gpu import make_device
    from repro.ir import Engine, concat_solve_programs, lower_solve_plan

    dev = make_device(FUSION_DEVICE)
    small_switch = service.switch_points_for(dtype=np.float64)
    small_plan = plan_solve(dev, 1, 64, 8, small_switch)
    single = lower_solve_plan(small_plan, dev, 8)
    many_small = []
    for count in (10, 100, 1000):
        programs = [single] * count
        u = Engine.for_device(dev).price(
            concat_solve_programs(programs)
        ).total_ms
        f = Engine.for_device(dev).price(
            concat_solve_programs(programs, fuse=True)
        ).total_ms
        many_small.append(
            {
                "count": count,
                "system_size": 64,
                "unfused_ms": u,
                "fused_ms": f,
                "speedup": u / f,
            }
        )

    rows = [
        ["sequential one-shot (unfused)", round(sequential_ms, 3), "1.0x"],
        [
            "merged service, unfused",
            round(unfused_ms, 3),
            f"{sequential_ms / unfused_ms:.1f}x",
        ],
        [
            "merged service, fused (BatchedSolve)",
            round(fused_ms, 3),
            f"{sequential_ms / fused_ms:.1f}x",
        ],
        [
            "merged service, auto (priced choice)",
            round(auto_ms, 3),
            f"{sequential_ms / auto_ms:.1f}x",
        ],
    ]
    text = (
        ascii_table(
            ["path", "simulated ms", "speedup vs sequential"],
            rows,
            title=f"Batched fusion on {FUSION_REQUESTS} split-heavy mixed "
            f"requests ({FUSION_DEVICE}, sizes {FUSION_SIZES})",
        )
        + f"\nfused vs merged-unfused speedup: {unfused_ms / fused_ms:.2f}x"
    )
    emit("service_fused_vs_unfused", text)

    payload = {
        "device": FUSION_DEVICE,
        "seed": SEED,
        "requests": FUSION_REQUESTS,
        "sizes": list(FUSION_SIZES),
        "mixed": {
            "sequential_ms": sequential_ms,
            "merged_unfused_ms": unfused_ms,
            "merged_fused_ms": fused_ms,
            "merged_auto_ms": auto_ms,
            "fused_vs_sequential": sequential_ms / fused_ms,
            "fused_vs_merged_unfused": unfused_ms / fused_ms,
            "groups_executed": service.stats.snapshot()["groups_executed"],
            "bit_identical": True,
        },
        "many_small": many_small,
    }
    write_results("batch_fusion", payload, results_dir)

    # The acceptance criteria: fusion buys >= 2x simulated throughput on
    # the mixed batches — over the already-merged unfused path, not just
    # the sequential baseline — and auto mode never loses to either.
    assert sequential_ms / fused_ms >= 2.0
    assert unfused_ms / fused_ms >= 2.0, (
        f"fusion only {unfused_ms / fused_ms:.2f}x over merged-unfused"
    )
    assert auto_ms <= unfused_ms * 1.001
    assert auto_ms <= fused_ms * 1.001
    for record in many_small:
        assert record["speedup"] >= 2.0
