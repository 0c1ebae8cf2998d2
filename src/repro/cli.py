"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``devices``
    List the simulated GPUs and their (queryable) capabilities.
``solve``
    Build a workload, solve it, and print the plan and timing report.
``plan``
    Lower a workload's plan to its instruction program and print the
    program plus per-instruction priced timings — no data is touched.
``tune``
    Run the self-tuner for a device and print the chosen switch points
    and the search-trace summary.
``figures``
    Regenerate every table/figure of the paper's evaluation into a
    directory of text files.
``serve-bench``
    Batched solve service vs sequential one-shot solves.
``dist-bench``
    Strong/weak scaling of the multi-device distributed solver, with a
    per-device pipeline timeline.
``trace``
    Run a workload with tracing on and export a Chrome trace-event JSON
    (loadable in Perfetto) plus a plaintext metrics dump.
``chaos``
    Run a seeded fault-injection campaign over the service and the
    distributed solver and audit the headline guarantee: a verified
    solution or a typed error, never a silently wrong answer.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional


from .algorithms import max_residual
from .analysis import (
    ascii_table,
    figure5,
    figure6,
    figure7,
    figure8,
    headline_savings,
    table1,
    table2,
)
from .core import MultiStageSolver, SelfTuner
from .gpu import device_names, make_device
from .systems import PAPER_WORKLOAD_NAMES, build_workload
from .util.errors import ReproError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Auto-tuned multi-stage tridiagonal solving on a simulated GPU",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("devices", help="list the simulated GPUs")

    p_solve = sub.add_parser("solve", help="solve a workload and report timing")
    p_solve.add_argument(
        "--device", default="gtx470", help="device name (default: gtx470)"
    )
    p_solve.add_argument(
        "--workload",
        default="1Kx1K",
        help=f"one of {', '.join(PAPER_WORKLOAD_NAMES)} or MxN (e.g. 64x2048)",
    )
    p_solve.add_argument(
        "--tuning",
        default="dynamic",
        choices=["default", "static", "dynamic"],
        help="parameter-selection strategy",
    )
    p_solve.add_argument(
        "--scale",
        type=int,
        default=8,
        help="shrink the workload's data by this factor for host-side "
        "numerics (timing is always for the nominal shape; default 8)",
    )
    p_solve.add_argument("--seed", type=int, default=0)

    p_plan = sub.add_parser(
        "plan",
        help="print a workload's lowered instruction program and priced "
        "per-instruction costs (data-free)",
    )
    p_plan.add_argument(
        "--device", default="gtx470", help="device name (default: gtx470)"
    )
    p_plan.add_argument(
        "--workload",
        default="1Kx1K",
        help=f"one of {', '.join(PAPER_WORKLOAD_NAMES)} or MxN (e.g. 64x2048)",
    )
    p_plan.add_argument(
        "--tuning",
        default="static",
        choices=["default", "static", "dynamic"],
        help="parameter-selection strategy (default static)",
    )
    p_plan.add_argument(
        "--dtype-size", type=int, default=8, choices=[4, 8], dest="dtype_size"
    )
    p_plan.add_argument(
        "--devices",
        type=int,
        default=1,
        help="device count: 1 plans a single-device solve, more plans a "
        "distributed one (default 1)",
    )
    p_plan.add_argument(
        "--link",
        default="pcie3",
        help="interconnect link preset for --devices > 1 (default pcie3)",
    )
    p_plan.add_argument(
        "--topology", default="all_to_all", choices=["all_to_all", "ring"]
    )
    p_plan.add_argument(
        "--mode",
        default="auto",
        choices=["auto", "rows", "batch", "approx", "pipelined"],
        help="distributed decomposition mode for --devices > 1",
    )
    p_plan.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="relative-residual tolerance: also print the numerical-"
        "safety governor's decision (approx vs exact) with estimated "
        "and measured residuals for a sampled workload",
    )
    p_plan.add_argument(
        "--fuse",
        action="store_true",
        help="also run the batched-fusion pass and show the program "
        "before/after as a per-instruction diff; with --devices > 1 "
        "every device's local fragment fuses into interleaved sweeps",
    )

    p_tune = sub.add_parser("tune", help="run the self-tuner for a device")
    p_tune.add_argument("--device", default="gtx470")
    p_tune.add_argument(
        "--dtype-size", type=int, default=4, choices=[4, 8], dest="dtype_size"
    )
    p_tune.add_argument(
        "--cache", default=None, help="JSON file to persist tuned parameters"
    )

    p_fig = sub.add_parser(
        "figures", help="regenerate every table/figure of the evaluation"
    )
    p_fig.add_argument(
        "--out", default="results", help="output directory (default: results/)"
    )
    p_fig.add_argument(
        "--csv",
        action="store_true",
        help="also write machine-readable CSV next to each text table",
    )

    sub.add_parser(
        "verify",
        help="regenerate the evaluation and grade every paper claim",
    )

    p_serve = sub.add_parser(
        "serve-bench",
        help="batched solve service vs sequential one-shot solves",
    )
    p_serve.add_argument("--device", default="gtx470")
    p_serve.add_argument(
        "--requests",
        type=int,
        default=1000,
        help="number of mixed-shape solve requests (default 1000)",
    )
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument(
        "--tuning",
        default="static",
        choices=["default", "static", "dynamic"],
        help="switch-point strategy shared by both sides (default static)",
    )
    p_serve.add_argument(
        "--max-workers", type=int, default=4, dest="max_workers"
    )
    p_serve.add_argument(
        "--max-group-systems",
        type=int,
        default=None,
        dest="max_group_systems",
        help="cap on merged-batch height (default unlimited)",
    )
    p_serve.add_argument(
        "--async",
        action="store_true",
        dest="async_tier",
        help="simulate the async serving tier under load: fixed fleets "
        "of 4, 6, 8 and 16 workers against the autoscaler",
    )
    p_serve.add_argument(
        "--tenants",
        type=int,
        default=4,
        help="tenant count for the simulated request mix (default 4; "
        "tenant0 sends half the traffic)",
    )
    p_serve.add_argument(
        "--rate",
        type=float,
        default=12_000.0,
        help="simulated arrival rate in requests/s (default 12000)",
    )
    p_serve.add_argument(
        "--json",
        default=None,
        dest="json_out",
        help="also write the async-tier ablation as JSON to this path",
    )

    p_dist = sub.add_parser(
        "dist-bench",
        help="strong/weak scaling of the multi-device distributed solver",
    )
    p_dist.add_argument("--device", default="gtx470")
    p_dist.add_argument(
        "--link",
        default="pcie3",
        help="interconnect link preset (pcie3/pcie4/nvlink2)",
    )
    p_dist.add_argument(
        "--topology", default="all_to_all", choices=["all_to_all", "ring"]
    )
    p_dist.add_argument(
        "--devices",
        default="1,2,4,8,16",
        help="comma-separated device counts to sweep (default 1,2,4,8,16)",
    )
    p_dist.add_argument(
        "--systems", type=int, default=1, help="system count m (default 1)"
    )
    p_dist.add_argument(
        "--size",
        type=int,
        default=1 << 22,
        help="system size n for strong scaling (default 2^22)",
    )
    p_dist.add_argument(
        "--weak-size",
        type=int,
        default=1 << 19,
        dest="weak_size",
        help="per-device system size for weak scaling (default 2^19)",
    )
    p_dist.add_argument(
        "--dtype-size", type=int, default=8, choices=[4, 8], dest="dtype_size"
    )
    p_dist.add_argument(
        "--mode",
        default="auto",
        choices=["auto", "rows", "batch", "approx", "pipelined"],
    )
    p_dist.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="relative-residual tolerance: admits the truncated-SPIKE "
        "approx mode into auto pricing when the dominance estimate "
        "says it is safe",
    )
    p_dist.add_argument(
        "--json",
        default=None,
        dest="json_out",
        help="also write the sweep as JSON to this path",
    )

    p_trace = sub.add_parser(
        "trace",
        help="run a workload traced and export a Chrome trace-event "
        "JSON (Perfetto) plus a plaintext metrics dump",
    )
    p_trace.add_argument("--device", default="gtx470")
    p_trace.add_argument(
        "--n",
        default="2**20",
        help="system size; accepts 2**20 / 1<<20 / plain integers "
        "(default 2**20)",
    )
    p_trace.add_argument(
        "--systems",
        default="1",
        help="system count (same syntax as --n; default 1)",
    )
    p_trace.add_argument(
        "--devices",
        type=int,
        default=1,
        help="device count: 1 traces a single-device solve, more traces "
        "a distributed one (default 1)",
    )
    p_trace.add_argument(
        "--link", default="pcie3", help="interconnect preset (default pcie3)"
    )
    p_trace.add_argument(
        "--topology", default="all_to_all", choices=["all_to_all", "ring"]
    )
    p_trace.add_argument(
        "--mode",
        default="auto",
        choices=["auto", "rows", "batch", "approx", "pipelined"],
    )
    p_trace.add_argument(
        "--tuning",
        default="static",
        choices=["default", "static", "dynamic"],
        help="switch-point strategy (default static)",
    )
    p_trace.add_argument(
        "--dtype-size", type=int, default=8, choices=[4, 8], dest="dtype_size"
    )
    p_trace.add_argument(
        "--out",
        default="results/trace",
        help="output prefix: writes <out>.trace.json and <out>.metrics.txt "
        "(default results/trace)",
    )

    p_chaos = sub.add_parser(
        "chaos",
        help="seeded fault-injection campaign with recovery auditing",
    )
    p_chaos.add_argument(
        "--seeds",
        default="0",
        help="comma-separated campaign seeds (default 0)",
    )
    p_chaos.add_argument(
        "--requests",
        type=int,
        default=200,
        help="service-phase requests per seed (default 200)",
    )
    p_chaos.add_argument(
        "--transient-p",
        type=float,
        default=0.02,
        dest="transient_p",
        help="per-instruction transient fault probability (default 0.02)",
    )
    p_chaos.add_argument(
        "--dist-devices",
        type=int,
        default=4,
        dest="dist_devices",
        help="device count for the failover phase (default 4)",
    )
    p_chaos.add_argument(
        "--numerics-requests",
        type=int,
        default=64,
        dest="numerics_requests",
        help="adversarial-numerics phase requests per seed; 0 skips "
        "the phase (default 64)",
    )
    p_chaos.add_argument(
        "--tolerance",
        type=float,
        default=1e-8,
        help="relative-residual tolerance the numerics phase asks the "
        "governor to enforce (default 1e-8)",
    )
    p_chaos.add_argument(
        "--json",
        default=None,
        dest="json_out",
        help="also write the campaign reports as JSON to this path",
    )
    return parser


def _cmd_devices(out) -> int:
    rows = []
    for name in device_names():
        device = make_device(name)
        props = device.properties()
        rows.append(
            [
                name,
                props.name,
                props.num_processors,
                props.thread_processors,
                props.shared_mem_per_processor // 1024,
                device.max_onchip_system_size(4),
            ]
        )
    out.write(
        ascii_table(
            ["id", "name", "SMs", "cores/SM", "smem KB", "on-chip max (f32)"],
            rows,
            title="Simulated devices",
        )
        + "\n"
    )
    return 0


def _parse_workload(text: str):
    if text in PAPER_WORKLOAD_NAMES:
        return text
    try:
        m, n = text.lower().split("x")
        from .systems import Workload

        return Workload(text, int(m), int(n))
    except Exception:
        raise ReproError(
            f"workload must be one of {PAPER_WORKLOAD_NAMES} or MxN, got {text!r}"
        ) from None


def _cmd_solve(args, out) -> int:
    workload = _parse_workload(args.workload)
    batch = build_workload(workload, seed=args.seed, scale=args.scale)
    solver = MultiStageSolver(args.device, args.tuning)
    result = solver.solve(batch)
    out.write(f"device   : {solver.device.name}\n")
    out.write(f"workload : {batch.num_systems} x {batch.system_size} "
              f"(scale 1/{args.scale})\n")
    out.write(f"tuning   : {result.switch_points.describe()}\n")
    out.write(result.plan.describe() + "\n")
    out.write(result.report.describe() + "\n")
    out.write(f"residual : {max_residual(batch, result.x):.3e}\n")
    return 0


def _program_diff(before, after) -> str:
    """Per-instruction diff of two programs (``-`` removed, ``+`` added).

    Steps are compared by their one-line rendering; the common
    prefix/suffix (the ``Pad``/``Unpad`` brackets fusion keeps) stays
    unmarked and everything between shows as removed-then-added.
    """
    old = [s.describe() for s in before.steps]
    new = [s.describe() for s in after.steps]
    prefix = 0
    while prefix < min(len(old), len(new)) and old[prefix] == new[prefix]:
        prefix += 1
    suffix = 0
    while (
        suffix < min(len(old), len(new)) - prefix
        and old[len(old) - 1 - suffix] == new[len(new) - 1 - suffix]
    ):
        suffix += 1
    lines = [f"  {line}" for line in old[:prefix]]
    lines += [f"- {line}" for line in old[prefix:len(old) - suffix]]
    lines += [f"+ {line}" for line in new[prefix:len(new) - suffix]]
    lines += [f"  {line}" for line in old[len(old) - suffix:]]
    return "\n".join(lines)


def _cmd_plan(args, out) -> int:
    from .ir import Engine, run_default_passes
    from .systems import Workload, paper_workloads

    workload = _parse_workload(args.workload)
    if isinstance(workload, str):
        workload = next(w for w in paper_workloads() if w.name == workload)
    assert isinstance(workload, Workload)
    m, n = workload.shape

    if args.devices > 1:
        from .dist import DistributedSolver, render_overlap_gantt

        solver = DistributedSolver(
            args.devices,
            args.tuning,
            device=args.device,
            link=args.link,
            topology=args.topology,
            mode=args.mode,
        )
        plan, _ = solver.price(
            m, n, args.dtype_size, tolerance=args.tolerance
        )
        program = solver.lower(plan, args.dtype_size)
        engine = Engine.for_group(solver.group)
        out.write(f"group    : {solver.group.describe()}\n")
    else:
        from .core import simulate_plan

        device = make_device(args.device)
        solver = MultiStageSolver(device, args.tuning)
        switch = solver.switch_points_for(m, n, args.dtype_size)
        plan, _ = simulate_plan(device, m, n, args.dtype_size, switch)
        program = plan.lower(device, args.dtype_size)
        engine = Engine.for_device(device)
        out.write(f"device   : {device.name}\n")
        out.write(f"tuning   : {switch.describe()}\n")
    run = engine.price(program)
    out.write(f"workload : {m} x {n} (dtype {args.dtype_size}B)\n")
    out.write(plan.describe() + "\n\n")
    out.write(program.describe() + "\n\n")

    def priced_steps(prog, prog_run) -> None:
        out.write("priced steps:\n")
        spans = {t.index: t for t in prog_run.trace}
        for i, step in enumerate(prog.steps):
            t = spans.get(i)
            timing = (
                f"{t.start_ms:10.4f} .. {t.end_ms:10.4f} ms"
                f"  ({t.end_ms - t.start_ms:8.4f})"
                if t is not None
                else " " * 28 + "(free)"
            )
            out.write(f"  [{i:>2d}] {timing}  {step.describe()}\n")

    priced_steps(program, run)
    out.write(f"total    : {run.report.total_ms:.4f} ms\n")
    if args.devices > 1:
        out.write("\nper-device timeline (compute/egress/ingress lanes):\n")
        out.write(render_overlap_gantt(run.report) + "\n")
    if args.tolerance is not None:
        out.write("\n" + _governor_report(args, m, n) + "\n")
    if args.fuse:
        fused = run_default_passes(program, fuse=True)
        fused_run = engine.price(fused)
        out.write("\nbatched fusion diff (unfused -> fused):\n")
        out.write(_program_diff(program, fused) + "\n\n")
        priced_steps(fused, fused_run)
        out.write(f"fused    : {fused_run.report.total_ms:.4f} ms")
        if fused_run.report.total_ms > 0:
            out.write(
                f"  ({run.report.total_ms / fused_run.report.total_ms:.2f}x"
                " vs unfused)"
            )
        out.write("\n")
    return 0


def _governor_report(args, m, n) -> str:
    """The numerical-safety governor's verdict for the planned workload.

    The dominance estimate and the truncated-vs-exact residuals are
    measured on a sampled dominant batch (capped so ``repro plan`` stays
    instant on huge workloads); the truncation bound uses the *real*
    per-device chunk size, which is what the decision depends on.
    """
    from .algorithms.spike import spike_solve, truncated_spike_solve
    from .numerics import Governor
    from .systems import generators

    if args.devices <= 1:
        return (
            "governor: exact — single device has no truncated-SPIKE "
            f"path; a governed solve at tolerance {args.tolerance:.1e} "
            "residual-verifies the staged result"
        )
    sample_m, sample_n = min(m, 4), min(n, 1 << 14)
    sample = generators.random_dominant(sample_m, sample_n, rng=0)
    chunk_rows = max(2, n // args.devices)
    decision = Governor().decide(sample, args.tolerance, chunk_rows)
    parts = max(2, min(args.devices, sample_n // 2))
    approx_x = truncated_spike_solve(sample, partitions=parts)
    exact_x = spike_solve(sample, partitions=parts)
    return (
        decision.describe()
        + "\n"
        + f"          measured on a {sample_m}x{sample_n} dominant "
        f"sample ({parts} partitions): approx residual "
        f"{sample.residual(approx_x).max():.3e}, exact residual "
        f"{sample.residual(exact_x).max():.3e}"
    )


def _cmd_tune(args, out) -> int:
    device = make_device(args.device)
    tuner = SelfTuner(cache=args.cache)
    sp = tuner.switch_points(device, 0, 0, args.dtype_size)
    out.write(f"device: {device.name}\n")
    out.write(f"tuned : {sp.describe()}\n")
    trace = tuner.last_trace
    if trace is None:
        out.write("search: served from cache (0 probes)\n")
    else:
        out.write(
            f"search: {trace.num_evaluations} model probes "
            f"(stage3 {trace.evaluations_for('stage3_size')}, "
            f"thomas {trace.evaluations_for('thomas_switch')}, "
            f"crossover {trace.evaluations_for('variant_crossover')}, "
            f"stage1 {trace.evaluations_for('stage1_target')})\n"
        )
    return 0


def _cmd_serve_bench(args, out) -> int:
    import time

    from .service import BatchSolveService
    from .systems import generators

    if args.async_tier:
        return _cmd_serve_bench_async(args, out)

    requests = generators.mixed_requests(args.requests, rng=args.seed)
    service = BatchSolveService(
        args.device,
        args.tuning,
        max_workers=args.max_workers,
        max_pending=max(args.requests, 1),
        max_group_systems=args.max_group_systems,
    )
    with service:
        t0 = time.perf_counter()
        results = service.solve_many(requests)
        service_wall_s = time.perf_counter() - t0
        batched_ms = service.stats.snapshot()["simulated_ms"]

        # The one-shot baseline: same switch points, one solve per request.
        solvers = {}
        sequential_ms = 0.0
        t0 = time.perf_counter()
        for batch in requests:
            solver = solvers.get(batch.dtype.str)
            if solver is None:
                solver = solvers[batch.dtype.str] = MultiStageSolver(
                    args.device, service.switch_points_for(dtype=batch.dtype)
                )
            sequential_ms += solver.solve(batch).report.total_ms
        sequential_wall_s = time.perf_counter() - t0

    completed = len(results)
    snap = service.stats.snapshot()
    out.write(f"device    : {service.default_device.name}\n")
    out.write(
        f"workload  : {completed} mixed-shape requests "
        f"({snap['systems_solved']} systems, seed {args.seed})\n"
    )
    out.write(
        f"service   : {snap['groups_executed']} merged solves, "
        f"{snap['mean_group_requests']:.1f} requests/group, "
        f"{batched_ms:.3f} simulated ms ({service_wall_s:.2f} s wall)\n"
    )
    out.write(
        f"sequential: {args.requests} one-shot solves, "
        f"{sequential_ms:.3f} simulated ms ({sequential_wall_s:.2f} s wall)\n"
    )
    speedup = sequential_ms / max(batched_ms, 1e-300)
    out.write(f"speedup   : {speedup:.1f}x simulated throughput\n")
    cache = snap.get("tuning_cache")
    if cache is not None:
        lookups = cache["hits"] + cache["misses"]
        rate = cache["hits"] / lookups if lookups else 0.0
        out.write(
            f"tuning    : {cache['hits']} cache hits / {lookups} lookups "
            f"({rate:.0%} hit rate, {cache['entries']} entries)\n"
        )
    out.write("metrics   :\n")
    for line in service.metrics.render().splitlines():
        # The full histogram bucket series is for machines; the summary
        # lines tell the story.
        if not line.startswith("#") and "_bucket" not in line:
            out.write(f"  {line}\n")
    return 0


def _cmd_serve_bench_async(args, out) -> int:
    """The serving-tier ablation: fixed fleets against the autoscaler.

    Every fleet replays the same seeded Poisson stream through the
    deterministic serving simulation (real admission/autoscaler policy
    objects on a simulated clock), so 100k requests take seconds and
    the p50/p99/shed/worker-ms numbers are reproducible bit-for-bit.
    ``--max-workers`` is the autoscaler's floor.
    """
    import json

    from .serve import ServingSimConfig, fleet_ablation
    from .serve.simulate import ablation_payload, render_ablation

    config = ServingSimConfig(
        requests=args.requests,
        rate_per_s=args.rate,
        seed=args.seed,
        tenants=args.tenants,
        device=args.device,
        workers=args.max_workers,
    )
    reports = fleet_ablation(config)
    out.write(
        f"workload  : {config.requests} simulated mixed requests at "
        f"{config.rate_per_s:g}/s, {config.tenants} tenants, "
        f"seed {config.seed}\n"
    )
    out.write(render_ablation(reports) + "\n")
    if args.json_out:
        os.makedirs(os.path.dirname(args.json_out) or ".", exist_ok=True)
        with open(args.json_out, "w") as fh:
            json.dump(ablation_payload(config, reports), fh, indent=2, sort_keys=True)
            fh.write("\n")
        out.write(f"wrote {args.json_out}\n")
    return 0


def _cmd_dist_bench(args, out) -> int:
    import json

    from .analysis import ascii_table
    from .dist import DistributedSolver, make_device_group, render_dist_timeline

    try:
        counts = sorted(
            {int(c) for c in args.devices.split(",") if c.strip()}
        )
    except ValueError:
        raise ReproError(
            f"--devices must be comma-separated counts, got {args.devices!r}"
        ) from None
    if not counts:
        raise ReproError("--devices named no device counts")

    def sweep(title, shape_for):
        """Price one scaling sweep; returns (rows for the table, records)."""
        rows, records = [], []
        base_ms = None
        last_report = None
        for count in counts:
            m, n = shape_for(count)
            group = make_device_group(
                args.device, count, args.link, args.topology
            )
            solver = DistributedSolver(group, mode=args.mode)
            plan, report = solver.price(
                m, n, args.dtype_size, tolerance=args.tolerance
            )
            if base_ms is None:
                base_ms = report.total_ms
            speedup = base_ms / max(report.total_ms, 1e-300)
            record = {
                "devices": count,
                "num_systems": m,
                "system_size": n,
                "mode": plan.mode,
                "schedule": plan.schedule,
                "total_ms": report.total_ms,
                "speedup_vs_first": speedup,
                "efficiency": speedup * counts[0] / count,
                "compute_utilization": report.compute_utilization,
            }
            records.append(record)
            rows.append(
                [
                    count,
                    f"{m} x {n}",
                    plan.mode,
                    plan.schedule,
                    f"{report.total_ms:.3f}",
                    f"{speedup:.2f}x",
                    f"{record['efficiency']:.0%}",
                ]
            )
            last_report = report
        out.write(
            ascii_table(
                ["devices", "workload", "mode", "schedule", "ms", "speedup", "eff"],
                rows,
                title=title,
            )
            + "\n"
        )
        return records, last_report

    link_label = f"{args.topology}:{args.link}"
    out.write(
        f"device group: {args.device} over {link_label}, "
        f"dtype size {args.dtype_size}\n"
    )
    strong, strong_report = sweep(
        f"Strong scaling ({args.systems} x {args.size})",
        lambda count: (args.systems, args.size),
    )
    weak, _ = sweep(
        f"Weak scaling ({args.systems} x {args.weak_size} per device)",
        lambda count: (args.systems, args.weak_size * count),
    )
    out.write("\nPer-device timeline at the largest sweep point:\n")
    out.write(render_dist_timeline(strong_report) + "\n")

    if args.json_out:
        payload = {
            "device": args.device,
            "link": args.link,
            "topology": args.topology,
            "mode": args.mode,
            "dtype_size": args.dtype_size,
            "strong": strong,
            "weak": weak,
        }
        os.makedirs(os.path.dirname(args.json_out) or ".", exist_ok=True)
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        out.write(f"wrote {args.json_out}\n")
    return 0


def _parse_count(text: str) -> int:
    """Parse a size argument: plain int, ``a**b``, ``a<<b``, or ``a*b``."""
    t = str(text).strip().replace(" ", "")
    try:
        if "**" in t:
            a, b = t.split("**", 1)
            return int(a) ** int(b)
        if "<<" in t:
            a, b = t.split("<<", 1)
            return int(a) << int(b)
        if "*" in t:
            a, b = t.split("*", 1)
            return int(a) * int(b)
        return int(t)
    except ValueError:
        raise ReproError(
            f"expected an integer (or a**b / a<<b / a*b), got {text!r}"
        ) from None


def _cmd_trace(args, out) -> int:
    from .obs import (
        MetricsRegistry,
        Tracer,
        chrome_trace_json,
        spans_to_trace_events,
        write_metrics,
    )

    n = _parse_count(args.n)
    m = _parse_count(args.systems)
    tracer = Tracer()
    registry = MetricsRegistry()

    if args.devices > 1:
        from .dist import DistributedSolver
        from .ir import Engine

        solver = DistributedSolver(
            args.devices,
            args.tuning,
            device=args.device,
            link=args.link,
            topology=args.topology,
            mode=args.mode,
            metrics=registry,
        )
        solver.cache.attach_metrics(registry)
        plan, _ = solver.price(m, n, args.dtype_size)
        program = solver.lower(plan, args.dtype_size)
        engine = Engine.for_group(solver.group)
        engine.tracer = tracer
        run = engine.price(program)
        solver.record_metrics(plan, run.report, args.dtype_size)
        names = program.device_names
        target = solver.group.describe()
    else:
        from .core import simulate_plan
        from .ir import Engine

        device = make_device(args.device)
        solver = MultiStageSolver(device, args.tuning)
        solver.device.check_fits_global(5 * m * n * args.dtype_size)
        switch = solver.switch_points_for(m, n, args.dtype_size)
        plan, _ = simulate_plan(device, m, n, args.dtype_size, switch)
        program = plan.lower(device, args.dtype_size)
        engine = Engine.for_device(device)
        engine.tracer = tracer
        run = engine.price(program)
        names = program.device_names or (device.name,)
        target = device.name

    spans = tracer.spans()
    events = spans_to_trace_events(spans, names)
    trace_path = f"{args.out}.trace.json"
    metrics_path = f"{args.out}.metrics.txt"
    os.makedirs(os.path.dirname(trace_path) or ".", exist_ok=True)
    with open(trace_path, "w", encoding="utf-8") as fh:
        fh.write(chrome_trace_json(events))
    write_metrics(metrics_path, registry)

    num_spans = sum(1 for root in spans for _ in root.walk())
    out.write(f"target   : {target}\n")
    out.write(f"workload : {m} x {n} (dtype {args.dtype_size}B)\n")
    out.write(
        f"trace    : {num_spans} spans, {len(events)} trace events, "
        f"{run.report.total_ms:.4f} ms simulated\n"
    )
    out.write(f"wrote {trace_path} (open in https://ui.perfetto.dev)\n")
    out.write(f"wrote {metrics_path}\n")
    return 0


def _cmd_chaos(args, out) -> int:
    import json

    from .faults import run_sweep

    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError:
        raise ReproError(
            f"--seeds must be comma-separated integers, got {args.seeds!r}"
        ) from None
    if not seeds:
        raise ReproError("--seeds named no seeds")
    reports = run_sweep(
        seeds,
        requests=args.requests,
        transient_p=args.transient_p,
        dist_devices=args.dist_devices,
        numerics_requests=args.numerics_requests,
        tolerance=args.tolerance,
    )
    for report in reports:
        out.write(report.describe() + "\n")
    clean = all(r.clean for r in reports)
    out.write(
        f"verdict: {'CLEAN' if clean else 'VIOLATED'} across "
        f"{len(reports)} seed(s) — every request returned a verified "
        "solution or a typed error\n"
    )
    if args.json_out:
        payload = {
            "requests_per_seed": args.requests,
            "transient_p": args.transient_p,
            "dist_devices": args.dist_devices,
            "numerics_requests": args.numerics_requests,
            "tolerance": args.tolerance,
            "clean": clean,
            "campaigns": [r.as_dict() for r in reports],
        }
        os.makedirs(os.path.dirname(args.json_out) or ".", exist_ok=True)
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        out.write(f"wrote {args.json_out}\n")
    return 0 if clean else 1


def _cmd_figures(args, out) -> int:
    os.makedirs(args.out, exist_ok=True)

    def save(name: str, text: str) -> None:
        path = os.path.join(args.out, f"{name}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        out.write(f"wrote {path}\n")

    save(
        "table1",
        ascii_table(
            ["name", "bandwidth GB/s", "smem KB", "SMs", "cores/SM"],
            [
                [
                    r["name"],
                    r["global_memory_bandwidth_gb_s"],
                    r["shared_memory_kb"],
                    r["num_processors"],
                    r["thread_processors_per_processor"],
                ]
                for r in table1()
            ],
            title="Table I",
        ),
    )
    save(
        "table2",
        ascii_table(["parameter", "description", "value"], table2(), title="Table II"),
    )

    def save_csv(name: str, text: str) -> None:
        if not getattr(args, "csv", False):
            return
        path = os.path.join(args.out, f"{name}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out.write(f"wrote {path}\n")

    from .analysis import (
        figure5_to_csv,
        figure6_to_csv,
        figure7_to_csv,
        figure8_to_csv,
    )

    f5 = figure5()
    sizes = sorted(next(iter(f5.values())))
    save(
        "figure5",
        ascii_table(
            ["device"] + [str(s) for s in sizes],
            [[d] + [row[s] for s in sizes] for d, row in f5.items()],
            title="Figure 5 (relative perf vs stage-2->3 switch)",
        ),
    )
    save_csv("figure5", figure5_to_csv(f5))
    f6 = figure6()
    switches = sorted(next(iter(f6.values())))
    save(
        "figure6",
        ascii_table(
            ["device"] + [str(s) for s in switches],
            [[d] + [row[s] for s in switches] for d, row in f6.items()],
            title="Figure 6 (relative perf vs stage-3->4 switch)",
        ),
    )
    save_csv("figure6", figure6_to_csv(f6))
    f7 = figure7()
    rows = []
    for device, cells in f7.items():
        for wl, cell in cells.items():
            rows.append(
                [device, wl, cell.untuned_ms, cell.static_normalized, cell.dynamic_normalized]
            )
    agg = headline_savings(f7)
    save(
        "figure7",
        ascii_table(
            ["device", "workload", "untuned ms", "static norm", "dynamic norm"],
            rows,
            title="Figure 7 (tuning strategies)",
        )
        + f"\nstatic avg savings {agg['static_avg_savings']:.1%}, "
        f"dynamic avg savings {agg['dynamic_avg_savings']:.1%}",
    )
    save_csv("figure7", figure7_to_csv(f7))
    f8 = figure8()
    save(
        "figure8",
        ascii_table(
            ["workload", "GPU ms", "CPU ms", "speedup"],
            [[wl, v["gpu_ms"], v["cpu_ms"], v["speedup"]] for wl, v in f8.items()],
            title="Figure 8 (GPU vs CPU)",
        ),
    )
    save_csv("figure8", figure8_to_csv(f8))
    return 0


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "devices":
            return _cmd_devices(out)
        if args.command == "solve":
            return _cmd_solve(args, out)
        if args.command == "plan":
            return _cmd_plan(args, out)
        if args.command == "tune":
            return _cmd_tune(args, out)
        if args.command == "figures":
            return _cmd_figures(args, out)
        if args.command == "serve-bench":
            return _cmd_serve_bench(args, out)
        if args.command == "dist-bench":
            return _cmd_dist_bench(args, out)
        if args.command == "trace":
            return _cmd_trace(args, out)
        if args.command == "chaos":
            return _cmd_chaos(args, out)
        if args.command == "verify":
            from .analysis import render_scorecard, reproduction_scorecard

            checks = reproduction_scorecard()
            out.write(render_scorecard(checks) + "\n")
            return 0 if all(c.passed for c in checks) else 1
        raise AssertionError("unreachable")
    except ReproError as exc:
        out.write(f"error: {exc}\n")
        return 2
