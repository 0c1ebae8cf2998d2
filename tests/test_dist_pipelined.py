"""The pipelined distributed mode and the overlap-aware list scheduler.

Four contracts pinned here:

- **numerics** — ``mode="pipelined"`` returns bit-identical solutions to
  ``mode="rows"`` (same SPIKE math, fused local sweeps, same reduced
  system), and the auto mode may pick it without changing answers.
- **scheduling** — the engine's list scheduler never starts a step
  before its dependencies finish, never double-books a lane
  (per-device compute, egress, ingress), and tiles every compute
  instruction with its kernel launches, property-tested over random
  multi-device programs; a solve program prices exactly as the same
  steps scheduled as a one-device dist program.
- **passes** — :func:`repro.ir.passes.infer_dependencies` gives
  program-order edges to dep-less steps sharing a lane and is a no-op
  on every lowering (they all carry explicit edges already).
- **presentation** — the 8-device pipelined lane timeline is pinned as
  a golden text (what ``repro plan --devices 8 --mode pipelined``
  prints and the docs embed).
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import plan_solve
from repro.core.tuning import make_tuner
from repro.dist import DistributedSolver, make_device_group, render_overlap_gantt
from repro.gpu import make_device
from repro.ir import (
    Engine,
    Program,
    Step,
    concat_solve_programs,
    lower_solve_plan,
)
from repro.ir.instructions import (
    OnChipSolve,
    ReducedSolve,
    Reconstruct,
    SplitCoop,
    Transfer,
    Unpad,
)
from repro.ir.passes import infer_dependencies
from repro.kernels import dtype_size
from repro.obs import Tracer
from repro.systems import generators
from repro.util.errors import ConfigurationError
from tests.conftest import examples

pytestmark = pytest.mark.dist


# ---------------------------------------------------------------------------
# Numerics: pipelined == rows, bitwise
# ---------------------------------------------------------------------------


class TestPipelinedNumerics:
    def test_bit_identical_to_rows(self):
        batch = generators.random_dominant(3, 1 << 14, rng=11)
        rows = DistributedSolver(4, "static", mode="rows").solve(batch)
        pipelined = DistributedSolver(4, "static", mode="pipelined").solve(
            batch
        )
        assert pipelined.plan.mode == "pipelined"
        assert np.array_equal(pipelined.x, rows.x)

    def test_auto_picks_pipelined_without_changing_answers(self):
        batch = generators.random_dominant(1, 1 << 16, rng=3)
        auto = DistributedSolver(8, "static")
        result = auto.solve(batch)
        assert result.plan.mode == "pipelined"
        explicit = DistributedSolver(8, "static", mode="rows").solve(batch)
        assert np.array_equal(result.x, explicit.x)

    def test_pipelined_beats_fused_rows_at_scale(self):
        # The tentpole acceptance bar, pinned away from the benchmark:
        # >= 1.3x priced speedup at 16 devices on the 2^22-row system.
        for count in (16, 32):
            group = make_device_group("gtx470", count, "pcie3", "all_to_all")
            _, fused = DistributedSolver(group, "static", mode="rows").price(
                1, 1 << 22, 8
            )
            _, pipe = DistributedSolver(
                group, "static", mode="pipelined"
            ).price(1, 1 << 22, 8)
            assert fused.total_ms / pipe.total_ms >= 1.3

    def test_pipelined_needs_two_devices(self):
        solver = DistributedSolver(1, "static", mode="pipelined")
        with pytest.raises(ConfigurationError):
            solver.price(1, 1 << 16, 8)

    def test_governed_pipelined_solve_is_exact(self):
        batch = generators.random_dominant(2, 1 << 13, rng=5)
        solver = DistributedSolver(4, "static", mode="pipelined")
        result = solver.solve(batch, tolerance=1e-10)
        assert batch.residual(result.x).max() <= 1e-10


# ---------------------------------------------------------------------------
# Span parity: executing the fused local programs == pricing them
# ---------------------------------------------------------------------------


class TestPipelinedSpanParity:
    def test_execute_price_span_trees_match(self):
        tracer = Tracer()
        solver = DistributedSolver(
            4, "static", mode="pipelined", tracer=tracer
        )
        batch = generators.random_dominant(2, 1 << 14, rng=7)
        result = solver.solve(batch)
        (root,) = tracer.spans()
        executed = [s for s in root.children if s.category == "program"]
        assert len(executed) == 4  # one fused local program per device

        dsize = dtype_size(batch.dtype)
        for i, chunk_program in enumerate(executed):
            price_tracer = Tracer()
            engine = Engine.for_device(solver.group[i])
            engine.tracer = price_tracer
            program = result.plan.local_plans[i].lower(
                solver.group[i], dsize, fuse=True
            )
            engine.price(program)
            (priced,) = price_tracer.spans()
            # Frozen-dataclass equality: whole trees, kernels included.
            assert priced == chunk_program


# ---------------------------------------------------------------------------
# The list scheduler: dependency order and lane exclusivity
# ---------------------------------------------------------------------------


def _random_program(draw) -> Program:
    """A random (possibly silly, always well-formed) dist program."""
    p = draw(st.integers(min_value=2, max_value=4))
    group = make_device_group("gtx470", p, "pcie3", "all_to_all")
    num_steps = draw(st.integers(min_value=1, max_value=10))
    steps = []
    for i in range(num_steps):
        deps = tuple(
            sorted(
                draw(
                    st.sets(
                        st.integers(min_value=0, max_value=i - 1),
                        max_size=min(i, 3),
                    )
                )
            )
            if i
            else []
        )
        kind = draw(st.sampled_from(["compute", "transfer", "marker"]))
        device = draw(st.integers(min_value=0, max_value=p - 1))
        if kind == "transfer":
            dst = draw(st.integers(min_value=0, max_value=p - 1))
            steps.append(
                Step(
                    op=Transfer(float(draw(st.integers(0, 4))), device, dst),
                    device=device,
                    engine="xfer",
                    stage=f"xfer{i}",
                    shape=(1, 4096),
                    deps=deps,
                )
            )
        elif kind == "marker":
            steps.append(
                Step(
                    op=Unpad(),
                    device=device,
                    stage=f"marker{i}",
                    shape=(1, 4096),
                    deps=deps,
                )
            )
        else:
            # One-launch steps, and multi-launch ones (a k-step
            # cooperative split is k launches) that may start after a
            # transfer.
            op, shape = draw(
                st.sampled_from(
                    [
                        (ReducedSolve(4), (1, 4096)),
                        (Reconstruct(), (1, 4096)),
                        (SplitCoop(2), (1, 4096)),
                        (SplitCoop(5), (4, 4096)),
                        (OnChipSolve(64, "coalesced"), (16, 256)),
                    ]
                )
            )
            steps.append(
                Step(
                    op=op,
                    device=device,
                    stage=f"compute{i}",
                    shape=shape,
                    deps=deps,
                )
            )
    return Program(
        kind="dist",
        label=group.describe(),
        device_names=tuple(d.name for d in group),
        dtype_size=8,
        num_systems=1,
        system_size=4096,
        schedule="fused",
        steps=tuple(steps),
    ), group


class TestListScheduler:
    @settings(max_examples=examples(60), deadline=None)
    @given(st.data())
    def test_dependencies_never_run_backwards(self, data):
        program, group = _random_program(data.draw)
        run = Engine.for_group(group).price(program)
        assert len(run.trace) == len(program.steps)
        by_index = {t.index: t for t in run.trace}
        for i, step in enumerate(program.steps):
            trace = by_index[i]
            for dep in step.deps:
                # A consumer never starts before its producer — in
                # particular never before the producing transfer lands.
                assert trace.start_ms >= by_index[dep].end_ms

    @settings(max_examples=examples(60), deadline=None)
    @given(st.data())
    def test_lanes_are_never_double_booked(self, data):
        program, group = _random_program(data.draw)
        run = Engine.for_group(group).price(program)
        by_index = {t.index: t for t in run.trace}
        lanes = {}
        for i, step in enumerate(program.steps):
            if step.is_marker:
                continue
            t = by_index[i]
            for key in step.resource_keys:
                lanes.setdefault(key, []).append((t.start_ms, t.end_ms))
        for intervals in lanes.values():
            intervals.sort()
            for (s0, e0), (s1, _) in zip(intervals, intervals[1:]):
                assert s1 >= e0

    @settings(max_examples=examples(60), deadline=None)
    @given(st.data())
    def test_kernel_spans_tile_every_compute_instruction(self, data):
        program, group = _random_program(data.draw)
        engine = Engine.for_group(group)
        engine.tracer = Tracer()
        engine.price(program)
        (root,) = engine.tracer.spans()
        assert len(root.children) == len(program.steps)
        for span in root.children:
            step = program.steps[int(span.name[1:].split("]")[0])]
            if step.is_marker or isinstance(step.op, Transfer):
                assert span.children == ()
                continue
            kernels = span.children
            assert kernels and all(k.category == "kernel" for k in kernels)
            assert all(k.device == step.device for k in kernels)
            assert kernels[0].start_ms == span.start_ms
            for prev, cur in zip(kernels, kernels[1:]):
                assert cur.start_ms == prev.end_ms
            assert kernels[-1].end_ms == span.end_ms

    def test_solve_program_prices_as_a_one_device_dist_program(self):
        # A solve program is the one-device, single-chain case of the
        # list scheduler: relabelled as a dist program, the same steps
        # give the same makespan and step trace, bit for bit.
        tuner = make_tuner("static")
        checked = 0
        for name in ("gtx470", "gtx280"):
            device = make_device(name)
            for m in (1, 4, 32):
                for n in (1 << 6, 1 << 10, 1 << 14, 1 << 18):
                    switch = tuner.switch_points(device, m, n, 8)
                    fragment = lower_solve_plan(
                        plan_solve(device, m, n, 8, switch), device, 8
                    )
                    program = concat_solve_programs([fragment] * 3)
                    engine = Engine.for_device(device)
                    solve = engine.price(program)
                    dist = engine.price(replace(program, kind="dist"))
                    assert dist.total_ms == solve.total_ms
                    assert dist.trace == solve.trace
                    checked += 1
        assert checked == 24

    def test_trace_is_in_program_order(self):
        # The trace lists steps by program index, although the scheduler
        # may run them out of listed order.
        group = make_device_group("gtx470", 2, "pcie3", "all_to_all")
        program = Program(
            kind="dist",
            label="order",
            device_names=tuple(d.name for d in group),
            dtype_size=8,
            num_systems=1,
            system_size=4096,
            steps=(
                Step(
                    op=Transfer(4.0, 0, 1),
                    device=0,
                    engine="xfer",
                    shape=(1, 4096),
                ),
                Step(op=ReducedSolve(4), device=0, shape=(1, 4096)),
            ),
        )
        run = Engine.for_group(group).price(program)
        assert [t.index for t in run.trace] == [0, 1]
        # Independent work on separate lanes starts together: the
        # compute step does not wait for the transfer (overlap).
        assert run.trace[1].start_ms == 0.0
        assert run.trace[0].start_ms == 0.0

    def test_hub_ingress_serialises_but_disjoint_pairs_overlap(self):
        group = make_device_group("gtx470", 4, "pcie3", "all_to_all")

        def xfer(src, dst):
            return Step(
                op=Transfer(1024.0, src, dst),
                device=src,
                engine="xfer",
                shape=(64, 4096),
            )

        hub = Program(
            kind="dist",
            label="hub",
            device_names=tuple(d.name for d in group),
            dtype_size=8,
            num_systems=64,
            system_size=4096,
            steps=(xfer(1, 0), xfer(2, 0)),
        )
        run = Engine.for_group(group).price(hub)
        # Both messages claim dev0:ingress — they serialise.
        assert run.trace[1].start_ms >= run.trace[0].end_ms

        disjoint = Program(
            kind="dist",
            label="disjoint",
            device_names=tuple(d.name for d in group),
            dtype_size=8,
            num_systems=64,
            system_size=4096,
            steps=(xfer(1, 0), xfer(2, 3)),
        )
        run = Engine.for_group(group).price(disjoint)
        # No shared endpoint: full-duplex links run them concurrently.
        assert run.trace[0].start_ms == run.trace[1].start_ms == 0.0


# ---------------------------------------------------------------------------
# infer_dependencies
# ---------------------------------------------------------------------------


class TestInferDependencies:
    def _program(self, steps):
        return Program(
            kind="dist",
            label="x",
            device_names=("a", "b"),
            dtype_size=8,
            num_systems=1,
            system_size=64,
            steps=tuple(steps),
        )

    def test_adds_program_order_edges_on_shared_lane(self):
        program = self._program(
            [
                Step(op=ReducedSolve(2), device=0, shape=(1, 2)),
                Step(op=ReducedSolve(2), device=0, shape=(1, 2)),
                Step(op=ReducedSolve(2), device=1, shape=(1, 2)),
            ]
        )
        out = infer_dependencies(program)
        assert out is not program
        assert out.steps[1].deps == (0,)
        # A different device's lane is untouched.
        assert out.steps[2].deps == ()

    def test_explicit_edges_are_preserved(self):
        program = self._program(
            [
                Step(op=ReducedSolve(2), device=0, shape=(1, 2)),
                Step(op=ReducedSolve(2), device=0, shape=(1, 2), deps=(0,)),
            ]
        )
        assert infer_dependencies(program) is program

    def test_noop_on_every_lowering(self):
        # Every lowering emits explicit edges, so running the pass a
        # second time changes nothing — the correctness-preservation
        # argument for the overlap scheduler.
        for mode in ("rows", "batch", "pipelined"):
            solver = DistributedSolver(2, "static", mode=mode)
            n = 256 if mode == "batch" else 1 << 16
            m = 64 if mode == "batch" else 1
            plan, _ = solver.price(m, n, 8)
            program = solver.lower(plan, 8)
            assert infer_dependencies(program) is program


# ---------------------------------------------------------------------------
# Golden: the 8-device pipelined lane timeline
# ---------------------------------------------------------------------------


GOLDEN_8DEV_GANTT = """\
GeForce GTX 470 x8 (all_to_all:pcie3): 24.886 ms makespan (pipelined schedule, 99% compute utilization)
dev0  compute  |############################################################|    24.739 ms
dev0  out      |                                                           >|     0.010 ms
dev0  in       |                                                           <|     0.005 ms
dev1  compute  |############################################################|    24.739 ms
dev1  out      |                                                           >|     0.015 ms
dev1  in       |                                                           <|     0.015 ms
dev2  compute  |############################################################|    24.739 ms
dev2  out      |                                                           >|     0.015 ms
dev2  in       |                                                           <|     0.015 ms
dev3  compute  |############################################################|    24.739 ms
dev3  out      |                                                           >|     0.015 ms
dev3  in       |                                                           <|     0.015 ms
dev4  compute  |############################################################|    24.739 ms
dev4  out      |                                                           >|     0.015 ms
dev4  in       |                                                           <|     0.015 ms
dev5  compute  |############################################################|    24.739 ms
dev5  out      |                                                           >|     0.015 ms
dev5  in       |                                                           <|     0.015 ms
dev6  compute  |############################################################|    24.739 ms
dev6  out      |                                                           >|     0.015 ms
dev6  in       |                                                           <|     0.015 ms
dev7  compute  |############################################################|    24.733 ms
dev7  out      |                                                           >|     0.005 ms
dev7  in       |                                                           <|     0.010 ms
lanes: # compute   > egress (out)   < ingress (in)"""


class TestGoldenTimeline:
    def test_eight_device_pipelined_gantt_is_pinned(self):
        solver = DistributedSolver(8, "static", mode="pipelined")
        _, report = solver.price(1, 1 << 22, 8)
        assert render_overlap_gantt(report) == GOLDEN_8DEV_GANTT
