"""Tests for the instruction IR: lowering, passes, and the engine.

The contract under test is the tentpole invariant: a plan lowers to ONE
program, and interpreting that program with data (execute) or without
(price) gives identical timing — while execution's numerics stay
bit-identical to the pre-IR kernel sequence.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.padding import pad_pow2, unpad_solution
from repro.algorithms.pcr import pcr_unsplit_solution
from repro.core import MultiStageSolver, SwitchPoints, simulate_plan
from repro.core.planner import plan_solve
from repro.core.tuning import TuningCache, make_tuner
from repro.dist import DistributedSolver
from repro.gpu import make_device
from repro.ir import (
    BatchedSolve,
    Engine,
    Interleave,
    OnChipSolve,
    Pad,
    Program,
    ReducedSolve,
    SplitBlock,
    SplitCoop,
    Step,
    Transfer,
    Unpad,
    concat_solve_programs,
    fuse_batched,
    instructions,
    lower_solve_plan,
    run_default_passes,
    signature_text,
)
from repro.kernels import (
    CoopPcrKernel,
    GlobalPcrKernel,
    KernelContext,
    PcrThomasSmemKernel,
    dtype_size,
)
from repro.systems import generators, paper_workloads
from repro.util.errors import PlanError


def _static_switch(device, m, n, dsize):
    return make_tuner("static").switch_points(device, m, n, dsize)


def _reference_solve(device, batch, plan):
    """The pre-IR kernel sequence, inlined verbatim from the old solver."""
    padded, original_n = pad_pow2(batch)
    session = device.session()
    ctx = KernelContext(session)
    work = padded
    if plan.uses_stage1:
        work = CoopPcrKernel().run(ctx, work, plan.stage1_steps)
    if plan.uses_stage2:
        work = GlobalPcrKernel().run(
            ctx,
            work,
            plan.stage3_system_size,
            start_stride=1 << plan.stage1_steps,
        )
    kernel = PcrThomasSmemKernel(
        thomas_switch=plan.thomas_switch, variant=plan.variant
    )
    x = kernel.run(ctx, work, stride=plan.stride)
    x = pcr_unsplit_solution(x, plan.stage2_steps)
    x = pcr_unsplit_solution(x, plan.stage1_steps)
    x = unpad_solution(x, original_n)
    return x, session.report()


class TestGoldenPrograms:
    """Pin the lowered programs of the paper's Figure-6/7 workloads."""

    # (op name, *op fields, step shape) per step; statically tuned, f64.
    GOLDEN = {
        "1Kx1K": [
            ("Pad", 1024, (1024, 1024)),
            ("OnChipSolve", 64, "coalesced", 1, (1024, 1024)),
            ("Unpad", (1024, 1024)),
        ],
        "2Kx2K": [
            ("Pad", 2048, (2048, 2048)),
            ("SplitBlock", 1, 1, (2048, 2048)),
            ("OnChipSolve", 64, "coalesced", 2, (4096, 1024)),
            ("Unpad", (2048, 2048)),
        ],
        "4Kx4K": [
            ("Pad", 4096, (4096, 4096)),
            ("SplitBlock", 2, 1, (4096, 4096)),
            ("OnChipSolve", 64, "coalesced", 4, (16384, 1024)),
            ("Unpad", (4096, 4096)),
        ],
        "1x2M": [
            ("Pad", 2097152, (1, 2097152)),
            ("SplitCoop", 5, (1, 2097152)),
            ("SplitBlock", 6, 32, (32, 65536)),
            ("OnChipSolve", 64, "coalesced", 2048, (2048, 1024)),
            ("Unpad", (1, 2097152)),
        ],
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_lowered_program_is_pinned(self, name):
        device = make_device("gtx470")
        workload = next(w for w in paper_workloads() if w.name == name)
        m, n = workload.shape
        switch = _static_switch(device, m, n, 8)
        program = plan_solve(device, m, n, 8, switch).lower(device, 8)
        got = [
            (type(s.op).__name__,)
            + tuple(
                getattr(s.op, f) for f in s.op.__dataclass_fields__
            )
            + (s.shape,)
            for s in program.steps
        ]
        assert got == self.GOLDEN[name]

    def test_steps_chain_linearly(self):
        device = make_device("gtx470")
        switch = _static_switch(device, 1, 1 << 21, 8)
        program = plan_solve(device, 1, 1 << 21, 8, switch).lower(device, 8)
        assert program.steps[0].deps == ()
        for i, step in enumerate(program.steps[1:], start=1):
            assert step.deps == (i - 1,)


class TestExecutePriceAgreement:
    """The same program, interpreted with and without data, times equal."""

    @pytest.mark.parametrize(
        "m,n",
        [(4, 1000), (32, 512), (1, 4097), (7, 64), (2048, 2048)],
    )
    def test_totals_and_stages_bit_identical(self, m, n):
        device = make_device("gtx470")
        switch = _static_switch(device, m, n, 8)
        batch = generators.random_dominant(m, min(n, 4096), rng=3)
        # Price at the batch's real shape so both sides see one program.
        plan, priced = simulate_plan(
            device, m, batch.system_size, 8, switch
        )
        executed = MultiStageSolver(device, switch).execute_plan(
            batch, plan, switch
        )
        assert executed.report.total_ms == priced.total_ms
        assert executed.report.stage_ms() == priced.stage_ms()

    def test_paper_workloads_price_data_free(self):
        """The nominal figure shapes price without materialising data."""
        device = make_device("gtx470")
        for workload in paper_workloads():
            m, n = workload.shape
            switch = _static_switch(device, m, n, 8)
            plan, report = simulate_plan(device, m, n, 8, switch)
            run = Engine.for_device(device).price(plan.lower(device, 8))
            assert run.report.total_ms == report.total_ms
            assert report.total_ms > 0


class TestOldSequenceParity:
    """Engine execution matches the pre-IR kernel sequence bit-for-bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("m,n", [(4, 1000), (1, 4097), (16, 2048), (5, 100)])
    def test_solution_and_timing_match_reference(self, dtype, m, n):
        device = make_device("gtx470")
        batch = generators.random_dominant(m, n, rng=17, dtype=dtype)
        dsize = dtype_size(batch.dtype)
        switch = _static_switch(device, m, n, dsize)
        plan = plan_solve(device, m, n, dsize, switch)

        ref_x, ref_report = _reference_solve(device, batch, plan)
        result = MultiStageSolver(device, switch).execute_plan(
            batch, plan, switch
        )
        assert np.array_equal(result.x, ref_x)
        assert result.report.total_ms == ref_report.total_ms
        assert result.report.stage_ms() == ref_report.stage_ms()

    @settings(max_examples=20, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=9),
        n=st.integers(min_value=8, max_value=3000),
        dsize=st.sampled_from([4, 8]),
    )
    def test_property_parity(self, m, n, dsize):
        device = make_device("gtx470")
        dtype = np.float32 if dsize == 4 else np.float64
        batch = generators.random_dominant(m, n, rng=m * 10007 + n, dtype=dtype)
        switch = _static_switch(device, m, n, dsize)
        plan = plan_solve(device, m, n, dsize, switch)
        ref_x, ref_report = _reference_solve(device, batch, plan)
        result = MultiStageSolver(device, switch).execute_plan(
            batch, plan, switch
        )
        assert np.array_equal(result.x, ref_x)
        assert result.report.total_ms == ref_report.total_ms


class TestDistEnginePricing:
    """The dist solver's report is the engine's pricing of its program."""

    def test_execute_report_equals_priced_report(self):
        solver = DistributedSolver(3, "static", mode="rows")
        batch = generators.random_dominant(2, 4096, rng=5)
        result = solver.solve(batch)
        program = solver.lower(result.plan, 8)
        run = Engine.for_group(solver.group).price(program)
        assert result.report.total_ms == run.report.total_ms

    def test_batch_mode_gather_orders_by_completion(self):
        solver = DistributedSolver(3, "static", mode="batch")
        plan, report = solver.price(1000, 256, 8)
        program = solver.lower(plan, 8)
        sends = [
            s for s in program.steps
            if isinstance(s.op, Transfer) and s.stage == "send_solution"
        ]
        assert len(sends) == 2
        # All gathers funnel through the host's ingress lane (claimed by
        # the lane model, not a hand-placed resource string).
        assert all("dev0:ingress" in s.resource_keys for s in sends)


class TestPasses:
    def test_zero_split_plans_have_no_split_steps(self):
        device = make_device("gtx470")
        switch = _static_switch(device, 1024, 1024, 8)
        program = plan_solve(device, 1024, 1024, 8, switch).lower(device, 8)
        ops = {type(s.op).__name__ for s in program.steps}
        assert "SplitCoop" not in ops
        assert "SplitBlock" not in ops

    def test_validation_rejects_transfer_in_solve(self):
        program = Program(
            kind="solve",
            label="bad",
            device_names=("GeForce GTX 470",),
            dtype_size=8,
            num_systems=1,
            system_size=64,
            steps=(
                Step(op=Transfer(2.0, 0, 0), engine="xfer", shape=(1, 64)),
            ),
        )
        with pytest.raises(PlanError):
            run_default_passes(program)

    def test_validation_rejects_out_of_range_device(self):
        program = Program(
            kind="dist",
            label="bad",
            device_names=("a", "b"),
            dtype_size=8,
            num_systems=1,
            system_size=64,
            steps=(Step(op=Transfer(2.0, 0, 5), engine="xfer", shape=(1, 64)),),
        )
        with pytest.raises(PlanError):
            run_default_passes(program)


@pytest.mark.fusion
class TestFuseBatched:
    """The fusion pass: staged chains become interleaved batch sweeps."""

    # Fused forms of two pinned workloads (statically tuned, f64).
    GOLDEN = {
        # On-chip only: Pad / Interleave / BatchedSolve / Interleave / Unpad.
        "1Kx1K": [
            ("Pad", 1024, ""),
            ("Interleave", "in", "interleave"),
            ("BatchedSolve", 64, "coalesced", 0, 0, "fused_sweep"),
            ("Interleave", "out", "deinterleave"),
            ("Unpad", ""),
        ],
        # Split-heavy: the block splits fold into the BatchedSolve op.
        "4Kx4K": [
            ("Pad", 4096, ""),
            ("Interleave", "in", "interleave"),
            ("BatchedSolve", 64, "coalesced", 0, 2, "fused_sweep"),
            ("Interleave", "out", "deinterleave"),
            ("Unpad", ""),
        ],
    }

    def _lower(self, name, fuse):
        device = make_device("gtx470")
        workload = next(w for w in paper_workloads() if w.name == name)
        m, n = workload.shape
        switch = _static_switch(device, m, n, 8)
        return plan_solve(device, m, n, 8, switch).lower(
            device, 8, fuse=fuse
        )

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_fused_program_is_pinned(self, name):
        program = self._lower(name, fuse=True)
        got = []
        for s in program.steps:
            op = s.op
            if isinstance(op, Pad):
                got.append(("Pad", op.padded_size, s.stage))
            elif isinstance(op, Interleave):
                got.append(("Interleave", op.direction, s.stage))
            elif isinstance(op, BatchedSolve):
                got.append(
                    (
                        "BatchedSolve",
                        op.thomas_switch,
                        op.variant,
                        op.stage1_steps,
                        op.stage2_steps,
                        s.stage,
                    )
                )
            elif isinstance(op, Unpad):
                got.append(("Unpad", s.stage))
        assert got == self.GOLDEN[name]
        assert program.steps[0].deps == ()
        for i, step in enumerate(program.steps[1:], start=1):
            assert step.deps == (i - 1,)

    def test_fusion_is_idempotent(self):
        fused = self._lower("4Kx4K", fuse=True)
        # A changed-nothing pass returns the same object.
        assert fuse_batched(fused) is fused

    def test_unfusable_programs_pass_through_unchanged(self):
        # No staged fragment anywhere: the pass must return the very
        # same object (the changed-nothing contract).
        program = Program(
            kind="dist",
            label="exchange-only",
            device_names=("a", "b"),
            dtype_size=8,
            num_systems=2,
            system_size=64,
            steps=(
                Step(
                    op=Transfer(2.0, 0, 1),
                    device=1,
                    engine="xfer",
                    shape=(2, 64),
                ),
                Step(op=ReducedSolve(2), device=1, shape=(2, 2), deps=(0,)),
            ),
        )
        assert fuse_batched(program) is program

    def test_dist_rows_fragments_fuse_on_request(self):
        # Since the lane-model refactor, dist programs are fusable too:
        # each device's self-contained local fragment collapses into the
        # interleaved BatchedSolve (the multi-device --fuse composition).
        solver = DistributedSolver(2, "static", mode="rows")
        plan, _ = solver.price(1, 1 << 16, 8)
        unfused = solver.lower(plan, 8)
        fused = fuse_batched(unfused)
        assert fused is not unfused
        ops = {type(s.op).__name__ for s in fused.steps}
        assert "BatchedSolve" in ops
        # Exchange structure is untouched: same transfers either way.
        n_xfer = sum(isinstance(s.op, Transfer) for s in unfused.steps)
        assert sum(isinstance(s.op, Transfer) for s in fused.steps) == n_xfer

    def test_fused_signature_is_count_independent(self):
        device = make_device("gtx470")
        switch = _static_switch(device, 8, 2048, 8)
        plan = plan_solve(device, 8, 2048, 8, switch)
        a = plan.lower(device, 8, fuse=True)
        b = plan.with_num_systems(123).lower(device, 8, fuse=True)
        assert a.signature == b.signature
        # And the fused signature differs from the unfused one.
        assert a.signature != plan.lower(device, 8).signature

    def test_validation_rejects_batched_ops_in_dist_programs(self):
        program = Program(
            kind="dist",
            label="bad",
            device_names=("a",),
            dtype_size=8,
            num_systems=2,
            system_size=64,
            steps=(
                Step(
                    op=Interleave("in"),
                    engine="kernel",
                    shape=(2, 64),
                    stage="interleave",
                ),
            ),
        )
        with pytest.raises(PlanError):
            run_default_passes(program)

    @settings(max_examples=15, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=9),
        n=st.integers(min_value=8, max_value=3000),
    )
    def test_property_fused_execute_matches_unfused(self, m, n):
        device = make_device("gtx470")
        dsize = 8
        batch = generators.random_dominant(m, n, rng=m * 104729 + n)
        switch = _static_switch(device, m, n, dsize)
        plan = plan_solve(device, m, n, dsize, switch)
        engine = Engine.for_device(device)
        unfused = engine.execute(plan.lower(device, dsize), batch)
        fused = engine.execute(plan.lower(device, dsize, fuse=True), batch)
        assert np.array_equal(unfused.x, fused.x)

    def test_fused_price_equals_execute(self):
        device = make_device("gtx280")
        batch = generators.random_dominant(16, 2048, rng=8)
        switch = _static_switch(device, 16, 2048, 8)
        program = plan_solve(device, 16, 2048, 8, switch).lower(
            device, 8, fuse=True
        )
        engine = Engine.for_device(device)
        assert (
            engine.execute(program, batch).report.total_ms
            == engine.price(program).report.total_ms
        )


@pytest.mark.fusion
class TestConcatSolvePrograms:
    def _single(self, n=64, device=None):
        device = device or make_device("gtx470")
        switch = _static_switch(device, 1, n, 8)
        return lower_solve_plan(
            plan_solve(device, 1, n, 8, switch), device, 8
        )

    def test_concat_sums_systems_and_rebases_deps(self):
        single = self._single()
        merged = concat_solve_programs([single] * 3)
        assert merged.num_systems == 3
        assert len(merged.steps) == 3 * len(single.steps)
        for i, step in enumerate(merged.steps):
            base = (i // len(single.steps)) * len(single.steps)
            expect = tuple(
                base + d for d in single.steps[i % len(single.steps)].deps
            )
            assert step.deps == expect

    def test_fused_concat_collapses_to_one_sweep(self):
        merged = concat_solve_programs([self._single()] * 50, fuse=True)
        assert merged.num_systems == 50
        ops = [type(s.op).__name__ for s in merged.steps]
        assert ops == [
            "Pad", "Interleave", "BatchedSolve", "Interleave", "Unpad",
        ]

    def test_concat_rejects_mismatches(self):
        a = self._single(64)
        b = self._single(128)
        with pytest.raises(PlanError):
            concat_solve_programs([a, b])
        with pytest.raises(PlanError):
            concat_solve_programs([])

    def test_concat_executes_like_independent_solves(self):
        device = make_device("gtx470")
        batches = [
            generators.random_dominant(1, 64, rng=i) for i in range(4)
        ]
        single = self._single()
        engine = Engine.for_device(device)
        expected = np.vstack(
            [engine.execute(single, b).x for b in batches]
        )
        from repro.systems.tridiagonal import TridiagonalBatch

        merged_batch = TridiagonalBatch(
            np.vstack([b.a for b in batches]),
            np.vstack([b.b for b in batches]),
            np.vstack([b.c for b in batches]),
            np.vstack([b.d for b in batches]),
        )
        fused = concat_solve_programs([single] * 4, fuse=True)
        got = engine.execute(fused, merged_batch)
        np.testing.assert_array_equal(got.x, expected)


class TestPassChangeReporting:
    """Passes report no-change by returning the same Program object,
    which lets the pipeline skip the canonicalise re-walk."""

    def _program(self):
        device = make_device("gtx470")
        switch = _static_switch(device, 4, 4096, 8)
        return plan_solve(device, 4, 4096, 8, switch).lower(device, 8)

    def test_canonicalize_is_identity_on_canonical_programs(self):
        from repro.ir.passes import canonicalize, eliminate_dead_steps

        program = self._program()  # already through the default pipeline
        assert canonicalize(program) is program
        assert eliminate_dead_steps(program) is program

    def test_fuse_batched_identity_when_nothing_to_fuse(self):
        fused = run_default_passes(self._program(), fuse=True)
        assert fuse_batched(fused) is fused

    def test_run_default_passes_idempotent(self):
        program = self._program()
        assert run_default_passes(program) == program
        fused = run_default_passes(program, fuse=True)
        assert run_default_passes(fused, fuse=True) == fused


class TestSignatures:
    def test_signature_is_count_independent(self):
        device = make_device("gtx470")
        switch = _static_switch(device, 8, 2048, 8)
        plan = plan_solve(device, 8, 2048, 8, switch)
        widened = plan.with_num_systems(123)
        assert (
            plan.lower(device, 8).signature
            == widened.lower(device, 8).signature
        )

    def test_signature_distinguishes_system_size(self):
        device = make_device("gtx470")
        switch = _static_switch(device, 8, 2048, 8)
        a = plan_solve(device, 8, 1024, 8, switch).lower(device, 8)
        b = plan_solve(device, 8, 2048, 8, switch).lower(device, 8)
        assert a.signature != b.signature

    def test_signature_text_is_stable(self):
        sig = (("OnChipSolve", 64, "coalesced", 1), 0, "compute", 6.0)
        text = signature_text(sig)
        assert text == "(('OnChipSolve',64,'coalesced',1),0,'compute',6)"

    def test_lower_solve_plan_matches_method(self):
        device = make_device("gtx470")
        switch = _static_switch(device, 4, 4096, 8)
        plan = plan_solve(device, 4, 4096, 8, switch)
        assert lower_solve_plan(plan, device, 8) == plan.lower(device, 8)


class TestTuningCacheStructuredKeys:
    def test_tuple_workload_class_roundtrips(self):
        cache = TuningCache()
        sp = SwitchPoints(thomas_switch=128, source="dynamic")
        klass = ("workload", 8, (("OnChipSolve", 64, "coalesced", 1), 1024))
        cache.put("dev", 8, sp, workload_class=klass)
        assert cache.get("dev", 8, workload_class=klass) == sp
        assert cache.get("dev", 8, workload_class="other") is None

    def test_tuple_keys_survive_persistence(self, tmp_path):
        path = tmp_path / "tuning.json"
        sp = SwitchPoints(thomas_switch=64, source="dynamic")
        klass = ("workload", 3, ("Pad", 2048))
        TuningCache(path).put("gtx470", 4, sp, workload_class=klass)
        reloaded = TuningCache(path)
        assert reloaded.get("gtx470", 4, workload_class=klass) == sp

    def test_self_tuner_program_classes_share_runs(self):
        """Shapes that lower to the same program share one tuning run."""
        from repro.core import SelfTuner

        tuner = SelfTuner()
        device = make_device("gtx470")
        first = tuner.switch_points(device, 1024, 1024, 4)
        second = tuner.switch_points(device, 1024, 1000, 4)  # pads to 1024
        assert first == second
        assert len(tuner.cache) == 1


class TestEngineGuards:
    def test_execute_rejects_dist_programs(self):
        solver = DistributedSolver(2, "static", mode="rows")
        plan, _ = solver.price(1, 1 << 16, 8)
        program = solver.lower(plan, 8)
        batch = generators.random_dominant(1, 64, rng=1)
        with pytest.raises(PlanError):
            Engine.for_group(solver.group).execute(program, batch)

    def test_bare_name_engine_cannot_price_kernels(self):
        device = make_device("gtx470")
        switch = _static_switch(device, 4, 1024, 8)
        program = plan_solve(device, 4, 1024, 8, switch).lower(device, 8)
        with pytest.raises(PlanError):
            Engine(("not-a-device",)).price(program)

    def test_padded_size_mismatch_reported_at_pad_step(self):
        device = make_device("gtx470")
        switch = _static_switch(device, 4, 1024, 8)
        plan = plan_solve(device, 4, 1024, 8, switch)
        batch = generators.random_dominant(4, 2048, rng=2)
        with pytest.raises(PlanError, match="padded size"):
            MultiStageSolver(device, switch).execute_plan(
                batch, plan, switch
            )


class TestSessionSnapshot:
    """The report() satellite: observing a session must not close it."""

    def test_snapshot_does_not_close(self):
        device = make_device("gtx470")
        switch = _static_switch(device, 4, 1024, 8)
        program = plan_solve(device, 4, 1024, 8, switch).lower(device, 8)
        session = device.session()
        ctx = KernelContext(session)
        from repro.kernels import handlers

        for step in program.steps:
            for cost in handlers.price_costs(step, ctx, 8):
                session.submit(cost, stage=step.stage)
            mid = session.snapshot()  # must not close the session
            assert mid.total_ms == session.elapsed_ms
        final = session.report()
        assert final.total_ms == session.elapsed_ms

    def test_trace_spans_partition_the_report(self):
        device = make_device("gtx470")
        switch = _static_switch(device, 1, 1 << 18, 8)
        plan, _ = simulate_plan(device, 1, 1 << 18, 8, switch)
        run = Engine.for_device(device).price(plan.lower(device, 8))
        assert run.trace[0].start_ms == 0.0
        for prev, cur in zip(run.trace, run.trace[1:]):
            assert cur.start_ms == prev.end_ms
        assert run.trace[-1].end_ms == run.report.total_ms


def test_ir_reexports_cover_opcodes():
    # The package namespace is the documented API surface.
    for symbol in (Pad, Unpad, SplitCoop, SplitBlock, OnChipSolve):
        assert symbol.__module__ == "repro.ir.instructions"


def test_every_exported_opcode_is_lowered():
    # An opcode no lowering emits is dead API: the engine, the handlers
    # and the passes would carry a branch that only tests reach.
    opcodes = {
        obj
        for obj in (getattr(instructions, name) for name in instructions.__all__)
        if dataclasses.is_dataclass(obj) and obj not in (Step, Program)
    }
    device = make_device("gtx470")
    programs = []
    for workload in paper_workloads():
        m, n = workload.shape
        plan = plan_solve(device, m, n, 8, _static_switch(device, m, n, 8))
        programs += [
            lower_solve_plan(plan, device, 8, fuse=fuse) for fuse in (False, True)
        ]
    for mode, schedule, m, n in [
        ("rows", "fused", 1, 1 << 20),
        ("rows", "split", 1, 1 << 20),
        ("batch", "auto", 64, 1024),
        ("approx", "auto", 1, 1 << 20),
        ("pipelined", "auto", 1, 1 << 20),
    ]:
        solver = DistributedSolver(4, "static", mode=mode, schedule=schedule)
        plan, _ = solver.price(m, n, 8)
        programs.append(solver.lower(plan, 8))
    emitted = {type(step.op) for program in programs for step in program.steps}
    assert opcodes - emitted == set()
