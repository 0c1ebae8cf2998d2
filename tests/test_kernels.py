"""Tests for the simulated-GPU kernels: numerics and cost accounting."""

import numpy as np
import pytest

from repro.algorithms import (
    max_residual,
    pcr_thomas_solve,
    pcr_unsplit_solution,
    thomas_solve,
)
from repro.core import SwitchPoints
from repro.core.planner import plan_solve
from repro.gpu import make_device
from repro.ir import Engine, SplitCoop, Step
from repro.kernels import (
    CoopPcrKernel,
    DivideKernel,
    GlobalPcrKernel,
    KernelContext,
    PcrThomasSmemKernel,
    SplitChain,
    ThomasGlobalKernel,
    TransposeKernel,
    warp_padded_threads,
    warps_for,
)
from repro.kernels.handlers import price_costs
from repro.systems import BatchedTridiagonal, generators
from repro.util.errors import ConfigurationError, ResourceExhaustedError


def _ctx(device="gtx470"):
    return KernelContext(make_device(device).session())


def _execute(batch, switch):
    """Solve ``batch`` on the gtx470 through the engine; ``(x, report)``."""
    device = make_device("gtx470")
    plan = plan_solve(device, *batch.shape, 8, switch)
    run = Engine.for_device(device).execute(plan.lower(device, 8), batch)
    return run.x, run.report


class TestHelpers:
    def test_warps_for(self):
        assert warps_for(1) == 1
        assert warps_for(32) == 1
        assert warps_for(33) == 2

    def test_warp_padded(self):
        assert warp_padded_threads(33) == 64

    def test_warps_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            warps_for(0)


class TestPcrThomasSmemKernel:
    def test_numerics_match_reference(self):
        batch = generators.random_dominant(8, 512, rng=0)
        x, report = _execute(batch, SwitchPoints(stage3_system_size=512, thomas_switch=128))
        np.testing.assert_allclose(x, pcr_thomas_solve(batch, 128), atol=1e-12)
        assert report.stage_ms().keys() == {"stage3_pcr_thomas"}

    def test_records_one_launch(self):
        batch = generators.random_dominant(4, 256, rng=1)
        _, report = _execute(batch, SwitchPoints())
        assert report.num_launches == 1
        assert report.total_ms > 0

    def test_rejects_oversized_system(self):
        ctx = _ctx("8800gtx")  # max on-chip 256
        with pytest.raises(ResourceExhaustedError):
            PcrThomasSmemKernel().cost(ctx, 2, 512, 8, 1)

    def test_rejects_unknown_variant(self):
        with pytest.raises(ConfigurationError):
            PcrThomasSmemKernel(variant="magic")

    def test_variants_equal_at_stride_one(self):
        ctx = _ctx()
        cost_c = PcrThomasSmemKernel(variant="coalesced").cost(ctx, 64, 512, 4, 1)
        cost_s = PcrThomasSmemKernel(variant="strided").cost(ctx, 64, 512, 4, 1)
        assert cost_c.traffic.effective_bytes == cost_s.traffic.effective_bytes

    def test_strided_pays_transaction_penalty(self):
        ctx = _ctx()
        base = PcrThomasSmemKernel(variant="strided").cost(ctx, 64, 512, 4, 1)
        far = PcrThomasSmemKernel(variant="strided").cost(ctx, 64, 512, 4, 64)
        assert far.traffic.effective_bytes > base.traffic.effective_bytes

    def test_coalesced_spill_grows_with_stride(self):
        ctx = _ctx()
        near = PcrThomasSmemKernel(variant="coalesced").cost(ctx, 64, 512, 4, 2)
        far = PcrThomasSmemKernel(variant="coalesced").cost(ctx, 64, 512, 4, 512)
        assert far.traffic.effective_bytes > near.traffic.effective_bytes

    def test_crossover_exists(self):
        """At large strides the strided variant must win (paper §III-A)."""
        ctx = _ctx()
        stride = 4096
        c = PcrThomasSmemKernel(variant="coalesced").cost(ctx, 64, 512, 4, stride)
        s = PcrThomasSmemKernel(variant="strided").cost(ctx, 64, 512, 4, stride)
        assert s.traffic.effective_bytes < c.traffic.effective_bytes

    def test_thomas_switch_clamped(self):
        ctx = _ctx()
        cost = PcrThomasSmemKernel(thomas_switch=1024).cost(ctx, 4, 64, 8, 1)
        assert cost.name == "pcr_thomas_smem[coalesced,T=64]"
        batch = generators.random_dominant(4, 64, rng=2)
        x = SplitChain.of(BatchedTridiagonal.interleave(batch)).solve(1024)
        assert max_residual(batch, np.ascontiguousarray(x.T)) < 1e-12

    def test_two_phases_recorded(self):
        ctx = _ctx()
        cost = PcrThomasSmemKernel(thomas_switch=64).cost(ctx, 16, 512, 4, 1)
        assert len(cost.phases) == 2
        pcr_phase, thomas_phase = cost.phases
        assert thomas_phase.active_threads_per_block == 64


class TestGlobalPcrKernel:
    def test_split_numerics(self):
        ctx = _ctx()
        batch = generators.random_dominant(16, 1024, rng=3)
        split = GlobalPcrKernel().run(ctx, batch, 256)
        assert split.shape == (64, 256)
        x = pcr_unsplit_solution(thomas_solve(split), 2)
        assert max_residual(batch, x) < 1e-12

    def test_noop_when_small_enough(self):
        ctx = _ctx()
        batch = generators.random_dominant(4, 128, rng=4)
        out = GlobalPcrKernel().run(ctx, batch, 256)
        assert out is batch
        assert ctx.session.report().num_launches == 0

    def test_single_launch_for_all_steps(self):
        ctx = _ctx()
        batch = generators.random_dominant(64, 4096, rng=5)
        GlobalPcrKernel().run(ctx, batch, 256)
        assert ctx.session.report().num_launches == 1

    def test_traffic_proportional_to_steps(self):
        ctx = _ctx()
        one = GlobalPcrKernel().cost(ctx, 64, 1024, 4, 1)
        three = GlobalPcrKernel().cost(ctx, 64, 1024, 4, 3)
        assert three.traffic.raw_bytes == pytest.approx(3 * one.traffic.raw_bytes)

    def test_camping_lowers_efficiency_at_large_strides(self):
        ctx = _ctx()
        near = GlobalPcrKernel().cost(ctx, 64, 1024, 4, 2, start_stride=1)
        far = GlobalPcrKernel().cost(ctx, 64, 1024, 4, 2, start_stride=1024)
        assert far.bandwidth_efficiency < near.bandwidth_efficiency

    def test_rejects_zero_steps(self):
        ctx = _ctx()
        with pytest.raises(ConfigurationError):
            GlobalPcrKernel().cost(ctx, 4, 64, 4, 0)


class TestCoopPcrKernel:
    def test_split_numerics(self):
        batch = generators.random_dominant(1, 4096, rng=6)
        x, report = _execute(batch, SwitchPoints(stage1_target_systems=16))
        assert report.stage_ms().keys() == {"stage1_coop_pcr", "stage3_pcr_thomas"}
        assert max_residual(batch, x) < 1e-12

    def test_one_launch_per_step(self):
        """The inter-step dependency forces a grid sync per split."""
        costs = price_costs(Step(op=SplitCoop(5), shape=(1, 1024)), _ctx(), 8)
        assert [cost.launches for cost in costs] == [1] * 5

    def test_zero_splits_is_noop(self):
        assert price_costs(Step(op=SplitCoop(0), shape=(1, 64)), _ctx(), 8) == []

    def test_too_many_splits_rejected(self):
        batch = generators.random_dominant(1, 64, rng=9)
        chain = SplitChain.of(BatchedTridiagonal.interleave(batch))
        with pytest.raises(ConfigurationError):
            chain.split(7)

    def test_sync_overhead_charged(self):
        ctx = _ctx()
        cost = CoopPcrKernel().cost_per_step(ctx, 1 << 20, 4)
        assert cost.extra_sync_us == ctx.spec.coop_sync_overhead_us

    def test_coop_less_efficient_than_stage2(self):
        """Stage 1's per-byte cost exceeds stage 2's (paper §III-C)."""
        ctx = _ctx()
        coop = CoopPcrKernel().cost_per_step(ctx, 1 << 20, 4)
        stage2 = GlobalPcrKernel().cost(ctx, 64, (1 << 20) // 64, 4, 1)
        assert coop.bandwidth_efficiency < stage2.bandwidth_efficiency


class TestThomasGlobalKernel:
    def test_numerics(self):
        ctx = _ctx()
        batch = generators.random_dominant(128, 64, rng=10)
        x = ThomasGlobalKernel().run(ctx, batch)
        np.testing.assert_allclose(x, thomas_solve(batch), atol=1e-13)

    def test_row_layout_pays_stride_penalty(self):
        ctx = _ctx()
        row = ThomasGlobalKernel(layout="row").cost(ctx, 1024, 64, 4)
        inter = ThomasGlobalKernel(layout="interleaved").cost(ctx, 1024, 64, 4)
        assert row.traffic.effective_bytes > inter.traffic.effective_bytes

    def test_rejects_unknown_layout(self):
        with pytest.raises(ConfigurationError):
            ThomasGlobalKernel(layout="diagonal")


class TestElementwiseKernels:
    def test_divide(self):
        ctx = _ctx()
        batch = generators.identity(4, 32)
        x = DivideKernel().run(ctx, batch)
        np.testing.assert_array_equal(x, batch.d)
        assert ctx.session.report().num_launches == 1

    def test_transpose(self):
        """Tiled: both global sides stream at unit stride."""
        cost = TransposeKernel().cost(_ctx(), 12, 4, arrays=4)
        assert cost.traffic.raw_bytes == 2 * 4 * 12 * 4
        assert cost.traffic.effective_bytes == cost.traffic.raw_bytes
