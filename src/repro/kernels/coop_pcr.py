"""Stage 1: cooperative multi-block PCR splitting (paper §III-C).

When only a few large systems exist, a per-block splitter (stage 2) would
leave most of the machine idle. The cooperative splitter spreads *one*
split step of *all* systems across many blocks, so the full memory
subsystem participates — at the price of a grid-wide synchronisation
(one kernel launch) per step, plus a scattered access pattern that
sustains only a fraction of peak bandwidth
(``DeviceSpec.coop_bandwidth_efficiency``).

The switch point "how many independent systems before stage 2 takes
over" is the paper's stage-1→2 parameter, tuned last by the self-tuner.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..gpu.cost import ComputePhase, KernelCost
from ..gpu.memory import MemoryTraffic
from .base import (
    GLOBAL_PCR_ALIGNED_VALUES_PER_EQ,
    GLOBAL_PCR_INSTR_PER_EQ,
    GLOBAL_PCR_NEIGHBOR_VALUES_PER_EQ,
    KernelContext,
    warps_for,
)

__all__ = ["CoopPcrKernel"]


@dataclass(frozen=True)
class CoopPcrKernel:
    """Cost model of the stage-1 cooperative splitter."""

    threads_per_block: int = 256
    regs_per_thread: int = 24
    # Equations each thread advances per step; sets the grid size.
    eqs_per_thread: int = 4

    def cost_per_step(
        self,
        ctx: KernelContext,
        total_equations: int,
        dsize: int,
        *,
        stride: int = 1,
    ) -> KernelCost:
        """Price one cooperative split step over ``total_equations``.

        ``stride`` is the step's coupling distance; large strides pay the
        partition-camping penalty on top of the cooperative-gather
        inefficiency.
        """
        from ..gpu.memory import partition_camping_factor

        spec = ctx.spec
        threads = min(self.threads_per_block, spec.max_threads_per_block)
        eqs_per_block = threads * self.eqs_per_thread
        grid = max(1, -(-total_equations // eqs_per_block))
        grid = min(grid, spec.max_grid_blocks)

        warp_instr = (
            warps_for(total_equations) * GLOBAL_PCR_INSTR_PER_EQ
        )
        traffic = MemoryTraffic()
        traffic.add(
            spec,
            float(total_equations) * GLOBAL_PCR_ALIGNED_VALUES_PER_EQ * dsize,
            stride=1,
        )
        traffic.add(
            spec,
            float(total_equations) * GLOBAL_PCR_NEIGHBOR_VALUES_PER_EQ * dsize,
            misaligned=True,
        )
        return KernelCost(
            name="coop_pcr[1 step]",
            grid_blocks=grid,
            threads_per_block=threads,
            smem_per_block=0,
            regs_per_thread=self.regs_per_thread,
            phases=[ComputePhase(warp_instr)],
            traffic=traffic,
            launches=1,
            extra_sync_us=spec.coop_sync_overhead_us,
            bandwidth_efficiency=(
                spec.coop_bandwidth_efficiency
                * partition_camping_factor(spec, stride)
            ),
        )
