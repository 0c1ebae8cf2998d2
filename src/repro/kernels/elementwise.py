"""Trivial element-wise kernels (final divides, transposes).

The pure-global-PCR baseline finishes with ``x = d / b`` once every
equation stands alone; layout conversions (row-major ↔ interleaved) are a
single streaming pass. Both are bandwidth-bound one-liners, but they are
real launches on real hardware, so they get real cost records.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gpu.cost import ComputePhase, KernelCost
from ..gpu.memory import MemoryTraffic
from ..systems.tridiagonal import TridiagonalBatch
from .base import KernelContext, dtype_size, warps_for

__all__ = ["DivideKernel", "TransposeKernel", "ReconstructKernel"]


@dataclass(frozen=True)
class DivideKernel:
    """``x = d / b`` over a fully reduced batch."""

    threads_per_block: int = 256

    def run(
        self,
        ctx: KernelContext,
        batch: TridiagonalBatch,
        *,
        stage: str = "final_divide",
    ) -> np.ndarray:
        """Record one streaming pass and return the quotient."""
        spec = ctx.spec
        total = batch.total_equations
        dsize = dtype_size(batch.dtype)
        traffic = MemoryTraffic()
        traffic.add(spec, 3.0 * total * dsize, stride=1)  # read b, d; write x
        grid = max(1, -(-total // self.threads_per_block))
        cost = KernelCost(
            name="divide",
            grid_blocks=min(grid, spec.max_grid_blocks),
            threads_per_block=min(self.threads_per_block, spec.max_threads_per_block),
            regs_per_thread=8,
            phases=[ComputePhase(warps_for(total) * 2.0)],
            traffic=traffic,
        )
        ctx.session.submit(cost, stage=stage)
        return batch.d / batch.b


@dataclass(frozen=True)
class ReconstructKernel:
    """SPIKE correction ``x = y - w*t - v*s`` over one row chunk.

    Streams the local solution plus both spike vectors and writes the
    corrected values back: four values per element at stride 1, with a
    small FMA budget per warp.
    """

    threads_per_block: int = 256

    def cost(self, ctx: KernelContext, elements: int, dsize: int) -> KernelCost:
        """Cost of correcting ``elements`` solution values."""
        spec = ctx.spec
        traffic = MemoryTraffic()
        traffic.add(spec, 4.0 * elements * dsize, stride=1)
        threads = min(self.threads_per_block, spec.max_threads_per_block)
        grid = max(1, -(-elements // threads))
        return KernelCost(
            name="reconstruct",
            grid_blocks=min(grid, spec.max_grid_blocks),
            threads_per_block=threads,
            regs_per_thread=8,
            phases=[ComputePhase(warps_for(elements) * 4.0)],
            traffic=traffic,
        )


@dataclass(frozen=True)
class TransposeKernel:
    """Layout conversion pass over an ``(m, n)`` array, tiled through
    shared memory so both global sides stream at unit stride (the
    batched ``Interleave`` opcode)."""

    threads_per_block: int = 256

    def cost(
        self,
        ctx: KernelContext,
        elements: int,
        dsize: int,
        *,
        arrays: int = 1,
    ) -> KernelCost:
        """Price transposing ``arrays`` arrays of ``elements`` each."""
        spec = ctx.spec
        total = float(elements) * arrays
        traffic = MemoryTraffic()
        traffic.add(spec, 2.0 * total * dsize, stride=1)  # read + write
        threads = min(self.threads_per_block, spec.max_threads_per_block)
        grid = max(1, -(-int(total) // threads))
        return KernelCost(
            name="transpose[tiled]",
            grid_blocks=min(grid, spec.max_grid_blocks),
            threads_per_block=threads,
            smem_per_block=threads * dsize,
            regs_per_thread=8,
            phases=[ComputePhase(warps_for(int(total)) * 2.0)],
            traffic=traffic,
        )
