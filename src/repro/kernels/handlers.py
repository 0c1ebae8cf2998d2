"""Per-opcode kernel handlers for the instruction-program engine.

Each IR opcode maps to two interpretations, both defined here so a
kernel's price and its execution can never drift apart:

- :func:`price_costs` — the data-free view: the exact
  :class:`~repro.gpu.cost.KernelCost` records a step submits, in
  submission order. The engine folds them into step durations (price
  mode) or hands them to a session (solve pricing).
- :func:`execute_step` — the data-carrying view: run the kernel's
  numerics on an :class:`ExecState`, submitting the *same* cost records,
  built for the logical shape of the data it carries.

Marker opcodes (``Pad``/``Unpad``/``Unsplit``/``Barrier``) cost nothing.
Execute mode keeps one host layout, the systems-innermost ``(n, m)``
:class:`~repro.systems.batched.BatchedTridiagonal`: ``Pad`` loads the
batch into it once and ``Unpad`` unloads the row-major solution once.
Every solve opcode runs :class:`~repro.kernels.chain.SplitChain` on that
view in the original equation order, so ``Unsplit`` has nothing to
un-scatter and ``Interleave`` submits its priced transpose but moves no
data: fused and unfused programs run the same host numerics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from ..ir.instructions import (
    Barrier,
    BatchedSolve,
    Interleave,
    OnChipSolve,
    Pad,
    Reconstruct,
    ReducedSolve,
    SplitBlock,
    SplitCoop,
    Step,
    Unpad,
    Unsplit,
)
from ..systems.batched import BatchedTridiagonal
from ..systems.tridiagonal import TridiagonalBatch
from ..util.errors import PlanError
from ..util.validation import next_power_of_two
from .base import KernelContext
from .batched import BatchedSweepKernel
from .chain import SplitChain
from .coop_pcr import CoopPcrKernel
from .elementwise import ReconstructKernel, TransposeKernel
from .global_pcr import GlobalPcrKernel
from .pcr_thomas_smem import PcrThomasSmemKernel

__all__ = ["ExecState", "price_costs", "execute_step"]


# -- pricing ---------------------------------------------------------------


def price_costs(step: Step, ctx: KernelContext, dtype_size: int) -> List:
    """The kernel cost records ``step`` submits, in submission order.

    Markers and non-kernel opcodes (``Transfer``/``Fixed``, priced by
    the engine itself) return an empty list.
    """
    return _costs(step.op, ctx, *step.shape, dtype_size)


def _costs(op, ctx: KernelContext, m: int, n: int, dtype_size: int) -> List:
    """The cost records of ``op`` on ``m`` logical systems of size ``n``."""
    if isinstance(op, SplitCoop):
        coop = CoopPcrKernel()
        costs = []
        stride = 1
        for _ in range(op.steps):
            costs.append(
                coop.cost_per_step(ctx, m * n, dtype_size, stride=stride)
            )
            stride *= 2
        return costs
    if isinstance(op, SplitBlock):
        return [
            GlobalPcrKernel().cost(
                ctx, m, n, dtype_size, op.steps, start_stride=op.start_stride
            )
        ]
    if isinstance(op, OnChipSolve):
        kernel = PcrThomasSmemKernel(
            thomas_switch=op.thomas_switch, variant=op.variant
        )
        return [kernel.cost(ctx, m, n, dtype_size, op.stride)]
    if isinstance(op, Interleave):
        # Tiled transpose: four coefficient arrays in, one solution out.
        arrays = 4 if op.direction == "in" else 1
        return [
            TransposeKernel().cost(
                ctx, m * n, dtype_size, arrays=arrays, tiled=True
            )
        ]
    if isinstance(op, BatchedSolve):
        kernel = BatchedSweepKernel(
            stage1_steps=op.stage1_steps,
            stage2_steps=op.stage2_steps,
            thomas_switch=op.thomas_switch,
        )
        return [kernel.cost(ctx, m, n, dtype_size)]
    if isinstance(op, ReducedSolve):
        kernel = PcrThomasSmemKernel(
            thomas_switch=op.system_size, variant="coalesced"
        )
        return [kernel.cost(ctx, m, op.system_size, dtype_size, 1)]
    if isinstance(op, Reconstruct):
        return [ReconstructKernel().cost(ctx, m * n, dtype_size)]
    return []


# -- execution -------------------------------------------------------------


@dataclass
class ExecState:
    """Mutable data threaded through a solve-program execution.

    ``Pad`` replaces the caller's row-major ``work`` with the padded
    systems-innermost :class:`BatchedTridiagonal` ``(n_pad, m)``, and
    every solve opcode runs ``chain``, a :class:`SplitChain` over it
    that owns the step buffers. ``x`` is the ``(n_pad, m)`` solution
    until ``Unpad`` unloads the row-major ``(m, n)`` answer. For one
    power-of-two system both are views of the caller's arrays, which
    nothing writes; otherwise ``work`` is ``owned``, and the chain
    recycles it as its spare buffer set.
    """

    work: Union[TridiagonalBatch, BatchedTridiagonal]
    x: Optional[np.ndarray] = None  # solution, once the on-chip solve ran
    original_n: int = 0  # pre-padding system size, for Unpad
    owned: bool = False  # whether work is Pad's private copy
    chain: Optional[SplitChain] = None  # the split stages, until the solve

    @classmethod
    def for_batch(cls, batch: TridiagonalBatch) -> "ExecState":
        """Initial state: the raw batch, no solution yet."""
        return cls(work=batch, original_n=batch.system_size)


def _load(batch: TridiagonalBatch, size: int) -> Tuple[BatchedTridiagonal, bool]:
    """``pad_pow2(batch)`` as ``(size, m)`` arrays, and whether it copied."""
    m, n = batch.shape
    if m == 1 and n == size:
        return BatchedTridiagonal.interleave(batch), False
    loaded = [np.empty((size, m), dtype=batch.dtype) for _ in range(4)]
    for out, arr, fill in zip(loaded, (batch.a, batch.b, batch.c, batch.d), (0, 1, 0, 0)):
        out[:n], out[n:] = arr.T, fill
    return BatchedTridiagonal(*loaded), True


def execute_step(step: Step, ctx: KernelContext, state: ExecState) -> None:
    """Run one step's numerics (and cost submissions) on ``state``."""
    op = step.op
    if isinstance(op, Pad):
        n = state.work.system_size
        if next_power_of_two(n) != op.padded_size:
            raise PlanError(
                f"plan was built for padded size {op.padded_size}, batch "
                f"pads to {next_power_of_two(n)}"
            )
        state.work, state.owned = _load(state.work, op.padded_size)
        state.original_n = n
        return
    if isinstance(op, (SplitCoop, SplitBlock, OnChipSolve)):
        if state.chain is None:
            state.chain = SplitChain.of(state.work, owned=state.owned)
        chain = state.chain
        # Priced on the logical (m·G, n/G) subsystems, as the gathered
        # kernels price themselves; a split is checked before it prices.
        m, n = chain.shape
        if not isinstance(op, OnChipSolve):
            chain.split(op.steps)
        for cost in _costs(op, ctx, m, n, chain.dtype.itemsize):
            ctx.session.submit(cost, stage=step.stage)
        if isinstance(op, OnChipSolve):
            # Free the step buffers before Unpad copies the answer out.
            state.x, state.chain = chain.solve(op.thomas_switch), None
        return
    if isinstance(op, Interleave):
        # Priced only: Pad already loaded the interleaved layout.
        for cost in _costs(op, ctx, *step.shape, state.work.dtype.itemsize):
            ctx.session.submit(cost, stage=step.stage)
        return
    if isinstance(op, BatchedSolve):
        kernel = BatchedSweepKernel(
            stage1_steps=op.stage1_steps,
            stage2_steps=op.stage2_steps,
            thomas_switch=op.thomas_switch,
        )
        state.x = kernel.run(
            ctx, state.work, owned=state.owned, stage=step.stage
        )
        return
    if isinstance(op, Unpad):
        state.x = np.ascontiguousarray(state.x[: state.original_n].T)
        return
    if isinstance(op, (Unsplit, Barrier)):
        return
    raise PlanError(
        f"opcode {type(op).__name__} is not executable on a single device"
    )
