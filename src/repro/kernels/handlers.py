"""Per-opcode kernel handlers for the instruction-program engine.

Each IR opcode maps to two interpretations, both defined here:

- :func:`price_costs` — the exact :class:`~repro.gpu.cost.KernelCost`
  records a step submits, in submission order, built from the step's
  shape in the program. The engine submits them in *both* modes, so a
  step's price is a function of the program alone and executing a
  program can never price differently from pricing it.
- :func:`execute_step` — the numerics: run the step on an
  :class:`ExecState`. It prices nothing.

The marker opcodes ``Pad`` and ``Unpad`` cost nothing. Execute mode
keeps one host layout, the systems-innermost ``(n, m)``
:class:`~repro.systems.batched.BatchedTridiagonal`: ``Pad`` loads the
batch into it once and ``Unpad`` unloads the row-major solution once.
Every solve opcode runs :class:`~repro.kernels.chain.SplitChain` on that
view in the original equation order, so no step un-scatters a split
and ``Interleave``, priced as a tiled transpose, moves no data: fused
and unfused programs run the same host numerics.

A :class:`~repro.systems.tridiagonal.SharedMatrixBatch` loads its matrix
once and its ``r`` right-hand sides as ``(r, n, m)`` planes; its program
is the one for the logical ``r·m``-system batch it stands for. ``Pad``
copies each coefficient array and each dense plane once, straight from
the caller's arrays (for a SPIKE chunk, views of the whole batch), and
writes +0 over the two coupling corners as it copies. An impulse plane
is a zeroed plane with its one row written. ``Pad`` knows every plane's
extent as it loads it and hands them to the chain: plane 0, the data,
spans its system, an impulse is its row, and only a further dense plane
is scanned for its nonzero rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from ..ir.instructions import (
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
)
from ..systems.batched import BatchedTridiagonal
from ..systems.tridiagonal import SharedMatrixBatch, TridiagonalBatch
from ..util.errors import PlanError
from ..util.validation import next_power_of_two
from .base import KernelContext
from .batched import BatchedSweepKernel
from .chain import SplitChain, _extent, _new
from .coop_pcr import CoopPcrKernel
from .elementwise import ReconstructKernel, TransposeKernel
from .global_pcr import GlobalPcrKernel
from .pcr_thomas_smem import PcrThomasSmemKernel

__all__ = ["ExecState", "price_costs", "execute_step"]


# -- pricing ---------------------------------------------------------------


def price_costs(step: Step, ctx: KernelContext, dtype_size: int) -> List:
    """The kernel cost records ``step`` submits, in submission order, for
    its ``m`` logical systems of size ``n`` (``step.shape``).

    Markers and ``Transfer`` (priced by the engine itself) return an
    empty list.
    """
    op = step.op
    m, n = step.shape
    if isinstance(op, SplitCoop):
        coop = CoopPcrKernel()
        return [
            coop.cost_per_step(ctx, m * n, dtype_size, stride=1 << j)
            for j in range(op.steps)
        ]
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
        # Four coefficient arrays in, one solution out.
        arrays = 4 if op.direction == "in" else 1
        return [TransposeKernel().cost(ctx, m * n, dtype_size, arrays=arrays)]
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
    recycles it as its spare buffer set. A :class:`SharedMatrixBatch`
    of ``r`` planes loads ``d`` and solves ``x`` as ``(r, n_pad, m)``,
    and ``Unpad`` unloads its logical row-major ``(r·m, n)`` answer.
    ``extents`` are the loaded planes' extents for the chain, ``None``
    when every plane spans its system.
    """

    work: Union[TridiagonalBatch, SharedMatrixBatch, BatchedTridiagonal]
    x: Optional[np.ndarray] = None  # solution, once the on-chip solve ran
    original_n: int = 0  # pre-padding system size, for Unpad
    owned: bool = False  # whether work is Pad's private copy
    extents: Optional[List[Tuple[int, int]]] = None
    chain: Optional[SplitChain] = None  # the split stages, until the solve

    @classmethod
    def for_batch(
        cls, batch: Union[TridiagonalBatch, SharedMatrixBatch]
    ) -> "ExecState":
        """Initial state: the raw batch, no solution yet."""
        return cls(work=batch, original_n=batch.system_size)


def _load(batch: Union[TridiagonalBatch, SharedMatrixBatch], size: int):
    """``pad_pow2(batch)`` as ``(size, m)`` arrays, ``d`` as ``(r, size,
    m)`` for ``r`` planes; the planes' extents (``None``: each spans its
    system); and whether it copied."""
    m, n = batch.b.shape
    arrays = (batch.a, batch.b, batch.c, batch.d)
    if isinstance(batch, TridiagonalBatch):
        if m == 1 and n == size:
            return BatchedTridiagonal(*(arr.T for arr in arrays)), None, False
        d = dense = _new((size, m), batch.dtype)
    else:
        d = _new((batch.planes, size, m), batch.dtype)
        dense = d[: len(batch.d)]
    loaded = [_new((size, m), batch.dtype) for _ in range(3)] + [dense]
    for out, arr, fill in zip(loaded, arrays, (0, 1, 0, 0)):
        out[..., :n, :], out[..., n:, :] = np.swapaxes(arr, -1, -2), fill
    extents = None
    if isinstance(batch, SharedMatrixBatch):
        # The matrix's corners may hold couplings; the chain reads +0.
        loaded[0][0] = loaded[2][n - 1] = 0
        extents = [(0, size * m)] + [_extent(plane) for plane in dense[1:]]
        for plane, (row, values) in zip(d[len(dense) :], batch.impulses):
            plane.fill(0)
            plane[row] = values
            extents.append((row * m, (row + 1) * m))
    return BatchedTridiagonal(*loaded[:3], d), extents, True


def execute_step(step: Step, state: ExecState) -> None:
    """Run one step's numerics on ``state``."""
    op = step.op
    if isinstance(op, Pad):
        n = state.work.system_size
        if next_power_of_two(n) != op.padded_size:
            raise PlanError(
                f"plan was built for padded size {op.padded_size}, batch "
                f"pads to {next_power_of_two(n)}"
            )
        state.work, state.extents, state.owned = _load(state.work, op.padded_size)
        state.original_n = n
        return
    if isinstance(op, (SplitCoop, SplitBlock, OnChipSolve, BatchedSolve)):
        if state.chain is None:
            state.chain = SplitChain.of(
                state.work, owned=state.owned, extents=state.extents
            )
        chain = state.chain
        if isinstance(op, (SplitCoop, SplitBlock)):
            chain.split(op.steps)
            return
        if isinstance(op, BatchedSolve):
            chain.split(op.stage1_steps)
            chain.split(op.stage2_steps)
        # Free the step buffers before Unpad copies the answer out.
        state.x, state.chain = chain.solve(op.thomas_switch), None
        return
    if isinstance(op, Interleave):
        return  # Pad already loaded the interleaved layout.
    if isinstance(op, Unpad):
        n = state.original_n
        x = np.ascontiguousarray(np.swapaxes(state.x[..., :n, :], -1, -2))
        state.x = x.reshape(-1, n)
        return
    raise PlanError(
        f"opcode {type(op).__name__} is not executable on a single device"
    )
