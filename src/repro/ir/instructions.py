"""The typed instruction set and program container.

A solve — single-device, distributed, or merged-batch — is described as
a :class:`Program`: a straight-line sequence of :class:`Step`s, each
binding one opcode to a placement (device, engine, dependency edges).
Plans (:class:`~repro.core.planner.SolvePlan`,
:class:`~repro.dist.plan.DistPlan`) *lower* to programs; one interpreter
(:class:`~repro.ir.engine.Engine`) then either **executes** a program
(carrying real :class:`~repro.systems.TridiagonalBatch` data through the
kernel handlers) or **prices** it (data-free, submitting only
:class:`~repro.gpu.cost.KernelCost` and interconnect-transfer costs).
Keeping both interpretations of the *same* object is what guarantees
price/execute agreement by construction instead of by convention.

Opcodes are small frozen dataclasses. Count-dependent quantities live in
:attr:`Step.shape` — ``(num_systems, system_size)`` at that step — so a
program's :attr:`~Program.signature` (which excludes the system count)
stays stable when a plan is widened to a merged batch, exactly mirroring
:attr:`SolvePlan.signature`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Tuple

__all__ = [
    "Pad",
    "Unpad",
    "SplitCoop",
    "SplitBlock",
    "OnChipSolve",
    "Interleave",
    "BatchedSolve",
    "ReducedSolve",
    "Reconstruct",
    "Transfer",
    "Step",
    "Program",
    "MARKER_OPS",
    "signature_text",
]


# -- opcodes ----------------------------------------------------------------


@dataclass(frozen=True)
class Pad:
    """Pad every system to the plan's power-of-two size (free). In
    execute mode this loads the host's systems-innermost ``(n, m)``
    layout (a view for one power-of-two system) and checks the size; a
    :class:`~repro.systems.tridiagonal.SharedMatrixBatch` loads its
    matrix once and its ``r`` right-hand sides as ``(r, n, m)`` planes.
    """

    padded_size: int


@dataclass(frozen=True)
class Unpad:
    """Crop the solution back to the raw system size (free); in execute
    mode, unload the row-major ``(m, n)`` answer from the host layout,
    ``(r·m, n)`` with plane ``k`` as rows ``[k·m, (k+1)·m)`` for ``r``
    right-hand-side planes."""


@dataclass(frozen=True)
class SplitCoop:
    """Stage 1: ``steps`` cooperative PCR split steps, one launch each."""

    steps: int


@dataclass(frozen=True)
class SplitBlock:
    """Stage 2: ``steps`` per-block PCR split steps in one launch.

    ``start_stride`` is the physical coupling distance of the first step
    (>1 when stage 1 already split these systems).
    """

    steps: int
    start_stride: int = 1


@dataclass(frozen=True)
class OnChipSolve:
    """Stage 3+4: the shared-memory PCR-Thomas base kernel."""

    thomas_switch: int
    variant: str
    stride: int = 1


@dataclass(frozen=True)
class Interleave:
    """Layout conversion between row-major and interleaved (SoA) batches.

    ``direction="in"`` transposes the ``(m, n)`` coefficient batch into
    the :class:`~repro.systems.batched.BatchedTridiagonal` layout (four
    arrays); ``direction="out"`` transposes the solution back (one
    array). A real tiled-transpose pass on the device, so it is costed,
    not a marker — fusion only wins when the sweeps it enables buy back
    this toll. The host moves no data: ``Pad`` loaded this layout.
    """

    direction: str = "in"


@dataclass(frozen=True)
class BatchedSolve:
    """The fused interleaved-batch sweep (stages 1-4 in SoA layout).

    Replaces a ``SplitCoop``/``SplitBlock``/``OnChipSolve`` chain:
    ``stage1_steps + stage2_steps`` coalesced global split passes
    over the interleaved batch and the hybrid smem PCR-Thomas solve,
    each pass a vectorised sweep over the whole batch. Emitted
    only by the fusion pass (:func:`repro.ir.passes.fuse_batched`);
    numerics are bit-identical to the chain it replaces.
    """

    stage1_steps: int
    stage2_steps: int
    thomas_switch: int
    variant: str


@dataclass(frozen=True)
class ReducedSolve:
    """The SPIKE reduced system: an on-chip solve of ``system_size``-row
    systems (one per original system) on the host device."""

    system_size: int


@dataclass(frozen=True)
class Reconstruct:
    """The SPIKE correction ``x = y - w t - v s`` over one row chunk."""


@dataclass(frozen=True)
class Transfer:
    """Move ``values_per_system`` values per system between devices.

    The byte count is ``values_per_system * shape[0] * dtype_size`` —
    count-dependent data sizes stay out of the opcode so signatures
    remain count-independent. ``src == dst`` transfers are free.
    """

    values_per_system: float
    src: int
    dst: int


# Opcodes that are bookkeeping only: never priced, never drawn on a
# timeline (Pad/Unpad still load and unload the host layout, but cost
# nothing in the machine model).
MARKER_OPS = (Pad, Unpad)


def _op_signature(op) -> Tuple:
    return (type(op).__name__,) + tuple(
        getattr(op, f.name) for f in fields(op)
    )


# -- steps ------------------------------------------------------------------


@dataclass(frozen=True)
class Step:
    """One opcode bound to a placement.

    ``shape`` is ``(num_systems, system_size)`` as seen by this step
    (after any preceding splits). ``deps`` are indices of earlier steps
    that must finish first. The lanes a step serialises on follow from
    its engine and, for a ``Transfer``, its endpoints
    (:attr:`resource_keys`).
    """

    op: object
    device: int = 0
    engine: str = "compute"
    stage: str = ""
    shape: Tuple[int, int] = (0, 0)
    deps: Tuple[int, ...] = ()

    @property
    def resource_keys(self) -> Tuple[str, ...]:
        """Every serialising lane this step holds while it runs.

        Most steps hold one slot, the issuing device's engine
        (``dev{device}:{engine}``). A cross-device ``Transfer`` holds
        two: the source's **egress** lane and the destination's
        **ingress** lane. One device streaming out therefore never
        blocks a neighbour streaming in (full-duplex links), but two
        messages sharing either endpoint serialise — the hub contention
        the rows-mode reduced exchange suffers on ``dev0:ingress`` and
        the batch-mode scatter and gather on the host's links both fall
        out of the lane model.
        """
        op = self.op
        if isinstance(op, Transfer) and op.src != op.dst:
            return (f"dev{op.src}:egress", f"dev{op.dst}:ingress")
        return (f"dev{self.device}:{self.engine}",)

    @property
    def is_marker(self) -> bool:
        """Whether this step is free bookkeeping (no cost, no event)."""
        return isinstance(self.op, MARKER_OPS)

    @property
    def signature(self) -> Tuple:
        """What fixes this step's per-system behaviour.

        Excludes the system count (``shape[0]``) and the dependency
        indices; includes everything that changes the arithmetic or the
        placement.
        """
        return (
            _op_signature(self.op),
            self.device,
            self.engine,
            self.stage,
            self.shape[1],
        )

    def describe(self) -> str:
        """One-line rendering for program listings."""
        op = self.op
        parts = [f"{f.name}={getattr(op, f.name)!r}" for f in fields(op)]
        deps = ",".join(str(d) for d in self.deps) or "-"
        return (
            f"dev{self.device} {self.engine:<7s} {self.stage:<18s} "
            f"{type(op).__name__}({', '.join(parts)}) "
            f"shape={self.shape[0]}x{self.shape[1]} deps={deps}"
        )


# -- programs ---------------------------------------------------------------


@dataclass(frozen=True)
class Program:
    """A lowered plan: straight-line steps plus the execution context.

    ``kind`` is ``"solve"`` (single device; executable with data) or
    ``"dist"`` (multi-device; priced onto per-device timelines).
    ``system_size`` and ``num_systems`` describe the raw workload;
    per-step shapes carry the post-split sizes.
    """

    kind: str
    label: str
    device_names: Tuple[str, ...]
    dtype_size: int
    num_systems: int
    system_size: int
    schedule: str = ""
    topology: str = ""
    steps: Tuple[Step, ...] = ()

    @property
    def num_devices(self) -> int:
        """Devices the program places work on."""
        return len(self.device_names)

    @property
    def signature(self) -> Tuple:
        """Everything that fixes the per-system arithmetic and schedule —
        excluding the system count.

        Two workloads whose programs share a signature run the exact
        same per-system instruction sequence, so their batches may be
        merged and solved together with bit-identical per-system results
        — the contract the batched solve service groups by. Step
        signatures are sorted: a signature names the steps a program
        runs, not the order they are listed in, since the list scheduler
        rather than the listing orders a dist program's independent
        steps.
        """
        return (
            "program",
            self.kind,
            self.device_names,
            self.dtype_size,
            self.system_size,
            self.schedule,
            self.topology,
            tuple(sorted(signature_text(s.signature) for s in self.steps)),
        )

    def describe(self) -> str:
        """Multi-line program listing."""
        header = (
            f"{self.kind} program on {self.label or '/'.join(self.device_names)}"
            f" ({self.num_systems} x {self.system_size}, "
            f"dtype {self.dtype_size}B"
        )
        if self.schedule:
            header += f", schedule {self.schedule}"
        if self.topology:
            header += f", {self.topology}"
        header += f"): {len(self.steps)} steps"
        lines = [header]
        for i, step in enumerate(self.steps):
            lines.append(f"  [{i:>2d}] {step.describe()}")
        return "\n".join(lines)


def signature_text(sig) -> str:
    """Canonical text form of a (nested-tuple) signature.

    Used to key :class:`~repro.core.tuning.TuningCache` entries by
    program signatures — the JSON store needs string keys — and to sort
    step signatures inside :attr:`Program.signature`.
    """
    if isinstance(sig, (tuple, list)):
        return "(" + ",".join(signature_text(v) for v in sig) + ")"
    if isinstance(sig, float) and sig == int(sig):
        return str(int(sig))  # 6.0 and 6 name the same per-system count
    return repr(sig) if isinstance(sig, str) else str(sig)
