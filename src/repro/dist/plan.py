"""Distributed solve plans.

A :class:`DistPlan` is to the :class:`~repro.dist.solver.DistributedSolver`
what a :class:`~repro.core.SolvePlan` is to the single-device solver: a
pure, frozen description of how a workload executes — here, how it is cut
across a :class:`~repro.dist.topology.DeviceGroup` and which local plan
each device runs. The exchange follows from the mode alone, so a plan,
its group and a value size fix the lowered program.

Two decomposition modes exist:

- ``rows`` — one (or a few) enormous systems are split SPIKE-style into
  per-device row chunks; each device solves its chunk against three
  right-hand sides in one local solve, ships its six boundary values to
  device 0, and the chunks couple through a small 2×2-block reduced
  system solved there (see :mod:`repro.algorithms.spike`).
- ``batch`` — a wide batch of small (on-chip) systems is sharded by
  system across devices with no coupling at all; communication is the
  scatter of coefficients and the gather of solutions.

A third mode, ``approx``, is rows with the reduced system truncated
away: each chunk interface becomes an independent 2×2 solve on the
right-hand device fed by one neighbour-to-neighbour transfer, so the
critical path stops growing with the device count. It is only chosen
when the caller passes a tolerance and the numerical-safety governor's
dominance estimate says the truncation error fits (see
:mod:`repro.numerics`); the result is always residual-checked.

A fourth mode, ``pipelined``, is rows made hub-free *without*
truncating: local solves lower fused (interleaved sweeps, bit-identical
to the staged chain) and the exact reduced system is solved by
pipelining block Thomas's forward/backward sweeps neighbour to
neighbour (see :func:`repro.ir.lower._lower_pipelined` and
:mod:`repro.dist.partition`). Solutions are bit-identical to ``rows``;
only the priced program differs.

Like ``SolvePlan``, a ``DistPlan`` carries a :attr:`~DistPlan.signature`
— everything that fixes the per-system arithmetic except the system
count — so the batched solve service can group plan-compatible oversized
requests into one merged distributed solve. ``batch`` mode is only
planned for systems that solve on-chip (no split steps), which makes its
local plans count-independent and the widening sound.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

from ..core.planner import SolvePlan
from ..util.errors import ConfigurationError
from .partition import batch_shares

__all__ = ["DistPlan", "batch_shares"]

MODES = ("rows", "batch", "approx", "pipelined")
# Modes that decompose by rows and share the SPIKE 3-RHS local solves
# (and hence the 3m widening rule and chunk-derived signatures).
ROWS_LIKE_MODES = ("rows", "approx", "pipelined")


@dataclass(frozen=True)
class DistPlan:
    """Executable description of one distributed solve."""

    mode: str  # "rows" | "batch" | "approx" | "pipelined"
    num_devices: int
    num_systems: int  # m, the workload's system count
    system_size: int  # n, raw (pre-padding) size
    chunk_sizes: Tuple[int, ...]  # rows: per-device rows; batch: per-device m
    topology: str  # Interconnect.describe() of the group
    device_name: str  # name of the (homogeneous) member devices
    local_plans: Tuple[SolvePlan, ...]  # one per active device

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigurationError(f"unknown dist mode {self.mode!r}")
        if len(self.local_plans) != len(self.chunk_sizes):
            raise ConfigurationError(
                "one local plan per active device is required"
            )

    @property
    def schedule(self) -> str:
        """The exchange label, fixed by the mode: ``"fused"`` for rows
        and approx (one 3-RHS local solve, then the exchange),
        ``"pipelined"`` for the neighbour sweep and batch's
        scatter/gather."""
        return "fused" if self.mode in ("rows", "approx") else "pipelined"

    @property
    def num_active_devices(self) -> int:
        """Devices that actually receive work (batch mode may idle some)."""
        return len(self.chunk_sizes)

    @property
    def signature(self) -> Tuple:
        """Everything that fixes the per-system arithmetic — all fields
        except the system count.

        Mirrors :attr:`repro.core.SolvePlan.signature`: the local solves
        are vectorised over systems and the local plans widen
        signature-preserving, so same-signature distributed requests can
        be merged into one group solve. Rows-mode chunk sizes derive from
        the system size alone and are included; batch-mode shares derive
        from the system count and are excluded (batch mode is restricted
        to on-chip local plans, whose signatures are count-independent).
        """
        local = tuple(plan.signature for plan in self.local_plans)
        chunks = self.chunk_sizes if self.mode in ROWS_LIKE_MODES else ()
        return (
            "dist",
            self.mode,
            self.system_size,
            self.num_devices,
            chunks,
            self.schedule,
            self.topology,
            self.device_name,
            tuple(sorted(set(local))),
        )

    def with_num_systems(self, num_systems: int) -> "DistPlan":
        """The same plan applied to a different number of systems.

        Used by the batched service to widen a per-request plan to a
        merged group. Local plans widen via
        :meth:`SolvePlan.with_num_systems`, preserving their signatures
        (and hence the arithmetic).
        """
        if num_systems == self.num_systems:
            return self
        if self.mode in ROWS_LIKE_MODES:
            per_device = (
                3 * num_systems if self.num_devices > 1 else num_systems
            )
            local = tuple(
                plan.with_num_systems(per_device) for plan in self.local_plans
            )
            return replace(
                self, num_systems=num_systems, local_plans=local
            )
        shares = batch_shares(num_systems, self.num_devices)
        template = self.local_plans[0]
        local = tuple(template.with_num_systems(share) for share in shares)
        return replace(
            self,
            num_systems=num_systems,
            chunk_sizes=shares,
            local_plans=local,
        )

    def lower(self, group, dtype_size: int):
        """Lower to a multi-device :class:`~repro.ir.Program`.

        The program is what the shared :class:`~repro.ir.Engine` prices
        into the distributed makespan report; see
        :func:`~repro.ir.lower.lower_dist_plan`.
        """
        from ..ir.lower import lower_dist_plan

        return lower_dist_plan(self, group, dtype_size)

    def describe(self) -> str:
        """Multi-line human-readable plan."""
        lines = [
            f"distributed {self.mode} solve: {self.num_systems} x "
            f"{self.system_size} over {self.num_devices} x "
            f"{self.device_name} ({self.topology}, {self.schedule})",
        ]
        unit = "rows" if self.mode in ROWS_LIKE_MODES else "systems"
        for i, (size, plan) in enumerate(
            zip(self.chunk_sizes, self.local_plans)
        ):
            lines.append(
                f"  dev{i}: {size} {unit} -> local "
                f"{plan.num_systems} x {plan.system_size} "
                f"(k1={plan.stage1_steps}, k2={plan.stage2_steps}, "
                f"onchip {plan.stage3_system_size})"
            )
        return "\n".join(lines)
