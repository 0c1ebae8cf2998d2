"""The base kernel: hybrid PCR-Thomas in shared memory (paper §III-A).

One block loads one system (or subsystem) into shared memory, runs PCR
until ``thomas_switch`` independent subsystems exist, then lets each
thread finish one subsystem with the Thomas algorithm. Systems must fit
on-chip (:meth:`DeviceSpec.max_onchip_system_size`).

Two memory-access variants exist when the systems being solved are
*subsystems* of a larger split system, interleaved in global memory with
a stride (paper §III-A, last paragraph):

- ``strided`` — load exactly the subsystem's elements with a strided
  (uncoalesced) access, paying the transaction-inflation penalty once on
  load and once on store, but enjoying full shared-memory communication;
- ``coalesced`` — load a contiguous window, so loads coalesce perfectly,
  but neighbour accesses whose distance exceeds the in-window chunk must
  go to global memory during the solve.

Which variant wins depends on the stride and the device — exactly the
decision the paper delegates to the self-tuner.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..algorithms.pcr_thomas import normalize_thomas_switch
from ..gpu.cost import ComputePhase, KernelCost
from ..gpu.memory import MemoryTraffic
from ..util.errors import ConfigurationError, ResourceExhaustedError
from ..util.validation import check_power_of_two, ilog2
from .base import (
    PCR_SMEM_INSTR_PER_EQ,
    SMEM_LOAD_VALUES_PER_EQ,
    THOMAS_INSTR_PER_ROW,
    KernelContext,
    warp_padded_threads,
    warps_for,
)

__all__ = ["PcrThomasSmemKernel", "VARIANTS"]

VARIANTS = ("coalesced", "strided")


@dataclass(frozen=True)
class PcrThomasSmemKernel:
    """Cost model of the base kernel.

    Parameters
    ----------
    thomas_switch:
        Subsystem count at which PCR hands over to Thomas (stage-3→4
        switch point; Figure 6's x-axis).
    variant:
        ``"strided"`` or ``"coalesced"`` (see module docstring).
    """

    thomas_switch: int = 64
    variant: str = "coalesced"

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ConfigurationError(
                f"unknown variant {self.variant!r}; expected one of {VARIANTS}"
            )
        check_power_of_two(self.thomas_switch, "thomas_switch")

    def cost(
        self,
        ctx: KernelContext,
        num_systems: int,
        system_size: int,
        dsize: int,
        stride: int,
    ) -> KernelCost:
        """Build the :class:`KernelCost` for one launch over
        ``num_systems`` (sub)systems interleaved at ``stride``.

        The self-tuner's micro-benchmarks price configurations with it
        (the paper's tuner times real launches; ours prices model
        launches — same search logic, cheaper stopwatch).
        """
        spec = ctx.spec
        n = system_size
        max_onchip = spec.max_onchip_system_size(dsize)
        if n > max_onchip:
            raise ResourceExhaustedError(
                f"system size {n} exceeds on-chip capacity {max_onchip} "
                f"of {spec.name}"
            )
        switch = normalize_thomas_switch(n, self.thomas_switch)
        pcr_steps = ilog2(switch)

        threads = min(warp_padded_threads(n), spec.max_threads_per_block)
        smem = 4 * n * dsize
        regs = ctx.regs_per_thread_for_system(n, threads)

        # PCR phase: every equation updated each step, all threads active.
        pcr_warp_instr = (
            num_systems * pcr_steps * warps_for(n) * PCR_SMEM_INSTR_PER_EQ
        )
        # Thomas phase: `switch` threads per system, 2 sweeps over n/switch
        # rows each.
        rows = n // switch
        thomas_warp_instr = (
            num_systems * 2 * rows * warps_for(switch) * THOMAS_INSTR_PER_ROW
        )
        phases = [
            ComputePhase(pcr_warp_instr, active_threads_per_block=min(n, threads)),
            ComputePhase(thomas_warp_instr, active_threads_per_block=switch),
        ]

        traffic = MemoryTraffic()
        io_bytes = num_systems * SMEM_LOAD_VALUES_PER_EQ * n * dsize
        if self.variant == "strided" or stride == 1:
            traffic.add(ctx.spec, io_bytes, stride=stride)
        else:
            # Coalesced window load at unit stride...
            traffic.add(ctx.spec, io_bytes, stride=1)
            # ...plus solve-phase spills: at PCR step j the neighbour
            # distance is 2^j subsystem elements; the fraction falling
            # outside the contiguous in-window chunk of n/stride elements
            # is min(1, 2^j * stride / n). Each out-of-window access
            # fetches three neighbour values, scattered (worst-case
            # transactions).
            chunk = max(1, n // stride)
            spill_values = 0.0
            for j in range(pcr_steps):
                out_fraction = min(1.0, (1 << j) / chunk)
                spill_values += out_fraction * 3.0 * n
            traffic.add(
                ctx.spec,
                num_systems * spill_values * dsize,
                stride=int(spec.uncoalesced_penalty_cap),
            )

        return KernelCost(
            name=f"pcr_thomas_smem[{self.variant},T={switch}]",
            grid_blocks=num_systems,
            threads_per_block=threads,
            smem_per_block=smem,
            regs_per_thread=regs,
            phases=phases,
            traffic=traffic,
        )
