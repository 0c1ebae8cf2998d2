"""Shared kernel infrastructure and instruction-cost constants.

Each kernel in this package is first a cost model: its ``cost`` method
builds the :class:`repro.gpu.cost.KernelCost` — launch configuration,
per-phase instruction counts and global traffic of the equivalent CUDA
kernel — that :func:`repro.kernels.handlers.price_costs` submits for an
IR step to the active :class:`repro.gpu.executor.SimSession`. The
numerics of every IR solve step run apart from it, on
:class:`repro.kernels.chain.SplitChain`, so a step's price depends on
the program alone. The kernels the baselines launch directly
(:class:`~repro.kernels.global_pcr.GlobalPcrKernel`,
:class:`~repro.kernels.thomas_global.ThomasGlobalKernel` and
:class:`~repro.kernels.elementwise.DivideKernel`) also have a ``run``
method that computes the result with :mod:`repro.algorithms` and submits
its own cost.

The instruction constants below are per-equation issue-slot estimates for
one step of each algorithm (arithmetic plus shared-memory accesses). They
are calibration data, not logic: tests pin the *relative* behaviours
(PCR step > Thomas row, global variant < shared variant in instructions),
and ``repro.analysis.calibration`` documents how the absolute values were
fitted against the paper's published timings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..gpu.executor import SimSession
from ..gpu.spec import ARRAYS_PER_EQUATION, REGISTERS_PER_EQUATION
from ..util.errors import ConfigurationError

__all__ = [
    "PCR_SMEM_INSTR_PER_EQ",
    "GLOBAL_PCR_INSTR_PER_EQ",
    "THOMAS_INSTR_PER_ROW",
    "GLOBAL_PCR_VALUES_PER_EQ",
    "GLOBAL_PCR_ALIGNED_VALUES_PER_EQ",
    "GLOBAL_PCR_NEIGHBOR_VALUES_PER_EQ",
    "SMEM_LOAD_VALUES_PER_EQ",
    "warps_for",
    "warp_padded_threads",
    "dtype_size",
    "KernelContext",
]

# One shared-memory PCR update: ~14 flops + 12 shared reads + 4 writes.
PCR_SMEM_INSTR_PER_EQ = 24.0
# One global-memory PCR update: same flops, loads counted as traffic.
GLOBAL_PCR_INSTR_PER_EQ = 14.0
# One Thomas row (per sweep direction): ~5 flops + shared traffic.
THOMAS_INSTR_PER_ROW = 10.0
# Values moved per equation per global PCR step, split by access pattern:
# the own-row read (4) and updated-row write (4) stream aligned. Each
# thread's contiguous chunk re-reads only the neighbour rows it does not
# already hold (chunk boundaries plus cache-miss noise, ~4 values/eq);
# those offset streams pay the device's misalignment inflation.
GLOBAL_PCR_ALIGNED_VALUES_PER_EQ = 8
GLOBAL_PCR_NEIGHBOR_VALUES_PER_EQ = 4
# Total, for coarse estimates and docs.
GLOBAL_PCR_VALUES_PER_EQ = (
    GLOBAL_PCR_ALIGNED_VALUES_PER_EQ + GLOBAL_PCR_NEIGHBOR_VALUES_PER_EQ
)
# Values per equation moved by the on-chip kernel: load a, b, c, d and
# store x.
SMEM_LOAD_VALUES_PER_EQ = ARRAYS_PER_EQUATION + 1


def warps_for(threads: int, warp_size: int = 32) -> int:
    """Warps needed to run ``threads`` threads."""
    if threads < 1:
        raise ConfigurationError("threads must be >= 1")
    return -(-threads // warp_size)


def warp_padded_threads(threads: int, warp_size: int = 32) -> int:
    """``threads`` rounded up to a whole warp (hardware allocation)."""
    return warps_for(threads, warp_size) * warp_size


def dtype_size(dtype) -> int:
    """Size in bytes of a supported floating dtype."""
    size = np.dtype(dtype).itemsize
    if size not in (4, 8):
        raise ConfigurationError(f"unsupported dtype {dtype}")
    return size


@dataclass
class KernelContext:
    """Convenience bundle passed to kernels: session + cached spec."""

    session: SimSession

    @property
    def spec(self):
        """Device spec of the session's device."""
        return self.session.device.spec

    @property
    def device(self):
        """The session's device."""
        return self.session.device

    def regs_per_thread_for_system(self, system_size: int, threads: int) -> int:
        """Register appetite when ``threads`` threads hold ``system_size``
        equations: the on-chip kernel burns
        :data:`~repro.gpu.spec.REGISTERS_PER_EQUATION` per equation."""
        eqs_per_thread = max(1, math.ceil(system_size / max(1, threads)))
        return REGISTERS_PER_EQUATION * eqs_per_thread
