"""The CPU comparator: an MKL-like sequential LU tridiagonal solver.

The paper's Figure 8 baseline is Intel MKL's tridiagonal solve (LU
without pivoting) on a 3.4 GHz Core i5 with two cores: many systems are
distributed over two OpenMP threads (one MKL call per system), a single
system runs on one thread ("the MKL solver is sequential").

Numerics run on LAPACK ``?gtsv`` through
:func:`~repro.algorithms.scipy_banded_solve`, the routine behind MKL's
own tridiagonal solver (the library's per-row NumPy LU, ``lu_solve``,
stays as a reference implementation); the *timing* is a
calibrated CPU cost model with three terms:

- a per-equation LU cost (factor + two sweeps) for data in cache,
- a per-MKL-call dispatch overhead,
- a bandwidth inflation once a system's working set spills the last-level
  cache.

Calibration targets are the paper's published milliseconds (10.70 / 37.9
/ 168.3 / 34 for 1K×1K / 2K×2K / 4K×4K / 1×2M); see EXPERIMENTS.md for
the fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..algorithms.lu import scipy_banded_solve
from ..systems.tridiagonal import TridiagonalBatch
from ..util.errors import ConfigurationError
from ..util.units import ns_to_ms, us_to_ms

__all__ = ["CpuSpec", "INTEL_CORE_I5_34GHZ", "MklLikeCpuSolver", "CpuSolveResult"]


@dataclass(frozen=True)
class CpuSpec:
    """Cost-model parameters of the CPU platform."""

    name: str
    cores: int
    # Sustained single-thread LU cost per equation with streaming data.
    ns_per_equation: float
    # Fixed cost of one solver call (OpenMP dispatch + MKL entry).
    call_overhead_us: float
    # Achieved fraction of linear scaling when all cores participate
    # (shared memory bus; the paper's own numbers imply ~0.77 on two
    # cores: 21 ns/eq/core parallel vs 16.2 ns/eq single-thread).
    parallel_efficiency: float = 0.77
    # Systems whose ~5n-value working set exceeds the last-level cache
    # pay this bandwidth inflation.
    llc_bytes: int = 8 * 1024 * 1024
    cache_spill_inflation: float = 1.0

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ConfigurationError("cores must be >= 1")
        if self.ns_per_equation <= 0:
            raise ConfigurationError("ns_per_equation must be positive")
        if not 0.0 < self.parallel_efficiency <= 1.0:
            raise ConfigurationError("parallel_efficiency must be in (0, 1]")


# The paper's test platform ("3.4 GHz Intel Core i5 dual-core").
# ns_per_equation fits the 1x2M point (34 ms / 2^21 equations, single
# thread); parallel_efficiency fits the three OpenMP workloads
# (measured 10.7 / 37.9 / 168.3 ms; modelled 10.6 / 42 / 168).
INTEL_CORE_I5_34GHZ = CpuSpec(
    name="Intel Core i5 dual-core 3.4 GHz",
    cores=2,
    ns_per_equation=16.2,
    call_overhead_us=2.0,
    parallel_efficiency=0.77,
)


@dataclass(frozen=True)
class CpuSolveResult:
    """Solution plus modelled CPU time."""

    x: np.ndarray
    modeled_ms: float
    threads_used: int


class MklLikeCpuSolver:
    """Sequential LU per system, OpenMP-style parallel across systems."""

    def __init__(self, spec: CpuSpec = INTEL_CORE_I5_34GHZ):
        self.spec = spec

    def modeled_time_ms(self, num_systems: int, system_size: int, dtype_size: int) -> float:
        """Modelled wall time for an ``(m, n)`` workload (no numerics)."""
        spec = self.spec
        threads = 1 if num_systems == 1 else min(spec.cores, num_systems)
        scaling = 1.0 if threads == 1 else threads * spec.parallel_efficiency
        # LU keeps ~5 n-vectors live (a, b, c, d and the sweep scratch).
        working_set = 5 * system_size * dtype_size
        inflation = (
            spec.cache_spill_inflation if working_set > spec.llc_bytes else 1.0
        )
        per_system_ms = ns_to_ms(
            spec.ns_per_equation * system_size * inflation
        ) + us_to_ms(spec.call_overhead_us)
        return per_system_ms * num_systems / scaling

    def solve(self, batch: TridiagonalBatch) -> CpuSolveResult:
        """Solve ``batch`` exactly and attach the modelled time."""
        x = scipy_banded_solve(batch)
        ms = self.modeled_time_ms(
            batch.num_systems, batch.system_size, batch.dtype.itemsize
        )
        threads = 1 if batch.num_systems == 1 else min(
            self.spec.cores, batch.num_systems
        )
        return CpuSolveResult(x=x, modeled_ms=ms, threads_used=threads)
