"""Hybrid GPU/CPU dispatch — the paper's closing future-work item.

The conclusion's last sentence: "extend our techniques to also explore
the boundary between GPU and CPU." Figure 8 already shows where that
boundary lies (the CPU wins the single 2M-equation system); this module
automates the decision: price a workload on both engines' cost models
and run whichever is cheaper.

:class:`HybridDispatcher` exposes the decision (`choose`), the solve
(`solve`, exact numerics either way), and the learned boundary
(`crossover_size`) — the system size at which, for a given system count,
the CPU overtakes the GPU.

With a ``dist`` device group configured, a third engine joins the
auction: the :class:`~repro.dist.DistributedSolver`. Workloads whose
working set overflows the single device's global memory price the GPU at
infinity — the dispatcher *learns* to distribute (or fall back to the
CPU) exactly when one device can no longer hold the problem, and
otherwise distributes only when the modeled multi-device makespan
actually wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union


from ..baselines.mkl import INTEL_CORE_I5_34GHZ, CpuSpec, MklLikeCpuSolver
from ..gpu.executor import Device, make_device
from ..kernels import dtype_size
from ..systems.tridiagonal import TridiagonalBatch
from ..util.validation import check_positive_int
from .pricing import simulate_plan
from .solver import MultiStageSolver
from .tuning import SelfTuner

__all__ = ["HybridChoice", "HybridDispatcher"]


@dataclass(frozen=True)
class HybridChoice:
    """Outcome of one dispatch decision."""

    engine: str  # "gpu", "cpu", or "dist"
    gpu_ms: float  # inf when the working set overflows the device
    cpu_ms: float
    dist_ms: Optional[float] = None  # None when no device group is configured

    @property
    def chosen_ms(self) -> float:
        """Modeled time of the engine that won."""
        return {"gpu": self.gpu_ms, "cpu": self.cpu_ms, "dist": self.dist_ms}[
            self.engine
        ]

    @property
    def advantage(self) -> float:
        """How much faster the chosen engine is than the runner-up (>= 1)."""
        times = [self.gpu_ms, self.cpu_ms]
        if self.dist_ms is not None:
            times.append(self.dist_ms)
        others = sorted(times)
        runner_up = others[1] if len(others) > 1 else others[0]
        return runner_up / max(self.chosen_ms, 1e-300)


class HybridDispatcher:
    """Route tridiagonal workloads to the faster engine, per shape."""

    def __init__(
        self,
        device: Union[Device, str] = "gtx470",
        cpu: CpuSpec = INTEL_CORE_I5_34GHZ,
        *,
        tuner: Optional[SelfTuner] = None,
        dist=None,
    ):
        self.device = make_device(device)
        self.tuner = tuner or SelfTuner()
        self.cpu_solver = MklLikeCpuSolver(cpu)
        # The distributed engine, or None when not configured. ``dist``
        # may be a DistributedSolver, a DeviceGroup, or a device count
        # (repro.dist imports this package, so the import is deferred).
        if dist is not None:
            from ..dist.solver import DistributedSolver

            if not isinstance(dist, DistributedSolver):
                dist = DistributedSolver(dist, device=self.device)
        self.dist_solver = dist

    # -- pricing & decision ---------------------------------------------------

    def price(
        self, num_systems: int, system_size: int, dsize: int = 4
    ) -> HybridChoice:
        """Model both engines for a workload shape and pick the faster."""
        check_positive_int(num_systems, "num_systems")
        check_positive_int(system_size, "system_size")
        working_set = 5 * num_systems * system_size * dsize
        if (
            self.dist_solver is not None
            and working_set > self.device.spec.global_mem_bytes
        ):
            # Memory overflow: one device cannot hold the problem. Only
            # enforced when a distributed alternative exists — the
            # classic two-engine dispatcher keeps pricing the GPU by its
            # kernel model alone (assuming streamed/chunked execution).
            gpu_ms = float("inf")
        else:
            sp = self.tuner.switch_points(
                self.device, num_systems, system_size, dsize
            )
            _, report = simulate_plan(
                self.device, num_systems, system_size, dsize, sp
            )
            gpu_ms = report.total_ms
        cpu_ms = self.cpu_solver.modeled_time_ms(num_systems, system_size, dsize)
        dist_ms: Optional[float] = None
        if self.dist_solver is not None:
            from ..util.errors import ReproError

            try:
                _, dist_report = self.dist_solver.price(
                    num_systems, system_size, dsize
                )
                dist_ms = dist_report.total_ms
            except ReproError:
                dist_ms = None  # no feasible distributed plan either
        engines = [("gpu", gpu_ms), ("cpu", cpu_ms)]
        if dist_ms is not None:
            engines.append(("dist", dist_ms))
        engine = min(engines, key=lambda pair: pair[1])[0]
        return HybridChoice(
            engine=engine, gpu_ms=gpu_ms, cpu_ms=cpu_ms, dist_ms=dist_ms
        )

    def choose(self, batch: TridiagonalBatch) -> HybridChoice:
        """The dispatch decision for a concrete batch."""
        return self.price(
            batch.num_systems, batch.system_size, dtype_size(batch.dtype)
        )

    def crossover_size(
        self, num_systems: int, *, dsize: int = 4, max_exp: int = 24
    ) -> Optional[int]:
        """Smallest power-of-two system size the CPU wins for this count.

        Returns ``None`` when the GPU wins every probed size (the usual
        case for machine-filling system counts).
        """
        for exp in range(6, max_exp + 1):
            if self.price(num_systems, 1 << exp, dsize).engine == "cpu":
                return 1 << exp
        return None

    # -- solving ------------------------------------------------------------------

    def solve(self, batch: TridiagonalBatch):
        """Solve on the chosen engine; returns ``(x, choice)``."""
        choice = self.choose(batch)
        if choice.engine == "gpu":
            result = MultiStageSolver(self.device, self.tuner).solve(batch)
            return result.x, choice
        if choice.engine == "dist":
            return self.dist_solver.solve(batch).x, choice
        return self.cpu_solver.solve(batch).x, choice
