"""The dynamic self-tuner — paper §IV-D.

The tuner prunes the search space in the two ways the paper describes:

1. **Decoupling.** The stage-3→4 switch (with the base-kernel variant and
   the stage-2→3 size) is independent of the stage-1→2 switch: the former
   depends only on on-chip behaviour of small systems, the latter only on
   how fast the machine fills with parallel work. Searching them
   separately turns a product space into a sum (the paper's 16+32 vs
   16×32 example). The :class:`~repro.core.tuning.base.TuningTrace`
   records every probe so the ablation bench can count the savings.

2. **Machine-query seeding.** Every axis starts its hill climb at the
   static tuner's guess, which usually sits near the valley of the
   unimodal cost curve, so few probes are needed.

The tuning procedure follows §IV-D step by step:

- price the machine-query selection on a workload guaranteed to fill the
  machine, then walk "two times the number of systems at half the size"
  (and the reverse) until a local minimum — tuning the stage-2→3 switch
  with the stage-3→4 switch and kernel variant re-tuned at every size;
- repeat the base-kernel comparison at increasing stride counts to learn
  where the uncoalesced (strided) kernel starts winning;
- finally tune the stage-1 target on one enormous system, starting from
  the machine guess and iterating over neighbours to the local minimum;
- save the result for future runs (:class:`TuningCache`).

The stopwatch is the machine model (``simulate_plan`` /
``price_base_kernel``) rather than wall-clock kernel launches; the search
logic is unchanged. A full tune prices a few dozen configurations — the
simulated analogue of the paper's "less than one minute".
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

from ...gpu.executor import Device
from ...util.validation import next_power_of_two
from ..config import SwitchPoints
from ..pricing import price_base_kernel, simulate_plan
from .base import Tuner, TuningTrace
from .cache import TuningCache, resolve_cache
from .search import pow2_hill_climb
from .static import MachineQueryTuner

__all__ = ["SelfTuner"]

# Bounds of the one-dimensional searches (powers of two).
_MIN_STAGE3 = 32
_MIN_THOMAS = 4
_MAX_STAGE1_TARGET = 4096
_MAX_CROSSOVER_PROBE = 1 << 20


class SelfTuner(Tuner):
    """Micro-benchmark-driven switch-point search with pruning."""

    name = "dynamic"

    def __init__(
        self,
        cache: Union[TuningCache, str, None] = None,
        *,
        huge_system_size: int = 1 << 21,
        fill_systems: Optional[int] = None,
    ):
        self.cache = resolve_cache(cache)
        self.huge_system_size = next_power_of_two(huge_system_size)
        self.fill_systems = fill_systems
        self.last_trace: Optional[TuningTrace] = None

    # -- Tuner interface ------------------------------------------------------

    def switch_points(
        self,
        device: Device,
        num_systems: int,
        system_size: int,
        dtype_size: int,
    ) -> SwitchPoints:
        """Cached tuned parameters for ``device`` (tuning on first use).

        Tuning runs — and results are cached — per workload class: the
        paper's procedure is "a typical self-tuning run for a particular
        system and GPU", with results saved for future runs of that
        workload. A known shape is classed by the signature of the
        instruction program the machine-query seed plan lowers to (plus
        the system count, which sets machine fill): two shapes that
        would run the same instructions share one tuning run, while
        shapes that plan differently tune separately.
        """
        ref_system = self._reference_system(device, system_size, dtype_size)
        known = num_systems >= 1 and system_size > 1
        if known:
            from ..planner import plan_solve

            seed = MachineQueryTuner().switch_points(device, 0, 0, dtype_size)
            seed_plan = plan_solve(
                device, num_systems, ref_system, dtype_size, seed
            )
            workload_class = (
                "workload",
                num_systems,
                seed_plan.lower(device, dtype_size).signature,
            )
        else:
            workload_class = f"n={ref_system}"
        def tune_now() -> SwitchPoints:
            tuned, trace = self.tune(
                device,
                dtype_size,
                system_size=system_size,
                num_systems=num_systems if known else 0,
            )
            self.last_trace = trace
            return tuned

        # get_or_tune is the concurrent-safe read-modify-write: the first
        # finisher's result is stored and every caller returns it.
        return self.cache.get_or_tune(
            device.name, dtype_size, tune_now, workload_class
        )

    def _reference_system(
        self, device: Device, system_size: int, dtype_size: int
    ) -> int:
        """System size the size-axis micro-benchmarks split from.

        The actual workload's (padded) size when known, floored at a size
        large enough that every stage-3 candidate needs stage-2 splitting;
        the generic 8x-on-chip reference otherwise.
        """
        max_onchip = device.max_onchip_system_size(dtype_size)
        if system_size and system_size > 1:
            return max(next_power_of_two(system_size), max_onchip * 2)
        return max_onchip * 8

    # -- the tuning procedure --------------------------------------------------

    def tune(
        self,
        device: Device,
        dtype_size: int,
        *,
        system_size: int = 0,
        num_systems: int = 0,
    ) -> Tuple[SwitchPoints, TuningTrace]:
        """Run the full §IV-D procedure; returns (result, search trace)."""
        trace = TuningTrace()
        seed = MachineQueryTuner().switch_points(device, 0, 0, dtype_size)
        spec = device.spec
        max_onchip = device.max_onchip_system_size(dtype_size)

        # Reference workload: "a particular system and GPU" — the actual
        # workload shape when known; otherwise many systems large enough
        # that every stage-3 candidate requires stage-2 splitting.
        ref_system = self._reference_system(device, system_size, dtype_size)
        ref_m = (
            num_systems
            if num_systems >= 1
            else self.fill_systems or max(64, 4 * spec.num_processors)
        )
        if system_size and system_size > 1:
            ref_system = next_power_of_two(system_size)

        # ---- axis 1+2: stage-2→3 size, with the stage-3→4 switch and the
        # kernel variant re-tuned for every candidate size. Each probe
        # prices the *whole deployment plan* of the reference workload via
        # the same path the solver takes. ----------------------------------
        per_size: Dict[int, Tuple[float, int]] = {}

        def price_plan(size: int, thomas: int, variant: str) -> float:
            probe = SwitchPoints(
                stage1_target_systems=seed.stage1_target_systems,
                stage3_system_size=size,
                thomas_switch=min(thomas, size),
                base_variant=variant,
                source="probe",
            )
            _, report = simulate_plan(
                device, ref_m, ref_system, dtype_size, probe
            )
            return report.total_ms

        def cost_of_stage3_size(size: int) -> float:
            # §IV-D: "We must tune for the ideal stage-3 to stage-4 switch
            # point for each of these settings, and for the two base
            # PCR-Thomas kernels we coded" — the Thomas switch is tuned
            # per candidate size *and per kernel variant*.
            best_ms, best_t = float("inf"), min(seed.thomas_switch, size)
            for variant in ("coalesced", "strided"):
                memo: Dict[int, float] = {}
                t_opt, t_ms = pow2_hill_climb(
                    lambda t: price_plan(size, t, variant),
                    seed=min(seed.thomas_switch, size),
                    lo=_MIN_THOMAS,
                    hi=size,
                    memo=memo,
                )
                for t, ms in memo.items():
                    trace.record(
                        "thomas_switch",
                        {"size": size, "thomas": t, "variant": variant},
                        ms,
                    )
                if t_ms < best_ms:
                    best_ms, best_t = t_ms, t_opt
            per_size[size] = (best_ms, best_t)
            trace.record("stage3_size", {"size": size}, best_ms)
            return best_ms

        stage3, _ = pow2_hill_climb(
            cost_of_stage3_size,
            seed=min(seed.stage3_system_size, max_onchip),
            lo=_MIN_STAGE3,
            hi=max_onchip,
        )
        _, thomas = per_size[stage3]

        # ---- axis 3: the coalesced↔strided crossover, by re-benchmarking
        # the two base kernels at growing stride counts ("this simulates
        # solving larger systems"). -----------------------------------------
        crossover = self._find_variant_crossover(
            device, stage3, thomas, dtype_size, ref_m, trace
        )

        # ---- axis 4: the stage-1→2 target, tuned on one enormous system
        # with the already-fixed downstream parameters. ----------------------
        partial = SwitchPoints(
            stage1_target_systems=seed.stage1_target_systems,
            stage3_system_size=stage3,
            thomas_switch=thomas,
            base_variant="coalesced",
            variant_crossover_stride=crossover,
            source="probe",
        )

        # The axis only bites when too few systems exist for stage 2; use
        # the actual workload when known (and small), else one enormous
        # system as §IV-D prescribes.
        if 1 <= ref_m < _MAX_STAGE1_TARGET and system_size and system_size > 1:
            axis_m, axis_n = ref_m, ref_system
        else:
            axis_m, axis_n = 1, self.huge_system_size

        def cost_of_stage1_target(target: int) -> float:
            _, report = simulate_plan(
                device,
                axis_m,
                axis_n,
                dtype_size,
                partial.with_(stage1_target_systems=target),
            )
            trace.record("stage1_target", {"target": target}, report.total_ms)
            return report.total_ms

        target_seed = next_power_of_two(seed.stage1_target_systems)
        stage1_target, _ = pow2_hill_climb(
            cost_of_stage1_target,
            seed=target_seed,
            lo=1,
            hi=_MAX_STAGE1_TARGET,
        )

        tuned = SwitchPoints(
            stage1_target_systems=stage1_target,
            stage3_system_size=stage3,
            thomas_switch=thomas,
            base_variant="coalesced",
            variant_crossover_stride=crossover,
            source="dynamic",
        )
        return tuned, trace

    def _find_variant_crossover(
        self,
        device: Device,
        size: int,
        thomas: int,
        dtype_size: int,
        ref_m: int,
        trace: TuningTrace,
    ) -> Optional[int]:
        """Smallest stride at which the strided kernel beats the coalesced
        one, or ``None`` if the coalesced kernel always wins."""
        # Machine-filling subsystem count, as deployments produce.
        num_systems = ref_m * 16
        stride = 2
        while stride <= _MAX_CROSSOVER_PROBE:
            costs = {}
            for variant in ("coalesced", "strided"):
                costs[variant] = price_base_kernel(
                    device,
                    num_systems,
                    size,
                    dtype_size,
                    thomas_switch=thomas,
                    variant=variant,
                    stride=stride,
                )
                trace.record(
                    "variant_crossover",
                    {"stride": stride, "variant": variant},
                    costs[variant],
                )
            if costs["strided"] < costs["coalesced"]:
                return stride
            stride <<= 1
        return None
