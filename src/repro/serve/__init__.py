"""The async serving tier.

Everything the batched solve service does — plan-signature grouping,
merged solves, verification, deadlines, the circuit breaker — behind a
front door built for many concurrent callers:

- :class:`AsyncSolveService` — asyncio-native submission with a sync
  facade on the *same* code path (bit-identical results either way);
- :class:`ShardedTuningCache` — an opt-in ``cache=`` striped over
  independently-locked shards (the default is one memory-only
  :class:`~repro.core.TuningCache`, as in every front end);
- :class:`AdmissionController` — per-tenant quotas and priority
  classes, shedding with typed errors that say which quota tripped;
- :class:`ScalableWorkerFleet` + :class:`Autoscaler` — a resizable
  worker fleet driven by the queue-depth gauge and latency histograms
  already in the metrics registry;
- :func:`simulate_serving` / :func:`fleet_ablation` — the deterministic
  load simulation behind ``repro serve-bench --async``: fixed fleets
  against the autoscaler.
"""

from .admission import (
    PRIORITIES,
    AdmissionController,
    AdmissionTicket,
    TenantQuota,
)
from .autoscaler import AutoscaleDecision, Autoscaler, AutoscalerPolicy
from ..service.fleet import ScalableWorkerFleet
from .frontend import AsyncSolveService
from .shards import ShardedTuningCache
from .simulate import (
    FIXED_WIDTHS,
    ServingSimConfig,
    ServingSimReport,
    fleet_ablation,
    simulate_serving,
)

__all__ = [
    "PRIORITIES",
    "AdmissionController",
    "AdmissionTicket",
    "TenantQuota",
    "AutoscaleDecision",
    "Autoscaler",
    "AutoscalerPolicy",
    "ScalableWorkerFleet",
    "AsyncSolveService",
    "ShardedTuningCache",
    "FIXED_WIDTHS",
    "ServingSimConfig",
    "ServingSimReport",
    "fleet_ablation",
    "simulate_serving",
]
