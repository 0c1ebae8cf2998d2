"""The async serving tier.

Everything the batched solve service does — plan-signature grouping,
merged solves, verification, deadlines, the circuit breaker — behind a
front door built for many concurrent callers:

- :class:`AsyncSolveService` — asyncio-native submission with a sync
  facade on the *same* code path (bit-identical results either way);
- :class:`ShardedTuningCache` — the tuning cache striped over
  independently-locked shards, with per-shard hit/miss/contention
  counters;
- :class:`AdmissionController` — per-tenant quotas and priority
  classes, shedding with typed errors that say which quota tripped;
- :class:`ScalableWorkerFleet` + :class:`Autoscaler` — a resizable
  worker fleet driven by the queue-depth gauge and latency histograms
  already in the metrics registry;
- :func:`simulate_serving` / :func:`compare_tiers` — the deterministic
  load simulation behind ``repro serve-bench``.
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
    ServingSimConfig,
    ServingSimReport,
    compare_tiers,
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
    "ServingSimConfig",
    "ServingSimReport",
    "compare_tiers",
    "simulate_serving",
]
