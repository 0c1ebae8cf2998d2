"""The async serving tier.

Everything the batched solve service does — plan-signature grouping,
merged solves, verification, deadlines, the circuit breaker — behind a
front door built for many concurrent callers:

- :class:`AsyncSolveService` — asyncio-native submission with a sync
  facade on the *same* code path (bit-identical results either way),
  running its flushes on the service's fixed
  :class:`~repro.service.WorkerFleet`;
- :class:`ShardedTuningCache` — an opt-in ``cache=`` striped over
  independently-locked shards (the default is one memory-only
  :class:`~repro.core.TuningCache`, as in every front end);
- :class:`AdmissionController` — per-tenant quotas and priority
  classes, shedding with typed errors that say which quota tripped.
"""

from .admission import (
    PRIORITIES,
    AdmissionController,
    AdmissionTicket,
    TenantQuota,
)
from .frontend import AsyncSolveService
from .shards import ShardedTuningCache

__all__ = [
    "PRIORITIES",
    "AdmissionController",
    "AdmissionTicket",
    "TenantQuota",
    "AsyncSolveService",
    "ShardedTuningCache",
]
