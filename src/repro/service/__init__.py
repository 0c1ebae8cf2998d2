"""Batched solve service — production serving on top of the solver core.

The package turns the library's one-shot :func:`repro.core.solve` into a
throughput-oriented service:

- :mod:`.queue` — bounded request queue with block/reject backpressure,
  plus the :class:`CircuitBreaker` that sheds load while the backend
  is failing;
- :mod:`.batcher` — deterministic plan-signature grouping of requests
  into merged solves;
- :mod:`.workers` — :class:`BatchSolveService`, which executes merged
  solves with shared tuning-cache and plan reuse;
- :mod:`.fleet` — :class:`WorkerFleet`, the fixed-width worker pool a
  service runs its flushes on;
- :mod:`.stats` — per-group latency/throughput counters.
"""

from .batcher import GroupKey, ServiceRequest, SolveGroup, group_requests
from .fleet import WorkerFleet
from .queue import OVERFLOW_POLICIES, BoundedRequestQueue, CircuitBreaker
from .stats import GroupStats, ServiceStats
from .workers import BatchSolveService, ServiceResult

__all__ = [
    "BatchSolveService",
    "ServiceResult",
    "WorkerFleet",
    "BoundedRequestQueue",
    "CircuitBreaker",
    "OVERFLOW_POLICIES",
    "GroupKey",
    "ServiceRequest",
    "SolveGroup",
    "group_requests",
    "ServiceStats",
    "GroupStats",
]
