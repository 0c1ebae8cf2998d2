"""repro.dist — multi-device domain decomposition over a simulated interconnect.

Solves workloads that overflow one simulated device by partitioning
across a :class:`DeviceGroup`: SPIKE-style row chunking for enormous
systems (``rows`` mode) or system sharding for wide on-chip batches
(``batch`` mode), with halo/spike exchanges priced on a
:class:`LinkSpec` interconnect model and overlapped with local solves by
the list scheduler of :meth:`repro.ir.Engine.price`; the resulting
per-device timelines are the :mod:`~repro.dist.pipeline` report types.

Entry points: :class:`DistributedSolver` (plan/price/solve),
:func:`make_device_group`, and :func:`render_dist_timeline` for the
per-device Gantt view benchmarks print.
"""

from .pipeline import (
    DeviceTimeline,
    DistReport,
    TimelineEvent,
    render_dist_timeline,
    render_overlap_gantt,
)
from .partition import batch_shares, partition_bounds
from .plan import DistPlan
from .solver import DistributedSolver, DistSolveResult, working_set_nbytes
from .topology import (
    LINK_PRESETS,
    DeviceGroup,
    Interconnect,
    LinkSpec,
    get_link,
    make_device_group,
)

__all__ = [
    "DeviceGroup",
    "DeviceTimeline",
    "DistPlan",
    "DistReport",
    "DistSolveResult",
    "DistributedSolver",
    "Interconnect",
    "LINK_PRESETS",
    "LinkSpec",
    "TimelineEvent",
    "batch_shares",
    "get_link",
    "partition_bounds",
    "make_device_group",
    "render_dist_timeline",
    "render_overlap_gantt",
    "working_set_nbytes",
]
