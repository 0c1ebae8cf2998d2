"""Request grouping — the throughput heart of the service.

Independent solve requests that share a device, a dtype, a raw system
size, and a *program signature* execute the exact same per-system
arithmetic, so the batcher merges them into one
:class:`~repro.systems.TridiagonalBatch` and the service solves them in
a single multi-stage pass. The signature is taken from the lowered
instruction :class:`~repro.ir.Program` (see
:attr:`repro.ir.Program.signature`) — the count-independent multiset of
steps the shared engine will interpret — so two requests group together
exactly when the engine would run the same instructions for both.
Grouping by the full signature — not just the shape — is what keeps
every request's answer bit-identical to a standalone solve: the stage-1
split depth depends on the *request's own* system count, so two
requests of the same size may still legitimately land in different
groups.

Grouping is deterministic: groups appear in order of their earliest
request, and requests keep submission order within a group. The golden
regression tests pin this down.
"""

from __future__ import annotations

from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..gpu.executor import Device
from ..systems.tridiagonal import TridiagonalBatch

__all__ = ["GroupKey", "ServiceRequest", "SolveGroup", "group_requests"]


@dataclass(frozen=True)
class GroupKey:
    """What must match for two requests to share one merged solve."""

    device: str
    dtype: str
    system_size: int  # raw (pre-padding) size — merged arrays must stack
    signature: Tuple  # Program.signature of the request's lowered plan

    def describe(self) -> str:
        """Compact label for stats and logs."""
        return f"{self.device}|{self.dtype}|n={self.system_size}"


@dataclass
class ServiceRequest:
    """One submitted solve, queued for grouping.

    ``deadline`` is an absolute ``time.monotonic()`` timestamp (seconds)
    or ``None``. The worker checks it immediately before and after the
    merged solve; an expired request fails with
    :class:`~repro.util.errors.DeadlineExceededError` without poisoning
    the rest of its group.
    """

    seq: int  # submission order; ties grouping determinism down
    batch: TridiagonalBatch
    device: Device  # what the request runs on; its name keys the group
    key: GroupKey
    plan: "object"  # the per-request SolvePlan (what a standalone solve runs)
    deadline: Optional[float] = None
    # Requested relative-residual tolerance, or None for ungoverned.
    # Merged groups honour the strictest member tolerance (see
    # SolveGroup.strictest_tolerance) so fusing never weakens anyone's
    # error contract.
    tolerance: Optional[float] = None
    future: Future = field(default_factory=Future)


@dataclass
class SolveGroup:
    """Same-key requests destined for one merged multi-stage solve."""

    key: GroupKey
    requests: List[ServiceRequest]

    @property
    def num_requests(self) -> int:
        return len(self.requests)

    @property
    def num_systems(self) -> int:
        """Total systems across the group's requests."""
        return sum(r.batch.num_systems for r in self.requests)

    def merged_batch(self) -> TridiagonalBatch:
        """All member systems stacked into one batch (submission order)."""
        if len(self.requests) == 1:
            return self.requests[0].batch
        return TridiagonalBatch.stack([r.batch for r in self.requests])

    def strictest_tolerance(self) -> Optional[float]:
        """Tightest member tolerance, or ``None`` when nobody asked."""
        tolerances = [
            r.tolerance for r in self.requests if r.tolerance is not None
        ]
        return min(tolerances) if tolerances else None

    def offsets(self) -> List[int]:
        """Row offset of each request within the merged solution."""
        out, acc = [], 0
        for req in self.requests:
            out.append(acc)
            acc += req.batch.num_systems
        return out


def group_requests(
    requests: List[ServiceRequest],
    *,
    max_group_systems: Optional[int] = None,
) -> List[SolveGroup]:
    """Partition ``requests`` into merged-solve groups, deterministically.

    Requests are scanned in submission (``seq``) order; a request joins
    the open group for its key, or opens a new one when none exists or
    when joining would push the group past ``max_group_systems`` (a cap
    on merged batch height, e.g. to bound working-set size). Groups are
    returned in order of their first member.
    """
    open_groups: Dict[GroupKey, SolveGroup] = {}
    result: List[SolveGroup] = []
    for req in sorted(requests, key=lambda r: r.seq):
        group = open_groups.get(req.key)
        if group is not None and max_group_systems is not None:
            if group.num_systems + req.batch.num_systems > max_group_systems:
                group = None  # cap reached: close it, open a fresh one
        if group is None:
            group = SolveGroup(key=req.key, requests=[])
            open_groups[req.key] = group
            result.append(group)
        group.requests.append(req)
    return result
