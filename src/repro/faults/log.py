"""Structured fault/recovery logging.

Every injected fault and every recovery action lands in a
:class:`FaultLog` as a :class:`FaultEvent` — what fired, where in the
program, what the system did about it, and what it cost in simulated
milliseconds. The log is the audit trail the chaos CLI and
:class:`~repro.service.ServiceStats` report from: the headline
guarantee ("a bit-correct solution or a typed error, never a silently
wrong answer") is only checkable because every deviation from the happy
path is recorded here.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

__all__ = ["FaultEvent", "FaultLog"]


@dataclass(frozen=True)
class FaultEvent:
    """One fault or recovery action.

    ``kind`` names the fault family (``transient``, ``device_lost``,
    ``link_partition``, ``stall``, ``deadline``, ``overload``); ``action``
    names what the system did (``injected``, ``retried``, ``exhausted``,
    ``failed_over``, ``bisected``, ``shed``, ``expired``).
    ``penalty_ms`` is the simulated-time cost of the recovery (wasted
    attempt + backoff, or a failover's discarded makespan); wall-clock
    stalls record their real milliseconds instead.
    """

    kind: str
    action: str
    label: str = ""
    step: int = -1
    op: str = ""
    device: int = -1
    attempt: int = 0
    penalty_ms: float = 0.0
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "action": self.action,
            "label": self.label,
            "step": self.step,
            "op": self.op,
            "device": self.device,
            "attempt": self.attempt,
            "penalty_ms": self.penalty_ms,
            "detail": self.detail,
        }


def _overhead_ms(events: Iterable[FaultEvent]) -> float:
    """The events' summed penalties, correctly rounded, so the total does
    not depend on the order concurrent workers recorded them in."""
    return math.fsum(e.penalty_ms for e in events)


class FaultLog:
    """Thread-safe, append-only record of fault/recovery events."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._events: List[FaultEvent] = []
        self._metric = None

    def attach_metrics(self, registry) -> None:
        """Mirror every recorded event into an
        :class:`~repro.obs.MetricsRegistry` as
        ``repro_fault_events_total{kind,action}``. Already-recorded
        events are replayed so attach order does not matter."""
        counter = registry.counter(
            "repro_fault_events_total",
            "Fault and recovery events, by kind and action.",
        )
        with self._lock:
            self._metric = counter
            for event in self._events:
                counter.inc(kind=event.kind, action=event.action)

    def record(self, event: FaultEvent) -> None:
        """Append one event (workers and engines log concurrently)."""
        with self._lock:
            self._events.append(event)
            if self._metric is not None:
                self._metric.inc(kind=event.kind, action=event.action)

    def events(self) -> Tuple[FaultEvent, ...]:
        """A consistent copy of everything recorded so far."""
        with self._lock:
            return tuple(self._events)

    def counts(self) -> Dict[str, int]:
        """Event totals keyed ``kind:action``, insertion ordered."""
        out: Dict[str, int] = {}
        for event in self.events():
            key = f"{event.kind}:{event.action}"
            out[key] = out.get(key, 0) + 1
        return out

    def count(self, kind: str, action: str = "") -> int:
        """Events of one kind (optionally narrowed by action)."""
        return sum(
            1
            for e in self.events()
            if e.kind == kind and (not action or e.action == action)
        )

    @property
    def overhead_ms(self) -> float:
        """Total simulated recovery cost across every event."""
        return _overhead_ms(self.events())

    def summary(self) -> dict:
        """JSON-able roll-up for stats snapshots and campaign reports."""
        events = self.events()
        counts: Dict[str, int] = {}
        for event in events:
            key = f"{event.kind}:{event.action}"
            counts[key] = counts.get(key, 0) + 1
        return {
            "events": len(events),
            "counts": counts,
            "overhead_ms": _overhead_ms(events),
        }

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        summary = self.summary()
        lines = [
            f"fault log: {summary['events']} events, "
            f"{summary['overhead_ms']:.3f} ms recovery overhead"
        ]
        for key, count in sorted(summary["counts"].items()):
            lines.append(f"  {key:<28s} {count:5d}")
        return "\n".join(lines)
