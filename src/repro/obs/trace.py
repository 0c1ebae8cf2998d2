"""Hierarchical spans: the one trace model every execution path shares.

A :class:`Span` is one named interval on the simulated clock —
``solve → program → instruction → kernel`` — with a device, a category,
and a flat attribute list. The :class:`Tracer` collects them: the IR
:class:`~repro.ir.Engine` opens a ``program`` span per interpretation
and emits one ``instruction`` child per step (with ``kernel`` children
for the launch records the step issued), while solvers wrap whole runs
in a ``solve`` root. Because spans carry *simulated* milliseconds, the
execute and price interpretations of one program produce **equal** span
trees — the observability analogue of the engine's bit-identical
price/execute contract, and what the parity tests pin.

A ``None`` tracer is the default everywhere; every hook is guarded by
one ``is not None`` check, so untraced runs pay nothing.

Threading: each thread owns its open-span stack (a worker's spans nest
under whatever that worker opened), while the finished-root list is
shared under a lock — concurrent workers trace into one tracer safely.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import List, Tuple

__all__ = ["Span", "Tracer", "spans_from_report"]


CATEGORIES = ("solve", "program", "instruction", "kernel")


@dataclass(frozen=True)
class Span:
    """One named interval of simulated time, with children."""

    name: str
    category: str  # one of CATEGORIES
    start_ms: float
    end_ms: float
    device: int = 0
    attrs: Tuple[Tuple[str, object], ...] = ()
    children: Tuple["Span", ...] = ()

    @property
    def duration_ms(self) -> float:
        """Length of the span."""
        return self.end_ms - self.start_ms

    def attr(self, key: str, default=None):
        """Look up one attribute by name."""
        for k, v in self.attrs:
            if k == key:
                return v
        return default

    def walk(self):
        """Yield this span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def as_dict(self) -> dict:
        """JSON-able nested rendering (used by tests and exporters)."""
        return {
            "name": self.name,
            "category": self.category,
            "start_ms": self.start_ms,
            "end_ms": self.end_ms,
            "device": self.device,
            "attrs": dict(self.attrs),
            "children": [c.as_dict() for c in self.children],
        }


class _OpenSpan:
    """Mutable builder for a span still being traced."""

    __slots__ = ("name", "category", "start_ms", "device", "attrs", "children")

    def __init__(self, name, category, start_ms, device, attrs):
        self.name = name
        self.category = category
        self.start_ms = start_ms
        self.device = device
        self.attrs: List[Tuple[str, object]] = list(attrs)
        self.children: List[Span] = []

    def freeze(self, end_ms: float) -> Span:
        return Span(
            name=self.name,
            category=self.category,
            start_ms=self.start_ms,
            end_ms=end_ms,
            device=self.device,
            attrs=tuple(self.attrs),
            children=tuple(self.children),
        )


class Tracer:
    """Collects span trees from traced executions.

    The builder API is explicit about time because time here is
    *simulated*: callers pass ``start_ms``/``end_ms`` read off the
    session or scheduler clock rather than the wall.

    - :meth:`begin` opens a span (it becomes the current parent on this
      thread) and returns a depth token;
    - :meth:`end` closes the innermost open span;
    - :meth:`leaf` records an already-finished span (optionally with
      pre-built children) under the current parent;
    - :meth:`abort_to` unwinds to a token when an error escapes, so a
      failed run still leaves a well-formed, error-annotated tree.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._roots: List[Span] = []
        self._local = threading.local()

    # -- plumbing ----------------------------------------------------------

    def _stack(self) -> List[_OpenSpan]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _attach(self, span: Span) -> Span:
        stack = self._stack()
        if stack:
            stack[-1].children.append(span)
        else:
            with self._lock:
                self._roots.append(span)
        return span

    # -- recording ---------------------------------------------------------

    def begin(
        self, name: str, category: str, start_ms: float, device: int = 0, **attrs
    ) -> int:
        """Open a span; returns a token for :meth:`abort_to`."""
        stack = self._stack()
        token = len(stack)
        stack.append(
            _OpenSpan(name, category, start_ms, device, sorted(attrs.items()))
        )
        return token

    def end(self, end_ms: float) -> Span:
        """Close the innermost open span and attach it to its parent."""
        open_span = self._stack().pop()
        return self._attach(open_span.freeze(end_ms))

    def leaf(
        self,
        name: str,
        category: str,
        start_ms: float,
        end_ms: float,
        device: int = 0,
        children: Tuple[Span, ...] = (),
        **attrs,
    ) -> Span:
        """Record one already-finished span under the current parent."""
        return self._attach(
            Span(
                name=name,
                category=category,
                start_ms=start_ms,
                end_ms=end_ms,
                device=device,
                attrs=tuple(sorted(attrs.items())),
                children=tuple(children),
            )
        )

    def abort_to(self, token: int, end_ms: float, **attrs) -> None:
        """Unwind open spans down to ``token`` (error escape path).

        Every unwound span is closed at ``end_ms`` and annotated with
        ``attrs`` (conventionally ``error=<type name>``), so a trace of
        a failed run shows where it died instead of dangling.
        """
        stack = self._stack()
        while len(stack) > token:
            open_span = stack.pop()
            open_span.attrs.extend(sorted(attrs.items()))
            self._attach(open_span.freeze(max(end_ms, open_span.start_ms)))

    @property
    def depth(self) -> int:
        """Open spans on the calling thread's stack."""
        return len(self._stack())

    # -- reading -----------------------------------------------------------

    def spans(self) -> Tuple[Span, ...]:
        """Finished root spans, in completion order."""
        with self._lock:
            return tuple(self._roots)

    def clear(self) -> None:
        """Drop every finished root (open spans are untouched)."""
        with self._lock:
            self._roots.clear()


def kernel_spans(records, device: int = 0) -> Tuple[Span, ...]:
    """One ``kernel`` span per :class:`~repro.gpu.executor.LaunchRecord`,
    on ``device``, where the record was placed."""
    return tuple(
        Span(
            name=rec.breakdown.name,
            category="kernel",
            start_ms=rec.start_ms,
            end_ms=rec.end_ms,
            device=device,
            attrs=(("bound", rec.breakdown.bound), ("stage", rec.stage)),
        )
        for rec in records
    )


def spans_from_report(report) -> Tuple[Span, ...]:
    """Kernel-level spans of a :class:`~repro.gpu.executor.SimReport`.

    Each launch record becomes one ``kernel`` span on the report's
    serial timeline — the bridge that lets span-based rendering and
    export consume reports produced outside a traced engine run.
    """
    return kernel_spans(report.records)
