"""Host spans recorded from outside the program, around calls into its layers.

The benchmark never edits ``src/``. It wraps public callables at the name
their callers actually look up (a class attribute, or the module global a
caller imported), records one span per call, and puts every original
attribute back when the traced run ends. Spans stay in memory; the
caller writes them out once the run is over.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.ir.instructions import BatchedSolve

__all__ = [
    "Span", "SpanRecorder", "Patcher", "LAYER_OF_PREFIX", "install_layer_spans", "layer_of",
]


@dataclass
class Span:
    """One call into a layer: name, host interval, parent and attributes."""

    id: int
    name: str
    thread: int
    start: float  # time.perf_counter() seconds
    end: float
    parent: int  # id of the enclosing span on the same thread, -1 for a root
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans; each thread keeps its own stack of open spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args, kwargs, describe=None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``.

        ``describe(args, result)`` may return span attributes computed
        from the call's outcome; it runs after the span's end time is
        taken, so it costs the span nothing.
        """
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else -1
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            end = time.perf_counter()
            stack.pop()
            self._add(Span(span_id, name, threading.get_ident(), start, end,
                           parent, {"error": type(exc).__name__}))
            raise
        end = time.perf_counter()
        stack.pop()
        attrs = describe(args, result) if describe is not None else {}
        self._add(Span(span_id, name, threading.get_ident(), start, end, parent, attrs))
        return result

    def _add(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    def take(self) -> List[Span]:
        """Remove and return every finished span."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans


SpanName = Union[str, Callable[[tuple], str]]


class Patcher:
    """Replaces attributes with span-recording wrappers and restores them."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: List[Tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: SpanName, describe=None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``owner`` is a module or a class that defines ``attr`` itself;
        class and static methods keep their descriptor kind.
        """
        raw = vars(owner)[attr]
        recorder = self.recorder

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                label = name if isinstance(name, str) else name(args)
                return recorder.call(label, fn, args, kwargs, describe)

            return wrapper

        if isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first, and check it."""
        saved, self._saved = self._saved, []
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)
        for owner, attr, raw in saved:
            if vars(owner)[attr] is not raw:
                raise RuntimeError(f"failed to restore {owner!r}.{attr}")

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()


#: Span-name prefix -> the program layer (module) the span belongs to.
LAYER_OF_PREFIX = {
    "tuning": "core.tuning",
    "core": "core",
    "ir": "ir",
    "kernels": "kernels",
    "numerics": "numerics",
    "service": "service",
    "serve": "serve",
    "dist": "dist",
}


def _engine_run_attrs(args, run) -> Dict[str, object]:
    report = run.report
    return {
        "fused": any(isinstance(step.op, BatchedSolve) for step in args[1].steps),
        "stage_ms": report.stage_ms(),
        "launches": report.num_launches,
    }


def _rung_attrs(args, outcome) -> Dict[str, object]:
    return {"rung": outcome.rung}


def _dist_attrs(args, result) -> Dict[str, object]:
    return {"mode": result.plan.mode}


def _flush_attrs(args, groups) -> Dict[str, object]:
    return {"groups": groups}


def _opcode(args) -> str:
    return f"kernels.{type(args[0].op).__name__}"


# (module, owner attribute or None for the module itself, attribute, span
# name, describe). Module-level functions are patched in every module
# whose callers look them up there: a ``from x import f`` copies the name
# into the importer, and a call-time import reads the defining module.
_PATCHES = (
    ("repro.core.tuning.dynamic", "SelfTuner", "switch_points", "tuning.switch_points", None),
    ("repro.core.tuning.static", "MachineQueryTuner", "switch_points", "tuning.switch_points", None),
    ("repro.core.tuning.default", "DefaultTuner", "switch_points", "tuning.switch_points", None),
    ("repro.core.tuning.cache", "TuningCache", "get_or_tune", "tuning.get_or_tune", None),
    ("repro.serve.shards", "ShardedTuningCache", "get_or_tune", "tuning.get_or_tune", None),
    ("repro.core.planner", None, "plan_solve", "core.plan", None),
    ("repro.core.solver", None, "plan_solve", "core.plan", None),
    ("repro.core.pricing", None, "plan_solve", "core.plan", None),
    ("repro.service.workers", None, "plan_solve", "core.plan", None),
    ("repro.dist.solver", None, "plan_solve", "core.plan", None),
    ("repro.core.solver", "MultiStageSolver", "execute_plan", "core.execute_plan", None),
    ("repro.ir.lower", None, "lower_solve_plan", "ir.lower", None),
    ("repro.ir.lower", None, "lower_dist_plan", "ir.lower", None),
    ("repro.ir.engine", "Engine", "price", "ir.price", None),
    ("repro.ir.engine", "Engine", "execute", "ir.execute", _engine_run_attrs),
    ("repro.kernels.handlers", None, "execute_step", _opcode, None),
    ("repro.numerics.governor", "Governor", "decide", "numerics.decide", None),
    ("repro.numerics.governor", "Governor", "enforce", "numerics.enforce", _rung_attrs),
    ("repro.service.workers", "BatchSolveService", "submit", "service.submit", None),
    ("repro.service.workers", "BatchSolveService", "flush", "service.flush", _flush_attrs),
    ("repro.service.workers", None, "check_system_batch", "service.validate", None),
    ("repro.service.workers", None, "group_requests", "service.group", None),
    ("repro.systems.tridiagonal", "TridiagonalBatch", "stack", "service.merge", None),
    ("repro.serve.frontend", "AsyncSolveService", "submit_sync", "serve.submit", None),
    ("repro.serve.admission", "AdmissionController", "admit", "serve.admit", None),
    ("repro.dist.solver", "DistributedSolver", "solve", "dist.solve", None),
    ("repro.dist.solver", "DistributedSolver", "price", "dist.price", None),
    ("repro.dist.solver", "DistributedSolver", "execute_plan", "dist.execute", _dist_attrs),
    ("repro.dist.solver", None, "split_chunks", "dist.partition", None),
    ("repro.dist.solver", None, "spike_rhs", "dist.partition", None),
    ("repro.dist.solver", None, "solve_reduced_system", "dist.reduced", None),
    ("repro.dist.solver", None, "truncated_reduced_solve", "dist.reduced", None),
    ("repro.dist.solver", None, "reconstruct_chunk", "dist.reconstruct", None),
)


def install_layer_spans(patcher: Patcher) -> None:
    """Wrap every layer boundary the benchmark attributes host time to."""
    for module_name, owner_name, attr, name, describe in _PATCHES:
        module = importlib.import_module(module_name)
        owner = module if owner_name is None else getattr(module, owner_name)
        patcher.wrap(owner, attr, name, describe)


def layer_of(span_name: str) -> Optional[str]:
    """The layer a span name belongs to, by its prefix."""
    return LAYER_OF_PREFIX.get(span_name.split(".", 1)[0])
