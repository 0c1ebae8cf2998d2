"""The worker pool every batched solve service runs on.

``concurrent.futures.ThreadPoolExecutor`` fixes its size at
construction; the serving tier needs a pool whose width tracks load.
:class:`ScalableWorkerFleet` is a minimal executor (``submit`` /
``shutdown``) backed by N threads, plus :meth:`resize`.
:class:`~repro.service.BatchSolveService` runs each flush on one
(``service.fleet``), and the serving tier's autoscaler resizes that
same fleet:

- growing spawns threads immediately;
- shrinking sends poison pills, so busy workers finish their task
  before retiring (no solve is ever interrupted).

A task goes to the worker that went idle *last*: idle workers wait on
their own inboxes, kept as a stack, and work arriving while every
worker is busy waits in a FIFO backlog that the next worker to finish
takes from. So back-to-back tasks stay on one warm thread, with its
caches and its allocator arena, instead of alternating threads. A new
worker joins the idle stack at the bottom, as the coldest. A shrink
retires the worker that has been idle *longest*, or the next one to
finish while all are busy. A worker joins the idle stack before
it resolves its task's future, and drops the task's arguments before
it waits, so an idle worker pins nothing.

Each worker models one device replica of the simulated backend — the
"worker/device fleet" the ROADMAP's autoscaling item names. The fleet
publishes its width as the ``repro_serve_fleet_workers`` gauge, the
signal the autoscaler's decisions are audited against.
"""

from __future__ import annotations

import queue
import threading
from collections import deque
from concurrent.futures import Future

from ..util.errors import ConfigurationError

__all__ = ["ScalableWorkerFleet"]

_POISON = object()
_THREAD_PREFIX = "repro-solve"


class ScalableWorkerFleet:
    """Thread fleet with runtime :meth:`resize`; executor-compatible."""

    def __init__(self, workers: int = 4):
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self._lock = threading.Lock()
        # Inboxes of idle workers, the most recently idle last; tasks
        # and pills that found no idle worker, oldest first. While a
        # worker is idle the backlog is empty.
        self._idle: "deque[queue.SimpleQueue]" = deque()
        self._backlog: deque = deque()
        self._threads: "list[threading.Thread]" = []
        self._target = 0
        self._spawned = 0
        self._closed = False
        self._gauge = None
        self.resize(workers)

    def attach_metrics(self, registry) -> None:
        """Publish the live worker count as ``repro_serve_fleet_workers``."""
        with self._lock:
            self._gauge = registry.gauge(
                "repro_serve_fleet_workers",
                "Worker threads currently in the fleet.",
            )
            self._gauge.set(self._target)

    @property
    def size(self) -> int:
        """The fleet's target width (threads converge to it)."""
        with self._lock:
            return self._target

    def resize(self, workers: int) -> int:
        """Set the fleet width; returns the delta applied.

        Growth is immediate; shrink retires workers only between tasks,
        the longest idle first.
        """
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        with self._lock:
            if self._closed:
                raise ConfigurationError("fleet is shut down")
            delta = workers - self._target
            self._target = workers
            if self._gauge is not None:
                self._gauge.set(workers)
            # Forget retired workers that have exited.
            self._threads = [t for t in self._threads if t.is_alive()]
            for _ in range(max(0, delta)):
                self._spawned += 1
                thread = threading.Thread(
                    target=self._run,
                    args=(queue.SimpleQueue(),),
                    name=f"{_THREAD_PREFIX}-{self._spawned}",
                    daemon=True,
                )
                self._threads.append(thread)
                thread.start()
            for _ in range(max(0, -delta)):
                self._retire_one()
        return delta

    def submit(self, fn, *args, **kwargs) -> Future:
        """Queue one call for the most recently idle worker; returns its
        :class:`Future`."""
        future: Future = Future()
        task = (future, fn, args, kwargs)
        with self._lock:
            if self._closed:
                raise ConfigurationError("fleet is shut down")
            if self._idle:
                self._idle.pop().put(task)
            else:
                self._backlog.append(task)
        return future

    def _retire_one(self) -> None:
        """Send one poison pill: to the longest idle worker, else to the
        backlog for the next worker to finish. The caller holds
        ``_lock``."""
        if self._idle:
            self._idle.popleft().put(_POISON)
        else:
            self._backlog.append(_POISON)

    def _next_task(self, inbox: "queue.SimpleQueue", cold: bool = False):
        """The oldest backlog item, or None after joining the idle stack:
        on top, or at the bottom for a ``cold`` worker that never ran."""
        with self._lock:
            if self._backlog:
                return self._backlog.popleft()
            if cold:
                self._idle.appendleft(inbox)
            else:
                self._idle.append(inbox)
            return None

    def _run(self, inbox: "queue.SimpleQueue") -> None:
        task = self._next_task(inbox, cold=True)
        while True:
            if task is None:
                task = inbox.get()
            if task is _POISON:
                return
            future, fn, args, kwargs = task
            result = error = None
            ran = future.set_running_or_notify_cancel()
            if ran:
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:  # mirror Executor semantics
                    error = exc
            # Drop the finished call, and go idle (or take the next
            # backlog item) before the caller can see the outcome, so
            # its next submit finds this worker on top of the stack.
            del fn, args, kwargs
            task = self._next_task(inbox)
            if ran:
                if error is None:
                    future.set_result(result)
                else:
                    future.set_exception(error)
            del future, result, error

    def shutdown(self, wait: bool = True) -> None:
        """Retire every worker; idempotent."""
        with self._lock:
            if self._closed:
                threads = []
            else:
                self._closed = True
                threads = list(self._threads)
                for _ in range(self._target):
                    self._retire_one()
                self._target = 0
                if self._gauge is not None:
                    self._gauge.set(0)
        if wait:
            for thread in threads:
                thread.join()
