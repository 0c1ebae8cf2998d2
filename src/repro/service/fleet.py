"""The worker pool every batched solve service runs on.

:class:`WorkerFleet` is a minimal executor (``submit`` / ``shutdown``)
backed by a fixed number of threads, all started by its constructor.
:class:`~repro.service.BatchSolveService` runs each flush as one task on
its fleet (``service.fleet``).

A task goes to the worker that went idle *last*: idle workers wait on
their own inboxes, kept as a stack, and work arriving while every
worker is busy waits in a FIFO backlog that the next worker to finish
takes from. So back-to-back tasks stay on one warm thread, with its
caches and its allocator arena, instead of alternating threads. A
worker that has not run a task yet joins the idle stack at the bottom,
as the coldest. A worker joins the idle stack before it resolves its
task's future, and drops the task's arguments before it waits, so an
idle worker pins nothing. :meth:`WorkerFleet.shutdown` retires workers
only between tasks, so no running task is interrupted.
"""

from __future__ import annotations

import queue
import threading
from collections import deque
from concurrent.futures import Future

from ..util.errors import ConfigurationError

__all__ = ["WorkerFleet"]

_POISON = object()
_THREAD_PREFIX = "repro-solve"


class WorkerFleet:
    """A fixed-width thread fleet; executor-compatible."""

    def __init__(self, workers: int = 4):
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self._lock = threading.Lock()
        # Inboxes of idle workers, the most recently idle last; tasks
        # and pills that found no idle worker, oldest first. While a
        # worker is idle the backlog is empty.
        self._idle: "deque[queue.SimpleQueue]" = deque()
        self._backlog: deque = deque()
        self._closed = False
        self._threads = [
            threading.Thread(
                target=self._run,
                args=(queue.SimpleQueue(),),
                name=f"{_THREAD_PREFIX}-{i + 1}",
                daemon=True,
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

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
        """Retire every worker once the work queued before it is done;
        idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            # A pill to each idle worker; busy workers take theirs from
            # the backlog, after the tasks already waiting there.
            for _ in self._threads:
                if self._idle:
                    self._idle.popleft().put(_POISON)
                else:
                    self._backlog.append(_POISON)
        if wait:
            for thread in self._threads:
                thread.join()
