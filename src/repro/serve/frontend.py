"""The asyncio-native serving frontend over the batched solve service.

:class:`AsyncSolveService` is the serving tier's front door. It owns

- a :class:`~repro.service.BatchSolveService` for everything the
  service layer already does right — plan/tuning reuse, deterministic
  plan-signature grouping, merged solves, bisection, deadlines, the
  circuit breaker — executed on the service's resizable
  :class:`~repro.service.fleet.ScalableWorkerFleet`;
- the tuning cache, read from ``cache=`` as every front end reads it
  (memory-only :class:`~repro.core.TuningCache` by default);
- an optional :class:`~repro.serve.admission.AdmissionController`
  (tenant quotas, priority classes) checked before anything is queued;
- an optional :class:`~repro.serve.autoscaler.Autoscaler`, ticked on
  every flush while the queue-depth gauge still shows the backlog.

Submission is awaitable (`await service.submit(...)` yields an
:class:`asyncio.Future`), and the **sync facade is the same code
path**: ``submit_sync`` is ``submit`` minus the asyncio wrapping, so a
request stream produces *identical group assignments and bit-identical
solutions* whichever door it came through — the parity property the
tests pin. Nothing numeric happens on the event loop; solves run on
the fleet and the loop only awaits their futures.

Answers reach the loop through one relay per loop. A worker finishing a
request posts it to the relay; the first post of a burst schedules one
drain with ``call_soon_threadsafe``, and every post that finds that
drain still pending joins it. So answers that arrive while the loop
is busy share one wakeup, where :func:`asyncio.wrap_future` wakes the
loop once per request. Like
``wrap_future``, cancelling the awaited future cancels the request
(the service then skips it), a drain skips cancelled futures, and
posts to a closed loop are dropped. A pending drain is held only by
the loop's own callback queue, so a relay never keeps a closed loop
alive.
"""

from __future__ import annotations

import asyncio
import threading
import weakref
from concurrent.futures import Future
from functools import partial
from typing import List, Optional, Sequence, Union

from ..core.tuning import resolve_cache
from ..service.queue import CircuitBreaker
from ..service.workers import BatchSolveService, ServiceResult
from ..systems.tridiagonal import TridiagonalBatch
from .admission import AdmissionController
from .autoscaler import Autoscaler, AutoscalerPolicy

__all__ = ["AsyncSolveService"]


class _Burst(list):
    """Completions one scheduled drain delivers: (loop future, service
    future) pairs. Only the drain's callback holds it strongly."""

    __slots__ = ("__weakref__",)


def _cancel_request(request: Future, awaited: "asyncio.Future") -> None:
    if awaited.cancelled():
        request.cancel()


class _LoopRelay:
    """Resolves one event loop's futures from worker threads, one loop
    wakeup per burst of completions."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # Weak reference to the burst whose drain has not run yet.
        self._open: "Optional[weakref.ref]" = None

    def wrap(self, request: Future, loop) -> "asyncio.Future":
        """A future of ``loop`` that settles as ``request`` does."""
        awaited = loop.create_future()
        awaited.add_done_callback(partial(_cancel_request, request))
        request.add_done_callback(partial(self._post, awaited))
        return awaited

    def _post(self, awaited: "asyncio.Future", request: Future) -> None:
        """Runs on whichever thread settled ``request``."""
        loop = awaited.get_loop()
        if loop.is_closed():
            return
        with self._lock:
            burst = self._open() if self._open is not None else None
            if burst is not None:
                burst.append((awaited, request))
                return
            burst = _Burst([(awaited, request)])
            self._open = weakref.ref(burst)
        try:
            loop.call_soon_threadsafe(self._drain, burst)
        except RuntimeError:
            pass  # the loop closed meanwhile; the burst dies with this frame

    def _drain(self, burst: _Burst) -> None:
        """Runs on the loop: settles the burst's futures still awaited."""
        with self._lock:
            if self._open is not None and self._open() is burst:
                self._open = None
        for awaited, request in burst:
            if awaited.cancelled():
                continue
            if request.cancelled():
                awaited.cancel()
                continue
            error = request.exception()
            if error is None:
                awaited.set_result(request.result())
            else:
                awaited.set_exception(error)


class AsyncSolveService:
    """Asyncio frontend + admission + autoscaling.

    Parameters mirror :class:`~repro.service.BatchSolveService` where
    they overlap; the serving-tier additions:

    admission:
        An :class:`AdmissionController`; ``None`` admits everything
        (single-tenant mode).
    autoscale:
        ``True`` (or an :class:`AutoscalerPolicy`) builds an
        :class:`Autoscaler` over the fleet, ticked at every flush.
    cache:
        Any tuning cache, or the path of a persistent
        :class:`~repro.core.TuningCache`; a memory-only
        ``TuningCache`` when omitted. :attr:`cache` is the cache the
        service uses.
    workers:
        Initial fleet width (the autoscaler moves it afterwards).
    """

    def __init__(
        self,
        device: str = "gtx470",
        tuning: Union[str, object, None] = "static",
        *,
        cache=None,
        workers: int = 4,
        admission: Optional[AdmissionController] = None,
        autoscale: Union[bool, AutoscalerPolicy] = False,
        breaker: Optional[CircuitBreaker] = None,
        max_pending: int = 1024,
        overflow: str = "block",
        submit_timeout: Optional[float] = None,
        auto_flush: Optional[int] = None,
        max_group_systems: Optional[int] = None,
        verify: bool = False,
        dist=None,
        faults=None,
        metrics=None,
        tracer=None,
    ):
        from ..obs import MetricsRegistry

        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.cache = resolve_cache(cache)
        self.admission = admission
        if admission is not None:
            admission.attach_metrics(self.metrics)
        self.service = BatchSolveService(
            device,
            tuning,
            cache=self.cache,
            max_workers=workers,
            max_pending=max_pending,
            overflow=overflow,
            submit_timeout=submit_timeout,
            auto_flush=auto_flush,
            max_group_systems=max_group_systems,
            verify=verify,
            dist=dist,
            faults=faults,
            breaker=breaker,
            metrics=self.metrics,
            tracer=tracer,
        )
        self.fleet = self.service.fleet
        self.fleet.attach_metrics(self.metrics)
        # A loop's relay is made on that loop's thread, the one thread
        # that looks it up.
        self._relays: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self.autoscaler: Optional[Autoscaler] = None
        if autoscale:
            policy = (
                autoscale
                if isinstance(autoscale, AutoscalerPolicy)
                else AutoscalerPolicy(
                    min_workers=1, max_workers=max(workers * 4, workers)
                )
            )
            self.autoscaler = Autoscaler(
                self.fleet, self.metrics, policy, tracer=tracer
            )

    # -- shared request path -------------------------------------------------

    @property
    def stats(self):
        """The inner service's :class:`~repro.service.ServiceStats`."""
        return self.service.stats

    def submit_sync(
        self,
        batch: TridiagonalBatch,
        device=None,
        *,
        tenant: str = "default",
        priority: Optional[str] = None,
        timeout: Optional[float] = None,
        deadline_ms: Optional[float] = None,
        tolerance: Optional[float] = None,
    ) -> "Future[ServiceResult]":
        """The sync facade: admission, then the service's own submit.

        This *is* the async path minus the asyncio wrapper — both doors
        lead to the same queue, grouping, and merged solves, which is
        what keeps them bit-identical.
        """
        ticket = None
        if self.admission is not None:
            try:
                ticket = self.admission.admit(tenant, priority)
            except Exception:
                self.stats.record_shed()
                raise
        try:
            future = self.service.submit(
                batch,
                device,
                timeout=timeout,
                deadline_ms=deadline_ms,
                tolerance=tolerance,
            )
        except Exception:
            if ticket is not None:
                self.admission.release(ticket)
            raise
        if ticket is not None:
            admission, held = self.admission, ticket
            future.add_done_callback(lambda _f: admission.release(held))
        return future

    async def submit(
        self,
        batch: TridiagonalBatch,
        device=None,
        *,
        tenant: str = "default",
        priority: Optional[str] = None,
        timeout: Optional[float] = None,
        deadline_ms: Optional[float] = None,
        tolerance: Optional[float] = None,
    ) -> "asyncio.Future[ServiceResult]":
        """Awaitable submission: admit + enqueue now, result later.

        Returns a future of the running loop resolving to the request's
        :class:`~repro.service.ServiceResult`; gather a stream of them
        after :meth:`flush`. Typed admission/backpressure errors raise
        here, before anything is queued. Cancelling the future cancels
        the request.
        """
        inner = self.submit_sync(
            batch,
            device,
            tenant=tenant,
            priority=priority,
            timeout=timeout,
            deadline_ms=deadline_ms,
            tolerance=tolerance,
        )
        loop = asyncio.get_running_loop()
        relay = self._relays.get(loop)
        if relay is None:
            relay = self._relays[loop] = _LoopRelay()
        return relay.wrap(inner, loop)

    async def solve(
        self,
        batch: TridiagonalBatch,
        device=None,
        *,
        tenant: str = "default",
        priority: Optional[str] = None,
        deadline_ms: Optional[float] = None,
        tolerance: Optional[float] = None,
    ) -> ServiceResult:
        """Submit one request, flush, await its answer."""
        future = await self.submit(
            batch,
            device,
            tenant=tenant,
            priority=priority,
            deadline_ms=deadline_ms,
            tolerance=tolerance,
        )
        self.flush()
        return await future

    async def solve_many(
        self,
        batches: Sequence[TridiagonalBatch],
        device=None,
        *,
        tenant: str = "default",
        priority: Optional[str] = None,
        tolerance: Optional[float] = None,
    ) -> List[ServiceResult]:
        """Submit a stream, flush once, gather in submission order."""
        futures = [
            await self.submit(
                batch,
                device,
                tenant=tenant,
                priority=priority,
                tolerance=tolerance,
            )
            for batch in batches
        ]
        self.flush()
        return list(await asyncio.gather(*futures))

    def solve_many_sync(
        self,
        batches: Sequence[TridiagonalBatch],
        device=None,
        *,
        tenant: str = "default",
        priority: Optional[str] = None,
        tolerance: Optional[float] = None,
    ) -> List[ServiceResult]:
        """The sync facade of :meth:`solve_many` — same path, no loop."""
        futures = [
            self.submit_sync(
                batch,
                device,
                tenant=tenant,
                priority=priority,
                tolerance=tolerance,
            )
            for batch in batches
        ]
        self.flush()
        return [future.result() for future in futures]

    # -- lifecycle -----------------------------------------------------------

    def flush(self) -> int:
        """Tick the autoscaler on the visible backlog, then dispatch."""
        if self.autoscaler is not None:
            self.autoscaler.tick()
        return self.service.flush()

    def drain(self) -> None:
        """Block until every dispatched group has finished."""
        self.service.drain()

    def close(self, wait: bool = True) -> None:
        """Flush pending work and retire the fleet."""
        self.service.close(wait=wait)

    def __enter__(self) -> "AsyncSolveService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    async def __aenter__(self) -> "AsyncSolveService":
        return self

    async def __aexit__(self, *exc_info) -> None:
        self.close()
