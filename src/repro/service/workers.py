"""The batched solve service: plan reuse + merged solves + worker pool.

:class:`BatchSolveService` is the production front end the ROADMAP asks
for. Callers :meth:`~BatchSolveService.submit` independent solve
requests; the service

1. resolves switch points **once per (device, dtype)** through a shared,
   thread-safe :class:`~repro.core.TuningCache` (``get_or_tune``),
2. reuses :class:`~repro.core.SolvePlan` objects per workload shape,
3. groups program-compatible requests (see :mod:`.batcher`) — keyed by
   the signature of the lowered instruction
   :class:`~repro.ir.Program`, the exact step sequence the shared
   engine will run — into single merged
   :class:`~repro.systems.TridiagonalBatch` solves, and
4. runs each :meth:`~BatchSolveService.flush` as one task on a
   :class:`~repro.service.fleet.WorkerFleet` (``service.fleet``),
   with queue backpressure (``max_pending`` + block/reject policy). A
   flush's groups run in group order on that one warm worker; a failing
   group fails only its own requests, and :meth:`~BatchSolveService.drain`
   re-raises what escaped it. Flushes run concurrently, one per worker.
   Merged solves of small systems (a few dozen systems of at most a
   few thousand rows) hold the interpreter lock for most of their run,
   so two workers on one flush would only take turns on it and pay
   each handoff.

Merged solves amortise the per-launch overhead that dominates small
workloads — the simulated analogue of the interleaved batch solvers of
Gloster et al. — while the plan-signature grouping keeps every
request's answer bit-identical to a standalone
:meth:`MultiStageSolver.solve`.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.config import SwitchPoints
from ..core.planner import SolvePlan, plan_solve
from ..core.solver import MultiStageSolver
from ..core.tuning import (
    TuningCache,
    resolve_cache,
    resolve_tuning,
    shape_free_switch_points,
)
from ..dist.plan import DistPlan
from ..dist.solver import DistributedSolver, working_set_nbytes
from ..gpu.executor import Device, SimReport, make_device
from ..kernels import dtype_size
from ..numerics import Governor, residual_refinement
from ..systems.tridiagonal import TridiagonalBatch
from ..util.errors import (
    ConfigurationError,
    DeadlineExceededError,
    InvalidSystemError,
    ReproError,
    ServiceError,
    ServiceOverloadedError,
)
from ..util.memo import LruMemo
from ..util.validation import check_system_batch, resolve_faults
from .batcher import GroupKey, ServiceRequest, SolveGroup, group_requests
from .fleet import WorkerFleet
from .queue import BoundedRequestQueue, CircuitBreaker
from .stats import ServiceStats

__all__ = ["ServiceResult", "BatchSolveService"]


@dataclass(frozen=True)
class ServiceResult:
    """One request's answer, with the merged solve's provenance."""

    x: np.ndarray
    plan: SolvePlan  # the request's own plan (what a standalone solve runs)
    switch_points: SwitchPoints
    report: SimReport  # timing of the whole merged solve
    group_label: str
    group_requests: int  # requests merged into the solve that produced x
    group_systems: int  # total systems in that merged solve
    wall_ms: float  # wall-clock of the merged solve

    @property
    def simulated_ms(self) -> float:
        """Simulated device time of the merged solve (shared by the group)."""
        return self.report.total_ms


class BatchSolveService:
    """Accepts many solve requests; executes few merged solves.

    Parameters
    ----------
    device:
        Default device for requests that don't name one.
    tuning:
        ``SwitchPoints`` used verbatim, a strategy name
        (``default``/``static``/``dynamic``) resolved once per
        (device, dtype) through ``cache``, or a tuner instance asked at
        shape (0, 0); ``None`` means ``"default"``. A bad value raises
        :class:`ConfigurationError` here.
    cache:
        Any shared tuning cache (a :class:`TuningCache`, a
        :class:`~repro.serve.shards.ShardedTuningCache`), or the path of
        a persistent one. Created memory-only when omitted.
    max_workers:
        Width of :attr:`fleet`, the worker threads running flushes
        concurrently, each flush's groups in order on one worker.
    max_pending / overflow:
        Backpressure: the pending queue holds at most ``max_pending``
        requests; ``overflow="block"`` waits for space (up to
        ``submit(timeout=)`` seconds), ``overflow="reject"`` raises
        :class:`ServiceOverloadedError` immediately.
    auto_flush:
        When set, ``submit`` dispatches pending work automatically once
        this many requests are queued; otherwise call :meth:`flush`.
    max_group_systems:
        Cap on merged-batch height (bounds per-solve working set).
    dist:
        Optional distributed backend for requests whose working set
        overflows one device's global memory: a
        :class:`~repro.dist.DistributedSolver`, a
        :class:`~repro.dist.DeviceGroup`, or a device count (a group of
        the service's default device is built here, so a bad value
        fails at construction). Oversized requests are
        planned with a :class:`~repro.dist.DistPlan` and grouped by its
        signature, so plan-compatible oversized requests still merge
        into one distributed solve.
    faults:
        Optional :class:`~repro.faults.FaultInjector` (or a bare
        :class:`~repro.faults.FaultPlan`) threaded through every solver
        the service builds. Workers honour its
        :class:`~repro.faults.WorkerStall` specs, and its
        :class:`~repro.faults.FaultLog` is surfaced in
        :meth:`ServiceStats.snapshot` under ``"faults"``.
    breaker:
        Optional :class:`~repro.service.queue.CircuitBreaker`. While it
        is open, :meth:`submit` sheds load with
        :class:`~repro.util.errors.ServiceOverloadedError`.
    fuse:
        Whether merged solves run through the batched-fusion lowering
        (the interleaved-layout sweeps of :func:`repro.ir.fuse_batched`):
        ``False`` never, ``True`` always, ``"auto"`` (the default)
        prices both lowerings per group signature and runs whichever
        the cost model says is cheaper — the interleave toll only pays
        for itself once split stages or large merges dominate. Safe in
        every mode: fused solutions are bit-identical to the staged
        chain, so answers still match a standalone unfused
        :meth:`MultiStageSolver.solve`. Grouping stays keyed by the
        unfused program signature (fusion is a pure function of it).

    When a merged solve raises a typed :class:`ReproError` (a poisoned
    request — e.g. a singular system failing verification), the group is
    *bisected*: each half retries separately until the bad request fails
    alone and every healthy neighbour still gets its answer.
    Per-request deadlines (``submit(..., deadline_ms=...)``) are
    enforced immediately before and after the merged solve with
    :class:`~repro.util.errors.DeadlineExceededError`.
    """

    def __init__(
        self,
        device: Union[Device, str] = "gtx470",
        tuning: Union[SwitchPoints, str, "object", None] = "static",
        *,
        cache: Union[TuningCache, str, None] = None,
        max_workers: int = 4,
        max_pending: int = 1024,
        overflow: str = "block",
        auto_flush: Optional[int] = None,
        max_group_systems: Optional[int] = None,
        verify: bool = False,
        dist=None,
        faults=None,
        breaker: Optional[CircuitBreaker] = None,
        metrics=None,
        tracer=None,
        fuse: Union[bool, str] = "auto",
    ):
        if max_workers < 1:
            raise ConfigurationError(f"max_workers must be >= 1, got {max_workers}")
        self.default_device = make_device(device)
        self.fuse = fuse
        self.cache = resolve_cache(cache)
        self.verify = verify
        self.faults = resolve_faults(faults)
        self.breaker = breaker
        self.max_group_systems = max_group_systems
        self.auto_flush = auto_flush
        self.stats = ServiceStats()
        self._tuning = resolve_tuning(tuning)
        self._queue: BoundedRequestQueue[ServiceRequest] = BoundedRequestQueue(
            max_pending=max_pending, policy=overflow
        )
        self._lock = threading.Lock()
        self._seq = 0
        self._switch: LruMemo[SwitchPoints] = LruMemo("service_switch")
        self._solvers: LruMemo[MultiStageSolver] = LruMemo("service_solvers")
        self._signatures: LruMemo[Tuple] = LruMemo("service_signatures")
        # Dispatched flushes' futures until each succeeds; a failed one
        # stays for drain() to re-raise. A dict keeps dispatch order.
        self._flush_futures: Dict[Future, None] = {}
        self._closed = False
        self.stats.attach_cache(self.cache)
        if self.faults is not None:
            self.stats.attach_fault_log(self.faults.log)
        # Observability: one shared registry (private unless provided)
        # collects the whole catalogue — service counters, queue depth,
        # breaker transitions, tuning-cache lookups, fault events — and
        # an optional tracer threads through every solver the service
        # builds. ``docs/observability.md`` documents the metric names.
        from ..obs import MetricsRegistry

        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer
        self._plans: LruMemo[SolvePlan] = LruMemo("service_plans", metrics=self.metrics)
        self.stats.attach_metrics(self.metrics)
        self.cache.attach_metrics(self.metrics)
        self._queue_depth = self.metrics.gauge(
            "repro_service_queue_depth", "Requests waiting to be flushed."
        )
        self._queue.attach_metrics(self.metrics)
        if self.breaker is not None:
            self.breaker.attach_metrics(self.metrics)
        if self.faults is not None:
            self.faults.log.attach_metrics(self.metrics)
        # The numerical-safety governor: verifies every governed group
        # against the strictest member tolerance and escalates (see
        # repro.numerics). Shares the service's registry and tracer so
        # escalation/fallback rates land in the same dump.
        self.governor = Governor(metrics=self.metrics, tracer=self.tracer)
        # The distributed backend, or None when not configured.
        if dist is not None and not isinstance(dist, DistributedSolver):
            dist = DistributedSolver(
                dist,
                self._tuning,
                device=self.default_device,
                cache=self.cache,
                verify=self.verify,
                faults=self.faults,
                metrics=self.metrics,
                tracer=self.tracer,
            )
        self.dist_solver: Optional[DistributedSolver] = dist
        # Last, so a constructor that raises leaves no live threads.
        self.fleet = WorkerFleet(max_workers)

    def _routes_to_dist(self, batch: TridiagonalBatch, dev: Device) -> bool:
        """Oversized for one device, and the group models that device."""
        solver = self.dist_solver
        if solver is None or dev.name != solver.group.device_name:
            return False
        nbytes = working_set_nbytes(
            batch.num_systems, batch.system_size, dtype_size(batch.dtype)
        )
        return nbytes > dev.spec.global_mem_bytes

    # -- tuning / planning reuse -------------------------------------------

    def _device(self, device: Union[Device, str, None]) -> Device:
        return self.default_device if device is None else make_device(device)

    def switch_points_for(
        self, device: Union[Device, str, None] = None, dtype=np.float64
    ) -> SwitchPoints:
        """The switch points the service uses for (device, dtype).

        Resolved once through the shared cache's ``get_or_tune`` fast
        path; exposes the exact configuration a standalone reference
        solve must use to reproduce service results bit-for-bit.
        """
        dev = self._device(device)
        dsize = dtype_size(np.dtype(dtype))
        return self._switch.get_or_make(
            (dev.name, dsize),
            lambda: shape_free_switch_points(
                self._tuning, self.cache, dev, dsize, "service"
            ),
        )

    def solver_for(
        self, device: Union[Device, str, None] = None, dtype=np.float64
    ) -> MultiStageSolver:
        """The (shared) solver executing merged solves for (device, dtype)."""
        dev = self._device(device)
        return self._solvers.get_or_make(
            (dev.name, dtype_size(np.dtype(dtype))),
            lambda: MultiStageSolver(
                dev,
                self.switch_points_for(dev, dtype),
                verify=self.verify,
                faults=self.faults,
                tracer=self.tracer,
                fuse=self.fuse,
            ),
        )

    def plan_for(
        self, batch: TridiagonalBatch, device: Union[Device, str, None] = None
    ) -> SolvePlan:
        """The per-request plan, memoised per (device, dtype, m, n)."""
        dev = self._device(device)
        dsize = dtype_size(batch.dtype)
        m, n = batch.shape
        return self._plans.get_or_make(
            (dev.name, dsize, m, n),
            lambda: plan_solve(
                dev, m, n, dsize, self.switch_points_for(dev, batch.dtype)
            ),
        )

    def _program_signature(self, plan, device_label: str, dsize: int, lower):
        """Signature of the lowered instruction program, memoised.

        Plan signatures are count-independent, and lowering is a pure
        function of the plan (plus device and dtype), so the program
        signature is cached per (device, dtype, plan signature) — one
        lowering per distinct workload class, not per request.
        """
        return self._signatures.get_or_make(
            (device_label, dsize, plan.signature), lambda: lower().signature
        )

    # -- the request path ----------------------------------------------------

    def submit(
        self,
        batch: TridiagonalBatch,
        device: Union[Device, str, None] = None,
        *,
        timeout: Optional[float] = None,
        deadline_ms: Optional[float] = None,
        tolerance: Optional[float] = None,
    ) -> "Future[ServiceResult]":
        """Queue one solve request; returns a future for its result.

        Applies the backpressure policy; a rejected request raises
        :class:`ServiceOverloadedError` and is counted in the stats.
        ``deadline_ms`` is a wall-clock budget from now: the request
        fails with :class:`DeadlineExceededError` instead of returning
        a result the caller stopped waiting for. ``tolerance`` requests
        a governed solve: the answer's relative residual is verified
        against it (a merged group honours its strictest member) or the
        request fails with a typed
        :class:`~repro.util.errors.NumericalBreakdownError`.

        Malformed systems — NaN/Inf coefficients, zero diagonals — are
        rejected here, before any queueing, with a typed
        :class:`~repro.util.errors.InvalidSystemError`.
        """
        if self._closed:
            raise ServiceError("service is closed")
        try:
            check_system_batch(batch, context="service request")
        except InvalidSystemError:
            self.metrics.counter(
                "repro_service_invalid_total",
                "Requests rejected at the boundary for malformed systems.",
            ).inc()
            if self.faults is not None:
                self.faults.note(
                    "numerics", "rejected", detail="invalid system at submit"
                )
            raise
        if self.breaker is not None and not self.breaker.allow():
            self.stats.record_shed()
            if self.faults is not None:
                self.faults.note(
                    "overload", "shed", detail="circuit breaker open"
                )
            raise ServiceOverloadedError(
                "circuit breaker is open (backend failing); request shed"
            )
        dev = self._device(device)
        dsize = dtype_size(batch.dtype)
        if self._routes_to_dist(batch, dev):
            # Too big for one device: plan across the group. The group
            # label keys the merged solve so oversized requests only mix
            # with program-compatible oversized requests.
            dist = self.dist_solver
            plan = dist.plan_for(batch)
            key = GroupKey(
                device=dist.group.describe(),
                dtype=str(batch.dtype),
                system_size=batch.system_size,
                signature=self._program_signature(
                    plan,
                    dist.group.describe(),
                    dsize,
                    lambda: dist.lower(plan, dsize),
                ),
            )
        else:
            plan = self.plan_for(batch, dev)
            key = GroupKey(
                device=dev.name,
                dtype=str(batch.dtype),
                system_size=batch.system_size,
                signature=self._program_signature(
                    plan, dev.name, dsize, lambda: plan.lower(dev, dsize)
                ),
            )
        with self._lock:
            seq = self._seq
            self._seq += 1
        deadline = (
            None
            if deadline_ms is None
            else time.monotonic() + deadline_ms / 1e3
        )
        request = ServiceRequest(
            seq=seq,
            batch=batch,
            device=dev,
            key=key,
            plan=plan,
            deadline=deadline,
            tolerance=None if tolerance is None else float(tolerance),
        )
        try:
            self._queue.put(request, timeout=timeout)
        except Exception:
            self.stats.record_rejected()
            raise
        self.stats.record_submitted()
        self._queue_depth.set(self._queue.pending)
        if self.auto_flush is not None and self._queue.pending >= self.auto_flush:
            self.flush()
        return request.future

    def flush(self) -> int:
        """Group everything pending and dispatch the groups to the fleet
        as one task, which runs them in group order.

        Returns the number of merged solves dispatched.
        """
        pending = self._queue.drain()
        self._queue_depth.set(self._queue.pending)
        if not pending:
            return 0
        groups = group_requests(
            pending, max_group_systems=self.max_group_systems
        )
        fut = self.fleet.submit(self._run_groups, groups)
        with self._lock:
            self._flush_futures[fut] = None
        fut.add_done_callback(self._release_flush)
        return len(groups)

    def _release_flush(self, fut: Future) -> None:
        """Forget a flush's future once it succeeded; keep a failed or
        cancelled one so that :meth:`drain` re-raises it."""
        if not fut.cancelled() and fut.exception() is None:
            with self._lock:
                self._flush_futures.pop(fut, None)

    def _run_groups(self, groups: List[SolveGroup]) -> None:
        """Worker body of a flush: its groups in order on this thread.

        A group whose run raises fails its requests still unsettled
        with that error and leaves the later groups running; the first
        such error is re-raised once every group has run.
        """
        failure: Optional[BaseException] = None
        for group in groups:
            try:
                self._run_group(group)
            except BaseException as exc:  # re-raised below
                failed = 0
                for req in group.requests:
                    try:
                        req.future.set_exception(exc)
                    except InvalidStateError:
                        continue  # settled or cancelled already
                    failed += 1
                if failed:
                    self.stats.record_failed(failed)
                if failure is None:
                    failure = exc
        if failure is not None:
            raise failure

    def _run_group(self, group: SolveGroup) -> None:
        """One merged solve of the requests still awaited, fanned back
        out to their futures."""
        if self.faults is not None:
            self.faults.maybe_stall(group.key.describe())
        # A request whose caller cancelled it is not solved; the others
        # can no longer be cancelled once their solve starts.
        live = [r for r in group.requests if r.future.set_running_or_notify_cancel()]
        if len(live) != len(group.requests):
            group = SolveGroup(key=group.key, requests=live)
        self._execute_group(group)

    def _expire(self, req: ServiceRequest, when: str) -> bool:
        """Fail ``req`` if its deadline has passed; True when expired."""
        if req.deadline is None or time.monotonic() <= req.deadline:
            return False
        req.future.set_exception(
            DeadlineExceededError(
                f"request deadline passed {when} the merged solve"
            )
        )
        self.stats.record_deadline_expired()
        if self.faults is not None:
            self.faults.note(
                "deadline", "expired", label=req.key.describe(), detail=when
            )
        return True

    def _execute_merged(self, batch: TridiagonalBatch, first: ServiceRequest):
        """Run ``first``'s plan, widened to ``batch``, on its backend."""
        plan = first.plan.with_num_systems(batch.num_systems)
        if isinstance(plan, DistPlan):
            return self.dist_solver.execute_plan(batch, plan)
        solver = self.solver_for(first.device, batch.dtype)
        switch = self.switch_points_for(first.device, batch.dtype)
        return solver.execute_plan(batch, plan, switch)

    def _execute_group(self, group: SolveGroup) -> None:
        """One merged solve; bisect on typed errors, enforce deadlines."""
        live = [r for r in group.requests if not self._expire(r, "before")]
        if not live:
            return
        if len(live) != len(group.requests):
            group = SolveGroup(key=group.key, requests=live)
        t0 = time.perf_counter()
        try:
            merged = group.merged_batch()
            first = group.requests[0]
            result = self._execute_merged(merged, first)
            # Governed groups: verify the merged answer against the
            # strictest member tolerance and walk the escalation ladder:
            # one refinement step re-runs the group's own plan on the
            # residual (same instruction stream, so bit-compatible with
            # the merged solve). A NumericalBreakdownError raised here
            # is a *typed* error, so the bisection below isolates the
            # offending member and its group-mates still get
            # (individually verified) answers.
            x_out = result.x
            tolerance = group.strictest_tolerance()
            if tolerance is not None:
                x_out = self.governor.enforce(
                    merged,
                    x_out,
                    tolerance,
                    refine=residual_refinement(
                        lambda b: self._execute_merged(b, first).x
                    ),
                    path="service",
                    context="merged group solve",
                ).x
        except ReproError as exc:
            if len(live) > 1:
                # A typed failure in a merged batch: one member may be
                # poisoned (singular system, verification failure).
                # Retry each half separately so the bad request fails
                # alone and its neighbours still get answers.
                self.stats.record_bisection()
                if self.faults is not None:
                    self.faults.note(
                        "service",
                        "bisected",
                        label=group.key.describe(),
                        detail=(
                            f"{len(live)} requests split after "
                            f"{type(exc).__name__}"
                        ),
                    )
                mid = len(live) // 2
                self._execute_group(SolveGroup(group.key, live[:mid]))
                self._execute_group(SolveGroup(group.key, live[mid:]))
                return
            live[0].future.set_exception(exc)
            self.stats.record_failed(1)
            if self.breaker is not None:
                self.breaker.record_failure()
            return
        except Exception as exc:
            # Untyped failures are infrastructure, not data: bisection
            # would retry the same breakage; fail the whole group.
            for req in live:
                req.future.set_exception(exc)
            self.stats.record_failed(len(live))
            if self.breaker is not None:
                self.breaker.record_failure()
            return
        wall_ms = (time.perf_counter() - t0) * 1e3
        deliveries = []
        for req, offset in zip(group.requests, group.offsets()):
            rows = slice(offset, offset + req.batch.num_systems)
            if self._expire(req, "after"):
                continue
            deliveries.append((req, rows))
        # Stats and breaker update BEFORE the futures resolve: a caller
        # woken by future.result() may read service.stats immediately,
        # and must see the group that produced its answer (the ordering
        # regression test in tests/test_obs.py pins this).
        if self.breaker is not None:
            self.breaker.record_success()
        self.stats.record_group(
            group.key.describe(),
            requests=len(deliveries),
            systems=merged.num_systems,
            simulated_ms=result.report.total_ms,
            wall_ms=wall_ms,
        )
        for req, rows in deliveries:
            req.future.set_result(
                ServiceResult(
                    x=np.ascontiguousarray(x_out[rows]),
                    plan=req.plan,
                    switch_points=result.switch_points,
                    report=result.report,
                    group_label=group.key.describe(),
                    group_requests=group.num_requests,
                    group_systems=merged.num_systems,
                    wall_ms=wall_ms,
                )
            )

    def solve_many(
        self,
        batches: Sequence[TridiagonalBatch],
        device: Union[Device, str, None] = None,
    ) -> List[ServiceResult]:
        """Submit ``batches``, flush, and wait; results in input order."""
        futures = [self.submit(batch, device) for batch in batches]
        self.flush()
        return [fut.result() for fut in futures]

    # -- lifecycle ------------------------------------------------------------

    def drain(self) -> None:
        """Block until every dispatched flush has finished; re-raise the
        first failure that escaped a group since the last drain."""
        with self._lock:
            futures = list(self._flush_futures)
            self._flush_futures.clear()
        for fut in futures:
            fut.result()

    def close(self, wait: bool = True) -> None:
        """Dispatch any pending work, then shut the fleet down."""
        if self._closed:
            return
        self.flush()
        self._closed = True
        self.fleet.shutdown(wait=wait)

    def __enter__(self) -> "BatchSolveService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
