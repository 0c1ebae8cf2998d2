"""The one interpreter behind every execution path.

:class:`Engine` interprets a lowered :class:`~repro.ir.instructions.Program`
in two modes:

- :meth:`Engine.execute` — carries a real
  :class:`~repro.systems.TridiagonalBatch` through the kernel handlers'
  numerics. Single-device (``kind="solve"``) programs only; this is what
  :meth:`MultiStageSolver.execute_plan` runs.
- :meth:`Engine.price` — data-free, for every program kind.

Both modes run one overlap-aware list scheduler. Every device exposes
independent compute, egress, and ingress lanes (see
:attr:`~repro.ir.instructions.Step.resource_keys`); ready steps are
placed greedily at their earliest feasible start, ties resolving to
program order. A compute step places the handlers'
:class:`~repro.gpu.cost.KernelCost` launches for its shape in the
program back to back from its start on its device's compute lane, and
runs its numerics (execute mode only) when the placement is replayed.
A step's price is thus a function of the program
alone, the two modes' clocks are bit-identical by construction, and
execute rejects a batch whose system count or value size is not the
program's. A ``Transfer`` claims its source's egress and destination's
ingress lanes simultaneously, so a device streams boundary data out
while its next solve computes, while messages converging on one
endpoint still serialise. A solve program is the one-device,
single-chain case: its launches tile one serial timeline, reported as a
:class:`~repro.gpu.executor.SimReport`; a dist program's placements
land as events on per-device timelines, reported as a
:class:`~repro.dist.pipeline.DistReport` (the makespan model).

Every placement also yields a per-instruction :class:`StepTrace` (stage,
device, span) and, on a tracer, an ``instruction`` span with one
``kernel`` child per launch, so every path gets uniform observability
from one bookkeeping mechanism.

A run first *places* its program, data-free, then *replays* the
placement: in list-scheduling order each step runs its numerics under
the fault hooks, and its span lands on the tracer. A solve program's
placement (the step order, each step's start and end, and its launch
records) is a function of the program and the engine's devices, so the
engine prices it once and keeps it in a bounded memo keyed by the
program; a warm solve does only numerics, fault hooks and spans. A dist
program is placed on every run, since clock skew and link degradation
can move its durations between runs.

Fault injection
---------------
An optional :class:`~repro.faults.FaultInjector` hooks every costed
instruction in *both* modes — injection decisions are deterministic in
the plan seed and the instruction, so pricing a program sees exactly
the transient faults executing it sees. Transient faults are retried
with capped exponential backoff under the injector's
:class:`~repro.faults.RetryPolicy` and a per-program retry budget; the
wasted attempts and backoffs are priced with the same kernel cost model
as the work itself and recorded in the injector's
:class:`~repro.faults.FaultLog`. Clock skew and link degradation
(:meth:`~repro.faults.FaultInjector.adjust_duration_ms`) stretch the
steps of dist programs. Any :class:`ReproError` escaping a step is
annotated with the failing instruction — ``exc.instruction`` is
``(index, opcode, device)`` and the message names all three — so
mid-program failures are attributable.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..gpu.cost import kernel_time_ms
from ..gpu.executor import Device, LaunchRecord, SimReport
from ..kernels.base import KernelContext
from ..obs.trace import kernel_spans
from ..util.errors import FaultInjectionError, PlanError, ReproError
from ..util.memo import LruMemo
from .instructions import Program, Step, Transfer, signature_text


def _handlers():
    # Imported on first use: repro.kernels.handlers itself imports
    # repro.ir.instructions, so a module-level import here would close an
    # import cycle through the package __init__s.
    from ..kernels import handlers

    return handlers

__all__ = ["StepTrace", "EngineRun", "Engine"]


def _no_numerics(step: Step) -> None:
    """Price mode's numerics: none."""


def _list_schedule(steps, lanes, end_of, free):
    """Yield ``(index, start)`` for every step, in list-scheduling order.

    Of all *ready* steps (every dependency placed) the one that can start
    earliest — after its dependencies' ``end_of`` and once each of its
    ``lanes`` is ``free`` — goes next; ties resolve to program order, so
    the schedule is deterministic and degenerates to program-order ASAP
    when nothing overlaps. The caller places each yielded step, filling
    ``end_of`` and ``free``, before resuming. Dependency edges are the
    *only* correctness constraint: the infer_dependencies pass makes
    same-lane program order explicit before a dist program gets here,
    and every solve lowering chains its steps.

    Ready steps wait in a heap keyed by a lower bound of their start
    (lane clocks only advance), refreshed when popped. A one-lane step
    found waiting on its lane is parked on that lane instead: it starts
    whenever the lane next frees, so the lane's lowest parked index is
    its only candidate, and a long queue on one lane costs ``log n`` per
    placement rather than a refresh of the whole queue.
    """
    waiting = [len(s.deps) for s in steps]
    dependents: List[List[int]] = [[] for _ in steps]
    for j, s in enumerate(steps):
        for d in s.deps:
            dependents[d].append(j)

    def earliest(j: int) -> float:
        start = max((end_of[d] for d in steps[j].deps), default=0.0)
        for key in lanes[j]:
            start = max(start, free.get(key, 0.0))
        return start

    ready = [(0.0, j) for j, count in enumerate(waiting) if not count]
    parked: Dict[str, List[int]] = {}
    while ready or parked:
        lane = min(parked, key=lambda k: (free[k], parked[k][0])) if parked else None
        if lane is not None and (
            not ready or (free[lane], parked[lane][0]) < ready[0]
        ):
            i, start = heapq.heappop(parked[lane]), free[lane]
            if not parked[lane]:
                del parked[lane]
        else:
            bound, i = heapq.heappop(ready)
            start = earliest(i)
            if start > bound:
                if len(lanes[i]) == 1:
                    heapq.heappush(parked.setdefault(lanes[i][0], []), i)
                else:
                    heapq.heappush(ready, (start, i))
                continue
        yield i, start
        for j in dependents[i]:
            waiting[j] -= 1
            if not waiting[j]:
                heapq.heappush(ready, (earliest(j), j))


@dataclass(frozen=True)
class StepTrace:
    """Where and when one instruction ran (or was priced)."""

    index: int
    op: str
    stage: str
    device: int
    engine: str
    start_ms: float
    end_ms: float

    @property
    def duration_ms(self) -> float:
        """Length of the step's span."""
        return self.end_ms - self.start_ms


@dataclass(frozen=True)
class _Placement:
    """A placed program: per step in list-scheduling order ``(index,
    start, end, duration, launches)``, where ``duration`` is the priced
    time a retried attempt wastes, and the run's report and traces."""

    order: Tuple[Tuple[int, float, float, float, Tuple[LaunchRecord, ...]], ...]
    report: object
    trace: Tuple[StepTrace, ...]


@dataclass(frozen=True)
class EngineRun:
    """Outcome of one program interpretation.

    ``report`` is a :class:`~repro.gpu.executor.SimReport` for solve
    programs and a :class:`~repro.dist.pipeline.DistReport` for dist
    programs; ``x`` is the solution in execute mode, ``None`` when the
    run was data-free.
    """

    program: Program
    report: object
    trace: Tuple[StepTrace, ...]
    x: Optional[np.ndarray] = None

    @property
    def total_ms(self) -> float:
        """Simulated end-to-end time of the run."""
        return self.report.total_ms


class Engine:
    """Interprets programs against a set of (simulated) devices.

    ``devices`` are :class:`Device` objects, one per program device
    index. A kernel step whose entry is anything else (a bare name, say)
    raises :class:`~repro.util.errors.PlanError`: its cost model needs
    the device spec.
    """

    def __init__(
        self, devices, interconnect=None, label: str = "", injector=None,
        tracer=None,
    ):
        self.devices = tuple(devices)
        self.interconnect = interconnect
        self.label = label
        self.injector = injector  # optional FaultInjector; mutable
        self.tracer = tracer  # optional obs.Tracer; mutable
        self._price_ctx: Dict[int, KernelContext] = {}
        self._placements: LruMemo[_Placement] = LruMemo("engine_placements")

    @classmethod
    def for_device(cls, device: Device) -> "Engine":
        """An engine over one device (solve programs)."""
        return cls((device,), label=device.name)

    @classmethod
    def for_group(cls, group) -> "Engine":
        """An engine over a :class:`~repro.dist.topology.DeviceGroup`."""
        return cls(
            tuple(group.devices),
            interconnect=group.interconnect,
            label=group.describe(),
        )

    # -- device plumbing ---------------------------------------------------

    def _require_device(self, index: int) -> Device:
        if index >= len(self.devices):
            raise PlanError(
                f"program targets device {index}, engine has "
                f"{len(self.devices)}"
            )
        device = self.devices[index]
        if not isinstance(device, Device):
            raise PlanError(
                f"step needs a kernel cost model but device {index} is the "
                f"bare name {device!r}"
            )
        return device

    def _ctx(self, index: int) -> KernelContext:
        """A throwaway pricing context for ``devices[index]`` (cost
        methods read only the device spec; nothing is ever submitted)."""
        ctx = self._price_ctx.get(index)
        if ctx is None:
            from ..gpu.executor import SimSession

            ctx = KernelContext(SimSession(self._require_device(index)))
            self._price_ctx[index] = ctx
        return ctx

    # -- fault plumbing ----------------------------------------------------

    @staticmethod
    def _annotate(exc: ReproError, i: int, step: Step) -> ReproError:
        """Attach the failing instruction to an escaping error (once)."""
        if getattr(exc, "instruction", None) is None:
            op = type(step.op).__name__
            exc.instruction = (i, op, step.device)
            where = f"[step {i}: {op} on dev{step.device}]"
            if exc.args and isinstance(exc.args[0], str):
                exc.args = (f"{exc.args[0]} {where}",) + exc.args[1:]
            else:
                exc.args = (where,) + exc.args
        return exc

    def _interpret(self, program, i, step, budget, numerics, duration_ms):
        """Run one step's ``numerics(step)`` under fault injection and
        retry.

        Transient faults retry with backoff while per-step attempts and
        the per-program ``budget`` allow; each wasted attempt is charged
        at the step's priced ``duration_ms`` plus the backoff and logged.

        Returns the number of *retries* the step needed (0 for a clean
        run) — the injector draws deterministically per instruction, so
        the count is identical in execute and price mode and feeds the
        tracer's ``retries`` span attribute.
        """
        inj = self.injector
        if inj is None:
            numerics(step)
            return 0
        retry = inj.retry
        attempt = 0
        while True:
            try:
                inj.before_step(program, i, step, attempt)
                numerics(step)
                return attempt
            except FaultInjectionError:
                penalty = duration_ms + retry.backoff_ms(attempt)
                fields = dict(
                    label=program.label,
                    step=i,
                    op=type(step.op).__name__,
                    device=inj.global_id(step.device),
                    attempt=attempt,
                    penalty_ms=penalty,
                )
                if attempt + 1 >= retry.max_attempts or not budget.consume():
                    inj.note("transient", "exhausted", **fields)
                    raise
                inj.note("transient", "retried", **fields)
                attempt += 1

    def _budget(self) -> "_RetryBudget":
        inj = self.injector
        return _RetryBudget(inj.retry.budget if inj is not None else 0)

    # -- the two modes -----------------------------------------------------

    def execute(self, program: Program, batch) -> EngineRun:
        """Run ``program`` on real data; single-device programs only.

        ``batch`` must match the program's logical system count and value
        size: every step is priced from the program, so another batch
        would be solved but priced as the program's.
        """
        if program.kind != "solve":
            raise PlanError(
                f"only solve programs execute data; got kind {program.kind!r}"
            )
        if batch.num_systems != program.num_systems:
            raise PlanError(
                f"program is for {program.num_systems} systems, batch has "
                f"{batch.num_systems}; widen the plan with with_num_systems"
            )
        if batch.dtype.itemsize != program.dtype_size:
            raise PlanError(
                f"program is for {program.dtype_size}-byte values, batch has "
                f"{batch.dtype.itemsize}-byte {batch.dtype}"
            )
        handlers = _handlers()
        state = handlers.ExecState.for_batch(batch)
        run = self._run(program, lambda step: handlers.execute_step(step, state))
        return replace(run, x=state.x)

    def price(self, program: Program) -> EngineRun:
        """Price ``program`` without data."""
        return self._run(program)

    def _run(self, program: Program, numerics=_no_numerics) -> EngineRun:
        """Replay ``program``'s placement, running ``numerics(step)`` (the
        solve in execute mode) under the fault hooks for every step in
        list-scheduling order. A solve program is placed once per
        engine; a dist program on every run."""
        steps = program.steps
        tracer = self.tracer
        token = self._begin_program(program, 0.0)
        clock = 0.0
        try:
            if program.kind == "solve":
                placement = self._placements.get_or_make(
                    program, lambda: self._place(program)
                )
            else:
                placement = self._place(program)
            budget = self._budget()
            for i, start, end, duration, launches in placement.order:
                step = steps[i]
                try:
                    retries = self._interpret(
                        program, i, step, budget, numerics, duration
                    )
                except ReproError as exc:
                    raise self._annotate(exc, i, step)
                clock = max(clock, end)
                if tracer is not None:
                    self._span_step(i, step, start, end, retries, launches)
        except ReproError as exc:
            if tracer is not None:
                tracer.abort_to(token, clock, error=type(exc).__name__)
            raise
        if tracer is not None:
            tracer.end(clock)
        # Each run gets its own report object, equal to the placement's:
        # callers tell runs apart by identity (a merged group's answers
        # share one report).
        return EngineRun(
            program=program, report=replace(placement.report), trace=placement.trace
        )

    def _place(self, program: Program) -> _Placement:
        """Place every step of ``program`` in list-scheduling order,
        data-free: its start, then its launches or transfer time."""
        handlers = _handlers()
        steps = program.steps
        skew = self.injector if program.kind == "dist" else None
        lanes = [() if s.is_marker else s.resource_keys for s in steps]
        end_of: List[float] = [0.0] * len(steps)
        free: Dict[str, float] = {}
        order = []
        records: List[LaunchRecord] = []
        events: List[Tuple[Step, float, float]] = []
        traces: List[Optional[StepTrace]] = [None] * len(steps)
        try:
            for i, start in _list_schedule(steps, lanes, end_of, free):
                step = steps[i]
                op = step.op
                # Launches run back to back from the step's start, so a
                # chain of steps on one lane tiles one serial clock; a
                # step without launches holds its lanes for its duration.
                launches: List[LaunchRecord] = []
                duration = 0.0
                end = start
                if isinstance(op, Transfer):
                    duration = self._transfer_ms(step, program)
                    if skew is not None:
                        duration = skew.adjust_duration_ms(step, duration)
                    end = start + duration
                elif not step.is_marker:
                    ctx = self._ctx(step.device)
                    for cost in handlers.price_costs(
                        step, ctx, program.dtype_size
                    ):
                        breakdown = kernel_time_ms(ctx.spec, cost)
                        ms = breakdown.total_ms
                        if skew is not None:
                            ms = skew.adjust_duration_ms(step, ms)
                        launches.append(
                            LaunchRecord(
                                stage=step.stage,
                                breakdown=breakdown,
                                device_name=ctx.device.name,
                                start_ms=end,
                                end_ms=end + ms,
                            )
                        )
                        end += ms
                        duration += ms
                order.append((i, start, end, duration, tuple(launches)))
                records += launches
                end_of[i] = end
                for key in lanes[i]:
                    free[key] = end
                traces[i] = StepTrace(
                    i, type(op).__name__, step.stage, step.device, step.engine,
                    start, end,
                )
                # Compute spans always land on the timeline (even
                # zero-duration ones); transfers only when data moved — a
                # free local hop occupies the link for no time.
                if not step.is_marker and (
                    step.engine == "compute" or duration > 0
                ):
                    events.append((step, start, end))
        except ReproError as exc:
            raise self._annotate(exc, i, steps[i])
        if program.kind == "solve":
            report = SimReport(
                device_name=self._require_device(0).name, records=tuple(records)
            )
        else:
            report = self._dist_report(program, events)
        return _Placement(tuple(order), report, tuple(traces))

    def _dist_report(self, program: Program, events):
        """Per-device timelines of placed ``(step, start, end)`` events.

        Compute lands on the ``"compute"`` lane. A cross-device transfer
        lands on the issuing device's egress (``"out"``) or ingress
        (``"in"``) lane and is mirrored onto the other endpoint's
        opposite lane; a transfer within one device on ``"xfer"``.
        """
        from ..dist.pipeline import DeviceTimeline, DistReport, TimelineEvent

        p = program.num_devices
        lanes: List[List[TimelineEvent]] = [[] for _ in range(p)]
        for step, start, end in events:
            op = step.op
            kind = "compute" if step.engine == "compute" else "xfer"
            crossing = isinstance(op, Transfer) and op.src != op.dst
            lane = kind
            if crossing:
                lane = "out" if op.src == step.device else "in"
            lanes[step.device].append(
                TimelineEvent(kind, step.stage, start, end, lane=lane)
            )
            if crossing:
                other = op.dst if lane == "out" else op.src
                if 0 <= other < p:
                    mirror = "in" if lane == "out" else "out"
                    lanes[other].append(
                        TimelineEvent("xfer", step.stage, start, end, lane=mirror)
                    )
        return DistReport(
            group_label=program.label or self.label,
            schedule=program.schedule,
            timelines=tuple(
                DeviceTimeline(
                    d,
                    program.device_names[d],
                    tuple(sorted(lanes[d], key=lambda e: (e.start_ms, e.end_ms))),
                )
                for d in range(p)
            ),
        )

    def _transfer_ms(self, step: Step, program: Program) -> float:
        """Simulated duration of one ``Transfer`` on the interconnect."""
        if self.interconnect is None:
            raise PlanError(
                "program transfers data but the engine has no interconnect"
            )
        op = step.op
        nbytes = op.values_per_system * step.shape[0] * program.dtype_size
        return self.interconnect.transfer_ms(
            nbytes, op.src, op.dst, program.num_devices
        )

    # -- tracer plumbing ---------------------------------------------------
    #
    # Spans are built from the same quantities in execute and price mode
    # (step bounds and kernel spans off the scheduler's placements, retry
    # counts off the deterministic injector), so the two modes emit equal
    # trees — pinned by tests/test_obs.py.

    def _begin_program(self, program: Program, start_ms: float):
        if self.tracer is None:
            return None
        return self.tracer.begin(
            program.label or "program",
            "program",
            start_ms,
            device=0,
            kind=program.kind,
            num_systems=program.num_systems,
            signature=signature_text(program.signature),
            steps=len(program.steps),
            system_size=program.system_size,
        )

    def _span_step(self, i, step, start, end, retries, launches):
        attrs = dict(op=type(step.op).__name__, stage=step.stage)
        if retries:
            attrs["retries"] = retries
        self.tracer.leaf(
            f"[{i}] {type(step.op).__name__}",
            "instruction",
            start,
            end,
            device=step.device,
            children=kernel_spans(launches, step.device),
            **attrs,
        )


class _RetryBudget:
    """Per-program-run allowance of transient-fault retries."""

    def __init__(self, remaining: int):
        self.remaining = remaining

    def consume(self) -> bool:
        """Take one retry from the budget; False when it is spent."""
        if self.remaining <= 0:
            return False
        self.remaining -= 1
        return True
