"""The multi-device domain-decomposition solver.

:class:`DistributedSolver` solves workloads that exceed one simulated
device — systems too long for its memory, or batches too wide to be
worth one device's time — by partitioning across a
:class:`~repro.dist.topology.DeviceGroup`:

- **rows mode** (SPIKE-style): each device receives a contiguous row
  chunk of every system and runs the full multi-stage solver on it
  against three right-hand sides (the data plus the two coupling
  spikes) in one solve; chunk boundaries couple through a tiny
  2×2-block reduced system solved on device 0; a final
  fused-multiply-add reconstructs. The math is exactly
  :mod:`repro.algorithms.spike` with the chunk solves placed on
  devices.
- **batch mode**: a wide batch of on-chip-size systems is sharded by
  system; no coupling, the cost is the scatter/gather pipeline.
- **pipelined mode**: rows mode with fused (interleaved) local solves
  and the exact reduced system swept neighbour-to-neighbour instead of
  gathered on device 0 — bit-identical solutions to rows, a hub-free
  overlapped schedule (see :func:`repro.ir.lower._lower_pipelined`).

Numerics are exact (verified against the single-device
:class:`~repro.core.MultiStageSolver` to tight tolerance). Timing comes
from one shared path: the chosen :class:`~repro.dist.plan.DistPlan`
lowers to an instruction :class:`~repro.ir.Program` (local solve
fragments per device, transfers with dependency edges and resource
claims, the reduced solve, the reconstruction) and the
:class:`~repro.ir.Engine` prices it into the
:class:`~repro.dist.pipeline.DistReport` makespan — the same interpreter
that executes and prices single-device solves.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple, Union

import numpy as np

from ..algorithms.verify import assert_solution
from ..core.config import SwitchPoints
from ..core.planner import plan_solve
from ..core.solver import MultiStageSolver
from ..core.tuning import (
    TuningCache,
    resolve_cache,
    resolve_tuning,
    shape_free_switch_points,
)
from ..gpu.executor import SimReport
from ..ir.engine import Engine
from ..kernels import dtype_size
from ..numerics import Governor, residual_refinement
from ..systems.tridiagonal import TridiagonalBatch
from ..util.errors import (
    ConfigurationError,
    DeviceLostError,
    PlanError,
    ReproError,
)
from ..util.memo import LruMemo
from ..util.validation import resolve_faults
from .partition import (
    partition_bounds,
    reconstruct_chunk,
    solve_reduced_system,
    spike_rhs,
    split_chunks,
    surviving_indices,
    truncated_reduced_solve,
)
from .pipeline import DistReport, failover_report
from .plan import MODES, DistPlan, batch_shares
from .topology import DeviceGroup, make_device_group

__all__ = ["DistSolveResult", "DistributedSolver", "working_set_nbytes"]


def working_set_nbytes(num_systems: int, system_size: int, dsize: int) -> int:
    """Bytes one device needs for a solve: four coefficient arrays + x."""
    return 5 * num_systems * system_size * dsize


@dataclass(frozen=True)
class DistSolveResult:
    """Solution plus provenance of one distributed solve."""

    x: np.ndarray
    plan: DistPlan
    switch_points: SwitchPoints
    report: DistReport
    local_reports: Tuple[SimReport, ...]

    @property
    def simulated_ms(self) -> float:
        """Simulated end-to-end time (the makespan across devices)."""
        return self.report.total_ms


class DistributedSolver:
    """Solve across a :class:`DeviceGroup`, verified against one device.

    Parameters
    ----------
    group:
        The device group, or an integer device count (a group of
        ``device`` parts joined by ``link``/``topology`` is built).
    tuning:
        ``SwitchPoints`` used verbatim, a strategy name resolved once
        per dtype through the shared ``cache``, or a tuner instance
        asked at shape (0, 0); ``None`` means ``"default"``.
    cache:
        Any tuning cache (a :class:`TuningCache`, a
        :class:`~repro.serve.shards.ShardedTuningCache`), or the path of
        a persistent one; memory-only when omitted.
    mode:
        ``"rows"``, ``"batch"``, ``"approx"``, ``"pipelined"``, or
        ``"auto"`` (price every feasible mode, keep the fastest; approx
        joins only a governed solve).
    faults:
        Optional :class:`~repro.faults.FaultInjector` (or a bare
        :class:`~repro.faults.FaultPlan`). Local solves then run under
        injection, and a :class:`DeviceLostError` mid-solve triggers
        failover: the workload re-partitions onto the surviving
        devices and replays from the last completed barrier, with the
        wasted makespan priced into the combined report.
    """

    def __init__(
        self,
        group: Union[DeviceGroup, int, None] = None,
        tuning: Union[SwitchPoints, str, object] = "static",
        *,
        device="gtx470",
        link="pcie3",
        topology: str = "all_to_all",
        mode: str = "auto",
        cache: Union[TuningCache, str, None] = None,
        verify: bool = False,
        faults=None,
        metrics=None,
        tracer=None,
    ):
        if group is None:
            group = make_device_group(device, 4, link, topology)
        elif isinstance(group, int):
            group = make_device_group(device, group, link, topology)
        self.group = group
        if mode != "auto" and mode not in MODES:
            raise ConfigurationError(f"unknown dist mode {mode!r}")
        self.mode = mode
        self.verify = verify
        self.cache = resolve_cache(cache)
        self._tuning = resolve_tuning(tuning)
        self.faults = resolve_faults(faults)
        self._engine = Engine.for_group(group)
        # The shared engine only *prices* dist programs; pricing runs
        # paused (planning must not consume faults) but still sees
        # environmental slowdowns (clock skew, link degradation).
        self._engine.injector = self.faults
        # Observability. The pricing engine deliberately gets NO tracer —
        # planning prices many candidate programs and would flood the
        # trace; executed local programs are traced via the member
        # solvers' engines instead. Metrics land in a shared registry
        # (or a private one when the caller does not provide any).
        from ..obs import MetricsRegistry

        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer
        self._switch: LruMemo[SwitchPoints] = LruMemo("dist_switch")
        self._solvers: LruMemo[MultiStageSolver] = LruMemo("dist_solvers")
        self._planned: LruMemo[Tuple[DistPlan, DistReport]] = LruMemo(
            "dist_plans", metrics=self.metrics
        )
        self._programs: LruMemo = LruMemo("dist_programs", metrics=self.metrics)
        # Fault-free prices per (plan, dsize); DistReport is frozen.
        self._reports: LruMemo[DistReport] = LruMemo(
            "dist_reports", metrics=self.metrics
        )
        # The numerical-safety governor (shares this solver's metrics
        # registry and tracer); owns tolerance-governed solves.
        self._governor = Governor(metrics=self.metrics, tracer=self.tracer)

    def governor(self) -> Governor:
        """The shared :class:`~repro.numerics.Governor` for this solver."""
        return self._governor

    # -- tuning ----------------------------------------------------------

    def switch_points_for(self, dsize: int) -> SwitchPoints:
        """Switch points shared by every member device, per dtype size."""
        return self._switch.get_or_make(
            dsize,
            lambda: shape_free_switch_points(
                self._tuning, self.cache, self.group[0], dsize, "dist"
            ),
        )

    def _solver(
        self, index: int, dsize: int, fuse: bool = False
    ) -> MultiStageSolver:
        def build() -> MultiStageSolver:
            solver = MultiStageSolver(
                self.group[index],
                self.switch_points_for(dsize),
                fuse=fuse,
                faults=(
                    None if self.faults is None else self.faults.for_device(index)
                ),
            )
            # Trace local programs directly under the distributed solve
            # span (no per-chunk solve wrapper — the dist solve is the
            # solve).
            solver._engine.tracer = self.tracer
            return solver

        return self._solvers.get_or_make((index, dsize, fuse), build)

    # -- lowering ---------------------------------------------------------

    def lower(self, plan: DistPlan, dsize: int):
        """The instruction program for ``plan``, memoised per dtype."""
        return self._programs.get_or_make(
            (plan, dsize),
            lambda: plan.lower(self.group, dsize),
        )

    def _report_for(self, plan: DistPlan, dsize: int) -> DistReport:
        """Price ``plan``'s program on the shared engine.

        Fault-free prices are memoised per ``(plan, dsize)``. Under an
        injector every call re-prices: clock skew and link degradation
        can move the price between solves.
        """
        if self.faults is not None:
            with self.faults.paused():
                return self._engine.price(self.lower(plan, dsize)).report
        return self._reports.get_or_make(
            (plan, dsize), lambda: self._engine.price(self.lower(plan, dsize)).report
        )

    # -- planning & pricing ----------------------------------------------

    def plan_for(self, batch: TridiagonalBatch) -> DistPlan:
        """The plan this solver would execute for ``batch``."""
        plan, _ = self.price(
            batch.num_systems, batch.system_size, dtype_size(batch.dtype)
        )
        return plan

    def price(
        self,
        num_systems: int,
        system_size: int,
        dsize: int = 8,
        *,
        tolerance: Optional[float] = None,
    ) -> Tuple[DistPlan, DistReport]:
        """Plan and price an ``(m, n)`` workload without touching data.

        The distributed analogue of :func:`repro.core.simulate_plan` —
        the quantity ``dist-bench`` charts and the hybrid dispatcher
        compares against the CPU and single-GPU models.

        With ``tolerance`` set the truncated-SPIKE ``approx`` mode joins
        the candidate set (priced honestly by the same cost model —
        neighbour tip transfers and per-interface 2×2 solves instead of
        the global reduced system). The tolerance *value* does not move
        the price; whether approx is numerically admissible for a given
        batch is the governor's call at solve time.
        """
        approx_allowed = tolerance is not None or self.mode == "approx"
        return self._planned.get_or_make(
            (num_systems, system_size, dsize, approx_allowed),
            lambda: self._cheapest(num_systems, system_size, dsize, approx_allowed),
        )

    def _cheapest(
        self, num_systems: int, system_size: int, dsize: int, approx_allowed: bool
    ) -> Tuple[DistPlan, DistReport]:
        """Price every feasible candidate mode; the cheapest, first on ties."""
        candidates: List[Tuple[DistPlan, DistReport]] = []
        errors: List[str] = []
        if self.mode != "auto":
            modes: Tuple[str, ...] = (self.mode,)
        else:
            modes = ("rows", "batch", "pipelined")
            if approx_allowed:
                modes = modes + ("approx",)
        for mode in modes:
            try:
                if mode == "batch":
                    candidates.append(
                        self._price_batch(num_systems, system_size, dsize)
                    )
                else:
                    candidates.append(
                        self._price_rows(
                            num_systems, system_size, dsize, mode=mode
                        )
                    )
            except ReproError as exc:
                errors.append(f"{mode}: {exc}")
        if not candidates:
            raise ConfigurationError(
                f"no feasible distributed plan for {num_systems} x "
                f"{system_size} on {self.group.describe()} "
                f"({'; '.join(errors)})"
            )
        return min(candidates, key=lambda pair: pair[1].total_ms)

    def _priced(
        self,
        mode: str,
        m: int,
        n: int,
        dsize: int,
        chunk_sizes: Tuple[int, ...],
        local_plans: Tuple,
    ) -> Tuple[DistPlan, DistReport]:
        """Check every local plan fits a device, then plan and price."""
        for local in local_plans:
            self._check_local_memory(local, dsize)
        plan = DistPlan(
            mode=mode,
            num_devices=len(chunk_sizes),
            num_systems=m,
            system_size=n,
            chunk_sizes=chunk_sizes,
            topology=self.group.interconnect.describe(),
            device_name=self.group.device_name,
            local_plans=local_plans,
        )
        return plan, self._report_for(plan, dsize)

    def _price_rows(
        self, m: int, n: int, dsize: int, *, mode: str = "rows"
    ) -> Tuple[DistPlan, DistReport]:
        p = len(self.group)
        switch = self.switch_points_for(dsize)
        if p == 1:
            if mode == "approx":
                raise ConfigurationError(
                    "approx mode needs at least two devices (one device "
                    "has no chunk interfaces to truncate)"
                )
            if mode == "pipelined":
                raise ConfigurationError(
                    "pipelined mode needs at least two devices (one "
                    "device has no reduced sweep to pipeline)"
                )
            local = plan_solve(self.group[0], m, n, dsize, switch)
            return self._priced("rows", m, n, dsize, (n,), (local,))
        # Rows, approx and pipelined share the chunk split and the 3-RHS
        # local solves; the lowering derives each one's exchange.
        bounds = partition_bounds(n, p)
        chunk_sizes = tuple(stop - start for start, stop in bounds)
        local_plans = tuple(
            plan_solve(self.group[i], 3 * m, chunk_sizes[i], dsize, switch)
            for i in range(p)
        )
        return self._priced(mode, m, n, dsize, chunk_sizes, local_plans)

    def _price_batch(
        self, m: int, n: int, dsize: int
    ) -> Tuple[DistPlan, DistReport]:
        p = len(self.group)
        if p == 1:
            raise ConfigurationError(
                "batch mode needs at least two devices (rows covers one)"
            )
        switch = self.switch_points_for(dsize)
        shares = batch_shares(m, p)
        if len(shares) != p:
            raise ConfigurationError(
                f"batch mode needs at least one system per device ({m} "
                f"systems, {p} devices)"
            )
        template = plan_solve(self.group[0], shares[0], n, dsize, switch)
        if template.total_split_steps != 0:
            raise ConfigurationError(
                f"batch mode shards only on-chip systems; {n} needs "
                f"{template.total_split_steps} split steps on "
                f"{self.group.device_name}"
            )
        local_plans = tuple(
            template.with_num_systems(share) for share in shares
        )
        return self._priced("batch", m, n, dsize, shares, local_plans)

    def _check_local_memory(self, local_plan, dsize: int) -> None:
        nbytes = working_set_nbytes(
            local_plan.num_systems, local_plan.system_size, dsize
        )
        self.group[0].check_fits_global(nbytes)

    # -- execution --------------------------------------------------------

    def solve(
        self,
        batch: TridiagonalBatch,
        *,
        tolerance: Optional[float] = None,
    ) -> DistSolveResult:
        """Plan and solve ``batch`` across the group.

        With ``tolerance`` set the solve is *governed*: the
        numerical-safety governor measures the batch's diagonal
        dominance and, when the truncation bound fits the tolerance,
        lets the planner choose the truncated-SPIKE ``approx`` mode
        (skipping the reduced system entirely). Whatever path runs, the
        result is residual-checked and escalated — one refinement step,
        then an exact-path re-solve — before a typed
        :class:`~repro.util.errors.NumericalBreakdownError` is raised;
        a governed solve never returns an unverified answer.
        """
        if tolerance is None:
            return self.execute_plan(batch, self.plan_for(batch))
        return self._solve_governed(batch, float(tolerance))

    def _solve_governed(
        self, batch: TridiagonalBatch, tolerance: float
    ) -> DistSolveResult:
        """Plan, run and verify one governed solve.

        The dominance estimate reads the whole batch, so it runs only
        where it can change the plan: an auto solve prices with approx
        among its candidates first and asks the governor only when
        approx wins, re-pricing without it if the estimate rejects it.
        That is the plan the estimate-first order picks, since approx
        is the last candidate and ties keep the earlier one. A forced
        ``mode="approx"`` records the estimate and runs approx whatever
        it says; the ladder catches what the bound could not promise.
        """
        dsize = dtype_size(batch.dtype)
        m, n = batch.shape
        governor = self.governor()
        p = len(self.group)

        def approx_admissible() -> bool:
            chunk_rows = min(
                stop - start for start, stop in partition_bounds(n, p)
            )
            return governor.decide(batch, tolerance, chunk_rows).approx

        if p > 1 and self.mode == "approx":
            approx_admissible()  # recorded; forced approx runs anyway
            plan, _ = self.price(m, n, dsize)
        elif p > 1 and self.mode == "auto":
            plan, _ = self.price(m, n, dsize, tolerance=tolerance)
            if plan.mode == "approx" and not approx_admissible():
                plan, _ = self.price(m, n, dsize)
        else:
            plan, _ = self.price(m, n, dsize)
        result = self.execute_plan(batch, plan)
        path = "approx" if plan.mode == "approx" else "exact"

        def resolve(b: TridiagonalBatch) -> np.ndarray:
            # The exact fallback must not re-price into approx (which a
            # forced mode="approx" solver would): re-solve on the exact
            # rows decomposition of the same partition explicitly.
            exact_plan, _ = self._price_rows(m, n, dsize, mode="rows")
            return self.execute_plan(b, exact_plan).x

        outcome = governor.enforce(
            batch,
            result.x,
            tolerance,
            refine=residual_refinement(lambda b: self.execute_plan(b, plan).x),
            resolve=resolve if path == "approx" else None,
            path=path,
            context="distributed solve",
        )
        if outcome.x is not result.x:
            result = replace(result, x=outcome.x)
        return result

    def execute_plan(
        self, batch: TridiagonalBatch, plan: DistPlan
    ) -> DistSolveResult:
        """Run a prepared ``plan`` on ``batch``.

        Like :meth:`MultiStageSolver.execute_plan`, ``batch`` may hold a
        different system count than the plan was built for as long as the
        plan was widened via :meth:`DistPlan.with_num_systems` — the
        batched service's merged-group entry point.
        """
        if plan.num_systems != batch.num_systems:
            raise PlanError(
                f"plan is for {plan.num_systems} systems, batch has "
                f"{batch.num_systems}; widen with with_num_systems first"
            )
        if plan.system_size != batch.system_size:
            raise PlanError(
                f"plan is for size {plan.system_size}, batch has "
                f"{batch.system_size}"
            )
        if plan.num_devices != len(self.group):
            raise PlanError(
                f"plan is for {plan.num_devices} devices, group has "
                f"{len(self.group)}"
            )
        dsize = dtype_size(batch.dtype)
        switch = self.switch_points_for(dsize)
        tracer = self.tracer
        token = None
        if tracer is not None:
            token = tracer.begin(
                f"dist {batch.num_systems}x{batch.system_size}",
                "solve",
                0.0,
                device=0,
                devices=plan.num_devices,
                mode=plan.mode,
                schedule=plan.schedule,
            )
        try:
            try:
                if plan.mode == "batch":
                    result = self._execute_batch(batch, plan, dsize, switch)
                else:
                    result = self._execute_rows(batch, plan, dsize, switch)
            except DeviceLostError as exc:
                result = self._failover(batch, plan, dsize, switch, exc)
            else:
                self.record_metrics(plan, result.report, dsize)
        except Exception as exc:
            if tracer is not None:
                tracer.abort_to(token, 0.0, error=type(exc).__name__)
            raise
        if tracer is not None:
            tracer.end(result.report.total_ms)
        if self.verify and plan.mode != "approx":
            # Approx-mode answers are deliberately approximate; their
            # verification (against the caller's tolerance, with the
            # escalation ladder behind it) belongs to the governor in
            # :meth:`solve`, not the exact-solve assertion here.
            assert_solution(batch, result.x, context="distributed solve")
        return result

    def record_metrics(self, plan: DistPlan, report: DistReport, dsize: int) -> None:
        """Land one solve's plan/report pair in the metric catalogue.

        Called automatically after every executed solve; ``repro trace``
        also calls it for priced runs so the exported dump carries the
        makespan and transfer-volume gauges."""
        from ..ir.instructions import Transfer

        reg = self.metrics
        reg.counter(
            "repro_dist_solves_total", "Distributed solves executed, by mode."
        ).inc(mode=plan.mode)
        makespan = reg.gauge(
            "repro_dist_makespan_ms",
            "Per-device end time of the last priced distributed solve.",
        )
        for tl in report.timelines:
            makespan.set(tl.end_ms, device=tl.index)
        nbytes = 0
        program = self.lower(plan, dsize)
        for step in program.steps:
            if isinstance(step.op, Transfer):
                nbytes += (
                    step.op.values_per_system
                    * step.shape[0]
                    * program.dtype_size
                )
        reg.counter(
            "repro_dist_transfer_bytes_total",
            "Bytes moved over the simulated interconnect.",
        ).inc(nbytes)

    def _failover(
        self,
        batch: TridiagonalBatch,
        plan: DistPlan,
        dsize: int,
        switch: SwitchPoints,
        exc: DeviceLostError,
    ) -> DistSolveResult:
        """Re-partition onto the survivors and replay ``batch``.

        Local solves run whole between barriers, so nothing partial is
        salvageable when a device dies mid-run: the workload replays in
        full from the last completed barrier (the start of the aborted
        plan) on a sub-solver over the surviving members. The aborted
        plan's fault-free makespan is charged as wasted recovery cost —
        in the same simulated-milliseconds currency as kernel time —
        and the combined report splices the recovery timelines after
        the aborted ones, so ``total_ms`` prices the failure end to
        end. A second death during recovery nests another failover; the
        chain ends with :class:`ConfigurationError` once no device
        survives.
        """
        inj = self.faults
        if inj is None:
            raise exc
        p = len(self.group)
        dead = inj.dead_devices()
        local_dead = {i for i in range(p) if inj.global_id(i) in dead}
        survivors = surviving_indices(p, local_dead)
        aborted_report = self._report_for(plan, dsize)
        inj.note(
            "device_lost",
            "failed_over",
            label=f"dist:{plan.mode}",
            device=exc.device if exc.device is not None else -1,
            penalty_ms=aborted_report.total_ms,
            detail=(
                f"re-partitioned {plan.num_systems}x{plan.system_size} "
                f"onto {len(survivors)} of {p} devices, replaying from "
                "last completed barrier"
            ),
        )
        subgroup = DeviceGroup(
            tuple(self.group[i] for i in survivors), self.group.interconnect
        )
        self.metrics.counter(
            "repro_dist_failovers_total",
            "Device-loss failovers (re-partition onto survivors).",
        ).inc()
        sub = DistributedSolver(
            subgroup,
            switch,
            mode="auto",
            cache=self.cache,
            faults=inj.for_survivors(survivors),
            metrics=self.metrics,
            tracer=self.tracer,
        )
        recovery = sub.solve(batch)
        return DistSolveResult(
            x=recovery.x,
            plan=recovery.plan,
            switch_points=switch,
            report=failover_report(
                aborted_report, recovery.report, survivors
            ),
            local_reports=recovery.local_reports,
        )

    def _execute_rows(
        self,
        batch: TridiagonalBatch,
        plan: DistPlan,
        dsize: int,
        switch: SwitchPoints,
    ) -> DistSolveResult:
        m, n = batch.shape
        p = plan.num_devices
        if p == 1:
            local = self._solver(0, dsize).execute_plan(
                batch, plan.local_plans[0], switch
            )
            return DistSolveResult(
                x=local.x,
                plan=plan,
                switch_points=switch,
                report=self._report_for(plan, dsize),
                local_reports=(local.report,),
            )
        bounds = []
        start = 0
        for q in plan.chunk_sizes:
            bounds.append((start, start + q))
            start += q
        # Views of batch: each member's Pad loads its chunk once.
        chunks = split_chunks(batch, tuple(bounds))

        ys: List[np.ndarray] = []
        ws: List[np.ndarray] = []
        vs: List[np.ndarray] = []
        local_reports: List[SimReport] = []
        # Pipelined mode's local solves run fused (interleaved sweeps) —
        # part of the mode's definition, and bit-identical to the staged
        # chain, so the reduced inputs below are unchanged.
        fuse = plan.mode == "pipelined"
        for i, chunk in enumerate(chunks):
            if self.faults is not None:
                # Chunk data crosses the interconnect to member i; a
                # partitioned link makes that member unreachable.
                self.faults.check_link(0, i, label=f"dist:{plan.mode}")
            local = self._solver(i, dsize, fuse).execute_plan(
                spike_rhs(chunk), plan.local_plans[i], switch
            )
            ys.append(local.x[:m])
            ws.append(local.x[m : 2 * m])
            vs.append(local.x[2 * m :])
            local_reports.append(local.report)

        # Approx mode is the same decomposition with the reduced system
        # truncated to independent per-interface 2x2 solves.
        reduced = (
            truncated_reduced_solve
            if plan.mode == "approx"
            else solve_reduced_system
        )
        t_prev, s_next = reduced(
            np.stack([y[:, 0] for y in ys], axis=1),
            np.stack([y[:, -1] for y in ys], axis=1),
            np.stack([w[:, 0] for w in ws], axis=1),
            np.stack([w[:, -1] for w in ws], axis=1),
            np.stack([v[:, 0] for v in vs], axis=1),
            np.stack([v[:, -1] for v in vs], axis=1),
        )
        x = np.empty((m, n), dtype=batch.dtype)
        for i, (lo, hi) in enumerate(bounds):
            x[:, lo:hi] = reconstruct_chunk(
                ys[i], ws[i], vs[i], t_prev[:, i], s_next[:, i]
            )

        return DistSolveResult(
            x=x,
            plan=plan,
            switch_points=switch,
            report=self._report_for(plan, dsize),
            local_reports=tuple(local_reports),
        )

    def _execute_batch(
        self,
        batch: TridiagonalBatch,
        plan: DistPlan,
        dsize: int,
        switch: SwitchPoints,
    ) -> DistSolveResult:
        shares = plan.chunk_sizes
        parts: List[np.ndarray] = []
        local_reports: List[SimReport] = []
        offset = 0
        for i, share in enumerate(shares):
            rows = slice(offset, offset + share)
            offset += share
            if self.faults is not None:
                self.faults.check_link(0, i, label="dist:batch")
            sub = TridiagonalBatch(
                batch.a[rows], batch.b[rows], batch.c[rows], batch.d[rows]
            )
            local = self._solver(i, dsize).execute_plan(
                sub, plan.local_plans[i], switch
            )
            parts.append(local.x)
            local_reports.append(local.report)
        x = np.concatenate(parts, axis=0)
        return DistSolveResult(
            x=x,
            plan=plan,
            switch_points=switch,
            report=self._report_for(plan, dsize),
            local_reports=tuple(local_reports),
        )
