"""The multi-stage tridiagonal solver — the paper's primary contribution.

:class:`MultiStageSolver` binds a simulated device to a switch-point
source (an explicit :class:`SwitchPoints` or a tuner) and executes the
Figure-1 workflow on any workload that fits global memory:

    stage 1 (cooperative PCR) → stage 2 (per-block PCR) →
    stage 3 (on-chip PCR) → stage 4 (Thomas)

``solve`` returns the exact solution together with the simulated-timing
report; :func:`solve` is the one-call functional front door.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from ..algorithms.lu import scipy_banded_solve
from ..algorithms.verify import assert_solution
from ..gpu.executor import Device, SimReport, make_device
from ..ir.engine import Engine
from ..ir.instructions import Program, signature_text
from ..kernels import dtype_size
from ..numerics import Governor, residual_refinement
from ..systems.tridiagonal import SharedMatrixBatch, TridiagonalBatch
from ..util.errors import ConfigurationError
from ..util.memo import LruMemo
from ..util.validation import resolve_faults
from .config import SwitchPoints
from .planner import SolvePlan, plan_solve
from .tuning import make_tuner, resolve_tuning

__all__ = ["SolveResult", "MultiStageSolver", "solve"]


@dataclass(frozen=True)
class SolveResult:
    """Solution plus provenance of one multi-stage solve."""

    x: np.ndarray
    plan: SolvePlan
    switch_points: SwitchPoints
    report: SimReport

    @property
    def simulated_ms(self) -> float:
        """Simulated end-to-end GPU time."""
        return self.report.total_ms


class MultiStageSolver:
    """The paper's solver, parameterised by device and switch points.

    ``tuning`` may be an explicit :class:`SwitchPoints`, a tuner instance
    (anything with ``switch_points(device, num_systems, system_size,
    dtype_size)``), or one of the strategy names ``"default"``,
    ``"static"``, ``"dynamic"``; ``None`` means ``"default"``. A tuner is
    asked per workload shape. Every front end reads ``tuning`` through
    :func:`~repro.core.tuning.resolve_tuning`, so a bad value raises
    :class:`ConfigurationError` here, at construction.
    """

    def __init__(
        self,
        device: Union[Device, str],
        tuning: Union[SwitchPoints, str, "object", None] = "default",
        *,
        verify: bool = False,
        faults=None,
        tracer=None,
        fuse: Union[bool, str] = False,
    ):
        self.device = make_device(device)
        self.verify = verify
        # Lower plans through the batched-fusion pass: staged chains
        # become interleaved-layout sweeps with bit-identical solutions.
        # ``False`` never fuses, ``True`` always fuses, ``"auto"`` prices
        # both lowerings and runs whichever the cost model says is
        # cheaper (the interleave toll only pays for itself once split
        # stages or large merges dominate).
        if fuse not in (False, True, "auto"):
            raise ConfigurationError(
                f"fuse must be False, True, or 'auto'; got {fuse!r}"
            )
        self.fuse = fuse
        self._programs: LruMemo[Program] = LruMemo("solver_programs")
        self._engine = Engine.for_device(self.device)
        # Optional observability: an obs.Tracer records a solve span per
        # execute_plan with the engine's program/instruction/kernel spans
        # nested inside. None costs nothing.
        self.tracer = tracer
        self._engine.tracer = tracer
        # Optional chaos testing: a FaultInjector (or a view of one), or
        # a bare FaultPlan which gets its own injector. The engine
        # consults it before every costed instruction; None is the
        # fault-free happy path.
        self.faults = resolve_faults(faults)
        self._engine.injector = self.faults
        # The numerical-safety governor for tolerance-governed solves
        # (metrics-free here; the service threads its registry).
        self._governor = Governor(tracer=tracer)
        tuning = resolve_tuning(tuning)
        self._tuning = make_tuner(tuning) if isinstance(tuning, str) else tuning

    # -- switch-point resolution -------------------------------------------

    def switch_points_for(
        self, num_systems: int, system_size: int, dsize: int
    ) -> SwitchPoints:
        """Resolve switch points for a workload shape."""
        if isinstance(self._tuning, SwitchPoints):
            return self._tuning
        return self._tuning.switch_points(
            self.device, num_systems, system_size, dsize
        )

    def plan_for(self, batch: TridiagonalBatch) -> SolvePlan:
        """The plan this solver would execute for ``batch``."""
        dsize = dtype_size(batch.dtype)
        switch = self.switch_points_for(
            batch.num_systems, batch.system_size, dsize
        )
        return plan_solve(
            self.device, batch.num_systems, batch.system_size, dsize, switch
        )

    # -- execution -------------------------------------------------------------

    def _program_for(self, plan: SolvePlan, dsize: int) -> Program:
        """The program :meth:`execute_plan` runs, honouring ``fuse``.

        Each program is lowered once and memoised per (signature, count,
        dtype size), which fixes the plan, in a bounded
        :class:`~repro.util.memo.LruMemo`. In ``"auto"`` mode both
        lowerings are priced on a bare engine (no fault injector, no
        tracer — selection must not pollute the fault log or the span
        tree) and the cheaper one is kept. Fused and unfused solutions
        are bit-identical, so the choice only moves simulated time.
        """

        def lower() -> Program:
            if self.fuse != "auto":
                return plan.lower(self.device, dsize, fuse=self.fuse)
            pricer = Engine.for_device(self.device)
            unfused = plan.lower(self.device, dsize)
            fused = plan.lower(self.device, dsize, fuse=True)
            unfused_ms = pricer.price(unfused).total_ms
            fused_ms = pricer.price(fused).total_ms
            return fused if fused_ms < unfused_ms else unfused

        key = (plan.signature, plan.num_systems, dsize)
        return self._programs.get_or_make(key, lower)

    def solve(
        self,
        batch: TridiagonalBatch,
        *,
        tolerance: Optional[float] = None,
    ) -> SolveResult:
        """Solve ``batch``; returns solution, plan, and timing report.

        With ``tolerance`` set the solve is governed by the
        numerical-safety ladder: the result's relative residual is
        checked, escalating through one step of iterative refinement
        and a robust pivoted re-solve
        (:func:`~repro.algorithms.scipy_banded_solve`) before a typed
        :class:`~repro.util.errors.NumericalBreakdownError` is raised.
        A governed solve never returns an unverified answer.
        """
        dsize = dtype_size(batch.dtype)
        self.device.check_fits_global(batch.nbytes + batch.d.nbytes)
        switch = self.switch_points_for(
            batch.num_systems, batch.system_size, dsize
        )
        plan = plan_solve(
            self.device, batch.num_systems, batch.system_size, dsize, switch
        )
        result = self.execute_plan(batch, plan, switch)
        if tolerance is None:
            return result
        return self._govern(batch, result, plan, switch, float(tolerance))

    def _govern(
        self,
        batch: TridiagonalBatch,
        result: SolveResult,
        plan: SolvePlan,
        switch: SwitchPoints,
        tolerance: float,
    ) -> SolveResult:
        """Walk the escalation ladder over an executed result."""
        outcome = self._governor.enforce(
            batch,
            result.x,
            tolerance,
            refine=residual_refinement(
                lambda b: self.execute_plan(b, plan, switch).x
            ),
            resolve=scipy_banded_solve,
            path="staged",
            context="multi-stage solve",
        )
        if outcome.x is not result.x:
            result = replace(result, x=outcome.x)
        return result

    def execute_plan(
        self,
        batch: Union[TridiagonalBatch, SharedMatrixBatch],
        plan: SolvePlan,
        switch: SwitchPoints,
    ) -> SolveResult:
        """Run a prepared ``plan`` on ``batch``.

        ``batch`` must hold the plan's number of systems, and its padded
        system size must match the plan's; a mismatch raises
        :class:`~repro.util.errors.PlanError`, since every step is priced
        from the plan. The staged kernels are vectorised over independent
        systems, so the per-system arithmetic depends only on the plan's
        :attr:`~SolvePlan.signature`, not the count: callers widen a plan
        to a bigger batch with :meth:`SolvePlan.with_num_systems`. This is
        how the batched solve service executes one merged solve for many
        same-signature requests while keeping each request's answer
        bit-identical to a standalone ``solve``. A
        :class:`SharedMatrixBatch` runs as its logical tiled batch (the
        distributed solver's three-RHS chunk solves) with the matrix
        work done once, and returns that batch's ``(r·m, n)`` solution.

        The plan lowers to an instruction program and the shared
        :class:`~repro.ir.Engine` interprets it with data — the same
        program :func:`~repro.core.pricing.simulate_plan` prices.
        """
        # The four coefficient arrays and the solution, as a device holds them.
        self.device.check_fits_global(5 * batch.nbytes // 4)
        program = self._program_for(plan, dtype_size(batch.dtype))
        tracer = self.tracer
        if tracer is not None:
            token = tracer.begin(
                f"solve {batch.num_systems}x{batch.system_size}",
                "solve",
                0.0,
                device=0,
                device_name=self.device.name,
                signature=signature_text(program.signature),
            )
            try:
                run = self._engine.execute(program, batch)
            except Exception as exc:
                tracer.abort_to(token, 0.0, error=type(exc).__name__)
                raise
            tracer.end(run.report.total_ms)
        else:
            run = self._engine.execute(program, batch)

        if self.verify:
            if isinstance(batch, SharedMatrixBatch):
                batch = batch.tiled()
            assert_solution(batch, run.x, context="multi-stage solve")
        return SolveResult(
            x=run.x,
            plan=plan,
            switch_points=switch,
            report=run.report,
        )


def solve(
    batch: TridiagonalBatch,
    device: Union[Device, str] = "gtx470",
    tuning: Union[SwitchPoints, str, None] = "dynamic",
    *,
    verify: bool = False,
    tolerance: Optional[float] = None,
) -> SolveResult:
    """One-call front door: solve ``batch`` on ``device`` with ``tuning``.

    ``tolerance`` requests a governed solve: the answer is
    residual-verified against it (escalating through refinement and a
    robust re-solve) or a typed
    :class:`~repro.util.errors.NumericalBreakdownError` is raised.
    """
    return MultiStageSolver(device, tuning, verify=verify).solve(
        batch, tolerance=tolerance
    )
