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

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

import numpy as np

from ..algorithms.verify import assert_solution
from ..gpu.executor import Device, SimReport, make_device
from ..ir.engine import Engine
from ..ir.instructions import signature_text
from ..kernels import dtype_size
from ..systems.tridiagonal import SharedMatrixBatch, TridiagonalBatch
from ..util.errors import ConfigurationError
from .config import SwitchPoints
from .planner import SolvePlan, plan_solve

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
    ``"static"``, ``"dynamic"``.
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
        self._fuse_choice: Dict[Tuple, bool] = {}
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
        if faults is not None and not hasattr(faults, "before_step"):
            from ..faults import FaultInjector

            faults = FaultInjector(faults)
        self.faults = faults
        self._engine.injector = faults
        self._tuner = None
        self._switch: Optional[SwitchPoints] = None
        # Lazily built numerical-safety governor for tolerance-governed
        # solves (metrics-free here; the service threads its registry).
        self._governor = None
        if tuning is None:
            tuning = "default"
        if isinstance(tuning, SwitchPoints):
            self._switch = tuning
        elif isinstance(tuning, str):
            from .tuning import make_tuner

            self._tuner = make_tuner(tuning)
        elif hasattr(tuning, "switch_points"):
            self._tuner = tuning
        else:
            raise ConfigurationError(
                "tuning must be SwitchPoints, a tuner, or a strategy name; "
                f"got {type(tuning).__name__}"
            )

    # -- switch-point resolution -------------------------------------------

    def switch_points_for(
        self, num_systems: int, system_size: int, dsize: int
    ) -> SwitchPoints:
        """Resolve switch points for a workload shape."""
        if self._switch is not None:
            return self._switch
        return self._tuner.switch_points(
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

    def _program_for(self, plan: SolvePlan, dsize: int):
        """The program :meth:`execute_plan` runs, honouring ``fuse``.

        In ``"auto"`` mode both lowerings are priced on a bare engine
        (no fault injector, no tracer — selection must not pollute the
        fault log or the span tree) and the cheaper one runs; the
        verdict is memoised per (signature, count, dtype). Fused and
        unfused solutions are bit-identical, so the choice only moves
        simulated time.
        """
        if self.fuse == "auto":
            key = (plan.signature, plan.num_systems, dsize)
            choice = self._fuse_choice.get(key)
            if choice is None:
                pricer = Engine.for_device(self.device)
                unfused_ms = pricer.price(
                    plan.lower(self.device, dsize)
                ).total_ms
                fused_ms = pricer.price(
                    plan.lower(self.device, dsize, fuse=True)
                ).total_ms
                choice = fused_ms < unfused_ms
                self._fuse_choice[key] = choice
            return plan.lower(self.device, dsize, fuse=choice)
        return plan.lower(self.device, dsize, fuse=bool(self.fuse))

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
        from dataclasses import replace as _replace

        from ..algorithms.lu import scipy_banded_solve
        from ..numerics import Governor

        if self._governor is None:
            self._governor = Governor(tracer=self.tracer)

        def refine(b: TridiagonalBatch, x: np.ndarray) -> np.ndarray:
            residual_rhs = b.d - b.matvec(x)
            correction = self.execute_plan(
                TridiagonalBatch(b.a, b.b, b.c, residual_rhs), plan, switch
            ).x
            return x + correction

        def resolve(b: TridiagonalBatch) -> np.ndarray:
            return scipy_banded_solve(b)

        outcome = self._governor.enforce(
            batch,
            result.x,
            tolerance,
            refine=refine,
            resolve=resolve,
            path="staged",
            context="multi-stage solve",
        )
        if outcome.x is not result.x:
            result = _replace(result, x=outcome.x)
        return result

    def execute_plan(
        self,
        batch: Union[TridiagonalBatch, SharedMatrixBatch],
        plan: SolvePlan,
        switch: SwitchPoints,
    ) -> SolveResult:
        """Run a prepared ``plan`` on ``batch``.

        ``batch`` may hold any number of systems — the staged kernels are
        vectorised over independent systems, so the per-system arithmetic
        depends only on the plan's :attr:`~SolvePlan.signature`, not the
        count. This is the entry point the batched solve service uses to
        execute one merged solve for many same-signature requests while
        keeping each request's answer bit-identical to a standalone
        ``solve``. The padded system size must match the plan's. A
        :class:`SharedMatrixBatch` runs as its logical tiled batch (the
        distributed solver's three-RHS chunk solves) with the matrix
        work done once, and returns that batch's ``(r·m, n)`` solution.

        The plan lowers to an instruction program and the shared
        :class:`~repro.ir.Engine` interprets it with data — the same
        program :func:`~repro.core.pricing.simulate_plan` prices.
        """
        self.device.check_fits_global(batch.nbytes + batch.d.nbytes)
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
