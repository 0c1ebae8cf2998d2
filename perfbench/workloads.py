"""The benchmark's three seeded workloads, driven through the public API.

Each workload builds its inputs from the seed alone and hands the
program only those inputs. ``setup()`` constructs the entry object and
runs the first verified solve of every shape class; the runner it
returns then executes numbered units of work (one request, or one wave
of requests) and checks every answer outside the timed region.

All three are closed loops with one client in one process.

- ``one_big``: one 2^19-row f64 system through the dynamically tuned
  ``MultiStageSolver``; all four paper stages run. The row-major stage
  kernels carry nearly all host time and the service, serve, numerics
  and dist layers do no work, so a kernel change shows here and a
  service change must not.
- ``mixed_serve``: seeded mixed traffic through ``AsyncSolveService``.
  The only workload whose per-request path (admit, validate, memoised
  plan and signature, queue, group, merge, per-group lowering, fuse
  pricing, governor on merged groups) does real work. Sizes up to 2048
  put merged groups on both sides of the fuse="auto" choice; flushing
  only at wave boundaries keeps grouping and priced time repeatable; a
  governed quarter beside an ungoverned majority shows a gain for one
  use that costs the other.
- ``dist8_governed``: four 2^16-row f64 systems on eight simulated GPUs
  under a 1e-8 tolerance. Exercises partitioning, the reduced solve,
  reconstruction, the price-mode scheduler and the governor, and uses
  the kernels layer through interleaved sweeps instead of row-major
  splits, so a layout-specific kernel change that helps one workload
  and costs the other shows.
"""

from __future__ import annotations

import asyncio
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.algorithms.verify import default_tolerance
from repro.core import MultiStageSolver
from repro.core.tuning import make_tuner
from repro.dist import DistributedSolver
from repro.serve import AdmissionController, AsyncSolveService, TenantQuota
from repro.systems.generators import mixed_requests, random_dominant
from repro.util.errors import ReproError

__all__ = ["Scale", "Unit", "WORKLOADS", "make_workload", "nproc"]

DEVICE = "gtx470"


def nproc() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Scale:
    """Problem sizes and run lengths; ``full`` is the benchmark proper."""

    one_big_rows: int
    dist_rows: int
    wave_requests: int
    extra_sizes: tuple
    setups: int  # set-ups per run; setup_s is their median
    min_requests: int  # enough that ten latencies lie beyond p90


FULL = Scale(
    one_big_rows=1 << 19,
    dist_rows=1 << 16,
    wave_requests=64,
    extra_sizes=(1024, 2048),
    setups=5,
    min_requests=100,
)
SMOKE = Scale(
    one_big_rows=1 << 13,
    dist_rows=1 << 11,
    wave_requests=12,
    extra_sizes=(1024,),
    setups=1,
    min_requests=1,
)
SCALES = {"full": FULL, "smoke": SMOKE}


@dataclass
class Unit:
    """What one timed unit of work produced.

    ``check`` verifies the unit's answers and returns how many were
    wrong; it is called after the timed region.
    """

    wall_s: float
    latencies_s: List[float]
    rows: int
    priced_ms: float
    requests: int
    failed: int
    check: Callable[[], int] = field(repr=False)


def _wrong_residual(batch, x, tol: float) -> int:
    """1 when some system of the answer misses relative residual ``tol``."""
    x = np.asarray(x)
    if x.shape != batch.shape or not np.isfinite(x).all():
        return 1
    return int(not (batch.residual(x) <= tol).all())


class Workload:
    """Inputs made from the seed; ``setup()`` returns a ready runner."""

    name = ""
    #: Traced/untraced unit pairs per second of ``--seconds`` in a traced run.
    trace_units_per_s = 1.2

    def dist_metrics(self, priced_ms_per_request: float) -> Dict[str, float]:
        """Distributed-only metrics; zero where no distributed solve runs."""
        return {"dist.priced_ms": 0.0, "dist.priced_speedup_vs_best_1dev": 0.0}


# -- one_big ---------------------------------------------------------------


class OneBig(Workload):
    name = "one_big"

    def __init__(self, seed: int, scale: Scale):
        self.batch = random_dominant(1, scale.one_big_rows, rng=seed)
        self.tol = default_tolerance(self.batch)

    def setup(self) -> "OneBigRunner":
        # A dynamic tuner passed explicitly is what the "dynamic" strategy
        # name builds; holding it exposes its cache counters.
        tuner = make_tuner("dynamic")
        solver = MultiStageSolver(DEVICE, tuner)
        first = solver.solve(self.batch)
        if _wrong_residual(self.batch, first.x, self.tol):
            raise ReproError("one_big: first solve failed verification")
        return OneBigRunner(self, solver, tuner)


class OneBigRunner:
    def __init__(self, workload: OneBig, solver, tuner):
        self.workload = workload
        self.solver = solver
        self.tuner = tuner

    def run(self, index: int) -> Unit:
        batch = self.workload.batch
        t0 = time.perf_counter()
        result = self.solver.solve(batch)
        wall = time.perf_counter() - t0
        tol = self.workload.tol
        return Unit(
            wall_s=wall,
            latencies_s=[wall],
            rows=batch.total_equations,
            priced_ms=result.report.total_ms,
            requests=1,
            failed=0,
            check=lambda: _wrong_residual(batch, result.x, tol),
        )

    def counters(self) -> Dict[str, int]:
        return {"cache": self.tuner.cache.counters()}

    def close(self) -> None:
        pass


# -- dist8_governed ------------------------------------------------------------


DIST_DEVICES = 8
DIST_SYSTEMS = 4
DIST_TOLERANCE = 1e-8


class Dist8Governed(Workload):
    name = "dist8_governed"

    def __init__(self, seed: int, scale: Scale):
        self.batch = random_dominant(DIST_SYSTEMS, scale.dist_rows, rng=seed)

    def dist_metrics(self, priced_ms_per_request: float) -> Dict[str, float]:
        return {
            "dist.priced_ms": priced_ms_per_request,
            "dist.priced_speedup_vs_best_1dev": (
                best_single_device_ms(self.batch) / priced_ms_per_request
            ),
        }

    def setup(self) -> "Dist8Runner":
        solver = DistributedSolver(DIST_DEVICES, "static", device=DEVICE, mode="auto")
        first = solver.solve(self.batch, tolerance=DIST_TOLERANCE)
        if _wrong_residual(self.batch, first.x, DIST_TOLERANCE):
            raise ReproError("dist8_governed: first solve failed verification")
        return Dist8Runner(self, solver)


class Dist8Runner:
    def __init__(self, workload: Dist8Governed, solver):
        self.workload = workload
        self.solver = solver

    def run(self, index: int) -> Unit:
        batch = self.workload.batch
        t0 = time.perf_counter()
        result = self.solver.solve(batch, tolerance=DIST_TOLERANCE)
        wall = time.perf_counter() - t0
        return Unit(
            wall_s=wall,
            latencies_s=[wall],
            rows=batch.total_equations,
            priced_ms=result.report.total_ms,
            requests=1,
            failed=0,
            check=lambda: _wrong_residual(batch, result.x, DIST_TOLERANCE),
        )

    def counters(self) -> Dict[str, int]:
        return {"cache": self.solver.cache.counters()}

    def close(self) -> None:
        pass


def best_single_device_ms(batch) -> float:
    """Priced ms of the best one-device plan for ``batch``.

    The honest baseline for a distributed solve: the fastest of the
    machine-query and self-tuned switch points, each with the fused or
    staged lowering the cost model prefers (``fuse="auto"``).
    """
    return min(
        MultiStageSolver(DEVICE, tuning, fuse="auto").solve(batch).report.total_ms
        for tuning in ("static", "dynamic")
    )


# -- mixed_serve ---------------------------------------------------------------


TENANTS = ("interactive", "standard", "batch")
GOVERNED_SHARE = 0.25
GOVERNED_TOLERANCE = 1e-5  # 1e-8 makes f32 groups break down
BIT_CHECK_SHARE = 0.125  # ungoverned answers compared bit-for-bit
DEFAULT_SIZES = tuple(mixed_requests.__kwdefaults__["sizes"])
DTYPES = (np.float32, np.float64)


@dataclass
class Request:
    batch: object
    tenant: str
    tolerance: Optional[float]
    bit_check: bool


class MixedServe(Workload):
    name = "mixed_serve"
    trace_units_per_s = 4.0

    def __init__(self, seed: int, scale: Scale):
        self.seed = seed
        self.scale = scale
        self.sizes = DEFAULT_SIZES + scale.extra_sizes
        self.workers = nproc()

    def wave(self, index: int) -> List[Request]:
        """The ``index``-th wave of requests, a function of the seed alone."""
        gen = np.random.default_rng([self.seed, index])
        count = self.scale.wave_requests
        batches = mixed_requests(count, rng=gen, sizes=self.sizes)
        tenants = gen.integers(0, len(TENANTS), count)
        governed = gen.random(count) < GOVERNED_SHARE
        sampled = gen.random(count) < BIT_CHECK_SHARE
        return [
            Request(
                batch=batches[i],
                tenant=TENANTS[tenants[i]],
                tolerance=GOVERNED_TOLERANCE if governed[i] else None,
                bit_check=bool(sampled[i]) and not governed[i],
            )
            for i in range(count)
        ]

    def setup(self) -> "MixedRunner":
        quota = 2 * self.scale.wave_requests
        admission = AdmissionController(
            capacity=4 * self.scale.wave_requests,
            quotas={t: TenantQuota(max_pending=quota, priority=t) for t in TENANTS},
        )
        service = AsyncSolveService(
            DEVICE, "static", workers=self.workers, admission=admission, autoscale=False
        )
        runner = MixedRunner(self, service)
        try:
            # The first verified solve of every shape class.
            gen = np.random.default_rng([self.seed, 0xFFFFFFFF])
            first = [
                Request(random_dominant(1, n, rng=gen, dtype=dtype), "standard", None, False)
                for dtype in DTYPES
                for n in self.sizes
            ]
            unit = runner.run_requests(first)
            if unit.failed or unit.check():
                raise ReproError("mixed_serve: first solves failed verification")
        except BaseException:
            runner.close()
            raise
        return runner


class MixedRunner:
    def __init__(self, workload: MixedServe, service: AsyncSolveService):
        self.workload = workload
        self.service = service
        self.loop = asyncio.new_event_loop()
        self._references: Dict[np.dtype, MultiStageSolver] = {}

    def run(self, index: int) -> Unit:
        return self.run_requests(self.workload.wave(index))

    def run_requests(self, requests: List[Request]) -> Unit:
        starts = [0.0] * len(requests)
        done = [0.0] * len(requests)
        t0 = time.perf_counter()
        outcomes = self.loop.run_until_complete(self._wave(requests, starts, done))
        wall = time.perf_counter() - t0
        failed = sum(isinstance(o, BaseException) for o in outcomes)
        answered = [
            (req, o) for req, o in zip(requests, outcomes) if not isinstance(o, BaseException)
        ]
        # A merged solve's report is shared by every request in its group.
        reports = {id(o.report): o.report.total_ms for _, o in answered}
        return Unit(
            wall_s=wall,
            latencies_s=[d - s for s, d in zip(starts, done) if d > 0.0],
            rows=sum(req.batch.total_equations for req, _ in answered),
            priced_ms=sum(reports.values()),
            requests=len(requests),
            failed=failed,
            check=lambda: self._check(answered),
        )

    async def _wave(self, requests, starts, done):
        service = self.service
        futures = []
        for i, req in enumerate(requests):
            starts[i] = time.perf_counter()
            fut = await service.submit(req.batch, tenant=req.tenant, tolerance=req.tolerance)
            fut.add_done_callback(lambda _f, i=i: done.__setitem__(i, time.perf_counter()))
            futures.append(fut)
        service.flush()
        return await asyncio.gather(*futures, return_exceptions=True)

    def _reference(self, dtype) -> MultiStageSolver:
        solver = self._references.get(dtype)
        if solver is None:
            inner = self.service.service
            switch = inner.switch_points_for(inner.default_device, dtype)
            solver = self._references[dtype] = MultiStageSolver(inner.default_device, switch)
        return solver

    def _check(self, answered) -> int:
        """Requests among ``answered`` (request, result) pairs with a wrong answer.

        Governed answers must meet their tolerance. A sampled ungoverned
        answer whose merged group held no governed request must equal a
        standalone solve with the service's switch points bit for bit.
        Every other answer must pass the dtype's residual check.
        """
        governed_groups = {id(o.report) for req, o in answered if req.tolerance is not None}
        wrong = 0
        for req, out in answered:
            batch = req.batch
            if req.tolerance is not None:
                wrong += _wrong_residual(batch, out.x, req.tolerance)
            elif req.bit_check and id(out.report) not in governed_groups:
                ref = self._reference(batch.dtype).solve(batch).x
                wrong += int(not np.array_equal(ref, out.x))
            else:
                wrong += _wrong_residual(batch, out.x, default_tolerance(batch))
        return wrong

    def counters(self) -> Dict[str, object]:
        snap = self.service.stats.snapshot()
        return {
            "cache": self.service.cache.counters(),
            "bisections": snap["group_bisections"],
            "shed": snap["requests_shed"],
        }

    def close(self) -> None:
        try:
            self.service.close()
        finally:
            self.loop.close()


WORKLOADS = {cls.name: cls for cls in (OneBig, MixedServe, Dist8Governed)}


def make_workload(name: str, seed: int, scale: Scale):
    return WORKLOADS[name](seed, scale)
