"""Seeded chaos campaigns over the service and the distributed solver.

A campaign is the fault layer's acceptance harness: hammer the system
with a seeded mix of transient kernel faults, worker stalls, tight
deadlines, poisoned (singular) requests, and a mid-run permanent device
failure, then audit every single outcome against the headline
guarantee —

    **a bit-correct solution (verified residual) or a typed error,
    never a silently wrong answer.**

Two phases:

- **service phase** — ``requests`` mixed-shape solves (with singular
  systems sprinkled in) through a verifying
  :class:`~repro.service.BatchSolveService` under transient faults,
  stalls, deadlines, and a circuit breaker. Every returned solution is
  re-checked against its own request's residual tolerance; every
  failure must be a typed :class:`~repro.util.errors.ReproError`.
- **failover phase** — a :class:`~repro.dist.DistributedSolver` over
  ``dist_devices`` simulated devices loses one device permanently
  mid-run; every workload must still solve exactly on the survivors,
  with the recovery overhead priced into the reports.
- **serve phase** — the same request mix through the async serving
  tier (:class:`~repro.serve.AsyncSolveService`): a deliberately
  tight :class:`~repro.serve.AdmissionController` (so tenant quotas
  and priority watermarks actually shed), the autoscaler resizing the
  fleet mid-chaos — all under the same transient faults
  and stalls. Admission sheds must be *typed*
  (:class:`~repro.util.errors.TenantQuotaExceededError` /
  :class:`~repro.util.errors.PriorityShedError`); the guarantee reads
  identically: verified solution or typed error, never silently wrong.
- **numerics phase** — adversarial *data* instead of injected faults:
  near-singular, non-dominant, huge-dynamic-range, NaN/Inf-poisoned,
  and exactly singular systems submitted with an explicit residual
  ``tolerance``, so the numerical-safety governor (dominance estimate,
  escalation ladder, boundary validation) owns the guarantee instead of
  the exact verifier. Malformed systems must be rejected typed at the
  boundary; everything delivered must measure within tolerance.

Everything is deterministic in the seed; :func:`run_sweep` repeats the
campaign across seeds for the nightly tier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..algorithms.verify import default_tolerance, max_residual
from ..dist.solver import DistributedSolver
from ..service.queue import CircuitBreaker
from ..service.workers import BatchSolveService
from ..systems.generators import (
    huge_dynamic_range,
    ill_conditioned,
    inf_poisoned,
    mixed_requests,
    nan_poisoned,
    random_dominant,
    random_uniform,
    singular,
)
from ..util.errors import (
    InvalidSystemError,
    ReproError,
    ServiceOverloadedError,
)
from .injector import FaultInjector
from .log import FaultLog
from .plan import (
    DeviceFailure,
    FaultPlan,
    RetryPolicy,
    TransientKernelFault,
    WorkerStall,
)

__all__ = ["ChaosReport", "run_campaign", "run_sweep"]

# Every POISON_EVERY-th service request is a singular system; every
# TIGHT_DEADLINE_EVERY-th carries an already-expired deadline.
POISON_EVERY = 17
TIGHT_DEADLINE_EVERY = 13


@dataclass(frozen=True)
class ChaosReport:
    """The audited outcome of one seeded campaign."""

    seed: int
    requests: int
    solved: int
    typed_errors: int  # poisoned requests failing with a ReproError
    deadline_expired: int
    shed: int
    untyped_errors: int  # must be zero: every failure is typed
    silent_wrong: int  # must be zero: every answer verifies
    worst_residual_ratio: float  # max over solved of residual/tolerance
    retries: int
    stalls: int
    bisections: int
    failover: Dict = field(default_factory=dict)
    serve: Dict = field(default_factory=dict)
    numerics: Dict = field(default_factory=dict)
    fault_summary: Dict = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        """The headline guarantee held for every request."""
        serve_clean = not self.serve or (
            self.serve["silent_wrong"] == 0
            and self.serve["untyped_errors"] == 0
            and self.serve["solved"]
            + self.serve["typed_errors"]
            + self.serve["deadline_expired"]
            + self.serve["shed"]
            == self.serve["requests"]
        )
        numerics_clean = not self.numerics or (
            self.numerics["silent_wrong"] == 0
            and self.numerics["untyped_errors"] == 0
            and self.numerics["solved"] + self.numerics["typed_errors"]
            == self.numerics["requests"]
        )
        return (
            self.silent_wrong == 0
            and self.untyped_errors == 0
            and self.solved
            + self.typed_errors
            + self.deadline_expired
            + self.shed
            == self.requests
            and self.failover.get("silent_wrong", 0) == 0
            and serve_clean
            and numerics_clean
        )

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "requests": self.requests,
            "solved": self.solved,
            "typed_errors": self.typed_errors,
            "deadline_expired": self.deadline_expired,
            "shed": self.shed,
            "untyped_errors": self.untyped_errors,
            "silent_wrong": self.silent_wrong,
            "worst_residual_ratio": self.worst_residual_ratio,
            "retries": self.retries,
            "stalls": self.stalls,
            "bisections": self.bisections,
            "clean": self.clean,
            "failover": self.failover,
            "serve": self.serve,
            "numerics": self.numerics,
            "fault_summary": self.fault_summary,
        }

    def describe(self) -> str:
        fo = self.failover
        lines = [
            f"chaos campaign (seed {self.seed}): "
            f"{'CLEAN' if self.clean else 'VIOLATED'}",
            f"  service : {self.requests} requests -> {self.solved} solved, "
            f"{self.typed_errors} typed errors, "
            f"{self.deadline_expired} expired, {self.shed} shed",
            f"  audit   : {self.silent_wrong} silently wrong, "
            f"{self.untyped_errors} untyped errors, "
            f"worst residual at {self.worst_residual_ratio:.2f}x tolerance",
            f"  recovery: {self.retries} retries, {self.stalls} stalls, "
            f"{self.bisections} bisections",
        ]
        if fo:
            lines.append(
                f"  failover: {fo['solves']} dist solves with device "
                f"{fo['killed_device']} dead, {fo['failovers']} failovers, "
                f"{fo['recovery_overhead_ms']:.3f} ms overhead priced"
            )
        if self.serve:
            sv = self.serve
            sheds = ", ".join(
                f"{reason}={count}"
                for reason, count in sorted(sv["shed_reasons"].items())
            )
            lines.append(
                f"  serve   : {sv['requests']} requests -> "
                f"{sv['solved']} solved, {sv['typed_errors']} typed, "
                f"{sv['deadline_expired']} expired, {sv['shed']} shed "
                f"({sheds or 'none'}), fleet peaked at "
                f"{sv['max_workers']} workers"
            )
        if self.numerics:
            nm = self.numerics
            lines.append(
                f"  numerics: {nm['requests']} adversarial requests -> "
                f"{nm['solved']} verified, {nm['typed_errors']} typed "
                f"({nm['rejected_invalid']} rejected at the boundary, "
                f"{nm['breakdowns']} breakdowns), "
                f"{nm['refined']} refined, {nm['resolved']} re-solved"
            )
        return "\n".join(lines)


def _service_requests(seed: int, count: int) -> List:
    """The seeded request mix: mixed shapes plus sprinkled poison."""
    rng = np.random.default_rng(seed)
    requests = mixed_requests(count, rng=rng)
    for i in range(POISON_EVERY - 1, count, POISON_EVERY):
        bad = requests[i]
        requests[i] = singular(
            bad.num_systems, bad.system_size, dtype=bad.dtype
        )
    return requests


def _run_service_phase(
    seed: int, count: int, transient_p: float, log: FaultLog
) -> dict:
    plan = FaultPlan(
        seed=seed,
        faults=(
            TransientKernelFault(probability=transient_p),
            WorkerStall(probability=0.05, stall_ms=0.5),
        ),
        retry=RetryPolicy(max_attempts=4, budget=64),
    )
    injector = FaultInjector(plan, log)
    service = BatchSolveService(
        verify=True,
        max_workers=4,
        auto_flush=16,
        faults=injector,
        breaker=CircuitBreaker(failure_threshold=25, cooldown_s=0.02),
    )
    requests = _service_requests(seed, count)
    futures = []
    shed = 0
    typed_at_submit = 0
    with service:
        for i, batch in enumerate(requests):
            expired = (i + 1) % TIGHT_DEADLINE_EVERY == 0
            try:
                futures.append(
                    (
                        batch,
                        service.submit(
                            batch,
                            deadline_ms=0.0 if expired else 60_000.0,
                        ),
                    )
                )
            except InvalidSystemError:
                # The sprinkled singular systems (zero diagonal row) are
                # rejected typed at the boundary now — no kernel ever
                # sees them. Still a typed error for the audit.
                typed_at_submit += 1
            except ServiceOverloadedError:
                shed += 1
        service.flush()
        service.drain()

    solved = expired_n = untyped = silent = 0
    typed = typed_at_submit
    worst_ratio = 0.0
    for batch, fut in futures:
        exc = fut.exception()
        if exc is None:
            residual = max_residual(batch, fut.result().x)
            ratio = residual / default_tolerance(batch)
            worst_ratio = max(worst_ratio, ratio)
            if ratio > 1.0:
                silent += 1
            else:
                solved += 1
        elif isinstance(exc, ReproError):
            if type(exc).__name__ == "DeadlineExceededError":
                expired_n += 1
            else:
                typed += 1
        else:
            untyped += 1
    snap = service.stats.snapshot()
    return {
        "requests": count,
        "solved": solved,
        "typed_errors": typed,
        "deadline_expired": expired_n,
        "shed": shed,
        "untyped_errors": untyped,
        "silent_wrong": silent,
        "worst_residual_ratio": worst_ratio,
        "bisections": snap["group_bisections"],
    }


def _run_serve_phase(
    seed: int, count: int, transient_p: float, log: FaultLog
) -> dict:
    """The campaign's request mix through the async serving tier.

    Quotas are deliberately tight — a "noisy" batch-class tenant with a
    small pending cap and rate limit sends a third of the traffic — so
    admission genuinely sheds, and the audit can insist every shed was
    typed. The autoscaler runs too: fleet resizing mid-chaos must not
    cost a single verified answer.
    """
    from ..serve import (
        AdmissionController,
        AsyncSolveService,
        TenantQuota,
    )
    from ..util.errors import (
        PriorityShedError,
        TenantQuotaExceededError,
    )

    plan = FaultPlan(
        seed=seed + 2,
        faults=(
            TransientKernelFault(probability=transient_p),
            WorkerStall(probability=0.05, stall_ms=0.5),
        ),
        retry=RetryPolicy(max_attempts=4, budget=64),
    )
    injector = FaultInjector(plan, log)
    # A deterministic admission clock (0.5 ms per reading): campaign
    # reports must be bit-identical per seed, so neither the rate
    # quota's refill nor anything else may read the wall clock.
    sim_clock = {"s": 0.0}

    def _tick() -> float:
        sim_clock["s"] += 0.0005
        return sim_clock["s"]

    admission = AdmissionController(
        capacity=32,
        quotas={
            "noisy": TenantQuota(
                max_pending=4, rate_per_s=2000.0, burst=4, priority="batch"
            )
        },
        default_quota=TenantQuota(max_pending=16, priority="standard"),
        clock=_tick,
    )
    service = AsyncSolveService(
        verify=True,
        workers=2,
        admission=admission,
        autoscale=True,
        faults=injector,
    )
    requests = _service_requests(seed + 2, count)
    futures = []
    shed = 0
    typed_at_submit = 0
    shed_reasons: Dict[str, int] = {}
    max_workers = service.fleet.size
    with service:
        for i, batch in enumerate(requests):
            tenant = "noisy" if i % 3 == 0 else f"tenant{i % 2}"
            priority = "interactive" if tenant == "tenant1" else None
            expired = (i + 1) % TIGHT_DEADLINE_EVERY == 0
            try:
                futures.append(
                    (
                        batch,
                        service.submit_sync(
                            batch,
                            tenant=tenant,
                            priority=priority,
                            deadline_ms=0.0 if expired else 60_000.0,
                        ),
                    )
                )
            except InvalidSystemError:
                typed_at_submit += 1
            except TenantQuotaExceededError as exc:
                shed += 1
                key = f"tenant_{exc.quota}"
                shed_reasons[key] = shed_reasons.get(key, 0) + 1
            except PriorityShedError as exc:
                shed += 1
                key = f"priority_{exc.priority}"
                shed_reasons[key] = shed_reasons.get(key, 0) + 1
            except ServiceOverloadedError:
                # The audit wants *typed* sheds from admission; a bare
                # overload here (queue/breaker) still counts as shed.
                shed += 1
                shed_reasons["overloaded"] = (
                    shed_reasons.get("overloaded", 0) + 1
                )
            if (i + 1) % 32 == 0:
                # Flush *and drain* each window: in-flight completions
                # release admission tickets, so determinism requires
                # every window's futures to settle before the next
                # window's admission decisions.
                service.flush()
                service.drain()
                max_workers = max(max_workers, service.fleet.size)
        service.flush()
        service.drain()
        max_workers = max(max_workers, service.fleet.size)

    solved = expired_n = untyped = silent = 0
    typed = typed_at_submit
    worst_ratio = 0.0
    for batch, fut in futures:
        exc = fut.exception()
        if exc is None:
            residual = max_residual(batch, fut.result().x)
            ratio = residual / default_tolerance(batch)
            worst_ratio = max(worst_ratio, ratio)
            if ratio > 1.0:
                silent += 1
            else:
                solved += 1
        elif isinstance(exc, ReproError):
            if type(exc).__name__ == "DeadlineExceededError":
                expired_n += 1
            else:
                typed += 1
        else:
            untyped += 1
    return {
        "requests": count,
        "solved": solved,
        "typed_errors": typed,
        "deadline_expired": expired_n,
        "shed": shed,
        "shed_reasons": shed_reasons,
        "untyped_errors": untyped,
        "silent_wrong": silent,
        "worst_residual_ratio": worst_ratio,
        "max_workers": max_workers,
        "cache": service.cache.counters(),
    }


def _run_numerics_phase(seed: int, count: int, tolerance: float) -> dict:
    """Adversarial *data* through the governed service — no injected faults.

    The request mix is every kind of numerically hostile system the
    generators know how to make: near-singular, non-dominant,
    huge-dynamic-range, NaN/Inf-poisoned, and exactly singular, leavened
    with well-behaved dominant batches. Every request carries an explicit
    ``tolerance``, so the numerical-safety governor (not the exact
    verifier) owns the guarantee, which here reads:

        **a solution whose measured relative residual is within the
        requested tolerance, or a typed error — never neither.**

    Poisoned and singular systems must be rejected typed at the boundary;
    near-singular ones may solve via the escalation ladder or fail with
    :class:`~repro.util.errors.NumericalBreakdownError` — both are fine,
    a wrong answer delivered silently is not.
    """
    rng = np.random.default_rng(seed + 3)
    hostile = (
        lambda m, n, g: random_dominant(m, n, rng=g),
        lambda m, n, g: huge_dynamic_range(m, n, rng=g),
        lambda m, n, g: random_uniform(m, n, rng=g),
        lambda m, n, g: ill_conditioned(m, n, epsilon=1e-13, rng=g),
        # Moderately ill-conditioned: the staged solve misses tolerance
        # but one refinement step recovers it — exercises the ladder's
        # middle rung, not just accept/breakdown.
        lambda m, n, g: ill_conditioned(m, n, epsilon=1e-7, rng=g),
        lambda m, n, g: nan_poisoned(m, n, rng=g),
        lambda m, n, g: inf_poisoned(m, n, rng=g),
        lambda m, n, g: singular(m, n),
    )
    service = BatchSolveService(max_workers=2, auto_flush=8)
    futures = []
    rejected_invalid = 0
    with service:
        for i in range(count):
            m = int(rng.integers(1, 5))
            n = int(rng.choice((64, 128, 256)))
            batch = hostile[i % len(hostile)](m, n, rng)
            try:
                futures.append(
                    (batch, service.submit(batch, tolerance=tolerance))
                )
            except InvalidSystemError:
                rejected_invalid += 1
        service.flush()
        service.drain()
        outcomes = service.metrics.get("repro_numerics_outcomes_total")
        refined = int(outcomes.value(path="service", rung="refined"))
        resolved = int(outcomes.value(path="service", rung="resolved"))

    solved = untyped = silent = breakdowns = 0
    typed = rejected_invalid
    worst_ratio = 0.0
    for batch, fut in futures:
        exc = fut.exception()
        if exc is None:
            ratio = batch.residual(fut.result().x).max() / tolerance
            worst_ratio = max(worst_ratio, ratio)
            if ratio > 1.0:
                silent += 1
            else:
                solved += 1
        elif isinstance(exc, ReproError):
            typed += 1
            if type(exc).__name__ == "NumericalBreakdownError":
                breakdowns += 1
        else:
            untyped += 1
    return {
        "requests": count,
        "tolerance": tolerance,
        "solved": solved,
        "typed_errors": typed,
        "rejected_invalid": rejected_invalid,
        "breakdowns": breakdowns,
        "refined": refined,
        "resolved": resolved,
        "untyped_errors": untyped,
        "silent_wrong": silent,
        "worst_residual_ratio": worst_ratio,
    }


def _run_failover_phase(
    seed: int, devices: int, solves: int, log: FaultLog
) -> dict:
    """Kill one device mid-run; every workload must still solve."""
    killed = devices // 2
    plan = FaultPlan(
        seed=seed, faults=(DeviceFailure(device=killed, at_instruction=1),)
    )
    injector = FaultInjector(plan, log)
    solver = DistributedSolver(devices, verify=True, faults=injector)
    solved = silent = 0
    worst_ratio = 0.0
    rng = np.random.default_rng(seed + 1)
    for i in range(solves):
        batch = random_dominant(4, 4096, rng=rng)
        result = solver.solve(batch)
        ratio = max_residual(batch, result.x) / default_tolerance(batch)
        worst_ratio = max(worst_ratio, ratio)
        if ratio > 1.0:
            silent += 1
        else:
            solved += 1
    return {
        "solves": solves,
        "solved": solved,
        "silent_wrong": silent,
        "worst_residual_ratio": worst_ratio,
        "killed_device": killed,
        "dead_devices": sorted(injector.dead_devices()),
        "failovers": log.count("device_lost", "failed_over"),
        "recovery_overhead_ms": sum(
            e.penalty_ms
            for e in log.events()
            if e.kind == "device_lost" and e.action == "failed_over"
        ),
    }


def run_campaign(
    seed: int = 0,
    *,
    requests: int = 200,
    transient_p: float = 0.02,
    dist_devices: int = 4,
    failover_solves: int = 3,
    serve_requests: int = 120,
    numerics_requests: int = 64,
    tolerance: float = 1e-8,
) -> ChaosReport:
    """One full four-phase campaign; deterministic in ``seed``.

    ``serve_requests=0`` skips the serving-tier phase and
    ``numerics_requests=0`` skips the adversarial-numerics phase (the
    report's corresponding dict stays empty and ``clean`` ignores it).
    ``tolerance`` is the per-request residual bound the numerics phase
    asks the governor to enforce.
    """
    log = FaultLog()
    service = _run_service_phase(seed, requests, transient_p, log)
    failover = _run_failover_phase(seed, dist_devices, failover_solves, log)
    serve = (
        _run_serve_phase(seed, serve_requests, transient_p, log)
        if serve_requests
        else {}
    )
    numerics = (
        _run_numerics_phase(seed, numerics_requests, tolerance)
        if numerics_requests
        else {}
    )
    summary = log.summary()
    return ChaosReport(
        seed=seed,
        requests=service["requests"],
        solved=service["solved"],
        typed_errors=service["typed_errors"],
        deadline_expired=service["deadline_expired"],
        shed=service["shed"],
        untyped_errors=service["untyped_errors"],
        silent_wrong=service["silent_wrong"],
        worst_residual_ratio=max(
            service["worst_residual_ratio"], failover["worst_residual_ratio"]
        ),
        retries=summary["counts"].get("transient:retried", 0),
        stalls=summary["counts"].get("stall:injected", 0),
        bisections=service["bisections"],
        failover=failover,
        serve=serve,
        numerics=numerics,
        fault_summary=summary,
    )


def run_sweep(
    seeds: Sequence[int] = (0, 1, 2),
    *,
    requests: int = 200,
    transient_p: float = 0.02,
    dist_devices: int = 4,
    numerics_requests: int = 64,
    tolerance: float = 1e-8,
) -> Tuple[ChaosReport, ...]:
    """The campaign across several seeds (the nightly configuration)."""
    return tuple(
        run_campaign(
            seed,
            requests=requests,
            transient_p=transient_p,
            dist_devices=dist_devices,
            numerics_requests=numerics_requests,
            tolerance=tolerance,
        )
        for seed in seeds
    )
