"""Tests for the fault-injection and recovery layer.

The layer's contract, exercised piece by piece:

- :class:`FaultPlan` decisions are pure functions of the seed — the
  same plan produces the same faults run after run, and price mode
  sees exactly the transient faults execute mode sees.
- Transient faults are retried with backoff and either succeed
  bit-identically or escape as a typed, instruction-annotated error.
- A permanent device loss mid-run makes the distributed solver
  re-partition onto the survivors, still produce the verified answer,
  and price the wasted makespan into the combined report.
- The service converts faults into typed outcomes: expired deadlines,
  bisected poison requests, breaker-shed overload — never a silently
  wrong answer.
"""

import threading

import numpy as np
import pytest

from repro.core import MultiStageSolver, SwitchPoints
from repro.core.planner import plan_solve
from repro.core.tuning import make_tuner
from repro.dist import DistributedSolver
from repro.dist.partition import surviving_indices
from repro.dist.pipeline import failover_report
from repro.faults import (
    ClockSkew,
    DeviceFailure,
    FaultEvent,
    FaultInjector,
    FaultLog,
    FaultPlan,
    LinkDegradation,
    LinkPartition,
    RetryPolicy,
    TransientKernelFault,
    WorkerStall,
)
from repro.gpu import make_device
from repro.ir import Engine, lower_solve_plan
from repro.service import BatchSolveService, CircuitBreaker
from repro.systems import generators
from repro.util.errors import (
    ConfigurationError,
    DeadlineExceededError,
    DeviceLostError,
    FaultInjectionError,
    ServiceOverloadedError,
    SingularSystemError,
)

DEVICE = "gtx470"
SWITCH = SwitchPoints(
    stage1_target_systems=16, stage3_system_size=256, thomas_switch=64
)


def _solver(faults=None):
    return MultiStageSolver(DEVICE, SWITCH, faults=faults)


class TestFaultPlan:
    def test_draws_are_deterministic_and_uniform_range(self):
        plan = FaultPlan(seed=7)
        a = plan.draw("transient", 0, "solve", 4, 256, 3, 0)
        b = plan.draw("transient", 0, "solve", 4, 256, 3, 0)
        assert a == b
        assert 0.0 <= a < 1.0
        # A different seed or a different key decorrelates the draw.
        assert a != FaultPlan(seed=8).draw("transient", 0, "solve", 4, 256, 3, 0)
        assert a != plan.draw("transient", 0, "solve", 4, 256, 3, 1)

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            TransientKernelFault(probability=1.5)
        with pytest.raises(ConfigurationError):
            LinkDegradation(factor=0.5)
        with pytest.raises(ConfigurationError):
            ClockSkew(device=0, factor=0.0)
        with pytest.raises(ConfigurationError):
            WorkerStall(probability=0.1, stall_ms=-1.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)

    def test_backoff_is_exponential_and_capped(self):
        retry = RetryPolicy(base_backoff_ms=0.5, backoff_cap_ms=2.0)
        assert retry.backoff_ms(0) == 0.5
        assert retry.backoff_ms(1) == 1.0
        assert retry.backoff_ms(2) == 2.0
        assert retry.backoff_ms(9) == 2.0

    def test_environment_accessors(self):
        plan = FaultPlan(
            faults=(
                LinkDegradation(2.0),
                LinkDegradation(3.0),
                LinkPartition(0, 2),
                ClockSkew(device=1, factor=4.0),
            )
        )
        assert plan.link_factor() == 6.0
        assert plan.partitioned(0, 2) and plan.partitioned(2, 0)
        assert not plan.partitioned(0, 1)
        assert plan.skew_factor(1) == 4.0
        assert plan.skew_factor(0) == 1.0
        assert "LinkPartition" in plan.describe()


class TestFaultLog:
    def test_counts_and_overhead(self):
        log = FaultLog()
        log.record(FaultEvent(kind="transient", action="injected", penalty_ms=0.5))
        log.record(FaultEvent(kind="transient", action="retried", penalty_ms=0.25))
        log.record(FaultEvent(kind="stall", action="injected"))
        assert log.count("transient", "injected") == 1
        assert log.counts()["transient:retried"] == 1
        assert log.overhead_ms == pytest.approx(0.75)
        summary = log.summary()
        assert summary["counts"]["stall:injected"] == 1
        assert len(log.events()) == 3

    def test_overhead_does_not_depend_on_event_order(self):
        totals = set()
        for penalties in ((0.1, 0.2, 0.3), (0.3, 0.2, 0.1)):
            log = FaultLog()
            for penalty in penalties:
                log.record(FaultEvent(kind="stall", action="injected", penalty_ms=penalty))
            totals |= {log.overhead_ms, log.summary()["overhead_ms"]}
        assert totals == {0.6}


class TestTransientRetry:
    def test_retry_then_succeed_is_bit_identical(self):
        batch = generators.random_dominant(2, 256, rng=0)
        baseline = _solver().solve(batch)
        plan = FaultPlan(
            seed=0,
            faults=(TransientKernelFault(probability=1.0, max_failures=2),),
            retry=RetryPolicy(max_attempts=4, budget=16),
        )
        inj = FaultInjector(plan)
        result = _solver(faults=inj).solve(batch)
        np.testing.assert_array_equal(result.x, baseline.x)
        # Both failures retried, and the wasted work was priced.
        assert inj.log.count("transient", "injected") == 2
        assert inj.log.count("transient", "retried") == 2
        assert inj.log.overhead_ms > 0.0
        # The solver's own report is the fault-free cost: recovery
        # overhead lives in the fault log, in the same currency.
        assert result.report.total_ms == baseline.report.total_ms

    def test_exhaustion_raises_typed_annotated_error(self):
        plan = FaultPlan(
            seed=0,
            faults=(TransientKernelFault(probability=1.0),),
            retry=RetryPolicy(max_attempts=2, budget=64),
        )
        inj = FaultInjector(plan)
        with pytest.raises(FaultInjectionError) as excinfo:
            _solver(faults=inj).solve(generators.random_dominant(2, 256, rng=0))
        index, op, device = excinfo.value.instruction
        assert index >= 0 and isinstance(op, str) and device == 0
        assert f"[step {index}: {op} on dev{device}]" in str(excinfo.value)
        assert inj.log.count("transient", "exhausted") == 1

    def test_budget_bounds_retries_across_the_program(self):
        plan = FaultPlan(
            seed=0,
            faults=(TransientKernelFault(probability=1.0),),
            retry=RetryPolicy(max_attempts=10, budget=3),
        )
        inj = FaultInjector(plan)
        with pytest.raises(FaultInjectionError):
            _solver(faults=inj).solve(generators.random_dominant(2, 256, rng=0))
        assert inj.log.count("transient", "retried") == 3

    def test_paused_injector_never_fires(self):
        plan = FaultPlan(seed=0, faults=(TransientKernelFault(probability=1.0),))
        inj = FaultInjector(plan)
        batch = generators.random_dominant(2, 128, rng=1)
        with inj.paused():
            result = _solver(faults=inj).solve(batch)
        np.testing.assert_array_equal(result.x, _solver().solve(batch).x)
        assert not inj.log.events()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_error_annotation_without_injector(self):
        """Instruction context attaches to any engine error, faults or not."""
        with pytest.raises(SingularSystemError) as excinfo:
            _solver().solve(generators.singular(2, 64))
        index, op, device = excinfo.value.instruction
        assert device == 0 and op
        assert f"step {index}" in str(excinfo.value)

    def test_price_and_execute_see_identical_faults(self):
        """The headline determinism property: the priced schedule and
        the data-carrying execution of one program inject the same
        transient faults at the same instructions and attempts."""
        device = make_device(DEVICE)
        batch = generators.random_dominant(3, 512, rng=2)
        switch = make_tuner("static").switch_points(device, 3, 512, 8)
        program = lower_solve_plan(plan_solve(device, 3, 512, 8, switch), device, 8)
        plan = FaultPlan(
            seed=11,
            faults=(TransientKernelFault(probability=0.4),),
            retry=RetryPolicy(max_attempts=8, budget=64),
        )

        def fault_points(run_mode):
            engine = Engine.for_device(device)
            engine.injector = FaultInjector(plan)
            if run_mode == "execute":
                engine.execute(program, batch)
            else:
                engine.price(program)
            return [
                (e.step, e.op, e.attempt)
                for e in engine.injector.log.events()
                if e.kind == "transient" and e.action == "injected"
            ]

        executed = fault_points("execute")
        priced = fault_points("price")
        assert executed  # the seed is chosen so faults actually fire
        assert executed == priced


class TestDeviceLoss:
    def test_single_device_failure_is_terminal(self):
        """No survivors behind a lone solver: the loss escapes typed."""
        inj = FaultInjector(FaultPlan(faults=(DeviceFailure(device=0),)))
        with pytest.raises(DeviceLostError) as excinfo:
            _solver(faults=inj).solve(generators.random_dominant(2, 128, rng=0))
        assert excinfo.value.device == 0
        assert inj.dead_devices() == frozenset({0})

    def test_dead_devices_stay_dead(self):
        inj = FaultInjector(FaultPlan())
        inj.fail_device(3, detail="test kill")
        assert inj.dead_devices() == frozenset({3})
        assert inj.log.count("device_lost", "injected") == 1
        inj.fail_device(3)  # idempotent: one event, still dead
        assert inj.log.count("device_lost", "injected") == 1

    def test_surviving_indices(self):
        assert surviving_indices(4, {2}) == (0, 1, 3)
        assert surviving_indices(3, set()) == (0, 1, 2)
        with pytest.raises(ConfigurationError):
            surviving_indices(2, {0, 1})


@pytest.mark.dist
class TestDistributedFailover:
    def test_kill_one_of_four_devices_mid_run(self):
        batch = generators.random_dominant(4, 4096, rng=0)
        baseline = DistributedSolver(4).solve(batch)
        inj = FaultInjector(
            FaultPlan(faults=(DeviceFailure(device=2, at_instruction=0),))
        )
        result = DistributedSolver(4, verify=True, faults=inj).solve(batch)
        np.testing.assert_allclose(result.x, baseline.x, rtol=1e-10)
        # The re-partition is visible in the schedule and the log, and
        # the aborted plan's makespan is priced as recovery overhead.
        assert result.report.schedule.startswith("failover:")
        assert inj.dead_devices() == frozenset({2})
        assert inj.log.count("device_lost", "failed_over") >= 1
        overhead = sum(
            e.penalty_ms
            for e in inj.log.events()
            if e.kind == "device_lost" and e.action == "failed_over"
        )
        assert overhead > 0.0
        assert result.report.total_ms > baseline.report.total_ms

    def test_link_partition_fails_over_to_reachable_peers(self):
        batch = generators.random_dominant(4, 4096, rng=1)
        baseline = DistributedSolver(4).solve(batch)
        inj = FaultInjector(FaultPlan(faults=(LinkPartition(0, 1),)))
        result = DistributedSolver(4, verify=True, faults=inj).solve(batch)
        np.testing.assert_allclose(result.x, baseline.x, rtol=1e-10)
        assert result.report.schedule.startswith("failover:")
        assert inj.dead_devices() == frozenset({1})
        assert inj.log.count("link_partition", "injected") >= 1

    def test_no_survivors_is_a_typed_configuration_error(self):
        inj = FaultInjector(
            FaultPlan(faults=tuple(DeviceFailure(device=d) for d in range(2)))
        )
        with pytest.raises(ConfigurationError):
            DistributedSolver(2, faults=inj).solve(
                generators.random_dominant(2, 2048, rng=2)
            )

    def test_environmental_slowdowns_price_into_the_report(self):
        batch = generators.random_dominant(4, 4096, rng=3)
        base = DistributedSolver(4).solve(batch).report.total_ms
        skewed = (
            DistributedSolver(
                4, faults=FaultPlan(faults=(ClockSkew(device=0, factor=8.0),))
            )
            .solve(batch)
            .report.total_ms
        )
        degraded = (
            DistributedSolver(
                4, faults=FaultPlan(faults=(LinkDegradation(8.0),))
            )
            .solve(batch)
            .report.total_ms
        )
        assert skewed > base
        assert degraded > base

    def test_failover_report_splices_recovery_after_abort(self):
        batch = generators.random_dominant(3, 4096, rng=4)
        aborted = DistributedSolver(4, mode="rows").solve(batch).report
        recovery = DistributedSolver(3, mode="rows").solve(batch).report
        combined = failover_report(aborted, recovery, survivor_ids=(0, 1, 3))
        assert combined.schedule == f"failover:{recovery.schedule}"
        assert combined.group_label == aborted.group_label
        assert combined.total_ms == pytest.approx(
            aborted.total_ms + recovery.total_ms
        )


class TestCircuitBreaker:
    def test_state_machine_with_injected_clock(self):
        now = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=2, cooldown_s=10.0, clock=lambda: now[0]
        )
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()
        # Cooldown lapses: half-open probes are allowed through.
        now[0] = 10.0
        assert breaker.state == "half_open" and breaker.allow()
        # A half-open failure re-opens immediately (streak irrelevant).
        breaker.record_failure()
        assert breaker.state == "open"
        now[0] = 20.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.times_opened == 2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ConfigurationError):
            CircuitBreaker(cooldown_s=-1.0)


class TestServiceRecovery:
    def test_deadline_expiry_is_typed_and_counted(self):
        with BatchSolveService(DEVICE, SWITCH) as svc:
            fut = svc.submit(
                generators.random_dominant(1, 64, rng=0), deadline_ms=0.0
            )
            svc.flush()
            with pytest.raises(DeadlineExceededError):
                fut.result(timeout=30)
            assert svc.stats.snapshot()["requests_deadline_expired"] == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_bisection_isolates_the_poison_request(self):
        """One hopeless governed request merged with five good ones: the
        good five still solve bit-correctly, only the poison fails.

        (Exactly singular systems no longer reach the solver — submit
        rejects them typed — so the poison is a valid near-singular
        system the exact verifier rejects.)
        """
        from repro.util.errors import NumericsError

        good = [generators.random_dominant(1, 64, rng=i) for i in range(5)]
        poison = generators.ill_conditioned(1, 64, epsilon=1e-13, rng=9)
        with BatchSolveService(DEVICE, SWITCH, verify=True) as svc:
            good_futs = [svc.submit(b) for b in good[:3]]
            poison_fut = svc.submit(poison)
            good_futs += [svc.submit(b) for b in good[3:]]
            svc.flush()
            for batch, fut in zip(good, good_futs):
                res = fut.result(timeout=30)
                np.testing.assert_array_equal(
                    res.x, MultiStageSolver(DEVICE, SWITCH).solve(batch).x
                )
            with pytest.raises(NumericsError):
                poison_fut.result(timeout=30)
            snap = svc.stats.snapshot()
        assert snap["group_bisections"] >= 1
        assert snap["requests_completed"] == 5
        assert snap["requests_failed"] == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_breaker_sheds_after_consecutive_failures(self):
        from repro.util.errors import NumericalBreakdownError

        poison = generators.ill_conditioned(1, 64, epsilon=1e-13, rng=9)
        breaker = CircuitBreaker(failure_threshold=2, cooldown_s=60.0)
        with BatchSolveService(DEVICE, SWITCH, breaker=breaker) as svc:
            for _ in range(2):
                fut = svc.submit(poison, tolerance=1e-12)
                svc.flush()
                with pytest.raises(NumericalBreakdownError):
                    fut.result(timeout=30)
            assert breaker.state == "open"
            with pytest.raises(ServiceOverloadedError):
                svc.submit(generators.random_dominant(1, 64, rng=0))
            assert svc.stats.snapshot()["requests_shed"] == 1

    def test_worker_stalls_are_logged_and_surfaced_in_stats(self):
        plan = FaultPlan(
            seed=0, faults=(WorkerStall(probability=1.0, stall_ms=1.0),)
        )
        with BatchSolveService(DEVICE, SWITCH, faults=plan) as svc:
            batch = generators.random_dominant(1, 64, rng=0)
            fut = svc.submit(batch)
            svc.flush()
            res = fut.result(timeout=30)
            np.testing.assert_array_equal(
                res.x, MultiStageSolver(DEVICE, SWITCH).solve(batch).x
            )
            snap = svc.stats.snapshot()
        assert svc.faults.log.count("stall", "injected") >= 1
        assert snap["faults"]["counts"]["stall:injected"] >= 1
        assert snap["faults"]["overhead_ms"] > 0.0

    def test_transient_faults_inside_the_service_still_answer_right(self):
        plan = FaultPlan(
            seed=0,
            faults=(TransientKernelFault(probability=1.0, max_failures=1),),
            retry=RetryPolicy(max_attempts=4, budget=16),
        )
        batch = generators.random_dominant(2, 100, rng=5)
        with BatchSolveService(DEVICE, SWITCH, verify=True, faults=plan) as svc:
            (res,) = svc.solve_many([batch])
        np.testing.assert_array_equal(
            res.x, MultiStageSolver(DEVICE, SWITCH).solve(batch).x
        )
        assert svc.faults.log.count("transient", "retried") == 1


class TestInjectorViews:
    def test_views_map_local_indices_to_global_ids(self):
        root = FaultInjector(FaultPlan())
        member = root.for_device(2)
        assert member.global_id(0) == 2
        survivors = root.for_survivors((0, 1, 3))
        assert [survivors.global_id(i) for i in range(3)] == [0, 1, 3]
        # Views compose: the survivors' member 2 is global device 3.
        nested = survivors.for_device(2)
        assert nested.global_id(0) == 3

    def test_views_share_one_runtime(self):
        root = FaultInjector(FaultPlan())
        root.for_device(1).fail_device(root.for_device(1).global_id(0))
        assert root.dead_devices() == frozenset({1})

    def test_check_link_marks_peer_dead_and_raises(self):
        inj = FaultInjector(FaultPlan(faults=(LinkPartition(0, 2),)))
        inj.check_link(0, 1)  # healthy link: no-op
        with pytest.raises(DeviceLostError) as excinfo:
            inj.check_link(0, 2, label="test")
        assert excinfo.value.device == 2
        assert inj.dead_devices() == frozenset({2})
        with inj.paused():
            inj.check_link(0, 2)  # pricing/planning never trips links

    def test_maybe_stall_respects_pause_and_absence(self):
        quiet = FaultInjector(FaultPlan())
        assert quiet.maybe_stall() == 0.0
        stalling = FaultInjector(
            FaultPlan(faults=(WorkerStall(probability=1.0, stall_ms=0.1),))
        )
        with stalling.paused():
            assert stalling.maybe_stall() == 0.0
        assert stalling.maybe_stall("label") > 0.0


def test_concurrent_injector_use_is_thread_safe():
    """Many threads hammering one injector's counters and log stay
    consistent — the service shares one injector across its workers."""
    plan = FaultPlan(
        seed=0, faults=(WorkerStall(probability=0.5, stall_ms=0.0),)
    )
    inj = FaultInjector(plan)
    threads = [
        threading.Thread(target=lambda: [inj.maybe_stall() for _ in range(50)])
        for _ in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert inj._rt.stall_seq == 400
