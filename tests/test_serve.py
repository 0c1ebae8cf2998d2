"""Unit tests for the async serving tier's building blocks.

Covers the opt-in sharded tuning cache (stable mapping, counters,
replay) and the tier's default cache, per-tenant admission (quota order, typed errors, starvation
prevention via pending caps), the fixed worker fleet and its
most-recently-idle handoff, the relay that resolves the asyncio
frontend's futures, and the serving-tier additions to the service
primitives (breaker probes, queue-wait histogram).
"""

import asyncio
import gc
import logging
import sys
import threading
import time
import weakref
from concurrent.futures import Future

import numpy as np
import pytest

from repro.core import MultiStageSolver, TuningCache
from repro.core.config import SwitchPoints
from repro.obs import MetricsRegistry
from repro.serve import (
    PRIORITIES,
    AdmissionController,
    AsyncSolveService,
    ShardedTuningCache,
    TenantQuota,
)
from repro.serve.frontend import _LoopRelay
from repro.service import WorkerFleet
from repro.service.queue import BoundedRequestQueue, CircuitBreaker
from repro.systems import generators
from repro.util.errors import (
    ConfigurationError,
    PriorityShedError,
    ServiceOverloadedError,
    TenantQuotaExceededError,
)

pytestmark = pytest.mark.serve

SWITCH = SwitchPoints(
    stage1_target_systems=16, stage3_system_size=256, thomas_switch=64
)


# ---------------------------------------------------------------------------
# ShardedTuningCache
# ---------------------------------------------------------------------------


class TestShardedCache:
    def test_mapping_is_stable_and_total(self):
        cache = ShardedTuningCache(4)
        for dsize in (4, 8):
            idx = ShardedTuningCache.shard_index(
                f"gtx470|{dsize}|generic", 4
            )
            assert 0 <= idx < 4
            # Same key always lands on the same shard.
            assert idx == ShardedTuningCache.shard_index(
                f"gtx470|{dsize}|generic", 4
            )
        assert len(cache) == 0

    def test_get_put_roundtrip_and_counters(self):
        cache = ShardedTuningCache(4)
        assert cache.get("gtx470", 8) is None
        cache.put("gtx470", 8, SWITCH)
        assert cache.get("gtx470", 8) == SWITCH
        counters = cache.counters()
        assert counters["hits"] == 1
        assert counters["misses"] == 1
        assert counters["entries"] == 1
        # Per-shard counters sum to the aggregate.
        per_shard = cache.shard_counters()
        assert sum(c["hits"] for c in per_shard) == 1
        assert sum(c["misses"] for c in per_shard) == 1

    def test_get_or_tune_tunes_once(self):
        cache = ShardedTuningCache(2)
        calls = []

        def tune():
            calls.append(1)
            return SWITCH

        assert cache.get_or_tune("gtx470", 4, tune) == SWITCH
        assert cache.get_or_tune("gtx470", 4, tune) == SWITCH
        assert len(calls) == 1

    def test_distinct_keys_spread_over_shards(self):
        shards = {
            ShardedTuningCache.shard_index(f"device{i}|8|generic", 8)
            for i in range(64)
        }
        assert len(shards) > 1

    def test_attach_metrics_replays_per_shard(self):
        cache = ShardedTuningCache(2)
        cache.put("gtx470", 8, SWITCH)
        cache.get("gtx470", 8)
        registry = MetricsRegistry()
        cache.attach_metrics(registry)
        metric = registry.get("repro_tuning_cache_lookups_total")
        assert metric is not None
        rendered = registry.render()
        assert 'shard="' in rendered

    def test_contention_counter_counts_concurrent_probes(self):
        cache = ShardedTuningCache(1)
        shard = cache.shard_for("gtx470", 8)
        # Hold the single shard's lock while another thread probes it.
        with shard._lock:
            t = threading.Thread(
                target=lambda: cache.shard_for("gtx470", 8)
            )
            t.start()
            t.join()
        assert cache.counters()["contended"] >= 1

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ConfigurationError):
            ShardedTuningCache(0)

    def test_persistence_roundtrip(self, tmp_path):
        base = tmp_path / "tuned.json"
        cache = ShardedTuningCache(2, base)
        cache.put("gtx470", 8, SWITCH)
        reloaded = ShardedTuningCache(2, base)
        assert reloaded.get("gtx470", 8) == SWITCH


# ---------------------------------------------------------------------------
# AdmissionController
# ---------------------------------------------------------------------------


class TestAdmission:
    def test_admits_until_pending_quota_then_sheds_typed(self):
        ctl = AdmissionController(
            capacity=100, default_quota=TenantQuota(max_pending=2)
        )
        t1 = ctl.admit("a")
        ctl.admit("a")
        with pytest.raises(TenantQuotaExceededError) as err:
            ctl.admit("a")
        assert err.value.tenant == "a"
        assert err.value.quota == "pending"
        # Releasing frees the slot.
        ctl.release(t1)
        ctl.admit("a")

    def test_rate_quota_refills_on_injected_clock(self):
        now = [0.0]
        ctl = AdmissionController(
            capacity=100,
            default_quota=TenantQuota(
                max_pending=100, rate_per_s=10.0, burst=2
            ),
            clock=lambda: now[0],
        )
        ctl.admit("a")
        ctl.admit("a")
        with pytest.raises(TenantQuotaExceededError) as err:
            ctl.admit("a")
        assert err.value.quota == "rate"
        now[0] += 0.1  # one token refilled
        ctl.admit("a")

    def test_priority_watermarks_shed_lowest_class_first(self):
        ctl = AdmissionController(
            capacity=10, default_quota=TenantQuota(max_pending=100)
        )
        # Fill to just under batch's 50% watermark.
        for _ in range(5):
            ctl.admit("a", "interactive")
        # batch is now over its watermark; standard and interactive OK.
        with pytest.raises(PriorityShedError) as err:
            ctl.admit("b", "batch")
        assert err.value.priority == "batch"
        for _ in range(3):
            ctl.admit("b", "standard")
        with pytest.raises(PriorityShedError):
            ctl.admit("b", "standard")  # 8/10 = standard's 80% ceiling
        ctl.admit("b", "interactive")
        ctl.admit("b", "interactive")
        with pytest.raises(PriorityShedError) as err:
            ctl.admit("b", "interactive")  # the tier is genuinely full
        assert err.value.priority == "interactive"

    def test_tenant_default_priority_and_override(self):
        ctl = AdmissionController(
            capacity=10,
            quotas={"batchy": TenantQuota(priority="batch")},
        )
        assert ctl.admit("batchy").priority == "batch"
        assert ctl.admit("batchy", "interactive").priority == "interactive"

    def test_snapshot_and_pending(self):
        ctl = AdmissionController(capacity=10)
        ctl.admit("a", "interactive")
        ctl.admit("b", "batch")
        assert ctl.pending() == 2
        assert ctl.pending("a") == 1
        snap = ctl.snapshot()
        assert snap["by_priority"]["interactive"] == 1
        assert snap["by_tenant"] == {"a": 1, "b": 1}

    def test_metrics_count_admits_and_sheds(self):
        registry = MetricsRegistry()
        ctl = AdmissionController(
            capacity=10, default_quota=TenantQuota(max_pending=1)
        )
        ctl.attach_metrics(registry)
        ctl.admit("a")
        with pytest.raises(TenantQuotaExceededError):
            ctl.admit("a")
        admitted = registry.get("repro_serve_admitted_total")
        shed = registry.get("repro_serve_shed_total")
        assert admitted.value(tenant="a", priority="standard") == 1
        assert shed.value(tenant="a", reason="tenant_pending") == 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AdmissionController(capacity=0)
        with pytest.raises(ConfigurationError):
            TenantQuota(max_pending=0)
        with pytest.raises(ConfigurationError):
            TenantQuota(priority="urgent")
        with pytest.raises(ConfigurationError):
            AdmissionController(watermarks={"urgent": 1.0})
        with pytest.raises(ConfigurationError):
            AdmissionController().admit("a", "urgent")

    def test_priorities_ordering_is_documented(self):
        assert PRIORITIES == ("batch", "standard", "interactive")


# ---------------------------------------------------------------------------
# WorkerFleet
# ---------------------------------------------------------------------------


class TestFleet:
    def test_executes_submitted_work(self):
        fleet = WorkerFleet(2)
        try:
            futures = [fleet.submit(lambda v=i: v * v) for i in range(8)]
            assert sorted(f.result(timeout=5) for f in futures) == [
                i * i for i in range(8)
            ]
        finally:
            fleet.shutdown()

    def test_shutdown_does_not_interrupt_running_work(self):
        fleet = WorkerFleet(2)
        started, release = threading.Event(), threading.Event()

        def slow():
            started.set()
            return release.wait(5)

        running = fleet.submit(slow)
        assert started.wait(5)
        queued = [fleet.submit(lambda v=i: v) for i in range(4)]
        fleet.shutdown(wait=False)  # while ``slow`` runs
        release.set()
        assert running.result(timeout=5) is True
        assert [f.result(timeout=5) for f in queued] == list(range(4))

    def test_shutdown_is_idempotent_and_rejects_after(self):
        fleet = WorkerFleet(1)
        fleet.shutdown()
        fleet.shutdown()
        with pytest.raises(ConfigurationError):
            fleet.submit(lambda: 1)

    def test_worker_exceptions_propagate_via_future(self):
        fleet = WorkerFleet(1)
        try:

            def boom():
                raise ValueError("nope")

            with pytest.raises(ValueError):
                fleet.submit(boom).result(timeout=5)
        finally:
            fleet.shutdown()

    def test_an_idle_worker_drops_its_finished_task(self):
        fleet = WorkerFleet(2)
        try:
            payload = _Payload()
            alive = weakref.ref(payload)
            future = fleet.submit(lambda p: None, payload)
            del payload
            assert future.result(timeout=5) is None
            assert alive() is None
        finally:
            fleet.shutdown()

    def test_sequential_tasks_run_on_one_thread(self):
        fleet = WorkerFleet(2)
        try:
            idents = {
                fleet.submit(threading.get_ident).result(timeout=5)
                for _ in range(50)
            }
            assert len(idents) == 1
        finally:
            fleet.shutdown()

    def test_concurrent_submits_lose_no_task(self):
        fleet = WorkerFleet(3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            futures = [[] for _ in range(4)]

            def submitter(out):
                for i in range(200):
                    out.append(fleet.submit(lambda v=i: v))

            threads = [threading.Thread(target=submitter, args=(out,)) for out in futures]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            for out in futures:
                assert [f.result(timeout=30) for f in out] == list(range(200))
        finally:
            sys.setswitchinterval(interval)
            fleet.shutdown()
        assert not any(t.is_alive() for t in fleet._threads)


class _Payload:
    """A task argument a weak reference can watch."""


# ---------------------------------------------------------------------------
# The asyncio frontend's relay
# ---------------------------------------------------------------------------


def _four_groups():
    """Eight requests, two per system size, so four merged groups."""
    return [
        generators.random_dominant(2, n, rng=i)
        for i, n in enumerate((64, 128, 256, 512) * 2)
    ]


def _standalone(batch):
    return MultiStageSolver("gtx470", SWITCH).solve(batch).x


class TestLoopRelay:
    def test_a_flush_wakes_the_loop_once(self):
        batches = _four_groups()
        loop = asyncio.new_event_loop()
        wakeups = []
        call_soon_threadsafe = loop.call_soon_threadsafe

        def counted(*args, **kwargs):
            wakeups.append(args[0])
            return call_soon_threadsafe(*args, **kwargs)

        loop.call_soon_threadsafe = counted
        service = AsyncSolveService("gtx470", SWITCH, workers=2)

        async def wave():
            futures = [await service.submit(batch) for batch in batches]
            # The loop stays idle while the flush runs to completion.
            assert service.flush() == 4
            service.drain()
            return await asyncio.gather(*futures)

        try:
            results = loop.run_until_complete(wave())
        finally:
            service.close()
            loop.close()
        assert len(wakeups) == 1
        for batch, result in zip(batches, results):
            assert np.array_equal(result.x, _standalone(batch))

    @pytest.mark.parametrize("reaches_request", [True, False])
    def test_cancelling_one_request_is_quiet(self, caplog, reaches_request):
        batches = [generators.random_dominant(2, 256, rng=i) for i in range(4)]
        service = AsyncSolveService("gtx470", SWITCH, workers=2)

        async def wave():
            futures = [await service.submit(batch) for batch in batches]
            futures[1].cancel()
            if reaches_request:
                await asyncio.sleep(0)  # the cancellation reaches the request
            service.flush()
            mates = [f for i, f in enumerate(futures) if i != 1]
            return await asyncio.wait_for(asyncio.gather(*mates), timeout=10)

        caplog.set_level(logging.WARNING)
        try:
            results = asyncio.run(wave())
            service.drain()
        finally:
            service.close()
        for batch, result in zip(batches[:1] + batches[2:], results):
            assert np.array_equal(result.x, _standalone(batch))
        assert not caplog.records

    def test_posts_from_many_threads_all_arrive(self):
        relay = _LoopRelay()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)

        async def wave():
            loop = asyncio.get_running_loop()
            requests = [Future() for _ in range(400)]
            awaited = [relay.wrap(r, loop) for r in requests]

            def settle(share):
                for i in share:
                    requests[i].set_result(i)

            threads = [
                threading.Thread(target=settle, args=(range(k, 400, 4),)) for k in range(4)
            ]
            for t in threads:
                t.start()
            results = await asyncio.wait_for(asyncio.gather(*awaited), timeout=30)
            for t in threads:
                t.join(timeout=5)
                assert not t.is_alive()
            return results

        try:
            assert asyncio.run(wave()) == list(range(400))
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("drain_pending", [True, False])
    def test_a_closed_loop_gets_nothing_and_is_not_kept_alive(self, caplog, drain_pending):
        batches = _four_groups()[:2]
        service = AsyncSolveService("gtx470", SWITCH, workers=1)
        loop = asyncio.new_event_loop()

        async def submit_all():
            return [await service.submit(batch) for batch in batches]

        caplog.set_level(logging.WARNING)
        try:
            futures = loop.run_until_complete(submit_all())
            if drain_pending:
                # Both answers wait in one scheduled drain when the loop closes.
                service.flush()
                service.drain()
                loop.close()
            else:
                # The answers arrive after the loop closed.
                loop.close()
                service.flush()
                service.drain()
            assert not any(f.done() for f in futures)
            closed = weakref.ref(loop)
            del futures, loop
            gc.collect()
            assert closed() is None
        finally:
            service.close()
        assert not caplog.records

    def test_an_error_escaping_a_group_reaches_its_awaited_futures(self, monkeypatch):
        batches = [generators.random_dominant(2, n, rng=i) for i, n in enumerate((64, 128, 256))]
        service = AsyncSolveService("gtx470", SWITCH, workers=2)
        run_group = service.service._run_group

        def middle_fails(group):
            if group.key.system_size == 128:
                raise RuntimeError("injected group failure")
            run_group(group)

        monkeypatch.setattr(service.service, "_run_group", middle_fails)

        async def wave():
            futures = [await service.submit(batch) for batch in batches]
            assert service.flush() == 3
            return await asyncio.wait_for(
                asyncio.gather(*futures, return_exceptions=True), timeout=10
            )

        try:
            first, middle, last = asyncio.run(wave())
            with pytest.raises(RuntimeError, match="injected group failure"):
                service.drain()
        finally:
            service.close()
        assert isinstance(middle, RuntimeError)
        assert np.array_equal(first.x, _standalone(batches[0]))
        assert np.array_equal(last.x, _standalone(batches[2]))

    def test_the_default_cache_is_one_tuning_cache(self):
        with AsyncSolveService() as service:
            assert type(service.cache) is TuningCache
            assert service.service.cache is service.cache


class TestFrontend:
    def test_autoscale_accepts_only_false_and_starts_no_thread(self):
        before = threading.active_count()
        with pytest.raises(ConfigurationError, match="autoscale"):
            AsyncSolveService("gtx470", SWITCH, workers=2, autoscale=True)
        assert threading.active_count() == before
        service = AsyncSolveService("gtx470", SWITCH, workers=2, autoscale=False)
        try:
            assert threading.active_count() == before + 2
        finally:
            service.close()
        assert threading.active_count() == before


# ---------------------------------------------------------------------------
# Serving-tier additions to the service primitives
# ---------------------------------------------------------------------------


class TestBreakerProbes:
    def test_multi_probe_half_open_requires_streak(self):
        now = [0.0]
        brk = CircuitBreaker(
            failure_threshold=1,
            cooldown_s=1.0,
            clock=lambda: now[0],
            half_open_probes=3,
        )
        brk.record_failure()
        assert brk.state == "open"
        now[0] += 1.0
        assert brk.state == "half_open"
        brk.record_success()
        assert brk.state == "half_open"  # 1/3 probes
        brk.record_success()
        assert brk.state == "half_open"  # 2/3 probes
        brk.record_success()
        assert brk.state == "closed"
        assert brk.probe_ok == 3

    def test_probe_failure_reopens_and_resets_streak(self):
        now = [0.0]
        brk = CircuitBreaker(
            failure_threshold=1,
            cooldown_s=1.0,
            clock=lambda: now[0],
            half_open_probes=2,
        )
        brk.record_failure()
        now[0] += 1.0
        brk.record_success()  # probe 1 ok
        brk.record_failure()  # probe fails: back to open
        assert brk.state == "open"
        assert brk.probe_fail == 1
        now[0] += 1.0
        brk.record_success()
        brk.record_success()  # needs the full streak again
        assert brk.state == "closed"

    def test_probe_metrics_replay_on_attach(self):
        now = [0.0]
        brk = CircuitBreaker(
            failure_threshold=1, cooldown_s=0.0, clock=lambda: now[0],
            half_open_probes=2,
        )
        brk.record_failure()
        brk.record_success()  # half-open probe (cooldown 0)
        registry = MetricsRegistry()
        brk.attach_metrics(registry)
        probes = registry.get("repro_service_breaker_probes_total")
        assert probes.value(outcome="probe_ok") == 1

    def test_default_single_probe_closes_immediately(self):
        now = [0.0]
        brk = CircuitBreaker(
            failure_threshold=1, cooldown_s=0.0, clock=lambda: now[0]
        )
        brk.record_failure()
        brk.record_success()
        assert brk.state == "closed"

    def test_rejects_bad_probe_count(self):
        with pytest.raises(ConfigurationError):
            CircuitBreaker(half_open_probes=0)


class TestQueueServing:
    def test_wait_histogram_observes_every_put(self):
        registry = MetricsRegistry()
        q = BoundedRequestQueue(max_pending=4)
        q.attach_metrics(registry)
        q.put("a")
        hist = registry.get("repro_service_queue_wait_ms")
        assert hist.count() == 1

    def test_wait_histogram_records_blocked_time(self):
        registry = MetricsRegistry()
        q = BoundedRequestQueue(max_pending=1, policy="block")
        q.attach_metrics(registry)
        q.put("a")

        def drain_later():
            time.sleep(0.05)
            q.drain()

        t = threading.Thread(target=drain_later)
        t.start()
        q.put("b")  # blocks ~50 ms until the drain
        t.join()
        hist = registry.get("repro_service_queue_wait_ms")
        assert hist.count() == 2
        assert hist.sum() >= 10.0  # the blocked put shows up

    def test_timed_out_put_still_observed(self):
        registry = MetricsRegistry()
        q = BoundedRequestQueue(max_pending=1, policy="block")
        q.attach_metrics(registry)
        q.put("a")
        with pytest.raises(ServiceOverloadedError):
            q.put("b", timeout=0.01)
        hist = registry.get("repro_service_queue_wait_ms")
        assert hist.count() == 2
