"""Unit tests for the async serving tier's building blocks.

Covers the sharded tuning cache (stable mapping, counters, replay),
per-tenant admission (quota order, typed errors, starvation
prevention via pending caps), the resizable worker fleet and its
most-recently-idle handoff, the relay that resolves the asyncio
frontend's futures, the metrics-driven autoscaler, and the
serving-tier additions to the service primitives (breaker probes,
queue-wait histogram, histogram quantiles).
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

from repro.core import MultiStageSolver
from repro.core.config import SwitchPoints
from repro.obs import MetricsRegistry
from repro.serve import (
    PRIORITIES,
    AdmissionController,
    AsyncSolveService,
    Autoscaler,
    AutoscalerPolicy,
    ScalableWorkerFleet,
    ShardedTuningCache,
    TenantQuota,
)
from repro.serve.frontend import _LoopRelay
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
# ScalableWorkerFleet
# ---------------------------------------------------------------------------


class TestFleet:
    def test_executes_submitted_work(self):
        fleet = ScalableWorkerFleet(2)
        try:
            futures = [fleet.submit(lambda v=i: v * v) for i in range(8)]
            assert sorted(f.result(timeout=5) for f in futures) == [
                i * i for i in range(8)
            ]
        finally:
            fleet.shutdown()

    def test_resize_up_and_down(self):
        fleet = ScalableWorkerFleet(1)
        try:
            assert fleet.resize(4) == 3
            assert fleet.size == 4
            assert fleet.resize(2) == -2
            assert fleet.size == 2
            # Still serves work after shrinking.
            assert fleet.submit(lambda: 42).result(timeout=5) == 42
        finally:
            fleet.shutdown()

    def test_shrink_does_not_interrupt_running_work(self):
        fleet = ScalableWorkerFleet(2)
        release = threading.Event()
        try:
            slow = fleet.submit(release.wait, 5)
            fleet.resize(1)
            release.set()
            assert slow.result(timeout=5) is True
        finally:
            fleet.shutdown()

    def test_gauge_tracks_width(self):
        registry = MetricsRegistry()
        fleet = ScalableWorkerFleet(2)
        try:
            fleet.attach_metrics(registry)
            gauge = registry.get("repro_serve_fleet_workers")
            assert gauge.value() == 2
            fleet.resize(5)
            assert gauge.value() == 5
        finally:
            fleet.shutdown()
            assert gauge.value() == 0

    def test_shutdown_is_idempotent_and_rejects_after(self):
        fleet = ScalableWorkerFleet(1)
        fleet.shutdown()
        fleet.shutdown()
        with pytest.raises(ConfigurationError):
            fleet.submit(lambda: 1)
        with pytest.raises(ConfigurationError):
            fleet.resize(2)

    def test_worker_exceptions_propagate_via_future(self):
        fleet = ScalableWorkerFleet(1)
        try:

            def boom():
                raise ValueError("nope")

            with pytest.raises(ValueError):
                fleet.submit(boom).result(timeout=5)
        finally:
            fleet.shutdown()

    def test_an_idle_worker_drops_its_finished_task(self):
        fleet = ScalableWorkerFleet(2)
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
        fleet = ScalableWorkerFleet(2)
        try:
            idents = {
                fleet.submit(threading.get_ident).result(timeout=5)
                for _ in range(50)
            }
            assert len(idents) == 1
        finally:
            fleet.shutdown()

    def test_a_shrink_keeps_the_warm_worker(self):
        fleet = ScalableWorkerFleet(2)
        try:
            # Both workers run at once, so both have started and gone idle.
            barrier = threading.Barrier(2)

            def meet():
                barrier.wait(5)
                return threading.get_ident()

            both = {f.result(timeout=5) for f in [fleet.submit(meet), fleet.submit(meet)]}
            assert len(both) == 2
            warm = fleet.submit(threading.get_ident).result(timeout=5)
            fleet.resize(1)
            for _ in range(20):
                assert fleet.submit(threading.get_ident).result(timeout=5) == warm
            for cold in [t for t in threading.enumerate() if t.ident in both - {warm}]:
                cold.join(timeout=5)
                assert not cold.is_alive()
        finally:
            fleet.shutdown()


    def test_concurrent_submits_and_resizes_lose_no_task(self):
        fleet = ScalableWorkerFleet(3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            futures = [[] for _ in range(4)]

            def submitter(out):
                for i in range(200):
                    out.append(fleet.submit(lambda v=i: v))

            def resizer():
                for width in (6, 1, 4, 2, 5, 3) * 5:
                    fleet.resize(width)

            threads = [threading.Thread(target=submitter, args=(out,)) for out in futures]
            threads.append(threading.Thread(target=resizer))
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
        assert fleet.size == 0


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


# ---------------------------------------------------------------------------
# Autoscaler
# ---------------------------------------------------------------------------


class _FakeFleet:
    def __init__(self, size=2):
        self._size = size
        self.resizes = []

    @property
    def size(self):
        return self._size

    def resize(self, n):
        self.resizes.append(n)
        self._size = n


class TestAutoscaler:
    def _setup(self, policy=None):
        registry = MetricsRegistry()
        depth = registry.gauge(Autoscaler.DEPTH_METRIC, "")
        hist = registry.histogram(Autoscaler.LATENCY_METRIC, "")
        fleet = _FakeFleet(2)
        scaler = Autoscaler(fleet, registry, policy)
        return registry, depth, hist, fleet, scaler

    def test_scales_up_proportionally_on_backlog(self):
        _, depth, _, fleet, scaler = self._setup(
            AutoscalerPolicy(max_workers=16, target_queue_per_worker=4.0)
        )
        depth.set(40.0)  # 40 queued / target 4 => wants 10 workers
        decision = scaler.tick()
        assert decision.action == "up"
        assert decision.reason == "queue_depth"
        assert fleet.size == 10

    def test_scales_up_on_latency_slo_breach(self):
        _, depth, hist, fleet, scaler = self._setup(
            AutoscalerPolicy(max_workers=8, latency_slo_ms=10.0)
        )
        depth.set(1.0)  # no backlog
        for _ in range(100):
            hist.observe(50.0)  # p99 far over the 10 ms SLO
        decision = scaler.tick()
        assert decision.action == "up"
        assert decision.reason == "latency_slo"
        assert fleet.size == 3

    def test_scales_down_slowly_after_calm_ticks(self):
        _, depth, _, fleet, scaler = self._setup(
            AutoscalerPolicy(idle_ticks_down=3, cooldown_ticks=0)
        )
        fleet._size = 4
        depth.set(0.0)
        actions = [scaler.tick().action for _ in range(3)]
        assert actions == ["hold", "hold", "down"]
        assert fleet.size == 3

    def test_cooldown_suppresses_flapping(self):
        _, depth, _, fleet, scaler = self._setup(
            AutoscalerPolicy(max_workers=16, cooldown_ticks=2)
        )
        depth.set(100.0)
        assert scaler.tick().action == "up"
        assert scaler.tick().reason == "cooldown"
        assert scaler.tick().reason == "cooldown"
        assert scaler.tick().action in ("up", "hold")

    def test_respects_max_workers(self):
        _, depth, _, fleet, scaler = self._setup(
            AutoscalerPolicy(max_workers=4, cooldown_ticks=0)
        )
        depth.set(10_000.0)
        scaler.tick()
        assert fleet.size == 4
        assert scaler.tick().reason in ("at_max", "cooldown")

    def test_decisions_recorded_as_metrics_and_spans(self):
        from repro.obs import Tracer

        registry = MetricsRegistry()
        depth = registry.gauge(Autoscaler.DEPTH_METRIC, "")
        tracer = Tracer()
        fleet = _FakeFleet(1)
        scaler = Autoscaler(
            fleet,
            registry,
            AutoscalerPolicy(max_workers=8),
            tracer=tracer,
        )
        depth.set(50.0)
        scaler.tick(now_ms=123.0)
        counter = registry.get("repro_serve_autoscaler_decisions_total")
        assert counter.value(action="up") == 1
        gauge = registry.get("repro_serve_autoscaler_target_workers")
        assert gauge.value() > 1
        spans = [s for s in tracer.spans() if s.category == "autoscale"]
        assert len(spans) == 1
        assert spans[0].attr("action") == "up"

    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            AutoscalerPolicy(min_workers=0)
        with pytest.raises(ConfigurationError):
            AutoscalerPolicy(min_workers=8, max_workers=4)
        with pytest.raises(ConfigurationError):
            AutoscalerPolicy(target_queue_per_worker=0.0)


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
    def test_qsize_matches_pending(self):
        q = BoundedRequestQueue(max_pending=4)
        q.put("a")
        q.put("b")
        assert q.qsize() == 2 == q.pending == len(q)
        q.drain()
        assert q.qsize() == 0

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


class TestHistogramQuantile:
    def test_quantile_walks_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", "", buckets=(1.0, 10.0, 100.0))
        for v in (0.5, 0.5, 5.0, 50.0):
            hist.observe(v)
        assert hist.quantile(0.5) == 1.0  # 2/4 inside the 1.0 bucket
        assert hist.quantile(0.75) == 10.0
        assert hist.quantile(1.0) == 100.0

    def test_quantile_empty_and_bounds(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", "")
        assert hist.quantile(0.99) == 0.0
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_quantile_caps_at_last_finite_bound(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", "", buckets=(1.0, 2.0))
        hist.observe(1000.0)
        assert hist.quantile(0.99) == 2.0
