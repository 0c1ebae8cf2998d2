"""Tests for the multi-device distributed solver and its integrations.

The load-bearing property: for every mode, device count, dtype, and
system shape, :class:`DistributedSolver` produces the same answer as the
single-device :class:`MultiStageSolver` (to <= 1e-10 relative error in
float64 — the SPIKE reduced system is the only extra arithmetic).
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core import solve
from repro.core.dispatch import HybridDispatcher
from repro.core.tuning import TuningCache
from repro.dist import (
    DistributedSolver,
    get_link,
    make_device_group,
    render_dist_timeline,
    working_set_nbytes,
)
from repro.faults import ClockSkew, DeviceFailure, FaultInjector, FaultPlan
from repro.gpu import make_device
from repro.gpu.spec import get_device_spec
from repro.ir import Engine
from repro.numerics import Governor
from repro.service import BatchSolveService
from repro.systems import generators
from repro.util.errors import ConfigurationError, PlanError

pytestmark = pytest.mark.dist

REL_TOL_F64 = 1e-10
REL_TOL_F32 = 1e-4


def rel_error(x, reference):
    return np.abs(x - reference).max() / (np.abs(reference).max() + 1e-300)


def single_device_reference(batch):
    return solve(batch).x


class TestEquivalence:
    @pytest.mark.parametrize("count", [1, 2, 3, 8])
    def test_matches_single_device(self, count):
        batch = generators.random_dominant(3, 1000, rng=count)
        result = DistributedSolver(count, verify=True).solve(batch)
        assert rel_error(result.x, single_device_reference(batch)) <= REL_TOL_F64

    @pytest.mark.parametrize("n", [97, 500, 999, 4097])
    def test_non_power_of_two_sizes(self, n):
        batch = generators.random_dominant(2, n, rng=n)
        result = DistributedSolver(4, verify=True).solve(batch)
        assert rel_error(result.x, single_device_reference(batch)) <= REL_TOL_F64

    def test_float32(self):
        batch = generators.random_dominant(3, 512, rng=5, dtype=np.float32)
        result = DistributedSolver(4, verify=True).solve(batch)
        assert result.x.dtype == np.float32
        assert rel_error(result.x, single_device_reference(batch)) <= REL_TOL_F32

    def test_near_singular_dominant(self):
        # Barely dominant systems stress the reduced solve's conditioning.
        batch = generators.random_dominant(2, 768, dominance=1.02, rng=6)
        result = DistributedSolver(8, verify=True).solve(batch)
        assert rel_error(result.x, single_device_reference(batch)) <= REL_TOL_F64

    def test_batch_mode_is_bit_identical(self):
        # Sharding systems across devices does not touch their arithmetic.
        batch = generators.random_dominant(64, 128, rng=7)
        result = DistributedSolver(4, mode="batch").solve(batch)
        np.testing.assert_array_equal(result.x, single_device_reference(batch))

    def test_rows_mode_agrees(self):
        batch = generators.random_dominant(2, 2048, rng=8)
        result = DistributedSolver(4, mode="rows", verify=True).solve(batch)
        assert result.plan.schedule == "fused"
        assert rel_error(result.x, single_device_reference(batch)) <= REL_TOL_F64


@settings(max_examples=20, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=4),
    n=st.integers(min_value=64, max_value=3000),
    count=st.sampled_from([1, 2, 3, 8]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_dist_equivalence_property(m, n, count, seed):
    """DistributedSolver == MultiStageSolver across shapes and counts."""
    assume(n >= 2 * count)
    batch = generators.random_dominant(m, n, rng=seed)
    result = DistributedSolver(count).solve(batch)
    assert rel_error(result.x, single_device_reference(batch)) <= REL_TOL_F64


class TestCostModel:
    @pytest.mark.parametrize("kind", ["all_to_all", "ring"])
    @pytest.mark.parametrize("mode", ["rows", "batch"])
    def test_makespan_monotone_in_link_latency(self, kind, mode):
        previous = -1.0
        for latency_us in (0.0, 2.0, 20.0, 200.0, 2000.0):
            link = get_link("pcie3").with_(latency_us=latency_us)
            group = make_device_group("gtx470", 8, link, kind)
            _, report = DistributedSolver(group, mode=mode).price(16, 1024, 8)
            assert report.total_ms >= previous - 1e-12
            previous = report.total_ms

    def test_speedup_at_eight_devices(self):
        # The bench's acceptance bar, pinned here so regressions surface
        # in the fast tier: >= 3x at 8 devices on a 2^22-row system.
        one = DistributedSolver(1).price(1, 1 << 22, 8)[1].total_ms
        eight = DistributedSolver(8).price(1, 1 << 22, 8)[1].total_ms
        assert one / eight >= 3.0

    def test_timeline_is_consistent(self):
        batch = generators.random_dominant(2, 4096, rng=9)
        result = DistributedSolver(4).solve(batch)
        report = result.report
        assert report.num_devices == 4
        assert 0.0 < report.compute_utilization <= 1.0
        ends = []
        for timeline in report.timelines:
            for event in timeline.events:
                assert 0.0 <= event.start_ms <= event.end_ms
                assert event.kind in ("compute", "xfer")
                ends.append(event.end_ms)
        assert report.total_ms == pytest.approx(max(ends))
        rendered = render_dist_timeline(report)
        assert "dev0" in rendered and "dev3" in rendered

    def test_price_matches_solve_report(self):
        # The data-free price and the executed solve tell the same story.
        batch = generators.random_dominant(2, 4096, rng=10)
        solver = DistributedSolver(4)
        _, priced = solver.price(2, 4096, 8)
        executed = solver.solve(batch).report
        assert priced.total_ms == pytest.approx(executed.total_ms, rel=1e-9)


# Compute stages of the exchange; every other compute event of a priced
# dist program belongs to a local solve.
EXCHANGE_STAGES = frozenset(
    {
        "reduced_solve",
        "interface_solve",
        "reduced_forward",
        "reduced_backward",
        "reconstruct",
    }
)


def priced_local_ms(report):
    return sum(
        event.duration_ms
        for timeline in report.timelines
        for event in timeline.events
        if event.kind == "compute" and event.label not in EXCHANGE_STAGES
    )


class TestPricedLocalSolves:
    """A dist plan's report prices the local solves that execute."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("topology", ["all_to_all", "ring"])
    @pytest.mark.parametrize(
        "mode, count, m, n",
        [
            ("rows", 1, 2, 2048),
            ("rows", 4, 2, 2048),
            ("approx", 4, 2, 2048),
            ("pipelined", 4, 2, 2048),
            ("batch", 4, 64, 128),
        ],
    )
    def test_priced_local_compute_is_executed(
        self, mode, count, m, n, topology, dtype
    ):
        group = make_device_group("gtx470", count, "pcie3", topology)
        batch = generators.random_dominant(m, n, rng=count, dtype=dtype)
        result = DistributedSolver(group, mode=mode).solve(batch)
        assert result.plan.mode == mode
        executed = sum(r.total_ms for r in result.local_reports)
        assert priced_local_ms(result.report) == pytest.approx(
            executed, rel=1e-12
        )

    def test_auto_plan_prices_its_executed_local_solves(self):
        # At the shape where auto once picked a split exchange that
        # priced a spike solve and a data solve per device (0.98779 ms)
        # while each device ran one 3-RHS solve (0.96779 ms).
        batch = generators.random_dominant(1024, 1024, rng=21)
        result = DistributedSolver(4).solve(batch)
        executed = sum(r.total_ms for r in result.local_reports)
        assert priced_local_ms(result.report) == pytest.approx(
            executed, rel=1e-12
        )


def _count_prices(monkeypatch):
    """The kinds of the programs every later ``Engine.price`` call prices."""
    calls = []
    price = Engine.price

    def counted(self, program):
        calls.append(program.kind)
        return price(self, program)

    monkeypatch.setattr(Engine, "price", counted)
    return calls


class TestPriceMemo:
    def test_fault_free_solves_price_a_plan_once(self, monkeypatch):
        batch = generators.random_dominant(2, 4096, rng=13)
        plan = DistributedSolver(4).plan_for(batch)
        solver = DistributedSolver(4)
        calls = _count_prices(monkeypatch)
        first = solver.execute_plan(batch, plan)
        second = solver.execute_plan(batch, plan)
        assert calls == ["dist"]
        assert second.report is first.report

    def test_solves_under_an_injector_price_every_time(self, monkeypatch):
        # Clock skew and link degradation can move a price between solves.
        batch = generators.random_dominant(2, 4096, rng=14)
        skewed = FaultPlan(faults=(ClockSkew(device=0, factor=8.0),))
        solver = DistributedSolver(4, faults=skewed)
        solver.solve(batch)
        calls = _count_prices(monkeypatch)
        solver.solve(batch)
        solver.solve(batch)
        assert calls == ["dist", "dist"]

    def test_failover_penalty_is_the_aborted_plans_price(self):
        batch = generators.random_dominant(4, 4096, rng=0)
        price = DistributedSolver(4).price(4, 4096, 8)[1].total_ms
        inj = FaultInjector(
            FaultPlan(faults=(DeviceFailure(device=2, at_instruction=0),))
        )
        DistributedSolver(4, faults=inj).solve(batch)
        penalties = [
            e.penalty_ms
            for e in inj.log.events()
            if e.kind == "device_lost" and e.action == "failed_over"
        ]
        assert penalties[0] == price


def _spy_decide(monkeypatch):
    """Every later ``Governor.decide`` call's verdict, in order."""
    verdicts = []
    decide = Governor.decide

    def spied(self, *args, **kwargs):
        decision = decide(self, *args, **kwargs)
        verdicts.append(decision.approx)
        return decision

    monkeypatch.setattr(Governor, "decide", spied)
    return verdicts


def _estimate_first(solver, batch, tolerance):
    """The plan and answer of a governed solve that estimates dominance
    before it prices: the order every plan is held to."""
    m, n = batch.shape
    chunk_rows = n // len(solver.group)
    admissible = Governor().decide(batch, tolerance, chunk_rows).approx
    plan, report = solver.price(
        m, n, 8, tolerance=tolerance if admissible else None
    )
    return plan, report, solver.execute_plan(batch, plan).x


class TestGovernedEstimate:
    """A governed auto solve estimates dominance only when approx wins
    on price, and keeps the plan and answer of estimating first."""

    @pytest.mark.parametrize(
        "devices,batch,calls,mode",
        [
            # Exact rows beat approx on price: no estimate.
            (2, generators.random_dominant(16, 4096, rng=21), [], "rows"),
            # Approx wins on price and the estimate admits it.
            (8, generators.random_dominant(4, 4096, rng=22), [True], "approx"),
            # Approx wins on price, but Poisson has no dominance margin.
            (8, generators.poisson_1d(4, 4096), [False], "rows"),
        ],
        ids=["approx-loses", "approx-admitted", "approx-rejected"],
    )
    def test_estimate_runs_only_when_approx_wins(
        self, monkeypatch, devices, batch, calls, mode
    ):
        plan, report, x = _estimate_first(DistributedSolver(devices), batch, 1e-8)
        verdicts = _spy_decide(monkeypatch)
        result = DistributedSolver(devices).solve(batch, tolerance=1e-8)
        assert verdicts == calls
        assert result.plan == plan and result.plan.mode == mode
        assert result.report.total_ms == report.total_ms
        np.testing.assert_array_equal(result.x.view(np.int64), x.view(np.int64))

    def test_too_few_rows_to_partition_plans_like_an_ungoverned_solve(self):
        # Six rows cannot split into four chunks, so approx never prices.
        batch = generators.random_dominant(8, 6, rng=1)
        governed = DistributedSolver(4).solve(batch, tolerance=1e-8)
        plain = DistributedSolver(4).solve(batch)
        assert governed.plan == plain.plan and governed.plan.mode == "batch"
        np.testing.assert_array_equal(governed.x, plain.x)

    def test_forced_approx_still_estimates_first(self, monkeypatch):
        verdicts = _spy_decide(monkeypatch)
        batch = generators.poisson_1d(4, 4096)
        result = DistributedSolver(8, mode="approx").solve(batch, tolerance=1e-8)
        assert verdicts == [False]
        assert result.plan.mode == "approx"
        assert batch.residual(result.x).max() <= 1e-8


class TestDistPlan:
    def test_signature_ignores_system_count(self):
        solver = DistributedSolver(4)
        plan = solver.price(2, 4096, 8)[0]
        widened = plan.with_num_systems(7)
        assert widened.signature == plan.signature
        assert widened.num_systems == 7

    def test_signature_distinguishes_configurations(self):
        base = DistributedSolver(4).price(2, 4096, 8)[0]
        other_count = DistributedSolver(8).price(2, 4096, 8)[0]
        ring = DistributedSolver(
            make_device_group("gtx470", 4, "pcie3", "ring")
        ).price(2, 4096, 8)[0]
        assert base.signature != other_count.signature
        assert base.signature != ring.signature

    def test_batch_mode_widening_rebalances_shares(self):
        solver = DistributedSolver(4, mode="batch")
        plan = solver.price(8, 128, 8)[0]
        widened = plan.with_num_systems(10)
        assert widened.chunk_sizes == (3, 3, 2, 2)
        assert widened.signature == plan.signature

    def test_execute_rejects_mismatched_plan(self):
        solver = DistributedSolver(4)
        batch = generators.random_dominant(2, 1024, rng=11)
        plan = solver.plan_for(batch)
        other = generators.random_dominant(5, 1024, rng=12)
        with pytest.raises(PlanError):
            solver.execute_plan(other, plan)
        solver.execute_plan(other, plan.with_num_systems(5))

    def test_infeasible_configurations_raise(self):
        # 16 devices need >= 32 rows in rows mode; off-chip systems
        # cannot shard in batch mode; nothing feasible raises.
        with pytest.raises(ConfigurationError):
            DistributedSolver(16, mode="rows").price(1, 20, 8)
        with pytest.raises(ConfigurationError):
            DistributedSolver(4, mode="batch").price(4, 1 << 20, 8)

    def test_batch_mode_names_its_device_count_constraint(self):
        with pytest.raises(
            ConfigurationError,
            match=r"batch mode needs at least one system per device "
            r"\(3 systems, 8 devices\)",
        ):
            DistributedSolver(8, mode="batch").price(3, 1024, 8)


def shrunken_device(mem_bytes=2_000_000):
    spec = get_device_spec("gtx470").with_overrides(global_mem_bytes=mem_bytes)
    return make_device(spec)


class TestDispatcherIntegration:
    def test_learns_to_distribute_on_memory_overflow(self):
        dev = shrunken_device()
        dispatcher = HybridDispatcher(dev, dist=4)
        batch = generators.random_dominant(8, 8192, rng=13)  # 2.6 MB > 2 MB
        choice = dispatcher.choose(batch)
        assert choice.gpu_ms == float("inf")
        assert choice.engine == "dist"
        x, _ = dispatcher.solve(batch)
        assert rel_error(x, single_device_reference(batch)) <= REL_TOL_F64

    def test_in_memory_workloads_keep_the_single_gpu(self):
        dispatcher = HybridDispatcher(shrunken_device(), dist=4)
        choice = dispatcher.choose(generators.random_dominant(64, 512, rng=14))
        assert choice.engine == "gpu"
        assert choice.dist_ms is not None
        assert choice.advantage >= 1.0

    def test_without_a_group_nothing_changes(self):
        dispatcher = HybridDispatcher("gtx470")
        choice = dispatcher.choose(generators.random_dominant(8, 512, rng=15))
        assert choice.dist_ms is None
        assert choice.engine in ("gpu", "cpu")


class TestServiceIntegration:
    def test_oversized_requests_route_and_merge(self):
        dev = shrunken_device()
        with BatchSolveService(dev, dist=8, verify=True) as service:
            big = [
                generators.random_dominant(4, 16384, rng=seed)
                for seed in (16, 17)
            ]
            small = generators.random_dominant(4, 256, rng=18)
            futures = [service.submit(b) for b in (*big, small)]
            service.flush()
            results = [f.result() for f in futures]
        assert results[0].group_requests == 2  # both big requests merged
        assert "x8" in results[0].group_label
        assert results[2].group_requests == 1  # the small one stayed local
        for batch, result in zip((*big, small), results):
            assert rel_error(result.x, single_device_reference(batch)) <= REL_TOL_F64

    def test_merged_answer_is_bit_identical_to_standalone_dist(self):
        dev = shrunken_device()
        batch = generators.random_dominant(4, 16384, rng=19)
        with BatchSolveService(dev, dist=8) as service:
            other = generators.random_dominant(4, 16384, rng=20)
            futures = [service.submit(b) for b in (batch, other)]
            service.flush()
            merged_x = futures[0].result().x
        standalone = service.dist_solver.solve(batch)
        np.testing.assert_array_equal(merged_x, standalone.x)

    def test_stats_expose_cache_counters(self):
        with BatchSolveService("gtx470", dist=4) as service:
            service.solve_many(
                [generators.random_dominant(2, 128, rng=21) for _ in range(3)]
            )
            snap = service.stats.snapshot()
        counters = snap["tuning_cache"]
        assert counters is not None
        assert counters["misses"] >= 1
        assert counters["entries"] >= 1
        assert "cache hits" in service.stats.describe()


class TestTuningCacheCounters:
    def test_get_counts_hits_and_misses(self):
        cache = TuningCache()
        assert cache.get("gtx470", 8) is None
        assert cache.counters() == {"hits": 0, "misses": 1, "entries": 0}
        from repro.core.config import SwitchPoints

        sp = SwitchPoints(
            stage1_target_systems=28,
            stage3_system_size=512,
            thomas_switch=64,
            base_variant="coalesced",
            variant_crossover_stride=None,
            source="test",
        )
        cache.put("gtx470", 8, sp)
        assert cache.get("gtx470", 8) is not None
        assert cache.counters() == {"hits": 1, "misses": 1, "entries": 1}

    def test_get_or_tune_counts_exactly_once(self):
        from repro.core.config import SwitchPoints

        cache = TuningCache()
        sp = SwitchPoints(
            stage1_target_systems=28,
            stage3_system_size=512,
            thomas_switch=64,
            base_variant="coalesced",
            variant_crossover_stride=None,
            source="test",
        )
        cache.get_or_tune("gtx470", 8, lambda: sp)  # miss, tunes
        cache.get_or_tune("gtx470", 8, lambda: sp)  # hit
        assert cache.counters() == {"hits": 1, "misses": 1, "entries": 1}
        cache.reset_counters()
        assert cache.counters() == {"hits": 0, "misses": 0, "entries": 1}


class TestCliAndBench:
    def test_dist_bench_command(self, capsys):
        import io

        from repro.cli import main

        out = io.StringIO()
        code = main(
            ["dist-bench", "--devices", "1,4", "--size", str(1 << 16)], out=out
        )
        text = out.getvalue()
        assert code == 0
        assert "Strong scaling" in text
        assert "Weak scaling" in text
        assert "dev0" in text  # the per-device timeline

    def test_dist_bench_json(self, tmp_path):
        import io
        import json

        from repro.cli import main

        path = tmp_path / "scaling.json"
        code = main(
            [
                "dist-bench",
                "--devices",
                "1,2",
                "--size",
                str(1 << 14),
                "--json",
                str(path),
            ],
            out=io.StringIO(),
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert [r["devices"] for r in payload["strong"]] == [1, 2]
        assert payload["link"] == "pcie3"

    def test_working_set_helper(self):
        assert working_set_nbytes(2, 100, 8) == 5 * 2 * 100 * 8
