"""Tests for the interleaved batch layout and the fused solve path.

The contract: interleave/deinterleave round-trip bit-exactly, the
split chain over the interleaved layout reproduces the row-major
algorithms bit-for-bit, and a fused (BatchedSolve) lowering of any
solve plan returns the same floats as the unfused staged chain — with
execute/price span parity and the fault hooks still firing on the fused
steps.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import pcr_solve, pcr_thomas_solve, thomas_solve
from repro.core import MultiStageSolver
from repro.core.planner import plan_solve
from repro.core.tuning import make_tuner
from repro.faults import (
    FaultInjector,
    FaultPlan,
    RetryPolicy,
    TransientKernelFault,
)
from repro.gpu import make_device
from repro.ir import Engine
from repro.ir import lower as ir_lower
from repro.kernels import SplitChain, dtype_size
from repro.obs import Tracer
from repro.service import BatchSolveService
from repro.systems import BatchedTridiagonal, generators
from repro.systems.tridiagonal import TridiagonalBatch
from repro.util.errors import ConfigurationError
from repro.util.validation import ilog2

pytestmark = pytest.mark.fusion


def _static_switch(device, m, n, dsize):
    return make_tuner("static").switch_points(device, m, n, dsize)


def _solve_both(device_name, m, n, *, dtype=np.float64, rng=11):
    """Solve one batch unfused and fused; returns both results."""
    device = make_device(device_name)
    batch = generators.random_dominant(m, n, rng=rng, dtype=dtype)
    switch = _static_switch(device, m, n, dtype_size(batch.dtype))
    unfused = MultiStageSolver(device, switch, fuse=False).solve(batch)
    fused = MultiStageSolver(device, switch, fuse=True).solve(batch)
    return unfused, fused


# ---------------------------------------------------------------------------
# Layout round-trips
# ---------------------------------------------------------------------------


class TestInterleaveRoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=40),
        n=st.integers(min_value=1, max_value=200),
        dsize=st.sampled_from([4, 8]),
    )
    def test_round_trip_is_bit_exact(self, m, n, dsize):
        dtype = np.float32 if dsize == 4 else np.float64
        batch = generators.random_dominant(
            m, n, rng=m * 1009 + n, dtype=dtype
        )
        soa = BatchedTridiagonal.interleave(batch)
        assert soa.shape == (m, n)
        assert soa.layout_shape == (n, m)
        back = soa.deinterleave()
        for name in ("a", "b", "c", "d"):
            np.testing.assert_array_equal(
                getattr(back, name), getattr(batch, name)
            )
            assert getattr(back, name).dtype == dtype

    def test_corner_convention_enforced(self):
        n, m = 4, 3
        arr = np.ones((n, m))
        soa = BatchedTridiagonal(arr, arr * 2, arr, arr)
        assert not soa.a[0, :].any()
        assert not soa.c[-1, :].any()


# ---------------------------------------------------------------------------
# Batched kernels vs the row-major algorithms
# ---------------------------------------------------------------------------


class TestBatchedKernelParity:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("m,n", [(1, 64), (17, 100), (200, 8)])
    def test_thomas_sweep_bit_identical(self, dtype, m, n):
        batch = generators.random_dominant(m, n, rng=5, dtype=dtype)
        x_rows = thomas_solve(batch)
        x_soa = SplitChain.of(BatchedTridiagonal.interleave(batch)).thomas()
        np.testing.assert_array_equal(x_rows, np.ascontiguousarray(x_soa.T))

    @pytest.mark.parametrize("m,n", [(3, 64), (16, 256)])
    def test_pcr_bit_identical(self, m, n):
        batch = generators.random_dominant(m, n, rng=6)
        chain = SplitChain.of(BatchedTridiagonal.interleave(batch))
        chain.split(ilog2(n))
        np.testing.assert_array_equal(
            pcr_solve(batch), np.ascontiguousarray(chain.solve(1).T)
        )

    @pytest.mark.parametrize("switch", [8, 64])
    def test_pcr_thomas_bit_identical(self, switch):
        batch = generators.random_dominant(9, 512, rng=7)
        chain = SplitChain.of(BatchedTridiagonal.interleave(batch))
        np.testing.assert_array_equal(
            pcr_thomas_solve(batch, switch),
            np.ascontiguousarray(chain.solve(switch).T),
        )


# ---------------------------------------------------------------------------
# Fused solve path
# ---------------------------------------------------------------------------


class TestFusedSolveParity:
    @pytest.mark.parametrize("device", ["8800gtx", "gtx280", "gtx470"])
    @pytest.mark.parametrize(
        "m,n", [(4, 512), (16, 2048), (3, 100), (1000, 64)]
    )
    def test_fused_solution_bit_identical(self, device, m, n):
        unfused, fused = _solve_both(device, m, n)
        np.testing.assert_array_equal(unfused.x, fused.x)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fused_parity_single_precision(self, dtype):
        unfused, fused = _solve_both("gtx470", 7, 4096, dtype=dtype)
        np.testing.assert_array_equal(unfused.x, fused.x)

    @settings(max_examples=15, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=12),
        n=st.integers(min_value=8, max_value=3000),
    )
    def test_property_fused_parity(self, m, n):
        unfused, fused = _solve_both("gtx280", m, n, rng=m * 7919 + n)
        np.testing.assert_array_equal(unfused.x, fused.x)

    def test_fused_execute_price_parity(self):
        device = make_device("gtx470")
        batch = generators.random_dominant(8, 2048, rng=13)
        switch = _static_switch(device, 8, 2048, 8)
        solver = MultiStageSolver(device, switch, fuse=True)
        result = solver.solve(batch)
        program = result.plan.lower(device, 8, fuse=True)
        priced = Engine.for_device(device).price(program)
        assert result.report.total_ms == priced.report.total_ms
        assert result.report.stage_ms() == priced.report.stage_ms()

    def test_fused_span_trees_match_priced(self):
        device = make_device("gtx470")
        batch = generators.random_dominant(4, 4096, rng=14)
        switch = _static_switch(device, 4, 4096, 8)
        tracer = Tracer()
        result = MultiStageSolver(
            device, switch, tracer=tracer, fuse=True
        ).solve(batch)
        (root,) = tracer.spans()
        (executed,) = root.children

        price_tracer = Tracer()
        engine = Engine.for_device(device)
        engine.tracer = price_tracer
        engine.price(result.plan.lower(device, 8, fuse=True))
        (priced,) = price_tracer.spans()
        assert priced == executed
        # The fused program really ran the batched path.
        stages = {s.attr("op") for s in executed.children}
        assert "BatchedSolve" in stages
        assert "Interleave" in stages

    def test_fault_hooks_fire_on_fused_steps(self):
        batch = generators.random_dominant(4, 2048, rng=15)
        device = make_device("gtx470")
        switch = _static_switch(device, 4, 2048, 8)
        baseline = MultiStageSolver(device, switch, fuse=True).solve(batch)
        inj = FaultInjector(
            FaultPlan(
                seed=0,
                faults=(
                    TransientKernelFault(probability=1.0, max_failures=2),
                ),
                retry=RetryPolicy(max_attempts=4, budget=16),
            )
        )
        result = MultiStageSolver(
            device, switch, faults=inj, fuse=True
        ).solve(batch)
        np.testing.assert_array_equal(result.x, baseline.x)
        assert inj.log.count("transient", "injected") == 2
        assert inj.log.count("transient", "retried") == 2
        assert inj.log.overhead_ms > 0.0

    def test_fuse_argument_validated(self):
        with pytest.raises(ConfigurationError):
            MultiStageSolver("gtx470", fuse="always")

    def test_auto_mode_picks_the_cheaper_lowering(self):
        device = make_device("gtx280")
        engine = Engine.for_device(device)
        for m, n in [(400, 64), (16, 4096)]:
            switch = _static_switch(device, m, n, 8)
            plan = plan_solve(device, m, n, 8, switch)
            unfused_ms = engine.price(plan.lower(device, 8)).total_ms
            fused_ms = engine.price(
                plan.lower(device, 8, fuse=True)
            ).total_ms
            solver = MultiStageSolver(device, switch, fuse="auto")
            batch = generators.random_dominant(m, n, rng=m + n)
            result = solver.solve(batch)
            assert result.report.total_ms == min(unfused_ms, fused_ms)
            # The chosen program is memoised per (signature, count, dsize).
            assert list(solver._programs.values()) == [
                plan.lower(device, 8, fuse=fused_ms < unfused_ms)
            ]
        # And auto never changes the answer.
        switch = _static_switch(device, 16, 4096, 8)
        batch = generators.random_dominant(16, 4096, rng=4112)
        unfused = MultiStageSolver(device, switch, fuse=False).solve(batch)
        auto = MultiStageSolver(device, switch, fuse="auto").solve(batch)
        np.testing.assert_array_equal(auto.x, unfused.x)

    @pytest.mark.parametrize("fuse", [False, True, "auto"])
    def test_each_program_is_lowered_once(self, monkeypatch, fuse):
        """Auto lowers and prices both programs on a key's first call;
        no mode lowers or prices again on a repeat call."""
        counts = {"lower": 0, "price": 0}
        lower, price = ir_lower.lower_solve_plan, Engine.price

        def counted_lower(*args, **kwargs):
            counts["lower"] += 1
            return lower(*args, **kwargs)

        def counted_price(self, *args, **kwargs):
            counts["price"] += 1
            return price(self, *args, **kwargs)

        monkeypatch.setattr(ir_lower, "lower_solve_plan", counted_lower)
        monkeypatch.setattr(Engine, "price", counted_price)
        device = make_device("gtx470")
        switch = _static_switch(device, 8, 512, 8)
        solver = MultiStageSolver(device, switch, fuse=fuse)
        batch = generators.random_dominant(8, 512, rng=8)
        plan = solver.plan_for(batch)
        first = solver.execute_plan(batch, plan, switch)
        both = 2 if fuse == "auto" else 0
        assert counts == {"lower": max(both, 1), "price": both}
        again = solver.execute_plan(batch, plan, switch)
        assert counts == {"lower": max(both, 1), "price": both}
        np.testing.assert_array_equal(again.x, first.x)


# ---------------------------------------------------------------------------
# Service integration
# ---------------------------------------------------------------------------


class TestServiceFusion:
    @pytest.mark.parametrize("fuse", [False, True, "auto"])
    def test_service_modes_bit_identical(self, fuse):
        requests = generators.mixed_requests(
            40, rng=3, sizes=(512, 1024, 2048)
        )
        service = BatchSolveService(
            "gtx280", "static", max_workers=4, max_pending=40, fuse=fuse
        )
        with service:
            results = service.solve_many(requests)
        solvers = {}
        for batch, res in zip(requests, results):
            key = str(batch.dtype)
            if key not in solvers:
                solvers[key] = MultiStageSolver(
                    "gtx280",
                    service.switch_points_for(dtype=batch.dtype),
                )
            direct = solvers[key].solve(batch)
            np.testing.assert_array_equal(direct.x, res.x)
        snap = service.stats.snapshot()
        assert snap["requests_completed"] == 40
        assert snap["requests_failed"] == 0

    def test_split_heavy_fused_service_is_faster(self):
        requests = generators.mixed_requests(
            60, rng=9, sizes=(2048, 4096), dtypes=(np.float64,)
        )

        def run(fuse):
            service = BatchSolveService(
                "gtx280",
                "static",
                max_workers=4,
                max_pending=60,
                fuse=fuse,
            )
            with service:
                service.solve_many(requests)
            return service.stats.simulated_ms

        fused_ms, unfused_ms = run(True), run(False)
        assert fused_ms < unfused_ms


def test_single_system_helpers_round_trip():
    batch = generators.random_dominant(5, 32, rng=21)
    single = batch.system(2).as_batch()
    assert single.num_systems == 1
    stacked = TridiagonalBatch.stack(
        [batch.system(i).as_batch() for i in range(batch.num_systems)]
    )
    for name in ("a", "b", "c", "d"):
        np.testing.assert_array_equal(
            getattr(stacked, name), getattr(batch, name)
        )
