"""Parity and fairness properties of the async serving tier.

The tier's two headline promises, pinned property-style:

1. **Facade parity** — the asyncio frontend and the sync facade are the
   same code path, so a seeded request stream produces *identical group
   assignments* and *bit-identical solutions* whichever door it enters
   through (and both match a standalone solver).
2. **No starvation** — a saturating high-priority tenant is capped by
   its own pending quota, so a low-priority tenant keeps making
   progress instead of being shed forever.
"""

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import MultiStageSolver, SwitchPoints
from repro.serve import (
    AdmissionController,
    AsyncSolveService,
    TenantQuota,
)
from repro.systems import generators
from repro.util.errors import ServiceOverloadedError

pytestmark = pytest.mark.serve

COMMON = dict(max_examples=15, deadline=None)

DEVICE = "gtx470"
SWITCH = SwitchPoints(
    stage1_target_systems=16, stage3_system_size=256, thomas_switch=64
)


@st.composite
def request_batches(draw):
    """One serving request: random shape, dtype, and conditioning."""
    n = draw(st.integers(min_value=2, max_value=300))
    m = draw(st.integers(min_value=1, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    dominance = draw(st.floats(min_value=1.05, max_value=4.0))
    return generators.random_dominant(
        m, n, dominance=dominance, rng=seed, dtype=dtype
    )


def _service(**kwargs):
    return AsyncSolveService(DEVICE, SWITCH, workers=2, **kwargs)


@settings(**COMMON)
@given(batches=st.lists(request_batches(), min_size=1, max_size=8))
def test_sync_facade_and_async_frontend_are_bit_identical(batches):
    """Same stream, both doors: identical groups, identical bits."""
    with _service() as sync_svc:
        sync_results = sync_svc.solve_many_sync(batches)

    async def drive():
        async with _service() as async_svc:
            return await async_svc.solve_many(batches)

    async_results = asyncio.run(drive())

    assert len(sync_results) == len(async_results) == len(batches)
    for sync_res, async_res in zip(sync_results, async_results):
        # Identical group assignment: same merged group, same shape.
        assert sync_res.group_label == async_res.group_label
        assert sync_res.group_requests == async_res.group_requests
        assert sync_res.group_systems == async_res.group_systems
        # Bit-identical numbers.
        assert sync_res.x.dtype == async_res.x.dtype
        np.testing.assert_array_equal(sync_res.x, async_res.x)


@settings(**COMMON)
@given(batches=st.lists(request_batches(), min_size=1, max_size=6))
def test_serving_tier_matches_standalone_solver(batches):
    """The serving tier adds admission/sharding/autoscaling around the
    service — never around the numbers."""
    with _service(autoscale=True) as svc:
        results = svc.solve_many_sync(batches)
    for batch, res in zip(batches, results):
        direct = MultiStageSolver(DEVICE, SWITCH).solve(batch)
        assert res.x.dtype == direct.x.dtype
        np.testing.assert_array_equal(direct.x, res.x)


def test_low_priority_tenant_progresses_under_saturation():
    """A hog tenant saturating its quota cannot starve a meek one.

    The hog (interactive class) floods far past its own pending cap;
    every overflow is shed *against the hog's quota*, leaving capacity
    under every watermark, so the meek tenant's batch-class requests
    keep being admitted and keep completing.
    """
    admission = AdmissionController(
        capacity=32,
        quotas={
            "hog": TenantQuota(max_pending=8, priority="interactive"),
            "meek": TenantQuota(max_pending=4, priority="batch"),
        },
    )
    meek_completed = 0
    hog_shed = 0
    with _service(admission=admission) as svc:
        for round_no in range(5):
            futures = []
            # The hog floods: 12 submissions against a pending cap of 8.
            for i in range(12):
                batch = generators.random_dominant(
                    1, 64, rng=1000 * round_no + i
                )
                try:
                    futures.append(svc.submit_sync(batch, tenant="hog"))
                except ServiceOverloadedError:
                    hog_shed += 1
            # The meek tenant asks for a little, at the *lowest* class.
            meek_futures = []
            for i in range(2):
                batch = generators.random_dominant(
                    1, 64, rng=5000 + 100 * round_no + i
                )
                meek_futures.append(svc.submit_sync(batch, tenant="meek"))
            svc.flush()
            svc.drain()
            for fut in meek_futures:
                assert fut.exception() is None
                meek_completed += 1
            for fut in futures:
                assert fut.exception() is None

    assert hog_shed > 0  # the hog really did saturate its quota
    assert meek_completed == 10  # and the meek tenant never starved


def test_admission_sheds_before_anything_is_queued():
    """A shed request must leave no trace in the service queue."""
    admission = AdmissionController(
        capacity=8, default_quota=TenantQuota(max_pending=1)
    )
    with _service(admission=admission) as svc:
        batch = generators.random_dominant(1, 32, rng=0)
        svc.submit_sync(batch, tenant="a")
        before = svc.stats.snapshot()["requests_submitted"]
        with pytest.raises(ServiceOverloadedError):
            svc.submit_sync(batch, tenant="a")
        assert svc.stats.snapshot()["requests_submitted"] == before
        assert svc.stats.snapshot()["requests_shed"] == 1
        svc.flush()
        svc.drain()
        # The settled future released the ticket: admission is open again.
        svc.submit_sync(batch, tenant="a")
        svc.flush()
