"""Every solver front end reads its shared arguments the same way.

``MultiStageSolver``, ``DistributedSolver``, ``BatchSolveService`` and
``AsyncSolveService`` accept the same ``tuning=`` values — a strategy
name, a tuner, explicit ``SwitchPoints``, or ``None`` for ``"default"``
— and reject anything else with ``ConfigurationError`` when they are
built, not at their first solve. The three that keep a tuning cache
accept any cache (``None``, a path, a ``TuningCache``, a
``ShardedTuningCache``), build a ``TuningCache`` for ``None`` or a
path, and expose the one they use as ``.cache``. A
governed solve of non-finite input fails with a typed error.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from repro.algorithms import max_residual, scipy_banded_solve
from repro.core import MultiStageSolver, TuningCache, make_tuner, solve
from repro.core.dispatch import HybridDispatcher
from repro.dist import DistributedSolver
from repro.gpu.executor import Device, make_device
from repro.gpu.spec import get_device_spec
from repro.serve import AsyncSolveService
from repro.serve.shards import ShardedTuningCache
from repro.service import BatchSolveService
from repro.systems import generators
from repro.systems.tridiagonal import TridiagonalBatch
from repro.util.errors import ConfigurationError, InvalidSystemError

DEVICE = "gtx470"


def _batch():
    return generators.random_dominant(3, 300, rng=5)


def _static_points():
    return make_tuner("static").switch_points(make_device(DEVICE), 0, 0, 8)


TUNINGS = {
    "name": lambda: "static",
    "tuner": lambda: make_tuner("static"),
    "switch-points": _static_points,
    "none": lambda: None,
}

FRONTS = {
    "solver": lambda tuning: MultiStageSolver(DEVICE, tuning, verify=True),
    "dist": lambda tuning, **kw: DistributedSolver(
        2, tuning, device=DEVICE, verify=True, **kw
    ),
    "service": lambda tuning, **kw: BatchSolveService(
        DEVICE, tuning, max_workers=1, verify=True, **kw
    ),
    "async": lambda tuning, **kw: AsyncSolveService(
        DEVICE, tuning, workers=1, verify=True, **kw
    ),
}

CACHES = {
    "none": lambda tmp_path: None,
    "path": lambda tmp_path: str(tmp_path / "tuning.json"),
    "tuning-cache": lambda tmp_path: TuningCache(),
    "sharded": lambda tmp_path: ShardedTuningCache(2),
}


@contextmanager
def _opened(front):
    try:
        yield front
    finally:
        if hasattr(front, "close"):
            front.close()


def _answer(front, batch):
    """``batch`` solved through ``front``, as one request."""
    if isinstance(front, BatchSolveService):
        return front.solve_many([batch])[0].x
    if isinstance(front, AsyncSolveService):
        return front.solve_many_sync([batch])[0].x
    return front.solve(batch).x


@pytest.mark.parametrize("tuning", TUNINGS)
@pytest.mark.parametrize("front", FRONTS)
def test_every_tuning_form_gives_a_verified_answer(front, tuning):
    batch = _batch()
    with _opened(FRONTS[front](TUNINGS[tuning]())) as built:
        x = _answer(built, batch)
        assert max_residual(batch, x) < 1e-12
        if front in ("service", "async"):
            service = built if front == "service" else built.service
            switch = service.switch_points_for(dtype=batch.dtype)
            reference = MultiStageSolver(DEVICE, switch).solve(batch).x
            np.testing.assert_array_equal(x, reference)


@pytest.mark.parametrize("tuning", ["bogus", 42])
@pytest.mark.parametrize("front", FRONTS)
def test_a_bad_tuning_fails_at_construction(front, tuning):
    with pytest.raises(ConfigurationError):
        FRONTS[front](tuning)


def test_none_means_the_default_strategy():
    assert MultiStageSolver(DEVICE, None).switch_points_for(
        3, 300, 8
    ) == MultiStageSolver(DEVICE, "default").switch_points_for(3, 300, 8)
    assert DistributedSolver(2, None).switch_points_for(8) == DistributedSolver(
        2, "default"
    ).switch_points_for(8)
    with BatchSolveService(DEVICE, None, max_workers=1) as service:
        assert service.switch_points_for() == make_tuner("default").switch_points(
            make_device(DEVICE), 0, 0, 8
        )


@pytest.mark.parametrize("tuning", TUNINGS)
def test_the_shape_free_front_ends_agree_on_switch_points(tuning):
    """The dist solver and the service read ``tuning`` one way."""
    dist = DistributedSolver(2, TUNINGS[tuning](), device=DEVICE)
    with BatchSolveService(DEVICE, TUNINGS[tuning](), max_workers=1) as service:
        assert dist.switch_points_for(8) == service.switch_points_for()


@pytest.mark.parametrize("front", ["dist", "service"])
def test_each_strategy_keeps_its_own_tuning_in_a_shared_cache(front):
    """A dynamic front end built after a static one on the same cache is
    tuned dynamically, as it would be with a cache of its own."""
    cache = TuningCache()
    sources = []
    for tuning in ("static", "dynamic"):
        with _opened(FRONTS[front](tuning, cache=cache)) as built:
            points = built.switch_points_for(8) if front == "dist" else built.switch_points_for()
            sources.append(points.source)
    assert sources == ["static", "dynamic"]
    assert cache.counters()["entries"] == 2


@pytest.mark.parametrize("cache", CACHES)
@pytest.mark.parametrize("front", ["dist", "service", "async"])
def test_every_cache_form_is_the_cache_in_use(front, cache, tmp_path):
    given = CACHES[cache](tmp_path)
    batch = _batch()
    with _opened(FRONTS[front]("static", cache=given)) as built:
        x = _answer(built, batch)
        assert max_residual(batch, x) < 1e-12
        if front == "async":
            assert built.cache is built.service.cache
        if given is None or isinstance(given, str):
            assert type(built.cache) is TuningCache
        else:
            assert built.cache is given
        # The one tuning run of this front end landed in that cache.
        assert built.cache.counters()["entries"] == 1
    if isinstance(given, str):
        assert TuningCache(given).counters()["entries"] == 1


def test_the_async_tier_routes_an_oversized_request_to_its_dist_solver():
    # 64 x 512 in f64 needs 1.31 MB; each of two devices holds 1 MB,
    # enough for a batch-mode shard of 32 systems.
    device = Device(get_device_spec(DEVICE).with_overrides(global_mem_bytes=1_000_000))
    batch = generators.random_dominant(64, 512, rng=19)
    with AsyncSolveService(device, "static", workers=1, dist=2) as front:
        dist = front.service.dist_solver
        assert dist.cache is front.cache
        result = front.solve_many_sync([batch])[0]
        assert "x2" in result.group_label
        np.testing.assert_array_equal(result.x, dist.solve(batch).x)


def test_a_bad_dist_fails_at_construction():
    with pytest.raises(ConfigurationError):
        BatchSolveService(DEVICE, dist=0)
    with pytest.raises(ConfigurationError):
        HybridDispatcher(DEVICE, dist=0)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize(
    "poisoned", [generators.nan_poisoned, generators.inf_poisoned]
)
def test_a_governed_solve_of_non_finite_input_raises_a_typed_error(poisoned):
    batch = poisoned(2, 256, rng=1)
    with pytest.raises(InvalidSystemError, match="contains NaN or Inf") as info:
        solve(batch, tolerance=1e-8)
    finite = np.isfinite(batch.b).all(axis=1)
    assert info.value.system_index == int(np.argmin(finite))


def test_the_banded_solve_pivots_past_a_zero_main_diagonal():
    x = np.array([[1.0, -2.0, 3.0, 0.5]])
    a = np.array([[0.0, 1.0, 1.0, 1.0]])
    b = np.array([[0.0, 2.0, 3.0, 2.0]])
    c = np.array([[1.0, 1.0, 1.0, 0.0]])
    d = TridiagonalBatch(a, b, c, np.zeros_like(x)).matvec(x)
    solved = scipy_banded_solve(TridiagonalBatch(a, b, c, d))
    np.testing.assert_allclose(solved, x, rtol=1e-12)
