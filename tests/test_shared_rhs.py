"""SPIKE's three-RHS local solves share one matrix on the host.

``spike_rhs`` returns a :class:`SharedMatrixBatch`: views of the chunk's
matrix and data, and the two spikes as impulse planes, one row of
values each. ``tests/test_oracle.py`` holds its solves bit for bit to
the tiled ``(3m, q)`` batch it stands for. Here: verification checks
that tiled batch; ``Pad`` loads the chunk once, so a local solve holds
little more memory than the chain needs and a steady-state distributed
solve scans no plane for its extent; and the engine prices a local
program once, so a warm local solve prices nothing.
"""

import tracemalloc

import numpy as np
import pytest

from repro.algorithms.spike import partition_bounds, spike_rhs, split_chunks
from repro.core import solver as solver_module
from repro.core.planner import plan_solve
from repro.core.solver import MultiStageSolver
from repro.dist import DistributedSolver
from repro.kernels import chain, handlers
from repro.obs import Tracer
from repro.systems import generators
from repro.systems.tridiagonal import TridiagonalBatch

pytestmark = pytest.mark.dist


def _bits(x):
    return x.view(np.int32 if x.dtype == np.float32 else np.int64)


def _counted(monkeypatch, module, name, calls):
    """Wrap ``module.name`` to append to ``calls`` on every call."""
    wrapped = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return wrapped(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)


def _dist8_chunk(fuse=False, tracer=None):
    """Chunk 0 of an m = 4, q = 2^13 batch on eight devices (a dist8
    local solve): ``(chunk, local solver, plan, switch)``."""
    m, q = 4, 1 << 13
    batch = generators.random_dominant(m, 8 * q, rng=0)
    chunk = split_chunks(batch, partition_bounds(8 * q, 8))[0]
    dist = DistributedSolver(8, "static")
    switch = dist.switch_points_for(8)
    plan = plan_solve(dist.group[0], 3 * m, q, 8, switch)
    local = MultiStageSolver(dist.group[0], switch, fuse=fuse, tracer=tracer)
    return chunk, local, plan, switch


def test_verify_checks_the_tiled_batch(monkeypatch):
    chunk = split_chunks(generators.random_dominant(3, 4096, rng=1), ((0, 1024),))[0]
    switch = DistributedSolver(4, "static").switch_points_for(8)
    local = MultiStageSolver("gtx470", switch, verify=True)
    plan = plan_solve(local.device, 9, 1024, 8, switch)
    checked = []
    monkeypatch.setattr(
        solver_module, "assert_solution", lambda batch, x, **kw: checked.append(batch)
    )
    local.execute_plan(spike_rhs(chunk), plan, switch)
    (batch,) = checked
    tiled = spike_rhs(chunk).tiled()
    assert isinstance(batch, TridiagonalBatch)
    for got, want in zip((batch.a, batch.b, batch.c, batch.d), (tiled.a, tiled.b, tiled.c, tiled.d)):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("fuse", [False, True])
def test_local_solve_peak_memory(fuse):
    """A dist8 local solve peaks below 1.4x its logical (12, 8192) batch
    (it measures 1.29x): the matrix is neither tiled nor copied before
    the load, and the spikes' zeros are written once, into the chain's
    layout."""
    chunk, local, plan, switch = _dist8_chunk(fuse)
    tracemalloc.start()
    try:
        local.execute_plan(spike_rhs(chunk), plan, switch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    logical_nbytes = 4 * plan.num_systems * plan.system_size * 8
    assert peak < 1.4 * logical_nbytes


@pytest.mark.parametrize("mode", ["rows", "pipelined", "approx"])
def test_steady_state_solve_scans_no_plane(monkeypatch, mode):
    """``Pad`` hands the chain every plane's extent: the data spans its
    system and a spike is its row, so no solve scans a plane."""
    batch = generators.random_dominant(4, 1 << 14, rng=2)
    dist = DistributedSolver(4, "static", mode=mode)
    first = dist.solve(batch)
    calls = []
    # Wherever the name is looked up from.
    for module in (chain, handlers):
        if hasattr(module, "_extent"):
            _counted(monkeypatch, module, "_extent", calls)
    again = dist.solve(batch)
    assert calls == []
    np.testing.assert_array_equal(_bits(again.x), _bits(first.x))


def test_a_warm_local_solve_prices_nothing(monkeypatch):
    """The engine places a solve program once: a second run of the same
    local program replays its placement, with the same report, traces
    and span tree, and calls no cost model."""
    tracer = Tracer()
    chunk, local, plan, switch = _dist8_chunk(tracer=tracer)
    first = local.execute_plan(spike_rhs(chunk), plan, switch)
    calls = []
    _counted(monkeypatch, handlers, "price_costs", calls)
    again = local.execute_plan(spike_rhs(chunk), plan, switch)
    assert calls == []
    # Equal, but each run's own: a merged group's answers share a report,
    # so callers count reports by identity.
    assert again.report == first.report and again.report is not first.report
    np.testing.assert_array_equal(_bits(again.x), _bits(first.x))
    first_span, again_span = tracer.spans()
    assert again_span == first_span
