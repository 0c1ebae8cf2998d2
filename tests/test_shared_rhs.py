"""SPIKE's three-RHS local solves share one matrix on the host.

``spike_rhs`` returns a :class:`SharedMatrixBatch`: the chunk's matrix
once, against the data and the two spike right-hand sides. Solved
through the same local program it must equal the tiled ``(3m, q)``
batch it stands for bit for bit, priced the same, in every mode that
runs SPIKE local solves; and it must hold less memory than the tiled
batch did.
"""

import tracemalloc

import numpy as np
import pytest

from repro.algorithms.spike import partition_bounds, spike_rhs, split_chunks
from repro.core import solver as solver_module
from repro.core.planner import plan_solve
from repro.core.solver import MultiStageSolver
from repro.dist import DistributedSolver
from repro.kernels import dtype_size
from repro.systems import generators
from repro.systems.tridiagonal import TridiagonalBatch

pytestmark = pytest.mark.dist


def _bits(x):
    return x.view(np.int32 if x.dtype == np.float32 else np.int64)


@pytest.mark.parametrize("mode", ["rows", "pipelined", "approx"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("q", [8192, 5000])
def test_local_solve_equals_the_tiled_batch(mode, dtype, q):
    p, m = 4, 2
    # Poisson keeps PCR's off-diagonals from decaying to zero, so every
    # split step and Thomas row still couples the planes' neighbours.
    batch = generators.poisson_1d(m, p * q, rng=q, dtype=dtype)
    dist = DistributedSolver(p, "static", mode=mode)
    plan = dist.plan_for(batch)
    assert plan.mode == mode
    switch = dist.switch_points_for(dtype_size(dtype))
    bounds = partition_bounds(batch.system_size, p)
    for i, chunk in enumerate(split_chunks(batch, bounds)):
        # Pipelined mode's local solves run fused, as in the dist solver.
        local = MultiStageSolver(dist.group[i], switch, fuse=mode == "pipelined")
        shared = local.execute_plan(spike_rhs(chunk), plan.local_plans[i], switch)
        tiled = local.execute_plan(
            spike_rhs(chunk).tiled(), plan.local_plans[i], switch
        )
        assert shared.x.shape == tiled.x.shape == (3 * m, chunk.size)
        np.testing.assert_array_equal(_bits(shared.x), _bits(tiled.x))
        assert shared.report.total_ms == tiled.report.total_ms


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
    """An m = 4, q = 2^13 chunk (a dist8 local solve) peaks below 2.25x
    its logical (12, 8192) batch: the matrix is neither tiled nor
    loaded three times."""
    m, q = 4, 1 << 13
    batch = generators.random_dominant(m, 8 * q, rng=0)
    chunk = split_chunks(batch, partition_bounds(8 * q, 8))[0]
    dist = DistributedSolver(8, "static")
    switch = dist.switch_points_for(8)
    plan = plan_solve(dist.group[0], 3 * m, q, 8, switch)
    local = MultiStageSolver(dist.group[0], switch, fuse=fuse)
    tracemalloc.start()
    try:
        local.execute_plan(spike_rhs(chunk), plan, switch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    logical_nbytes = 4 * (3 * m) * q * 8
    assert peak < 2.25 * logical_nbytes
