"""What a long-lived process holds on to.

Importing the library and serving solves must not load scipy, which
only the validation oracles call. Every memo keyed by a system count is
a bounded :class:`~repro.util.memo.LruMemo`: an open-ended stream of
counts keeps it at its capacity, and an evicted key recomputes an equal
value.
"""

import subprocess
import sys
import threading
from pathlib import Path

import numpy as np

import repro
from repro.core import MultiStageSolver
from repro.dist import DistributedSolver
from repro.obs import MetricsRegistry
from repro.service import BatchSolveService
from repro.systems import generators
from repro.util.memo import MEMO_CAPACITY, LruMemo

_SERVE_WITHOUT_SCIPY = """
import sys
import repro
from repro.core import MultiStageSolver
from repro.dist import DistributedSolver
from repro.service import BatchSolveService
from repro.systems import generators

batch = generators.random_dominant(4, 300, rng=1)
MultiStageSolver("gtx470", "static").solve(batch)
with BatchSolveService("gtx470", "static", max_workers=2) as service:
    service.solve_many([batch, generators.random_dominant(2, 300, rng=2)])
DistributedSolver(4).solve(
    generators.random_dominant(4, 1 << 12, rng=3), tolerance=1e-8
)
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, loaded
"""


def test_solving_does_not_import_scipy():
    src = Path(repro.__file__).resolve().parents[1]
    subprocess.run(
        [sys.executable, "-c", _SERVE_WITHOUT_SCIPY],
        env={"PYTHONPATH": str(src)},
        check=True,
        timeout=120,
    )


class TestLruMemo:
    def test_evicts_the_least_recently_used(self):
        memo = LruMemo("t", capacity=3)
        for key in "abcad":  # "a" is used again, so "d" evicts "b"
            memo.get_or_make(key, key.upper)
        assert memo.values() == ["C", "A", "D"]
        assert (memo.hits, memo.misses) == (1, 4)

    def test_reports_lookups_to_the_registry(self):
        registry = MetricsRegistry()
        memo = LruMemo("plans", metrics=registry)
        for key in (1, 2, 1, 1):
            memo.get_or_make(key, lambda: object())
        counter = registry.get("repro_memo_lookups_total")
        assert counter.value(memo="plans", result="hit") == 2
        assert counter.value(memo="plans", result="miss") == 2

    def test_default_bound_holds(self):
        memo = LruMemo("t")
        for key in range(MEMO_CAPACITY + 100):
            memo.get_or_make(key, lambda: key)
        assert len(memo) == MEMO_CAPACITY
        assert memo.values()[0] == 100

    def test_threads_share_one_value_per_key(self):
        """Eight threads race over the same keys with a short switch
        interval: every lookup is counted, and all threads get the one
        value stored first for each key."""
        memo = LruMemo("t")
        keys, rounds = range(50), 20
        seen = [[] for _ in range(8)]

        def hammer(out):
            for _ in range(rounds):
                for key in keys:
                    out.append((key, memo.get_or_make(key, object)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(out,)) for out in seen]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert memo.hits + memo.misses == 8 * rounds * len(keys)
        assert memo.misses >= len(keys)
        stored = {key: memo.get_or_make(key, object) for key in keys}
        assert all(value is stored[key] for out in seen for key, value in out)


def _memos(solver, service, dist):
    inner = service.solver_for()
    return [inner._programs, solver._programs, service._plans] + [
        dist._programs, dist._planned, dist._reports
    ]


def test_a_stream_of_distinct_counts_stays_within_every_bound():
    solver = MultiStageSolver("gtx470", "static")
    service = BatchSolveService("gtx470", "static", max_workers=1)
    dist = DistributedSolver(2)
    bound = 6
    for memo in _memos(solver, service, dist):
        memo.capacity = bound
    try:
        for m in range(1, 4 * bound):
            batch = generators.random_dominant(m, 64, rng=m)
            solver.solve(batch)
            service.solve_many([batch])
            dist.solve(generators.random_dominant(m, 256, rng=m))
            assert all(len(memo) <= bound for memo in _memos(solver, service, dist))
    finally:
        service.close()
    assert all(len(memo) == bound for memo in _memos(solver, service, dist))


def test_an_evicted_key_lowers_again_to_an_equal_program():
    solver = MultiStageSolver("gtx470", "static")
    solver._programs.capacity = 1
    first, other = (generators.random_dominant(m, 512, rng=m) for m in (3, 5))
    x = solver.solve(first).x
    (program,) = solver._programs.values()
    solver.solve(other)
    again = solver.solve(first)
    (lowered,) = solver._programs.values()
    assert solver._programs.misses == 3
    assert lowered == program and lowered is not program
    np.testing.assert_array_equal(again.x, x)

    dist = DistributedSolver(2)
    dist._programs.capacity = 1
    plan = dist.plan_for(first)
    program = dist.lower(plan, 8)
    dist.lower(dist.plan_for(other), 8)
    lowered = dist.lower(plan, 8)
    assert lowered == program and lowered is not program
