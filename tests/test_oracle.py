"""The differential oracle: every execution path against one reference.

:func:`reference_solve` is the staged solve written with the
:mod:`repro.algorithms` building blocks alone — pad, the plan's two
gathered PCR splits, the hybrid PCR-Thomas solve, the two scatters,
unpad — with no kernel, engine or split-chain code in it. Every line of
:data:`PATHS` names one execution path, how its answers are checked, and
how it solves a drawn case; all paths plan with the case's one explicit
:class:`~repro.core.SwitchPoints`. The checks:

- ``EXACT`` — bit for bit against the reference, compared as integers
  so a flipped sign of zero counts;
- ``SPIKE`` — the distributed row decompositions reorder the arithmetic,
  so their answers must equal each other bit for bit and lie within
  :func:`~repro.algorithms.default_tolerance` of the reference;
- ``GOVERNED`` — a tolerance-governed approximate solve is within its
  tolerance.

The drawn batches start at a drawn byte offset past a cache line, which
may change no bit. Every :class:`~repro.core.MultiStageSolver` line
also holds execute mode to price mode: equal ``total_ms``,
``stage_ms()`` and span trees.
Adding a path is one line in :data:`PATHS`.

The ``SPIKE chunks`` line runs every chunk's three-RHS local solve of
the distributed row modes as the distributed solver does, through
``Pad``'s one load of :func:`~repro.algorithms.spike.spike_rhs`'s views
and impulse planes, and holds it bit for bit to the reference on the
tiled ``spike_rhs(chunk).tiled()``. Some drawn sizes give power-of-two
chunks next to one that pads, and drawn systems hold +0 or -0 in their
couplings.
"""

import asyncio
from dataclasses import dataclass

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.algorithms import default_tolerance, factorize, max_residual
from repro.algorithms.padding import pad_pow2, unpad_solution
from repro.algorithms.pcr import pcr_split, pcr_unsplit_solution
from repro.algorithms.pcr_thomas import pcr_thomas_solve
from repro.algorithms.spike import MIN_CHUNK_ROWS, partition_bounds, spike_rhs, split_chunks
from repro.core import MultiStageSolver, SwitchPoints
from repro.core.planner import plan_solve
from repro.dist import DistributedSolver
from repro.gpu import make_device
from repro.ir import Engine
from repro.obs import Tracer
from repro.serve import AsyncSolveService
from repro.service import BatchSolveService
from repro.systems import generators
from repro.systems.tridiagonal import SharedMatrixBatch, TridiagonalBatch
from repro.util.validation import ilog2, is_power_of_two, next_power_of_two
from tests.conftest import examples, line_offsets, misaligned

DEVICE = make_device("gtx470")
DIST_DEVICES = 3


def _tolerance(batch):
    """The approximate solve's tolerance: loose enough for the value size
    that the truncated SPIKE answer usually stands without escalation."""
    return {4: 1e-4, 8: 1e-8}[batch.dtype.itemsize]


def reference_solve(batch, plan):
    """``batch`` solved the way ``plan`` stages it, with the gathered
    :mod:`repro.algorithms` chain and nothing else."""
    padded, original_n = pad_pow2(batch)
    work = pcr_split(padded, plan.stage1_steps)
    work = pcr_split(work, plan.stage2_steps)
    x = pcr_thomas_solve(work, plan.thomas_switch)
    x = pcr_unsplit_solution(x, plan.stage2_steps)
    x = pcr_unsplit_solution(x, plan.stage1_steps)
    return unpad_solution(x, original_n)


@dataclass(frozen=True)
class Case:
    """One drawn batch and a twin of its shape, the switch points every
    path plans with, and the extra right-hand-side planes and fuse mode
    of the shared-matrix solve."""

    batch: repro.TridiagonalBatch
    twin: repro.TridiagonalBatch  # merges with ``batch`` in the services
    switch: SwitchPoints
    # Per extra plane: None for a dense one, else the one row of an
    # impulse plane (+0 elsewhere, like SPIKE's spikes).
    extra_planes: tuple
    fuse: object
    # Per system: None, or the zero its couplings between chunks hold.
    coupling_zeros: tuple

    @property
    def shared(self) -> SharedMatrixBatch:
        """The batch's matrix against its own ``d`` and the extra planes."""
        b = self.batch
        rng = np.random.default_rng(b.system_size)
        more = np.zeros((len(self.extra_planes),) + b.shape, dtype=b.dtype)
        for plane, row in zip(more, self.extra_planes):
            if row is None:
                plane[:] = rng.standard_normal(b.shape)
            else:
                plane[:, row] = rng.standard_normal(b.num_systems)
        return SharedMatrixBatch(b.a, b.b, b.c, np.concatenate([b.d[None], more]))

    @property
    def coupled(self) -> repro.TridiagonalBatch:
        """The batch with each system's drawn zero in its couplings
        across the distributed solvers' chunk boundaries."""
        a, c = self.batch.a.copy(), self.batch.c.copy()
        for start, _ in partition_bounds(self.batch.system_size, DIST_DEVICES)[1:]:
            for s, zero in enumerate(self.coupling_zeros):
                if zero is not None:
                    a[s, start] = c[s, start - 1] = zero
        return TridiagonalBatch(a, self.batch.b, c, self.batch.d)


@st.composite
def _cases(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    m = draw(st.integers(min_value=1, max_value=9))
    n = draw(
        st.one_of(
            st.integers(min_value=3, max_value=12).map(lambda k: 1 << k),
            st.integers(min_value=8, max_value=3000),
            # One chunk of 2^k + 1 rows, the others of 2^k.
            st.integers(min_value=2, max_value=10).map(lambda k: (DIST_DEVICES << k) + 1),
        )
    )
    switch = SwitchPoints(
        stage1_target_systems=draw(st.integers(min_value=1, max_value=64)),
        stage3_system_size=1 << draw(st.integers(min_value=6, max_value=10)),
        thomas_switch=1 << draw(st.integers(min_value=0, max_value=7)),
        base_variant=draw(st.sampled_from(["coalesced", "strided"])),
    )
    seed = draw(st.integers(min_value=0, max_value=2**16))
    # The caller's arrays start anywhere past a cache line.
    offset = draw(line_offsets)
    return Case(
        batch=misaligned(generators.random_dominant(m, n, rng=seed, dtype=dtype), offset),
        twin=misaligned(generators.random_dominant(m, n, rng=seed + 1, dtype=dtype), offset),
        switch=switch,
        extra_planes=tuple(
            draw(
                st.lists(
                    st.one_of(st.none(), st.integers(min_value=0, max_value=n - 1)),
                    max_size=2,
                )
            )
        ),
        fuse=draw(st.sampled_from([False, True, "auto"])),
        coupling_zeros=tuple(
            draw(st.lists(st.sampled_from([None, 0.0, -0.0]), min_size=m, max_size=m))
        ),
    )


# -- the paths ---------------------------------------------------------------
#
# Each returns ``[(problem, x), ...]``: every answer with the row-major
# batch it solves, which the oracle plans and solves independently.


def _single_device(problem, switch, fuse, plan=None):
    """One :class:`MultiStageSolver` solve, executed and then priced; on
    ``plan`` if given, else on the solver's own."""
    tracer = Tracer()
    solver = MultiStageSolver(DEVICE, switch, fuse=fuse, tracer=tracer)
    plan = plan or solver.plan_for(problem)
    result = solver.execute_plan(problem, plan, switch)
    priced_tracer = Tracer()
    engine = Engine.for_device(DEVICE)
    engine.tracer = priced_tracer
    priced = engine.price(solver._program_for(plan, problem.dtype.itemsize))
    assert result.report.total_ms == priced.total_ms
    assert result.report.stage_ms() == priced.report.stage_ms()
    (solve_span,) = tracer.spans()
    assert solve_span.children == priced_tracer.spans()
    if isinstance(problem, SharedMatrixBatch):
        problem = problem.tiled()
    return [(problem, result.x)]


def _batch_service(case):
    # The batch and its twin merge into one group of twice the systems.
    requests = [case.batch, case.twin]
    with BatchSolveService("gtx470", case.switch, max_workers=2) as service:
        results = service.solve_many(requests)
    return [(batch, r.x) for batch, r in zip(requests, results)]


def _async_service(case, awaited):
    requests = [case.batch, case.twin]

    async def drive():
        async with AsyncSolveService("gtx470", case.switch, workers=2) as service:
            return await service.solve_many(requests)

    if awaited:
        results = asyncio.run(drive())
    else:
        with AsyncSolveService("gtx470", case.switch, workers=2) as service:
            results = service.solve_many_sync(requests)
    return [(batch, r.x) for batch, r in zip(requests, results)]


def _dist(case, mode, tolerance=None):
    m, n = case.batch.shape
    if mode == "batch" and (
        m < DIST_DEVICES or next_power_of_two(n) > case.switch.stage3_system_size
    ):
        return []  # batch mode shards only whole on-chip systems
    solver = DistributedSolver(DIST_DEVICES, case.switch, mode=mode)
    result = solver.solve(case.batch, tolerance=tolerance)
    assert result.plan.mode == mode
    return [(case.batch, result.x)]


def _spike_chunks(case):
    """Every chunk's local solve in each distributed row mode, on that
    mode's local plans, fused as in pipelined mode."""
    batch = case.coupled
    n = batch.system_size
    if n < DIST_DEVICES * MIN_CHUNK_ROWS:
        return []
    chunks = split_chunks(batch, partition_bounds(n, DIST_DEVICES))
    answers = []
    for mode in ("rows", "pipelined", "approx"):
        plan = DistributedSolver(DIST_DEVICES, case.switch, mode=mode).plan_for(batch)
        for chunk, local in zip(chunks, plan.local_plans):
            problem = spike_rhs(chunk)
            answers += _single_device(problem, case.switch, mode == "pipelined", local)
    return answers


def _factored(case):
    """Factor the batch at the PCR depth its plan runs; ``solve`` its own
    right-hand side and ``solve_many`` the drawn planes."""
    b = case.batch
    if not is_power_of_two(b.system_size):
        return []  # factorize takes power-of-two systems only
    plan = plan_solve(DEVICE, *b.shape, b.dtype.itemsize, case.switch)
    split = plan.stage1_steps + plan.stage2_steps
    depth = split + ilog2(min(plan.thomas_switch, b.system_size >> split))
    factors = factorize(b, depth)
    planes = case.shared.d
    return [(b, factors.solve(b.d))] + [
        (b.with_rhs(d), x) for d, x in zip(planes, factors.solve_many(planes))
    ]


EXACT, SPIKE, GOVERNED = "exact", "spike", "governed"

# (path, check, how it solves a case)
PATHS = (
    ("repro.solve", EXACT, lambda c: [(c.batch, repro.solve(c.batch, DEVICE, c.switch).x)]),
    ("fuse=False", EXACT, lambda c: _single_device(c.batch, c.switch, False)),
    ("fuse=True", EXACT, lambda c: _single_device(c.batch, c.switch, True)),
    ("fuse=auto", EXACT, lambda c: _single_device(c.batch, c.switch, "auto")),
    ("SharedMatrixBatch", EXACT, lambda c: _single_device(c.shared, c.switch, c.fuse)),
    ("SPIKE chunks", EXACT, _spike_chunks),
    ("BatchSolveService", EXACT, _batch_service),
    ("AsyncSolveService sync", EXACT, lambda c: _async_service(c, awaited=False)),
    ("AsyncSolveService awaited", EXACT, lambda c: _async_service(c, awaited=True)),
    ("factorize", EXACT, _factored),
    ("dist batch", EXACT, lambda c: _dist(c, "batch")),
    ("dist rows", SPIKE, lambda c: _dist(c, "rows")),
    ("dist pipelined", SPIKE, lambda c: _dist(c, "pipelined")),
    ("dist approx", GOVERNED, lambda c: _dist(c, "approx", _tolerance(c.batch))),
)


def _bits(x):
    return x.view(np.int32 if x.dtype == np.float32 else np.int64)


@settings(max_examples=examples(40), deadline=None)
@given(case=_cases())
def test_every_path_agrees_with_the_reference(case):
    references = {}

    def reference(problem):
        if id(problem) not in references:
            plan = plan_solve(
                DEVICE,
                problem.num_systems,
                problem.system_size,
                problem.dtype.itemsize,
                case.switch,
            )
            references[id(problem)] = (problem, reference_solve(problem, plan))
        return references[id(problem)][1]

    spike_answers = []
    for name, check, run in PATHS:
        for problem, x in run(case):
            expected = reference(problem)
            assert x.dtype == expected.dtype and x.shape == expected.shape, name
            if check == EXACT:
                np.testing.assert_array_equal(_bits(x), _bits(expected), err_msg=name)
            elif check == SPIKE:
                scale = np.maximum(np.abs(expected).max(axis=1, keepdims=True), 1)
                error = np.abs(x - expected) / scale
                assert error.max() <= default_tolerance(problem), name
                spike_answers.append((name, x))
            else:
                assert max_residual(problem, x) <= _tolerance(problem), name
    (first, x0), *rest = spike_answers
    for name, x in rest:
        np.testing.assert_array_equal(_bits(x), _bits(x0), err_msg=f"{name} vs {first}")
