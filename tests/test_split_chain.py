"""Differential tests for the in-place split chain.

The engine runs every split stage on :class:`repro.kernels.SplitChain`,
in the original equation order. The gathered kernel sequence in
``tests/test_ir.py::_reference_solve`` (split, gather, solve, scatter) is
the independent reference: solutions must match it bit for bit —
compared as integers, so a flipped sign of zero counts — singular input
must fail with the same error, and execution must price exactly what the
data-free price mode prices. A NaN in the result of singular input is
compared as a NaN: IEEE 754 leaves its sign and payload open.

The host keeps one layout: ``Pad`` loads the systems-innermost
``(n_pad, m)`` view, ``Interleave`` moves no data, and ``Unpad`` unloads
the row-major answer; the layout-contract tests pin each of those.

A :class:`SharedMatrixBatch` of ``r`` right-hand-side planes must solve
and fail exactly like the tiled batch it stands for, priced the same,
while the chain does the matrix's work once: the operation-count tests
pin ``10 + 4r`` ufunc calls per PCR segment and ``3 + 3r`` per forward
Thomas row.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.padding import pad_pow2
from repro.core.planner import SolvePlan
from repro.gpu import make_device
from repro.ir import (
    Engine,
    Interleave,
    Pad,
    SplitCoop,
    Step,
    Unpad,
    lower_solve_plan,
)
from repro.kernels import KernelContext, SplitChain, chain, dtype_size
from repro.kernels.handlers import ExecState, execute_step
from repro.systems import generators
from repro.systems.batched import BatchedTridiagonal
from repro.systems.tridiagonal import SharedMatrixBatch, TridiagonalBatch
from repro.util.errors import ShapeError, SingularSystemError
from repro.util.validation import ilog2, next_power_of_two
from tests.conftest import examples
from tests.test_ir import _reference_solve

DEVICE = make_device("gtx470")


def _plan(m, n, k1, k2, thomas_switch):
    """A plan with the given split depths, for the padded size of ``n``."""
    padded = next_power_of_two(n)
    stage3 = padded >> (k1 + k2)
    return SolvePlan(
        num_systems=m,
        system_size=padded,
        stage1_steps=k1,
        stage2_steps=k2,
        stage3_system_size=stage3,
        thomas_switch=min(thomas_switch, stage3),
        variant="coalesced",
        stride=1 << (k1 + k2),
    )


def _bits(x):
    return x.view(np.int32 if x.dtype == np.float32 else np.int64)


def _outcome(solve):
    """The solution's bits, or the singular error's message and index."""
    try:
        x = solve()
    except SingularSystemError as exc:
        return ("singular", exc.args[0], exc.system_index)
    x = np.where(np.isnan(x), np.nan, x).astype(x.dtype)
    return ("solved", x.shape, _bits(x).tobytes())


def _zero_rows(batch, rows):
    """``batch`` with equations ``(system, row)`` zeroed: a = b = c = 0."""
    a, b, c, d = (arr.copy() for arr in (batch.a, batch.b, batch.c, batch.d))
    for system, row in rows:
        a[system, row] = b[system, row] = c[system, row] = 0
    return TridiagonalBatch(a, b, c, d)


def _with_planes(batch, planes, seed):
    """``(work, tiled)``: ``batch`` itself for ``planes=None``, else its
    matrix against ``planes`` right-hand sides (plane 0 is ``batch.d``)
    and the tiled batch that stands for."""
    if planes is None:
        return batch, batch
    rng = np.random.default_rng(seed)
    more = rng.standard_normal((planes - 1,) + batch.shape).astype(batch.dtype)
    shared = SharedMatrixBatch(
        batch.a, batch.b, batch.c, np.concatenate([batch.d[None], more])
    )
    return shared, shared.tiled()


def _engine_outcome(batch, plan, fuse):
    program = lower_solve_plan(plan, DEVICE, dtype_size(batch.dtype), fuse=fuse)
    outcome = _outcome(lambda: Engine.for_device(DEVICE).execute(program, batch).x)
    if outcome[0] == "singular":
        # The engine appends the failing instruction to the message.
        message, _, where = outcome[1].partition(" [step ")
        assert where.endswith(("OnChipSolve on dev0]", "BatchedSolve on dev0]"))
        outcome = ("singular", message, outcome[2])
    return outcome


@st.composite
def _cases(draw):
    m = draw(st.integers(min_value=1, max_value=40))
    n = draw(st.integers(min_value=2, max_value=4096))
    depth = ilog2(next_power_of_two(n))
    # The on-chip stage must fit the device: at most 1024 equations.
    k = draw(st.integers(min_value=max(0, depth - 10), max_value=depth))
    k1 = draw(st.integers(min_value=0, max_value=k))
    return dict(
        m=m,
        n=n,
        k1=k1,
        k2=k - k1,
        thomas_switch=1 << draw(st.integers(min_value=0, max_value=7)),
        dtype=draw(st.sampled_from([np.float32, np.float64])),
        fuse=draw(st.booleans()),
        planes=draw(st.sampled_from([None, 1, 2, 3])),
    )


# (m, n, k1, k2, thomas_switch, system, row) of one zeroed equation.
_SINGULAR = [
    (3, 4096, 2, 3, 64, 1, 1234),
    (3, 4096, 5, 1, 8, 0, 0),
    (5, 1000, 3, 0, 32, 4, 999),
    (300, 64, 1, 1, 4, 123, 5),
    (2, 256, 2, 2, 4, 1, 255),
]


class TestAgainstGatheredReference:
    @settings(max_examples=examples(60), deadline=None)
    @given(case=_cases(), seed=st.integers(min_value=0, max_value=2**16))
    def test_execute_is_bit_identical_and_prices_like_price_mode(self, case, seed):
        batch = generators.random_dominant(
            case["m"], case["n"], rng=seed, dtype=case["dtype"]
        )
        work, tiled = _with_planes(batch, case["planes"], seed)
        plan = _plan(
            tiled.num_systems,
            case["n"],
            case["k1"],
            case["k2"],
            case["thomas_switch"],
        )
        # Every plane against the tiled batch's systems.
        ref_x, _ = _reference_solve(DEVICE, tiled, plan)
        program = lower_solve_plan(
            plan, DEVICE, dtype_size(batch.dtype), fuse=case["fuse"]
        )
        engine = Engine.for_device(DEVICE)
        inputs = [arr.copy() for arr in _coeffs(work)]
        run = engine.execute(program, work)
        np.testing.assert_array_equal(_bits(run.x), _bits(ref_x))
        # The governor's refinement and merged service groups reuse them.
        for before, after in zip(inputs, _coeffs(work)):
            np.testing.assert_array_equal(_bits(after), _bits(before))
        for report in (engine.price(program).report, engine.execute(program, tiled).report):
            assert run.report.total_ms == report.total_ms
            assert run.report.stage_ms() == report.stage_ms()

    @pytest.mark.parametrize("fuse", [False, True])
    @pytest.mark.parametrize("m,n,k1,k2,thomas_switch,system,row", _SINGULAR)
    def test_zero_row_fails_like_the_reference(
        self, fuse, m, n, k1, k2, thomas_switch, system, row
    ):
        batch = _zero_rows(generators.random_dominant(m, n, rng=5), [(system, row)])
        plan = _plan(m, n, k1, k2, thomas_switch)
        with np.errstate(all="ignore"):
            expected = _outcome(lambda: _reference_solve(DEVICE, batch, plan)[0])
            got = _engine_outcome(batch, plan, fuse)
        assert expected[0] == "singular"
        assert got == expected

    @pytest.mark.parametrize("fuse", [False, True])
    @pytest.mark.parametrize("planes", [2, 3])
    @pytest.mark.parametrize("m,n,k1,k2,thomas_switch,system,row", _SINGULAR)
    def test_singular_matrix_fails_like_its_tiled_batch(
        self, fuse, planes, m, n, k1, k2, thomas_switch, system, row
    ):
        """Same message and index: the first offending tiled system lies
        in plane 0."""
        batch = _zero_rows(generators.random_dominant(m, n, rng=5), [(system, row)])
        work, tiled = _with_planes(batch, planes, seed=5)
        plan = _plan(tiled.num_systems, n, k1, k2, thomas_switch)
        with np.errstate(all="ignore"):
            expected = _engine_outcome(tiled, plan, fuse)
            got = _engine_outcome(work, plan, fuse)
        assert expected[0] == "singular"
        assert got == expected

    @settings(max_examples=examples(40), deadline=None)
    @given(case=_cases(), seed=st.integers(min_value=0, max_value=2**16), data=st.data())
    def test_zero_rows_fail_or_solve_like_the_reference(self, case, seed, data):
        m, n = case["m"], case["n"]
        cells = st.tuples(
            st.integers(min_value=0, max_value=m - 1),
            st.integers(min_value=0, max_value=n - 1),
        )
        rows = data.draw(st.lists(cells, min_size=1, max_size=3))
        batch = _zero_rows(
            generators.random_dominant(m, n, rng=seed, dtype=case["dtype"]), rows
        )
        work, tiled = _with_planes(batch, case["planes"], seed)
        plan = _plan(
            tiled.num_systems, n, case["k1"], case["k2"], case["thomas_switch"]
        )
        with np.errstate(all="ignore"):
            expected = _outcome(lambda: _reference_solve(DEVICE, tiled, plan)[0])
            got = _engine_outcome(work, plan, case["fuse"])
        assert got == expected


def _coeffs(batch):
    return (batch.a, batch.b, batch.c, batch.d)


def _run(state, *ops):
    """Execute ``ops`` on ``state``, each at the batch's logical shape."""
    ctx = KernelContext(DEVICE.session())
    for op in ops:
        execute_step(Step(op=op, shape=state.work.shape), ctx, state)


class TestLayoutContract:
    @pytest.mark.parametrize("m,n", [(1, 256), (1, 100), (5, 256), (5, 100)])
    def test_pad_loads_the_padded_batch_systems_innermost(self, m, n):
        batch = generators.random_dominant(m, n, rng=3)
        state = ExecState.for_batch(batch)
        _run(state, Pad(next_power_of_two(n)))
        expected = BatchedTridiagonal.interleave(pad_pow2(batch)[0])
        assert isinstance(state.work, BatchedTridiagonal)
        for got, want in zip(_coeffs(state.work), _coeffs(expected)):
            assert got.flags.c_contiguous
            np.testing.assert_array_equal(_bits(got), _bits(want))
        # Only a copy is the state's to recycle.
        assert state.owned == (m > 1 or n != next_power_of_two(n))

    @pytest.mark.parametrize("fuse", [False, True])
    def test_one_system_loads_as_a_view_and_is_never_written(self, fuse):
        batch = generators.random_dominant(1, 4096, rng=4)
        state = ExecState.for_batch(batch)
        _run(state, Pad(4096))
        for loaded, caller in zip(_coeffs(state.work), _coeffs(batch)):
            assert np.shares_memory(loaded, caller)
        inputs = [arr.copy() for arr in _coeffs(batch)]
        program = lower_solve_plan(_plan(1, 4096, 2, 3, 8), DEVICE, 8, fuse=fuse)
        run = Engine.for_device(DEVICE).execute(program, batch)
        assert run.x.shape == (1, 4096)
        for before, after in zip(inputs, _coeffs(batch)):
            np.testing.assert_array_equal(_bits(after), _bits(before))

    def test_interleave_moves_no_data(self):
        batch = generators.random_dominant(4, 64, rng=5)
        state = ExecState.for_batch(batch)
        _run(state, Pad(64))
        state.x = np.zeros((64, 4))
        work, x = state.work, state.x
        _run(state, Interleave("in"), Interleave("out"))
        assert state.work is work and state.x is x

    @pytest.mark.parametrize("m,n", [(1, 256), (1, 100), (6, 256), (6, 100)])
    def test_unpad_unloads_a_row_major_answer(self, m, n):
        batch = generators.random_dominant(m, n, rng=6)
        state = ExecState.for_batch(batch)
        padded = next_power_of_two(n)
        _run(state, Pad(padded))
        solution = np.arange(padded * m, dtype=np.float64).reshape(padded, m)
        state.x = solution
        _run(state, Unpad())
        assert state.x.shape == (m, n)
        assert state.x.flags.c_contiguous
        np.testing.assert_array_equal(state.x, solution[:n].T)

    def test_split_chain_rejects_the_row_major_container(self):
        batch = generators.random_dominant(3, 64, rng=7)
        with pytest.raises(ShapeError, match="BatchedTridiagonal"):
            SplitChain.of(batch)


class TestAllocation:
    @pytest.mark.parametrize("steps", [2, 8])
    @pytest.mark.parametrize("m", [1, 8])
    def test_split_peak_memory_does_not_grow_with_steps(self, m, steps):
        """No full-size temporaries per step: two ping-pong buffer sets
        (twice the batch) plus cache-sized scratch, whatever the depth.
        For m > 1 one of the two sets is Pad's private copy, recycled."""
        batch = generators.random_dominant(m, (1 << 16) // m, rng=0)
        state = ExecState.for_batch(batch)
        tracemalloc.start()
        try:
            _run(state, Pad(batch.system_size), SplitCoop(steps))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * batch.nbytes


class _CountingNumpy:
    """``numpy``, counting every ufunc call made through it."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        attr = getattr(np, name)
        if not isinstance(attr, np.ufunc):
            return attr

        def counted(*args, **kwargs):
            self.calls += 1
            return attr(*args, **kwargs)

        return counted


class TestSharedMatrixWork:
    """The matrix's work runs once however many planes share it; one
    plane, loaded from either container, makes the single-plane calls."""

    @staticmethod
    def _chain(planes, m, n):
        work, _ = _with_planes(generators.random_dominant(m, n, rng=8), planes, 8)
        state = ExecState.for_batch(work)
        _run(state, Pad(n))
        return SplitChain.of(state.work)

    @pytest.mark.parametrize("planes", [None, 1, 2, 3])
    def test_split_step_calls_per_segment(self, monkeypatch, planes):
        split = self._chain(planes, 8, 4096)  # two tiles, four segments
        numpy, segments = _CountingNumpy(), []
        update = chain._update
        monkeypatch.setattr(chain, "np", numpy)
        monkeypatch.setattr(
            chain, "_update", lambda *args: (segments.append(1), update(*args))
        )
        split.split(1)
        assert len(segments) == 4
        assert numpy.calls == len(segments) * (10 + 4 * (planes or 1))

    @pytest.mark.parametrize("planes", [None, 1, 2, 3])
    def test_thomas_calls_per_row(self, monkeypatch, planes):
        rows, r = 64, planes or 1
        sweep = self._chain(planes, 5, rows)
        numpy = _CountingNumpy()
        monkeypatch.setattr(chain, "np", numpy)
        sweep.thomas(check=False)
        first = 1 + r  # c' and every plane's d' of row 0
        forward = 3 + 3 * r  # pivot and c' once, d' per plane
        backward = 2 * r
        assert numpy.calls == first + (rows - 1) * (forward + backward)
