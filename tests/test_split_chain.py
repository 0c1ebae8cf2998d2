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
from repro.kernels import KernelContext, SplitChain, dtype_size
from repro.kernels.handlers import ExecState, execute_step
from repro.systems import generators
from repro.systems.batched import BatchedTridiagonal
from repro.systems.tridiagonal import TridiagonalBatch
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
    )


class TestAgainstGatheredReference:
    @settings(max_examples=examples(60), deadline=None)
    @given(case=_cases(), seed=st.integers(min_value=0, max_value=2**16))
    def test_execute_is_bit_identical_and_prices_like_price_mode(self, case, seed):
        batch = generators.random_dominant(
            case["m"], case["n"], rng=seed, dtype=case["dtype"]
        )
        plan = _plan(
            case["m"], case["n"], case["k1"], case["k2"], case["thomas_switch"]
        )
        ref_x, _ = _reference_solve(DEVICE, batch, plan)
        program = lower_solve_plan(
            plan, DEVICE, dtype_size(batch.dtype), fuse=case["fuse"]
        )
        engine = Engine.for_device(DEVICE)
        inputs = [arr.copy() for arr in (batch.a, batch.b, batch.c, batch.d)]
        run = engine.execute(program, batch)
        np.testing.assert_array_equal(_bits(run.x), _bits(ref_x))
        # The governor's refinement and merged service groups reuse them.
        for before, after in zip(inputs, (batch.a, batch.b, batch.c, batch.d)):
            np.testing.assert_array_equal(_bits(after), _bits(before))
        priced = engine.price(program)
        assert run.report.total_ms == priced.report.total_ms
        assert run.report.stage_ms() == priced.report.stage_ms()

    @pytest.mark.parametrize("fuse", [False, True])
    @pytest.mark.parametrize(
        "m,n,k1,k2,thomas_switch,system,row",
        [
            (3, 4096, 2, 3, 64, 1, 1234),
            (3, 4096, 5, 1, 8, 0, 0),
            (5, 1000, 3, 0, 32, 4, 999),
            (300, 64, 1, 1, 4, 123, 5),
            (2, 256, 2, 2, 4, 1, 255),
        ],
    )
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
        plan = _plan(m, n, case["k1"], case["k2"], case["thomas_switch"])
        with np.errstate(all="ignore"):
            expected = _outcome(lambda: _reference_solve(DEVICE, batch, plan)[0])
            got = _engine_outcome(batch, plan, case["fuse"])
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
