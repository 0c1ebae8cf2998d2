"""Differential tests for the in-place split chain.

The engine runs every split stage on :class:`repro.kernels.SplitChain`,
in the original equation order. The gathered kernel sequence in
``tests/test_ir.py::_reference_solve`` (split, gather, solve, scatter) is
the independent reference: solutions must match it bit for bit —
compared as integers, so a flipped sign of zero counts — singular input
must fail with the same error, and execution must price exactly what the
data-free price mode prices. A NaN in the result of singular input is
compared as a NaN: IEEE 754 leaves its sign and payload open.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.planner import SolvePlan
from repro.gpu import make_device
from repro.ir import Engine, SplitCoop, Step, lower_solve_plan
from repro.kernels import KernelContext, dtype_size
from repro.kernels.handlers import ExecState, execute_step
from repro.systems import generators
from repro.systems.tridiagonal import TridiagonalBatch
from repro.util.errors import SingularSystemError
from repro.util.validation import ilog2, next_power_of_two
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
    @settings(max_examples=60, deadline=None)
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

    @settings(max_examples=40, deadline=None)
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


class TestAllocation:
    @pytest.mark.parametrize("steps", [2, 8])
    def test_split_peak_memory_does_not_grow_with_steps(self, steps):
        """No full-size temporaries per step: two ping-pong buffer sets
        (twice the batch) plus cache-sized scratch, whatever the depth."""
        batch = generators.random_dominant(1, 1 << 16, rng=0)
        ctx = KernelContext(DEVICE.session())
        state = ExecState.for_batch(batch)
        step = Step(op=SplitCoop(steps), stage="stage1_coop_pcr", shape=batch.shape)
        tracemalloc.start()
        try:
            execute_step(step, ctx, state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * batch.nbytes
