"""Tests for factorization reuse and the Black-Scholes pricer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import (
    factorize,
    pcr_thomas_solve,
    scipy_banded_solve,
    thomas_solve,
)
from repro.apps import BlackScholesPricer, black_scholes_closed_form
from repro.systems import generators
from repro.systems.tridiagonal import TridiagonalBatch
from repro.util.errors import ConfigurationError, ShapeError, SingularSystemError
from repro.util.validation import ilog2
from tests.conftest import examples


def _bits(x):
    return x.view(np.int32 if x.dtype == np.float32 else np.int64)


class TestFactorization:
    def test_matches_direct_solve(self):
        batch = generators.random_dominant(8, 256, rng=0)
        factors = factorize(batch)
        x = factors.solve(batch.d)
        np.testing.assert_allclose(x, scipy_banded_solve(batch), atol=1e-10)

    @pytest.mark.parametrize("depth", [0, 1, 3, 6])
    def test_any_split_depth(self, depth):
        batch = generators.random_dominant(4, 128, rng=depth)
        factors = factorize(batch, split_depth=depth)
        np.testing.assert_allclose(
            factors.solve(batch.d), thomas_solve(batch), atol=1e-10
        )

    def test_reuse_across_many_rhs(self):
        batch = generators.random_dominant(4, 512, rng=1)
        factors = factorize(batch)
        rng = np.random.default_rng(2)
        for _ in range(5):
            d = rng.standard_normal(batch.shape)
            x = factors.solve(d)
            assert batch.with_rhs(d).residual(x).max() < 1e-12

    def test_matches_hybrid_exactly_for_same_depth(self):
        """Same split depth -> numerically the same algorithm."""
        batch = generators.random_dominant(2, 256, rng=3)
        factors = factorize(batch, split_depth=4)
        assert np.array_equal(factors.solve(batch.d), pcr_thomas_solve(batch, 16))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("m,n", [(1, 4), (3, 64), (5, 512)])
    def test_bit_identical_to_hybrid_at_every_depth(self, dtype, m, n):
        """A factored solve replays the chain's plane passes: the hybrid's
        bits at every depth, and ``solve_many`` row by row."""
        batch = generators.random_dominant(m, n, rng=n + m, dtype=dtype)
        stack = np.random.default_rng(n).standard_normal((3, m, n)).astype(dtype)
        for depth in range(ilog2(n) + 1):
            factors = factorize(batch, split_depth=depth)
            many = factors.solve_many(stack)
            for d, x in zip(stack, many):
                expected = pcr_thomas_solve(batch.with_rhs(d), 1 << depth)
                assert _bits(factors.solve(d)).tobytes() == _bits(expected).tobytes()
                assert _bits(x).tobytes() == _bits(expected).tobytes()

    @pytest.mark.parametrize("m", [1, 3])
    def test_never_writes_the_callers_arrays(self, m):
        batch = generators.random_dominant(m, 256, rng=m)
        before = [arr.copy() for arr in (batch.a, batch.b, batch.c, batch.d)]
        factors = factorize(batch, split_depth=3)
        rhs = 2 * batch.d
        factors.solve(rhs)
        factors.solve_many(rhs[None])
        np.testing.assert_array_equal(rhs, 2 * batch.d)
        for arr, copy in zip((batch.a, batch.b, batch.c, batch.d), before):
            np.testing.assert_array_equal(arr, copy)

    def test_singular_matrix_fails_like_the_hybrid(self):
        batch = generators.random_dominant(3, 128, rng=6)
        a, b, c = (arr.copy() for arr in (batch.a, batch.b, batch.c))
        a[2, 77] = b[2, 77] = c[2, 77] = 0
        batch = TridiagonalBatch(a, b, c, batch.d)
        with np.errstate(all="ignore"):
            with pytest.raises(SingularSystemError) as expected:
                pcr_thomas_solve(batch, 8)
            with pytest.raises(SingularSystemError) as got:
                factorize(batch, split_depth=3)
        assert got.value.args == expected.value.args
        assert got.value.system_index == expected.value.system_index

    def test_shape_validation(self):
        batch = generators.random_dominant(2, 64, rng=4)
        factors = factorize(batch)
        with pytest.raises(ShapeError):
            factors.solve(np.zeros((2, 32)))
        with pytest.raises(ShapeError):
            factorize(batch, split_depth=8)  # 2^8 > 64

    def test_non_pow2_rejected(self):
        batch = generators.random_dominant(1, 100, rng=5)
        with pytest.raises(ConfigurationError):
            factorize(batch)


@settings(max_examples=examples(20), deadline=None)
@given(
    n_exp=st.integers(min_value=2, max_value=9),
    depth=st.integers(min_value=0, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_factorization_property(n_exp, depth, seed):
    n = 1 << n_exp
    depth = min(depth, n_exp)
    batch = generators.random_dominant(3, n, rng=seed)
    factors = factorize(batch, split_depth=depth)
    x = factors.solve(batch.d)
    assert batch.residual(x).max() < 1e-10


class TestBlackScholes:
    def test_matches_closed_form_calls(self):
        pricer = BlackScholesPricer(
            rate=0.03, sigma=0.25, grid_points=512, time_steps=400
        )
        strikes = np.array([80.0, 100.0, 120.0])
        spot, maturity = 100.0, 1.0
        pde = pricer.price(strikes, maturity, spot, call=True)
        exact = black_scholes_closed_form(spot, strikes, 0.03, 0.25, maturity)
        # With cell-averaged payoffs and interpolated readout the
        # pricer is accurate to well under a cent here.
        np.testing.assert_allclose(pde, exact, atol=0.02)

    def test_matches_closed_form_puts(self):
        pricer = BlackScholesPricer(
            rate=0.05, sigma=0.2, grid_points=512, time_steps=400
        )
        pde = pricer.price(np.array([100.0]), 0.5, 100.0, call=False)
        exact = black_scholes_closed_form(
            100.0, 100.0, 0.05, 0.2, 0.5, call=False
        )
        assert pde[0] == pytest.approx(float(exact), abs=0.02)

    def test_put_call_parity(self):
        pricer = BlackScholesPricer(grid_points=512, time_steps=300)
        strike, spot, maturity = 105.0, 100.0, 1.0
        call = pricer.price(np.array([strike]), maturity, spot, call=True)[0]
        put = pricer.price(np.array([strike]), maturity, spot, call=False)[0]
        parity = spot - strike * np.exp(-pricer.rate * maturity)
        assert call - put == pytest.approx(parity, abs=0.05)

    def test_monotone_in_strike(self):
        pricer = BlackScholesPricer(grid_points=256, time_steps=100)
        strikes = np.array([80.0, 90.0, 100.0, 110.0, 120.0])
        calls = pricer.price(strikes, 1.0, 100.0, call=True)
        assert (np.diff(calls) < 0).all()  # call value falls with strike

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BlackScholesPricer(sigma=-0.1)
        pricer = BlackScholesPricer(grid_points=128, time_steps=10)
        with pytest.raises(ConfigurationError):
            pricer.price(np.array([100.0]), -1.0, 100.0)

    def test_grid_rounded_to_pow2(self):
        pricer = BlackScholesPricer(grid_points=300, time_steps=10)
        assert pricer.grid_points == 512
