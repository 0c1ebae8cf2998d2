"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from repro.systems import generators
from repro.systems.tridiagonal import TridiagonalBatch


@pytest.fixture
def rng():
    """A deterministic generator; tests share the seed for reproducibility."""
    return np.random.default_rng(1234)


@pytest.fixture
def small_batch():
    """7 dominant systems of 32 equations — fast, exercises batching."""
    return generators.random_dominant(7, 32, rng=7)


@pytest.fixture
def pow2_batch():
    """16 dominant systems of 128 equations (power-of-two size)."""
    return generators.random_dominant(16, 128, rng=11)


@pytest.fixture
def odd_batch():
    """Systems whose size is not a power of two (forces padding paths)."""
    return generators.random_dominant(5, 100, rng=13)


# ---------------------------------------------------------------------------
# Hypothesis profiles: the fast tier runs "default"; the nightly CI job
# sets HYPOTHESIS_PROFILE=nightly for ten times the examples.
# ---------------------------------------------------------------------------

_DEFAULT_EXAMPLES = settings.get_profile("default").max_examples
settings.register_profile("nightly", max_examples=10 * _DEFAULT_EXAMPLES)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def examples(fast: int) -> int:
    """``fast`` examples, scaled like the active profile's max_examples."""
    return fast * settings.default.max_examples // _DEFAULT_EXAMPLES


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------

pow2_sizes = st.sampled_from([1, 2, 4, 8, 16, 32, 64, 128, 256])
small_counts = st.integers(min_value=1, max_value=6)


@st.composite
def dominant_batches(draw, min_size=1, max_size=256, pow2=True):
    """Strategy producing diagonally dominant batches."""
    if pow2:
        exp_max = max_size.bit_length() - 1
        exp_min = max(0, (min_size - 1).bit_length())
        n = 1 << draw(st.integers(min_value=exp_min, max_value=exp_max))
    else:
        n = draw(st.integers(min_value=min_size, max_value=max_size))
    m = draw(small_counts)
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    dominance = draw(st.floats(min_value=1.05, max_value=4.0))
    return generators.random_dominant(m, n, dominance=dominance, rng=seed)


def misaligned(batch, offset: int):
    """``batch`` (row-major or shared-matrix) with every array copied to
    start ``offset`` bytes past a 64-byte cache line; ``offset`` is
    rounded down to a multiple of the itemsize."""
    offset -= offset % batch.dtype.itemsize

    def copy(arr):
        raw = np.empty(arr.nbytes + 64 + offset, dtype=np.uint8)
        out = np.ndarray(arr.shape, arr.dtype, raw, -raw.ctypes.data % 64 + offset)
        out[...] = arr
        return out

    return type(batch)(*(copy(arr) for arr in (batch.a, batch.b, batch.c, batch.d)))


#: A byte offset past a cache line, for :func:`misaligned`.
line_offsets = st.integers(min_value=0, max_value=63)


def assert_close_to_oracle(batch: TridiagonalBatch, x, *, factor: float = 1.0):
    """Assert ``x`` matches the scipy banded oracle within a scaled tol."""
    from repro.algorithms import default_tolerance, scipy_banded_solve

    oracle = scipy_banded_solve(batch)
    tol = default_tolerance(batch) * factor
    scale = np.maximum(np.abs(oracle).max(axis=1, keepdims=True), 1.0)
    np.testing.assert_allclose(x / scale, oracle / scale, atol=tol, rtol=tol)
