"""Tests for multi-RHS factorised solves and CLI CSV output."""

import io

import numpy as np
import pytest

from repro.algorithms import factorize, thomas_solve
from repro.cli import main
from repro.systems import generators
from repro.util.errors import ShapeError


class TestSolveMany:
    def test_residuals(self):
        batch = generators.random_dominant(3, 256, rng=2)
        factors = factorize(batch)
        stack = np.random.default_rng(3).standard_normal((4, 3, 256))
        X = factors.solve_many(stack)
        for r in range(4):
            assert batch.with_rhs(stack[r]).residual(X[r]).max() < 1e-12

    def test_zero_depth(self):
        batch = generators.random_dominant(2, 64, rng=4)
        factors = factorize(batch, split_depth=0)
        stack = np.stack([batch.d, 2 * batch.d])
        X = factors.solve_many(stack)
        np.testing.assert_allclose(X[0], thomas_solve(batch), atol=1e-12)
        np.testing.assert_allclose(X[1], 2 * X[0], atol=1e-11)

    def test_shape_validation(self):
        batch = generators.random_dominant(2, 64, rng=5)
        factors = factorize(batch)
        with pytest.raises(ShapeError):
            factors.solve_many(np.zeros((2, 64)))
        with pytest.raises(ShapeError):
            factors.solve_many(np.zeros((3, 2, 32)))


class TestFiguresCsv:
    def test_csv_files_written(self, tmp_path):
        out = io.StringIO()
        code = main(
            ["figures", "--out", str(tmp_path), "--csv"], out=out
        )
        assert code == 0
        for name in ("figure5", "figure6", "figure7", "figure8"):
            assert (tmp_path / f"{name}.csv").exists(), name
        header = (tmp_path / "figure8.csv").read_text().splitlines()[0]
        assert header == "workload,gpu_ms,cpu_ms,speedup"

    def test_csv_off_by_default(self, tmp_path):
        out = io.StringIO()
        main(["figures", "--out", str(tmp_path)], out=out)
        assert not (tmp_path / "figure5.csv").exists()
