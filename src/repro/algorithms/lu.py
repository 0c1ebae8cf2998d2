"""Banded LU solvers — the MKL-style sequential baseline.

The paper's CPU comparator (Figure 8) is Intel MKL's tridiagonal solver,
"a sequential LU decomposition algorithm". This module provides:

- :func:`lu_factor` / :func:`lu_solve_factored` — an explicit tridiagonal
  LU factorisation reusable across right-hand sides (the pattern ADI codes
  rely on when the matrix is constant over time steps);
- :func:`lu_solve` — factor-and-solve in one call (equivalent to Thomas
  but retaining the factors);
- :func:`scipy_banded_solve` — an independent oracle built on
  ``scipy.linalg.solve_banded`` (LAPACK ``?gtsv``, with partial
  pivoting) used by the test suite to validate every other algorithm,
  by the governed solve's last rung, and by the MKL-like CPU baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..systems.tridiagonal import TridiagonalBatch
from ..util.errors import SingularSystemError
from ..util.validation import check_finite_batch

__all__ = ["TridiagonalLU", "lu_factor", "lu_solve_factored", "lu_solve", "scipy_banded_solve"]


@dataclass(frozen=True)
class TridiagonalLU:
    """LU factors of a tridiagonal batch: ``A = L U``.

    ``L`` is unit lower bidiagonal with sub-diagonal ``l``; ``U`` is upper
    bidiagonal with diagonal ``u`` and super-diagonal ``c`` (unchanged from
    ``A``).
    """

    l: np.ndarray
    u: np.ndarray
    c: np.ndarray

    @property
    def shape(self):
        """``(m, n)`` of the factored batch."""
        return self.u.shape


def lu_factor(batch: TridiagonalBatch, *, check: bool = True) -> TridiagonalLU:
    """Factor every system as ``L U`` (no pivoting).

    Raises :class:`SingularSystemError` on a vanishing pivot when
    ``check`` is true.
    """
    a, b, c = batch.a, batch.b, batch.c
    m, n = batch.shape
    dtype = batch.dtype
    info = np.finfo(dtype)
    floor = float(info.tiny / info.eps)

    l = np.zeros((m, n), dtype=dtype)
    u = np.empty((m, n), dtype=dtype)
    u[:, 0] = b[:, 0]
    for i in range(1, n):
        piv = u[:, i - 1]
        if check and (np.abs(piv) <= floor).any():
            idx = int(np.argmax(np.abs(piv) <= floor))
            raise SingularSystemError(
                f"zero pivot at row {i - 1} of system {idx}", system_index=idx
            )
        l[:, i] = a[:, i] / piv
        u[:, i] = b[:, i] - l[:, i] * c[:, i - 1]
    if check and (np.abs(u[:, -1]) <= floor).any():
        idx = int(np.argmax(np.abs(u[:, -1]) <= floor))
        raise SingularSystemError(
            f"zero pivot at row {n - 1} of system {idx}", system_index=idx
        )
    return TridiagonalLU(l=l, u=u, c=c.copy())


def lu_solve_factored(factors: TridiagonalLU, d: np.ndarray) -> np.ndarray:
    """Solve ``L U x = d`` given precomputed factors.

    ``d`` is ``(m, n)`` matching the factored batch; the factors are reused
    unchanged, which is the whole point of keeping them.
    """
    l, u, c = factors.l, factors.u, factors.c
    m, n = u.shape
    y = np.empty_like(d)
    y[:, 0] = d[:, 0]
    for i in range(1, n):
        y[:, i] = d[:, i] - l[:, i] * y[:, i - 1]
    x = np.empty_like(d)
    x[:, -1] = y[:, -1] / u[:, -1]
    for i in range(n - 2, -1, -1):
        x[:, i] = (y[:, i] - c[:, i] * x[:, i + 1]) / u[:, i]
    return x


def lu_solve(batch: TridiagonalBatch, *, check: bool = True) -> np.ndarray:
    """Factor and solve in one call."""
    return lu_solve_factored(lu_factor(batch, check=check), batch.d)


def scipy_banded_solve(batch: TridiagonalBatch) -> np.ndarray:
    """Oracle solve via ``scipy.linalg.solve_banded`` (partial pivoting).

    Loops over systems (LAPACK is per-matrix). Raises the library's
    typed errors, never scipy's: :class:`InvalidSystemError` naming the
    first system with a NaN or Inf entry, and
    :class:`SingularSystemError` (not ``LinAlgError``) when a system has
    no solution, so callers — the escalation ladder included — never see
    an untyped failure. A zero main-diagonal entry is not an error here:
    LAPACK pivots past it.
    """
    from scipy.linalg import solve_banded

    check_finite_batch(batch, context="banded solve")
    m, n = batch.shape
    x = np.empty((m, n), dtype=batch.dtype)
    ab = np.zeros((3, n), dtype=batch.dtype)
    for i in range(m):
        ab[0, 1:] = batch.c[i, :-1]
        ab[1, :] = batch.b[i]
        ab[2, :-1] = batch.a[i, 1:]
        try:
            x[i] = solve_banded((1, 1), ab, batch.d[i])
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(
                f"system {i} is singular: {exc}", system_index=i
            ) from exc
    return x
