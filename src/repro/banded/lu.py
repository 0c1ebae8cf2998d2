"""Banded LU solve (no pivoting), batched over systems.

The forward elimination walks the columns once, eliminating the ``kl``
entries below each pivot against the ``ku``-wide pivot row — O(n·kl·ku)
work per system, vectorised across the batch. Diagonally dominant inputs
need no pivoting; a vanishing pivot raises
:class:`~repro.util.errors.SingularSystemError`.
"""

from __future__ import annotations

import numpy as np

from ..util.errors import SingularSystemError
from .containers import BandedBatch

__all__ = ["banded_lu_solve", "scipy_banded_oracle"]


def banded_lu_solve(batch: BandedBatch, *, check: bool = True) -> np.ndarray:
    """Solve every system of ``batch`` by banded Gaussian elimination."""
    n = batch.system_size
    kl, ku = batch.bandwidth
    dtype = batch.dtype
    info = np.finfo(dtype)
    floor = float(info.tiny / info.eps)

    # Work on dense per-diagonal rows: U[o] is the o-th super-diagonal
    # (0..ku), L factors are applied on the fly to the rhs.
    # Row-major working copy indexed [m, band_row, n].
    work = batch.bands.copy()
    rhs = batch.d.copy()

    def entry(i: int, j: int) -> np.ndarray:
        """View of A[i, j] across the batch (band storage)."""
        return work[:, ku + i - j, j]

    for col in range(n):
        piv = entry(col, col)
        if check and (np.abs(piv) <= floor).any():
            idx = int(np.argmax(np.abs(piv) <= floor))
            raise SingularSystemError(
                f"zero pivot at column {col} of system {idx}", system_index=idx
            )
        for below in range(col + 1, min(col + kl + 1, n)):
            factor = entry(below, col) / piv
            # Eliminate row `below` against the pivot row across its band.
            for right in range(col + 1, min(col + ku + 1, n)):
                entry(below, right)[...] -= factor * entry(col, right)
            rhs[:, below] -= factor * rhs[:, col]
            entry(below, col)[...] = 0.0

    # Back substitution on the upper-banded factor.
    x = np.empty_like(rhs)
    for row in range(n - 1, -1, -1):
        acc = rhs[:, row].copy()
        for right in range(row + 1, min(row + ku + 1, n)):
            acc -= entry(row, right) * x[:, right]
        x[:, row] = acc / entry(row, row)
    return x


def scipy_banded_oracle(batch: BandedBatch) -> np.ndarray:
    """Validation oracle via ``scipy.linalg.solve_banded`` (pivoted)."""
    from scipy.linalg import solve_banded

    m = batch.num_systems
    x = np.empty_like(batch.d)
    for i in range(m):
        x[i] = solve_banded(
            batch.bandwidth, batch.bands[i], batch.d[i]
        )
    return x
