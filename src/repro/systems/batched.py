"""Interleaved (structure-of-arrays) batch layout.

:class:`~repro.systems.tridiagonal.TridiagonalBatch` stores ``m`` systems
of size ``n`` row-major: the four coefficient arrays are ``(m, n)``, so
equation ``i`` of one system sits ``n`` elements away from equation
``i+1`` — fine for host algorithms sweeping along a system, but the
worst possible layout for a GPU batch, where a warp wants to touch
*equation i of 32 adjacent systems* in one transaction.

:class:`BatchedTridiagonal` is the transposed view the batched solvers of
Gloster et al. (arXiv:1909.04539) and Carroll et al. (arXiv:2107.05395)
use: arrays are ``(n, m)``, all systems' equation ``i`` adjacent, so
every sweep over the equation axis is a fully coalesced pass over the
system axis. :meth:`BatchedTridiagonal.interleave` and
:meth:`~BatchedTridiagonal.deinterleave` convert between the two
layouts and round-trip bit-exactly; since both layouts hold the same
floats per logical element, every elementwise algorithm produces
bit-identical values in either layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..util.errors import ShapeError
from ..util.validation import check_dtype
from .tridiagonal import TridiagonalBatch

__all__ = ["BatchedTridiagonal"]


@dataclass(frozen=True)
class BatchedTridiagonal:
    """``m`` tridiagonal systems of size ``n`` in interleaved SoA layout.

    Arrays are ``(n, m)``: row ``i`` holds equation ``i`` of every
    system, column ``s`` holds system ``s``. The same corner convention
    as :class:`TridiagonalBatch` applies (``a[0, :]`` and ``c[-1, :]``
    are unused and fixed to 0).

    ``d`` may instead be an ``(r, n, m)`` stack of right-hand-side
    planes against the one matrix, the loaded
    :class:`~repro.systems.tridiagonal.SharedMatrixBatch`. Counts and
    shapes then describe the logical ``r·m`` systems, plane ``k`` being
    systems ``[k·m, (k+1)·m)``; :meth:`deinterleave` takes one plane
    only.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self) -> None:
        arrays = {}
        for name in ("a", "b", "c", "d"):
            arr = np.asarray(getattr(self, name))
            if arr.ndim != 2 and not (name == "d" and arr.ndim == 3):
                raise ShapeError(
                    f"{name} must be 2-D (n, m) interleaved, got ndim={arr.ndim}"
                )
            arrays[name] = arr
        shape = arrays["a"].shape
        for name, arr in arrays.items():
            if arr.shape[-2:] != shape:
                raise ShapeError(
                    f"{name} has shape {arr.shape}, expected {shape} (same as a)"
                )
        dtype = check_dtype(arrays["b"], "b")
        for name in ("a", "c", "d"):
            if arrays[name].dtype != dtype:
                raise ShapeError(
                    f"{name} has dtype {arrays[name].dtype}, expected {dtype} "
                    "(same as b)"
                )
        if arrays["b"].shape[0] < 1:
            raise ShapeError("systems must have at least one equation")
        a, c = arrays["a"], arrays["c"]
        if a[0, :].any():
            a = a.copy()
            a[0, :] = 0
        if c[-1, :].any():
            c = c.copy()
            c[-1, :] = 0
        arrays["a"], arrays["c"] = a, c
        for name, arr in arrays.items():
            object.__setattr__(self, name, np.ascontiguousarray(arr))

    # -- shape ------------------------------------------------------------

    @property
    def planes(self) -> int:
        """Right-hand-side planes ``r``: 1 for an ``(n, m)`` ``d``."""
        return self.d.shape[0] if self.d.ndim == 3 else 1

    @property
    def num_systems(self) -> int:
        """Number of independent systems ``r·m`` (``m`` is the fast axis)."""
        return self.b.shape[1] * self.planes

    @property
    def system_size(self) -> int:
        """Number of equations per system ``n`` (the slow axis)."""
        return self.b.shape[0]

    @property
    def shape(self) -> Tuple[int, int]:
        """Logical ``(r·m, n)`` — matching :class:`TridiagonalBatch`."""
        return (self.num_systems, self.system_size)

    @property
    def layout_shape(self) -> Tuple[int, int]:
        """Physical ``(n, m)`` array shape."""
        return self.b.shape

    @property
    def total_equations(self) -> int:
        """Total equations in the batch, ``r·m·n``."""
        return self.d.size

    @property
    def dtype(self) -> np.dtype:
        """Common dtype of the coefficient arrays."""
        return self.b.dtype

    @property
    def nbytes(self) -> int:
        """Total bytes of the four coefficient arrays."""
        return self.a.nbytes + self.b.nbytes + self.c.nbytes + self.d.nbytes

    # -- layout conversion --------------------------------------------------

    @classmethod
    def interleave(cls, batch: TridiagonalBatch) -> "BatchedTridiagonal":
        """Transpose a row-major batch into the interleaved layout."""
        return cls(
            np.ascontiguousarray(batch.a.T),
            np.ascontiguousarray(batch.b.T),
            np.ascontiguousarray(batch.c.T),
            np.ascontiguousarray(batch.d.T),
        )

    def deinterleave(self) -> TridiagonalBatch:
        """Transpose back to the row-major :class:`TridiagonalBatch`."""
        return TridiagonalBatch(
            np.ascontiguousarray(self.a.T),
            np.ascontiguousarray(self.b.T),
            np.ascontiguousarray(self.c.T),
            np.ascontiguousarray(self.d.T),
        )

    def __len__(self) -> int:
        return self.num_systems

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BatchedTridiagonal(m={self.num_systems}, n={self.system_size}, "
            f"dtype={self.dtype}, layout=interleaved)"
        )
