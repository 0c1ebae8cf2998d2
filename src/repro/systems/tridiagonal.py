"""Tridiagonal system containers.

A tridiagonal system ``A x = d`` is stored as four coefficient vectors per
system, following the convention of the paper (and of cuSPARSE ``gtsv``):

- ``a`` — sub-diagonal, with ``a[0]`` unused and fixed to 0,
- ``b`` — main diagonal,
- ``c`` — super-diagonal, with ``c[-1]`` unused and fixed to 0,
- ``d`` — right-hand side.

Row ``i`` of the system reads ``a[i] * x[i-1] + b[i] * x[i] + c[i] * x[i+1]
= d[i]``.

:class:`TridiagonalBatch` stores ``m`` independent systems of equal size
``n`` as four ``(m, n)`` arrays. Batches are the unit of work for every
solver in this library: the paper's workloads ("1K×1K", "1×2M", ...) map
directly onto batch shapes, and vectorised NumPy kernels operate on whole
batches at once. :class:`SharedMatrixBatch` is the same ``m`` matrices
against ``r`` right-hand sides each (SPIKE's three-RHS chunk solve),
stored once and reported as the logical ``r·m``-system batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from ..util.errors import ShapeError
from ..util.validation import check_dtype, check_same_shape

__all__ = ["TridiagonalSystem", "TridiagonalBatch", "SharedMatrixBatch"]


def _as_2d(arr: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(arr)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 1-D or 2-D, got ndim={arr.ndim}")
    return arr


@dataclass(frozen=True)
class TridiagonalBatch:
    """A batch of ``m`` independent tridiagonal systems of size ``n``.

    Arrays are ``(m, n)`` and share a dtype. Construction validates shapes
    and zeroes the unused corner entries (``a[:, 0]`` and ``c[:, -1]``) so
    downstream algorithms may rely on them.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self) -> None:
        a = _as_2d(self.a, "a")
        b = _as_2d(self.b, "b")
        c = _as_2d(self.c, "c")
        d = _as_2d(self.d, "d")
        check_same_shape([a, b, c, d], ["a", "b", "c", "d"])
        dtype = check_dtype(b, "b")
        for name, arr in (("a", a), ("c", c), ("d", d)):
            if arr.dtype != dtype:
                raise ShapeError(
                    f"{name} has dtype {arr.dtype}, expected {dtype} (same as b)"
                )
        if b.shape[1] < 1:
            raise ShapeError("systems must have at least one equation")
        # Normalise the unused corners. Copy only when needed.
        if a[:, 0].any():
            a = a.copy()
            a[:, 0] = 0
        if c.shape[1] > 0 and c[:, -1].any():
            c = c.copy()
            c[:, -1] = 0
        object.__setattr__(self, "a", np.ascontiguousarray(a))
        object.__setattr__(self, "b", np.ascontiguousarray(b))
        object.__setattr__(self, "c", np.ascontiguousarray(c))
        object.__setattr__(self, "d", np.ascontiguousarray(d))

    # -- shape ------------------------------------------------------------

    @property
    def num_systems(self) -> int:
        """Number of independent systems ``m``."""
        return self.b.shape[0]

    @property
    def system_size(self) -> int:
        """Number of equations per system ``n``."""
        return self.b.shape[1]

    @property
    def shape(self) -> Tuple[int, int]:
        """``(m, n)``: (number of systems, equations per system)."""
        return self.b.shape

    @property
    def total_equations(self) -> int:
        """Total equations in the batch, ``m * n``."""
        return self.b.size

    @property
    def dtype(self) -> np.dtype:
        """Common dtype of the coefficient arrays."""
        return self.b.dtype

    @property
    def nbytes(self) -> int:
        """Total bytes of the four coefficient arrays."""
        return self.a.nbytes + self.b.nbytes + self.c.nbytes + self.d.nbytes

    # -- construction helpers ---------------------------------------------

    @classmethod
    def from_single(
        cls, a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray
    ) -> "TridiagonalBatch":
        """Build a batch holding one system from 1-D coefficient vectors."""
        return cls(
            np.asarray(a)[None, :],
            np.asarray(b)[None, :],
            np.asarray(c)[None, :],
            np.asarray(d)[None, :],
        )

    @classmethod
    def stack(cls, batches: "list[TridiagonalBatch]") -> "TridiagonalBatch":
        """Concatenate batches of equal system size along the system axis."""
        if not batches:
            raise ShapeError("cannot stack an empty list of batches")
        sizes = {batch.system_size for batch in batches}
        if len(sizes) != 1:
            raise ShapeError(f"cannot stack batches of differing sizes {sorted(sizes)}")
        return cls(
            np.concatenate([t.a for t in batches]),
            np.concatenate([t.b for t in batches]),
            np.concatenate([t.c for t in batches]),
            np.concatenate([t.d for t in batches]),
        )

    def copy(self) -> "TridiagonalBatch":
        """A deep copy (solvers that modify in place should work on copies)."""
        return TridiagonalBatch(
            self.a.copy(), self.b.copy(), self.c.copy(), self.d.copy()
        )

    def astype(self, dtype) -> "TridiagonalBatch":
        """Cast the batch to another floating dtype."""
        dtype = np.dtype(dtype)
        return TridiagonalBatch(
            self.a.astype(dtype),
            self.b.astype(dtype),
            self.c.astype(dtype),
            self.d.astype(dtype),
        )

    def with_rhs(self, d: np.ndarray) -> "TridiagonalBatch":
        """Same matrix, new right-hand side(s)."""
        d = _as_2d(np.asarray(d, dtype=self.dtype), "d")
        if d.shape != self.shape:
            raise ShapeError(f"d has shape {d.shape}, expected {self.shape}")
        return TridiagonalBatch(self.a, self.b, self.c, d)

    # -- indexing ----------------------------------------------------------

    def system(self, i: int) -> "TridiagonalSystem":
        """View of system ``i`` as a :class:`TridiagonalSystem`."""
        return TridiagonalSystem(self.a[i], self.b[i], self.c[i], self.d[i])

    def __len__(self) -> int:
        return self.num_systems

    def __iter__(self) -> Iterator["TridiagonalSystem"]:
        for i in range(self.num_systems):
            yield self.system(i)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TridiagonalBatch(m={self.num_systems}, n={self.system_size}, "
            f"dtype={self.dtype})"
        )

    # -- linear algebra -----------------------------------------------------

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Compute ``A @ x`` per system; ``x`` is ``(m, n)`` (or ``(n,)``).

        Used by residual checks and property tests.
        """
        x = _as_2d(np.asarray(x, dtype=self.dtype), "x")
        if x.shape != self.shape:
            raise ShapeError(f"x has shape {x.shape}, expected {self.shape}")
        out = self.b * x
        out[:, 1:] += self.a[:, 1:] * x[:, :-1]
        out[:, :-1] += self.c[:, :-1] * x[:, 1:]
        return out

    def residual(self, x: np.ndarray) -> np.ndarray:
        """Per-system relative residual ``||A x - d|| / max(||d||, tiny)``."""
        r = self.matvec(x) - self.d
        num = np.linalg.norm(r, axis=1)
        den = np.maximum(np.linalg.norm(self.d, axis=1), np.finfo(self.dtype).tiny)
        return num / den

    def to_dense(self) -> np.ndarray:
        """Dense ``(m, n, n)`` matrices — for tests on small systems only."""
        m, n = self.shape
        out = np.zeros((m, n, n), dtype=self.dtype)
        idx = np.arange(n)
        out[:, idx, idx] = self.b
        if n > 1:
            out[:, idx[1:], idx[:-1]] = self.a[:, 1:]
            out[:, idx[:-1], idx[1:]] = self.c[:, :-1]
        return out


@dataclass(frozen=True)
class SharedMatrixBatch:
    """``m`` tridiagonal matrices, each against ``r`` right-hand sides.

    ``a``, ``b`` and ``c`` are ``(m, n)`` as in :class:`TridiagonalBatch`,
    but may be views of a wider batch's columns (one SPIKE chunk's rows):
    ``a[:, 0]`` and ``c[:, -1]`` are not part of the matrix, may hold
    couplings to the neighbouring rows, and read as +0. ``d`` is a
    ``(k, m, n)`` stack of dense right-hand-side planes, the convention
    of :meth:`~repro.kernels.chain.FactoredChain.solve_many`; plane 0 is
    the data. ``impulses`` are further planes that are +0 but in one
    row, each ``(row, values)`` with ``values`` shaped ``(m,)``: SPIKE's
    spikes, described without storing their zeros. Nothing is copied.

    It stands for the row-major batch :meth:`tiled` builds, ``r·m``
    systems for ``r = k + len(impulses)`` with plane ``j`` as systems
    ``[j·m, (j+1)·m)``, and reports that batch's shape and bytes, so
    prices and memory-fit checks see the systems a device holds while
    the host stores each matrix once.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    impulses: Tuple[Tuple[int, np.ndarray], ...] = ()

    def __post_init__(self) -> None:
        a, b, c = (_as_2d(getattr(self, name), name) for name in "abc")
        check_same_shape([a, b, c], ["a", "b", "c"])
        dtype = check_dtype(b, "b")
        m, n = b.shape
        if n < 1:
            raise ShapeError("systems must have at least one equation")
        d = np.asarray(self.d)
        if d.ndim != 3 or d.shape[0] < 1 or d.shape[1:] != (m, n):
            raise ShapeError(
                f"d must be a (k, {m}, {n}) stack with k >= 1, got shape {d.shape}"
            )
        impulses = tuple((int(row), np.asarray(values)) for row, values in self.impulses)
        for row, values in impulses:
            if not 0 <= row < n or values.shape != (m,):
                raise ShapeError(
                    f"an impulse is a row in [0, {n}) and ({m},) values, got "
                    f"row {row} and shape {values.shape}"
                )
        for name, arr in (("a", a), ("c", c), ("d", d), *(("impulse", v) for _, v in impulses)):
            if arr.dtype != dtype:
                raise ShapeError(
                    f"{name} has dtype {arr.dtype}, expected {dtype} (same as b)"
                )
        for name, arr in (("a", a), ("b", b), ("c", c), ("d", d), ("impulses", impulses)):
            object.__setattr__(self, name, arr)

    @property
    def planes(self) -> int:
        """Right-hand sides per matrix, ``r``."""
        return len(self.d) + len(self.impulses)

    @property
    def num_systems(self) -> int:
        """Logical system count ``r·m``."""
        return self.planes * self.b.shape[0]

    @property
    def system_size(self) -> int:
        """Number of equations per system ``n``."""
        return self.b.shape[1]

    @property
    def shape(self) -> Tuple[int, int]:
        """Logical ``(r·m, n)``, the shape of :meth:`tiled`."""
        return (self.num_systems, self.system_size)

    @property
    def dtype(self) -> np.dtype:
        """Common dtype of the coefficient arrays."""
        return self.b.dtype

    @property
    def nbytes(self) -> int:
        """Bytes of the logical batch: four ``(r·m, n)`` arrays."""
        return 4 * self.num_systems * self.system_size * self.dtype.itemsize

    def tiled(self) -> TridiagonalBatch:
        """The logical batch: the matrix with +0 corners repeated once per
        plane, and every plane dense."""
        r, k = self.planes, len(self.d)
        a, b, c = (np.tile(arr, (r, 1)) for arr in (self.a, self.b, self.c))
        a[:, 0] = c[:, -1] = 0
        d = np.zeros((r,) + self.b.shape, dtype=self.dtype)
        d[:k] = self.d
        for plane, (row, values) in zip(d[k:], self.impulses):
            plane[:, row] = values
        return TridiagonalBatch(a, b, c, d.reshape(self.shape))


@dataclass(frozen=True)
class TridiagonalSystem:
    """A single tridiagonal system — a thin 1-D convenience wrapper.

    Most of the library operates on :class:`TridiagonalBatch`; this class
    exists for ergonomic single-system use (examples, docs) and converts
    cheaply via :meth:`as_batch`.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "d"):
            arr = np.asarray(getattr(self, name))
            if arr.ndim != 1:
                raise ShapeError(f"{name} must be 1-D, got ndim={arr.ndim}")
            object.__setattr__(self, name, arr)
        check_same_shape(
            [self.a, self.b, self.c, self.d], ["a", "b", "c", "d"]
        )

    @property
    def size(self) -> int:
        """Number of equations ``n``."""
        return self.b.shape[0]

    @property
    def dtype(self) -> np.dtype:
        """Dtype of the main diagonal (batch construction enforces common)."""
        return self.b.dtype

    def as_batch(self) -> TridiagonalBatch:
        """Promote to a one-system :class:`TridiagonalBatch`."""
        return TridiagonalBatch.from_single(self.a, self.b, self.c, self.d)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Compute ``A @ x`` for a 1-D ``x``."""
        return self.as_batch().matvec(np.asarray(x)[None, :])[0]

    def residual(self, x: np.ndarray) -> float:
        """Relative residual of a candidate solution ``x``."""
        return float(self.as_batch().residual(np.asarray(x)[None, :])[0])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TridiagonalSystem(n={self.size}, dtype={self.dtype})"
