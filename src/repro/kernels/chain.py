"""Host executor for the PCR split stages, in the original equation order.

On the GPU, stage 3 reads split subsystems *in place at a stride* (paper
§III-A, the strided and coalesced variants); nothing reorders them. The
gathered reference (:func:`repro.algorithms.pcr.pcr_split` and the
kernels' ``run`` methods) instead copies every split into contiguous
subsystems and scatters the solution back. :class:`SplitChain` runs the
split chain the GPU's way: the four coefficient arrays stay
``(outer, n, inner)`` in the original equation order, a split of ``k``
steps runs PCR at strides ``G, 2G, ..., 2^(k-1)·G`` (``G`` subsystems per
system so far), and the Thomas sweep reads the ``(outer, n/G, G·inner)``
view, so no gather or scatter ever runs.

Running subsystems in place at stride ``s·G`` is the same arithmetic as
running them after a gather at stride ``s``, and a neighbour outside a
subsystem is outside the whole system, so every step issues the same
per-element operations in the same order as
:func:`~repro.algorithms.pcr.pcr_step` and
:func:`~repro.algorithms.thomas.thomas_solve`: solutions are bit-identical
(a NaN in the result of singular input may differ in sign or payload,
which IEEE 754 leaves open and NumPy's loops do not fix). Singular input
fails identically: a pivot failure is reported against the subsystem's
index in the nested-gather order.

A chain owns two ping-pong buffer sets for all its steps and runs each
step tile by tile, so the per-step scratch stays in cache; the caller's
arrays are never written.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..algorithms.pcr_thomas import normalize_thomas_switch
from ..algorithms.thomas import _pivot_floor
from ..systems.batched import BatchedTridiagonal
from ..util.errors import ConfigurationError, SingularSystemError
from ..util.validation import ilog2

__all__ = ["SplitChain"]

# Elements per tile of a PCR step: the alpha/gamma/tmp scratch and the
# tile's neighbour reads stay in cache.
_TILE = 1 << 14


class SplitChain:
    """The split stages of one batch, run in place.

    Build it with :meth:`of`, :meth:`split` any number of times, and
    finish with :meth:`solve` (hybrid PCR-Thomas, like
    :func:`~repro.algorithms.pcr_thomas.pcr_thomas_solve`) or
    :meth:`thomas`. Solutions come back as new arrays in the layout of
    the batch the chain was built from.
    """

    def __init__(
        self,
        coeffs: Sequence[np.ndarray],
        unview: Callable[[np.ndarray], np.ndarray],
        owned: bool = False,
    ):
        self._arrays: List[np.ndarray] = list(coeffs)  # (outer, n, inner)
        self._owned = owned  # whether _arrays are the chain's to overwrite
        self._spare: Optional[List[np.ndarray]] = None
        self._unview = unview
        self.outer, self.n, self.inner = coeffs[1].shape
        self.dtype = coeffs[1].dtype
        self.groups = 1  # subsystems per system so far
        self._radices: List[int] = []  # 2**k of every split, in order

    @classmethod
    def of(cls, work) -> "SplitChain":
        """A chain over a row-major or interleaved batch."""
        coeffs = (work.a, work.b, work.c, work.d)
        if isinstance(work, BatchedTridiagonal):
            return cls([arr[None] for arr in coeffs], lambda x: x[0])
        m, n = work.shape
        if m >= n:
            # Many short systems: sweep the transpose, whose rows are long.
            return cls(
                [np.ascontiguousarray(arr.T)[None] for arr in coeffs],
                lambda x: np.ascontiguousarray(x[0].T),
                owned=True,
            )
        return cls([arr[:, :, None] for arr in coeffs], lambda x: x[:, :, 0])

    @property
    def shape(self) -> Tuple[int, int]:
        """Logical ``(num_systems, system_size)`` of the current subsystems."""
        return (self.outer * self.inner * self.groups, self.n // self.groups)

    def _buffers(self, count: int = 4) -> List[np.ndarray]:
        shape = (self.outer, self.n, self.inner)
        return [np.empty(shape, dtype=self.dtype) for _ in range(count)]

    def split(self, steps: int) -> None:
        """Split every subsystem into ``2**steps`` by PCR, in place."""
        if steps < 0:
            raise ConfigurationError("split steps must be >= 0")
        if steps == 0:
            return
        size = self.n // self.groups
        if size % (1 << steps):
            raise ConfigurationError(
                f"cannot split a size-{size} system {steps} times"
            )
        scratch = np.empty((3, _TILE), dtype=self.dtype)
        stride = self.groups
        for _ in range(steps):
            dst = self._spare or self._buffers()
            _pcr_step(
                [arr.reshape(self.outer, -1) for arr in self._arrays],
                [arr.reshape(self.outer, -1) for arr in dst],
                stride * self.inner,
                scratch,
            )
            self._spare = self._arrays if self._owned else None
            self._arrays, self._owned = dst, True
            stride *= 2
        self.groups <<= steps
        self._radices.append(1 << steps)

    def solve(self, thomas_switch: int, *, check: bool = True) -> np.ndarray:
        """PCR until ``thomas_switch`` subsystems, then Thomas."""
        if self.n == self.groups:
            _, b, _, d = self._arrays
            return self._unview(d / b)
        switch = normalize_thomas_switch(self.n // self.groups, thomas_switch)
        self.split(ilog2(switch))
        return self.thomas(check=check)

    def thomas(self, *, check: bool = True) -> np.ndarray:
        """Thomas over every current subsystem, vectorised across them.

        With ``check`` a vanishing pivot raises
        :class:`SingularSystemError` naming the first offending subsystem
        in the gathered reference's order.
        """
        rows, width = self.n // self.groups, self.groups * self.inner
        shape = (self.outer, rows, width)
        a, b, c, d = (arr.reshape(shape) for arr in self._arrays)
        scratch = self._spare or self._buffers(2)
        cp, dp = (buf.reshape(shape) for buf in scratch[:2])
        x = np.empty(shape, dtype=self.dtype)
        beta = np.empty((self.outer, width), dtype=self.dtype)
        tmp = np.empty_like(beta)
        floor = _pivot_floor(self.dtype)

        np.copyto(beta, b[:, 0])
        if check:
            self._check_pivots(beta, 0, floor)
        np.divide(c[:, 0], beta, out=cp[:, 0])
        np.divide(d[:, 0], beta, out=dp[:, 0])
        for i in range(1, rows):
            np.multiply(a[:, i], cp[:, i - 1], out=tmp)
            np.subtract(b[:, i], tmp, out=beta)
            if check:
                self._check_pivots(beta, i, floor)
            np.divide(c[:, i], beta, out=cp[:, i])
            np.multiply(a[:, i], dp[:, i - 1], out=tmp)
            np.subtract(d[:, i], tmp, out=tmp)
            np.divide(tmp, beta, out=dp[:, i])

        x[:, -1] = dp[:, -1]
        for i in range(rows - 2, -1, -1):
            np.multiply(cp[:, i], x[:, i + 1], out=tmp)
            np.subtract(dp[:, i], tmp, out=x[:, i])
        return self._unview(x.reshape(self.outer, self.n, self.inner))

    def _check_pivots(self, beta: np.ndarray, row: int, floor: float) -> None:
        bad = np.abs(beta) <= floor
        if not bad.any():
            return
        # Column w of the sweep is residue r = w // inner of system
        # (outer, w % inner); the gathered order numbers r's split
        # digits most significant first, so reverse them.
        o, w = np.nonzero(bad)
        r, s = np.divmod(w, self.inner)
        sub = np.zeros_like(r)
        for radix in self._radices:
            r, digit = np.divmod(r, radix)
            sub = sub * radix + digit
        idx = int(((o * self.inner + s) * self.groups + sub).min())
        raise SingularSystemError(
            f"zero pivot at row {row} of system {idx}", system_index=idx
        )


def _pcr_step(src, dst, off, scratch) -> None:
    """One PCR step from ``src`` into ``dst``, four ``(outer, L)`` arrays
    each, coupling flat positions ``off`` apart.

    Per element this is exactly :func:`repro.algorithms.pcr.pcr_step`:
    the first and last ``off`` positions of a row read the identity
    equation ``(0, 1, 0, 0)`` for their missing neighbour, as scalars,
    where the reference reads ``np.pad``'s fill.
    """
    outer, length = src[1].shape
    identity = tuple(scratch.dtype.type(v) for v in (0, 1, 0, 0))
    width = min(length, _TILE)
    rows = max(1, _TILE // width)
    for r0 in range(0, outer, rows):
        r = slice(r0, min(r0 + rows, outer))
        for lo in range(0, length, width):
            hi = min(lo + width, length)
            edges = {e for e in (off, length - off) if lo < e < hi}
            cuts = sorted({lo, hi} | edges)
            for x0, x1 in zip(cuts, cuts[1:]):
                below = (
                    identity if x0 < off
                    else [arr[r, x0 - off : x1 - off] for arr in src]
                )
                above = (
                    identity if x1 > length - off
                    else [arr[r, x0 + off : x1 + off] for arr in src]
                )
                _update(
                    [arr[r, x0:x1] for arr in src],
                    below,
                    above,
                    [arr[r, x0:x1] for arr in dst],
                    scratch,
                )


def _update(cur, below, above, out, scratch) -> None:
    """``out = pcr_step(cur)`` for one tile, with the same operations in
    the same order as the reference."""
    a, b, c, d = cur
    a_lo, b_lo, c_lo, d_lo = below
    a_hi, b_hi, c_hi, d_hi = above
    alpha, gamma, tmp = (buf[: b.size].reshape(b.shape) for buf in scratch)
    np.negative(a, out=alpha)
    np.divide(alpha, b_lo, out=alpha)
    np.negative(c, out=gamma)
    np.divide(gamma, b_hi, out=gamma)
    np.multiply(alpha, a_lo, out=out[0])
    np.multiply(alpha, c_lo, out=tmp)
    np.add(b, tmp, out=out[1])
    np.multiply(gamma, a_hi, out=tmp)
    np.add(out[1], tmp, out=out[1])
    np.multiply(gamma, c_hi, out=out[2])
    np.multiply(alpha, d_lo, out=tmp)
    np.add(d, tmp, out=out[3])
    np.multiply(gamma, d_hi, out=tmp)
    np.add(out[3], tmp, out=out[3])
