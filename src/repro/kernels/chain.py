"""Host executor for the PCR split stages, in the original equation order.

On the GPU, stage 3 reads split subsystems *in place at a stride* (paper
§III-A, the strided and coalesced variants); nothing reorders them. The
gathered reference in :mod:`repro.algorithms`
(:func:`~repro.algorithms.pcr.pcr_split`,
:func:`~repro.algorithms.pcr_thomas.pcr_thomas_solve`,
:func:`~repro.algorithms.pcr.pcr_unsplit_solution`) instead copies every
split into contiguous subsystems and scatters the solution back; the
differential oracle in ``tests/test_oracle.py`` holds every execution
path to it. :class:`SplitChain` runs the split chain the GPU's way on
the systems-innermost :class:`~repro.systems.batched.BatchedTridiagonal`
layout: the four coefficient arrays stay ``(n, m)`` in the original
equation order, a split of ``k`` steps runs PCR at strides
``G, 2G, ..., 2^(k-1)·G`` (``G`` subsystems per system so far), and the
Thomas sweep reads the ``(n/G, G·m)`` view, so no gather or scatter ever
runs and every NumPy pass is contiguous across the systems.

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

A batch whose ``d`` holds ``r`` right-hand-side planes against one
matrix (SPIKE's data and two spikes) is ``r·m`` logical systems. Each
step is a *matrix pass* and then a *plane pass*: a PCR segment computes
its ``alpha``, ``gamma`` and new ``a``, ``b``, ``c`` (8 ufunc calls),
then updates every ``d`` plane with them (4 calls each); a Thomas row
computes its pivot and ``c'`` (3 calls), then every plane's ``d'`` (3
each), and back substitution is plane work alone. These are the values
the ``r``-fold tiled batch would recompute per copy, so each plane is
bit-identical to its systems in the tiled solve. :class:`FactoredChain`
runs one matrix's passes once and keeps what the plane passes read:
each PCR step's ``alpha`` and ``gamma``, and the Thomas ``a``, pivot
and ``c'`` rows, in their stored signs. Its solves replay only the plane passes, so they are
bit-identical to the full chain by construction.

Every split writes the off-diagonals negated, ``-a'`` and ``-c'``, so
its matrix pass divides the stored values with no ``np.negative`` pass:
from stored ``s_a`` it keeps ``s_a / b`` as ``alpha`` and forms ``b'``
with two subtractions. The first split reads the loaded ``a`` and
``c`` as they are, so its ``alpha`` and ``gamma`` are the reference's
negated, and a later split reads ``-a`` and ``-c``, so they equal the
reference's; a missing neighbour is the identity equation in the
stored sign, ``(0, 1, 0)`` or ``(-0, 1, -0)``. The plane passes and
Thomas pick ``subtract`` or ``add`` by that sign. Negation, products,
quotients and ``x - y = x + (-y)`` are exact in IEEE 754, so every
value is the reference's, or exactly its negation, and solutions stay
bit-identical.

A plane may be +0 in all but a few rows: SPIKE's two spikes start as
one nonzero row each. The chain tracks each plane's *extent*, the rows
``[lo, hi)`` outside which it holds +0, and a PCR step at stride ``s``
widens it to ``[lo - s, hi + s)``, so each segment's plane pass sweeps
only where the segment meets that. Outside it the reference computes
``+0 + alpha·0 + gamma·0``, which is +0 for finite coefficients, and
the skipped rows already hold +0. A step whose coefficients are not
all finite sweeps every plane in full, so answers stay bit-identical.
The extents are given, not scanned: ``Pad`` knows them when it loads
the planes (:mod:`repro.kernels.handlers`), and a chain given none
takes every plane to span its system. Thomas sweeps every plane whole.

A chain owns two ping-pong buffer sets for all its steps and runs each
step tile by tile, so the per-step scratch stays in cache. It never
writes the arrays it was built from unless told it owns them, in which
case they become its spare buffer set once the first split has read
them.

Every array the chain writes, and ``Pad``'s private copy, comes from
one helper, :func:`_new`. A NumPy binary ufunc whose output does not
start on a 64-byte cache line splits its vector stores across two
lines, which halves its speed on tiles from about 16 KiB up; NumPy
itself places a large array 16 bytes past a page. So an array of at
least :data:`_ALIGNED_BYTES` starts on a line, and with it every tile
and Thomas row whose byte offset is a multiple of 64. A smaller array
is a plain allocation, because aligning costs a few microseconds a call
and a small chain does not earn that back. Alignment changes no
operation and no order, so answers do not change by a bit. The
caller's arrays, which the chain only reads, and the row-major answer
are left as they come.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..algorithms.pcr_thomas import normalize_thomas_switch
from ..algorithms.thomas import _pivot_floor
from ..systems.batched import BatchedTridiagonal
from ..systems.tridiagonal import TridiagonalBatch
from ..util.errors import ConfigurationError, ShapeError, SingularSystemError
from ..util.validation import ilog2

__all__ = ["SplitChain", "FactoredChain"]

# Elements per tile of a PCR step: the alpha/gamma/tmp scratch and the
# tile's neighbour reads stay in cache.
_TILE = 1 << 14

# Cache-line bytes, and the smallest array _new starts on a line. A
# binary ufunc whose output does not start on a line splits its vector
# stores across two lines, which from about 16 KiB up halves its speed;
# starting an array on a line costs a few microseconds a call, which
# whole chains repaid from about 64 KiB arrays up.
_LINE = 64
_ALIGNED_BYTES = 1 << 16


class SplitChain:
    """The split stages of one systems-innermost batch, run in place.

    Build it with :meth:`of`, :meth:`split` any number of times, and
    finish with :meth:`solve` (hybrid PCR-Thomas, like
    :func:`~repro.algorithms.pcr_thomas.pcr_thomas_solve`) or
    :meth:`thomas`. Solutions come back as new arrays shaped like the
    batch's ``d``: ``(n, m)``, or ``(r, n, m)`` for ``r`` planes.

    ``extents`` gives each plane's flat ``[lo, hi)`` outside which it
    holds +0, by default its whole system; every split widens them by
    the step's stride, and the PCR plane passes sweep only within them
    (see the module docstring).
    """

    def __init__(
        self,
        coeffs: Sequence[np.ndarray],
        owned: bool = False,
        extents: Optional[Sequence[Tuple[int, int]]] = None,
    ):
        a, b, c, d = coeffs
        # a, b, c, then one d per right-hand-side plane; all (n, m).
        self._arrays: List[np.ndarray] = [a, b, c, *(d if d.ndim == 3 else [d])]
        self._rhs_shape = d.shape
        self._owned = owned  # whether _arrays are the chain's to overwrite
        self._spare: Optional[List[np.ndarray]] = None
        self.n, self.m = b.shape
        self.planes = len(self._arrays) - 3
        self.dtype = b.dtype
        self._floor = _pivot_floor(self.dtype)
        self.groups = 1  # subsystems per system so far
        self._radices: List[int] = []  # 2**k of every split, in order
        self._negated = False  # whether a and c hold -a and -c
        # Per plane, the flat [lo, hi) outside which it holds +0.
        full = (0, self.n * self.m)
        self._extents = [full] * self.planes if extents is None else list(extents)

    @classmethod
    def of(
        cls,
        work: BatchedTridiagonal,
        *,
        owned: bool = False,
        extents: Optional[Sequence[Tuple[int, int]]] = None,
    ) -> "SplitChain":
        """A chain over an ``(n, m)`` batch; with ``owned`` it may
        overwrite ``work``'s arrays, so pass it only for a private copy."""
        if not isinstance(work, BatchedTridiagonal):
            raise ShapeError(
                f"SplitChain needs a BatchedTridiagonal, got {type(work).__name__}"
                " (load a row-major batch with BatchedTridiagonal.interleave)"
            )
        return cls((work.a, work.b, work.c, work.d), owned, extents)

    def _buffers(self, count: int) -> List[np.ndarray]:
        return [_new((self.n, self.m), self.dtype) for _ in range(count)]

    def _step_buffers(self) -> List[np.ndarray]:
        """A fresh destination set; a plane that does not span its
        system starts zeroed, so rows its steps skip read +0."""
        full = (0, self.n * self.m)
        dst = self._buffers(3)
        for extent in self._extents:
            dst.append(_new((self.n, self.m), self.dtype, zeroed=extent != full))
        return dst

    def split(self, steps: int) -> None:
        """Split every subsystem into ``2**steps`` by PCR, in place."""
        self._split(steps, None)

    def _split(self, steps: int, kept: Optional[list]) -> None:
        """:meth:`split`; given a list ``kept``, each step appends its
        full-length ``(alpha, gamma, off, negated)`` to it, ``negated``
        telling whether the step read ``-a`` and ``-c``."""
        if steps < 0:
            raise ConfigurationError("split steps must be >= 0")
        if steps == 0:
            return
        size = self.n // self.groups
        if size % (1 << steps):
            raise ConfigurationError(
                f"cannot split a size-{size} system {steps} times"
            )
        width = min(_TILE, self.n * self.m)
        scratch = [_new((width,), self.dtype) for _ in range(3)]
        stride = self.groups
        for _ in range(steps):
            dst = self._spare or self._step_buffers()
            off = stride * self.m
            coeffs = None
            if kept is not None:
                coeffs = [buf.reshape(-1) for buf in self._buffers(2)]
                kept.append((*coeffs, off, self._negated))
            self._extents = _pcr_step(
                [arr.reshape(-1) for arr in self._arrays],
                [arr.reshape(-1) for arr in dst],
                off,
                scratch,
                self._extents,
                self._negated,
                coeffs,
            )
            self._spare = self._arrays if self._owned else None
            self._arrays, self._owned = dst, True
            self._negated = True
            stride *= 2
        self.groups <<= steps
        self._radices.append(1 << steps)

    def solve(self, thomas_switch: int, *, check: bool = True) -> np.ndarray:
        """PCR until ``thomas_switch`` subsystems, then Thomas."""
        if self.n == self.groups:
            b = self._arrays[1]
            x = _new((self.planes, self.n, self.m), self.dtype)
            for xk, d in zip(x, self._arrays[3:]):
                np.divide(d, b, out=xk)
            return x.reshape(self._rhs_shape)
        switch = normalize_thomas_switch(self.n // self.groups, thomas_switch)
        self.split(ilog2(switch))
        return self.thomas(check=check)

    def thomas(self, *, check: bool = True) -> np.ndarray:
        """Thomas over every current subsystem, vectorised across them.

        With ``check`` a vanishing pivot raises
        :class:`SingularSystemError` naming the first offending subsystem
        in the gathered reference's order.
        """
        rows, width = self.n // self.groups, self.groups * self.m
        a, b, c, *ds = (arr.reshape(rows, width) for arr in self._arrays)
        scratch = self._spare or self._buffers(1 + self.planes)
        cp, *dps = (buf.reshape(rows, width) for buf in scratch[: 1 + self.planes])
        x = _new((self.planes, rows, width), self.dtype)
        # One pivot row, reused: nothing replays it.
        betas = [_new((width,), self.dtype)] * rows
        check = self._check_pivots if check else None
        _sweep(a, betas, cp, list(zip(ds, dps)), x, self._negated, (b, c, check))
        return x.reshape(self._rhs_shape)

    def _check_pivots(self, beta: np.ndarray, row: int) -> None:
        bad = np.abs(beta) <= self._floor
        if not bad.any():
            return
        # Column w of the sweep is residue r = w // m of system w % m;
        # the gathered order numbers r's split digits most significant
        # first, so reverse them. The pivots are plane 0's, whose
        # systems come first in the tiled batch's order.
        r, s = np.divmod(np.nonzero(bad)[0], self.m)
        sub = np.zeros_like(r)
        for radix in self._radices:
            r, digit = np.divmod(r, radix)
            sub = sub * radix + digit
        idx = int((s * self.groups + sub).min())
        raise SingularSystemError(
            f"zero pivot at row {row} of system {idx}", system_index=idx
        )


class FactoredChain:
    """The matrix passes of a row-major ``(m, n)`` batch's chain, ``steps``
    PCR levels then Thomas, run once (every pivot checked; ``d`` is not
    read) and kept: its solves load right-hand sides as chain planes and
    replay only the plane passes, bit-identical to
    ``pcr_thomas_solve`` with ``2**steps`` subsystems."""

    def __init__(self, batch: TridiagonalBatch, steps: int):
        m, n = self.shape = batch.shape
        # The transposed matrix, which the chain recycles as its spare set.
        matrix = [_new((n, m), batch.dtype) for _ in range(3)]
        for copy, arr in zip(matrix, (batch.a, batch.b, batch.c)):
            np.copyto(copy, arr.T)
        chain = SplitChain((*matrix, np.empty((0, n, m), dtype=batch.dtype)), owned=True)
        self._steps: List[Tuple[np.ndarray, np.ndarray, int, bool]] = []
        chain._split(steps, self._steps)
        self._negated = chain._negated
        self._a, b, c = (arr.reshape(n >> steps, m << steps) for arr in chain._arrays)
        self._beta, self._cp = (_new(self._a.shape, batch.dtype) for _ in range(2))
        matrix = (b, c, chain._check_pivots)
        _sweep(self._a, list(self._beta), self._cp, [], [], self._negated, matrix)

    def solve(self, d: np.ndarray) -> np.ndarray:
        """Solve ``A x = d`` for one ``(m, n)`` right-hand side."""
        d = np.asarray(d)
        if d.shape != self.shape:
            raise ShapeError(f"d has shape {d.shape}, expected {self.shape}")
        return self.solve_many(d[None])[0]

    def solve_many(self, d_stack: np.ndarray) -> np.ndarray:
        """Solve against an ``(r, m, n)`` stack of right-hand sides in
        one replay (the multiple-RHS pattern of ADI and pricing codes)."""
        d_stack = np.asarray(d_stack, dtype=self._a.dtype)
        if d_stack.ndim != 3 or d_stack.shape[1:] != self.shape:
            raise ShapeError(
                f"d_stack must be (r, {self.shape[0]}, {self.shape[1]}), "
                f"got {d_stack.shape}"
            )
        # (r, n, m) planes, a private copy the steps ping-pong.
        m, n = self.shape
        planes, spare = (_new((len(d_stack), n * m), d_stack.dtype) for _ in range(2))
        np.copyto(planes.reshape(-1, n, m), np.swapaxes(d_stack, 1, 2))
        tmp = _new((min(_TILE, n * m),), d_stack.dtype)
        # Every plane spans its system.
        reach = [(0, planes.shape[1])] * len(planes)
        for alpha, gamma, off, negated in self._steps:
            op = _plane_op(negated)
            for cur, lo, hi in _segments(planes.shape[1], off):
                coeffs = alpha[cur], gamma[cur], tmp[: cur.stop - cur.start]
                _update_planes(planes, spare, cur, lo, hi, *coeffs, reach, op)
            planes, spare = spare, planes
        ds = planes.reshape((-1,) + self._a.shape)
        # Back substitution reads only d', so x may overwrite d.
        dps = spare.reshape(ds.shape)
        _sweep(self._a, list(self._beta), self._cp, list(zip(ds, dps)), ds, self._negated)
        return np.ascontiguousarray(np.swapaxes(planes.reshape(-1, n, m), 1, 2))


def _new(shape: Tuple[int, ...], dtype, zeroed: bool = False) -> np.ndarray:
    """A new C-contiguous array, zero-filled if ``zeroed``. One of at
    least :data:`_ALIGNED_BYTES` starts on a cache line: it is cut from
    an allocation one line longer."""
    dtype = np.dtype(dtype)
    alloc = np.zeros if zeroed else np.empty
    nbytes = math.prod(shape) * dtype.itemsize
    if nbytes < _ALIGNED_BYTES:
        return alloc(shape, dtype=dtype)
    raw = alloc(nbytes + _LINE, dtype=np.uint8)
    return np.ndarray(shape, dtype, raw, -raw.ctypes.data % _LINE)


def _plane_op(negated: bool):
    """How a plane takes a product of stored coefficients: ``np.add``
    where the chain stores ``-a`` and ``-c`` (and the reference's
    ``alpha``), ``np.subtract`` where it stores ``a`` and ``c``."""
    return np.add if negated else np.subtract


def _sweep(a, betas, cp, planes, x, negated, matrix=None) -> None:
    """Thomas over ``(rows, width)`` views: each row's matrix part, given
    ``matrix = (b, c, check or None)``, writes its pivot to ``betas[row]``
    and ``c'`` to ``cp``, then its plane part runs each ``(d, d')`` pair
    of ``planes`` on that pivot; ``x`` takes one solution per plane. Per
    array these are :func:`~repro.algorithms.thomas.thomas_solve`'s
    operations in its order. With ``negated``, ``a`` and ``c`` hold
    ``-a`` and ``-c``: ``cp`` then holds ``-c'``, the pivot is the
    same, and the plane part adds where the reference subtracts."""
    rows, width = a.shape
    tmp = _new((width,), a.dtype)
    op = _plane_op(negated)
    # Row views, built once: indexing a list is cheaper than an array.
    a, cp = list(a), list(cp)
    planes = [(list(d), list(dp)) for d, dp in planes]
    if matrix is not None:
        b, c, check = matrix
        b, c = list(b), list(c)
        np.copyto(betas[0], b[0])
        if check is not None:
            check(betas[0], 0)
        np.divide(c[0], betas[0], out=cp[0])
    for d, dp in planes:
        np.divide(d[0], betas[0], out=dp[0])
    for i in range(1, rows):
        beta = betas[i]
        if matrix is not None:
            np.multiply(a[i], cp[i - 1], out=tmp)
            np.subtract(b[i], tmp, out=beta)
            if check is not None:
                check(beta, i)
            np.divide(c[i], beta, out=cp[i])
        for d, dp in planes:
            np.multiply(a[i], dp[i - 1], out=tmp)
            op(d[i], tmp, out=tmp)
            np.divide(tmp, beta, out=dp[i])

    for xk, (_, dp) in zip(x, planes):
        xk = list(xk)
        np.copyto(xk[-1], dp[-1])
        for i in range(rows - 2, -1, -1):
            np.multiply(cp[i], xk[i + 1], out=tmp)
            op(dp[i], tmp, out=xk[i])


def _segments(length: int, off: int):
    """``(cur, lo, hi)`` per segment of a PCR step coupling positions
    ``off`` apart: the tile slice it updates and its neighbours' slices,
    ``None`` outside the system, where tiles are cut."""
    for start in range(0, length, _TILE):
        stop = min(start + _TILE, length)
        edges = {e for e in (off, length - off) if start < e < stop}
        cuts = sorted({start, stop} | edges)
        for x0, x1 in zip(cuts, cuts[1:]):
            yield (
                slice(x0, x1),
                None if x0 < off else slice(x0 - off, x1 - off),
                None if x1 > length - off else slice(x0 + off, x1 + off),
            )


def _extent(plane: np.ndarray) -> Tuple[int, int]:
    """The flat ``[lo, hi)``, whole rows of an ``(n, m)`` plane, outside
    which every value is +0 (-0 counts as set). A plane whose first and
    last rows are set costs two row reads."""
    m = plane.shape[1]
    bits = plane.view(f"u{plane.itemsize}").reshape(-1)
    first = _first_set(bits, m)
    if first == len(bits):
        return (0, 0)
    last = _first_set(bits, m, last=True)
    return first - first % m, last - last % m + m


def _first_set(bits: np.ndarray, size: int, last: bool = False) -> int:
    """Index of the first (or ``last``) nonzero element of flat ``bits``,
    or ``len(bits)`` if none, read inward from that end in blocks of
    ``size`` elements, each twice the one before: no more than twice
    the zeros it passes, plus ``size``."""
    n, done = len(bits), 0
    while done < n:
        start = max(n - done - size, 0) if last else done
        block = bits[start : start + min(size, n - done)]
        if block.max():  # unsigned, so nonzero iff any bit is set
            hits = (block != 0).nonzero()[0]
            return start + int(hits[-1] if last else hits[0])
        done, size = done + len(block), 2 * size
    return n


def _pcr_step(src, dst, off, scratch, extents, negated, kept=None) -> list:
    """One PCR step from ``src`` into ``dst``, flat ``a, b, c`` and one
    ``d`` per right-hand-side plane each, coupling positions ``off``
    apart: per segment the matrix pass, then the plane pass. ``src``
    holds ``-a`` and ``-c`` if ``negated``; ``dst`` always does. Returns
    the planes' extents in ``dst``.

    Per element this is exactly :func:`repro.algorithms.pcr.pcr_step`,
    up to the stored signs: the first and last ``off`` positions read
    the identity equation ``(0, 1, 0, 0)`` for their missing neighbour,
    in the stored sign and as scalars, where the reference reads
    ``np.pad``'s fill. Given full-length ``kept = (alpha, gamma)``, the
    coefficients land there, not in the scratch.

    A plane holding +0 outside its extent ``[lo, hi)`` can be nonzero
    after the step only within ``[lo - off, hi + off)``, its *reach*;
    the plane pass sweeps nothing else (see :func:`_update_planes`).
    That is exact while every ``alpha`` and ``gamma`` is finite, and a
    non-finite one makes its ``b'`` inf or NaN too (``inf·0`` is NaN,
    and inf or NaN survives the two additions). So a step that skipped
    anything and finds ``b'`` not all finite runs again with every
    plane spanning its system.
    """
    zero = -0.0 if negated else 0.0
    identity = tuple(src[1].dtype.type(v) for v in (zero, 1, zero))
    op = _plane_op(negated)
    matrix, planes, out = src[:3], src[3:], dst[:3]
    length = src[1].size
    reach = [
        (max(lo - off, 0), min(hi + off, length)) if lo < hi else (lo, hi)
        for lo, hi in extents
    ]
    for cur, lo, hi in _segments(length, off):
        alpha, gamma, tmp = (arr[: cur.stop - cur.start] for arr in scratch)
        if kept is not None:
            alpha, gamma = (arr[cur] for arr in kept)
        below = identity if lo is None else [arr[lo] for arr in matrix]
        above = identity if hi is None else [arr[hi] for arr in matrix]
        here = [arr[cur] for arr in matrix]
        _update(here, below, above, [arr[cur] for arr in out], alpha, gamma, tmp)
        _update_planes(planes, dst[3:], cur, lo, hi, alpha, gamma, tmp, reach, op)
    spans = [(0, length)] * len(reach)
    if reach != spans and not np.isfinite(out[1].sum()):
        return _pcr_step(src, dst, off, scratch, spans, negated, kept)
    return reach


def _update(cur, below, above, out, alpha, gamma, tmp) -> None:
    """The matrix pass of one segment: ``alpha``, ``gamma`` and ``out =
    (-a', b', -c')`` of :func:`~repro.algorithms.pcr.pcr_step`, with the
    reference's operations in its order. From stored ``s_a = ±a`` and
    ``s_c = ±c`` (one sign for both) it keeps ``s_a / b`` and ``s_c /
    b``, the reference's ``alpha`` and ``gamma`` times ``∓1``, so each
    product below is the reference's negated and ``b'`` subtracts it."""
    a, b, c = cur
    a_lo, b_lo, c_lo = below
    a_hi, b_hi, c_hi = above
    np.divide(a, b_lo, out=alpha)
    np.divide(c, b_hi, out=gamma)
    np.multiply(alpha, a_lo, out=out[0])
    np.multiply(alpha, c_lo, out=tmp)
    np.subtract(b, tmp, out=out[1])
    np.multiply(gamma, a_hi, out=tmp)
    np.subtract(out[1], tmp, out=out[1])
    np.multiply(gamma, c_hi, out=out[2])


def _update_planes(src, dst, cur, lo, hi, alpha, gamma, tmp, reach, op) -> None:
    """The plane pass of one segment: the ``d`` update of
    :func:`~repro.algorithms.pcr.pcr_step` on positions ``cur`` of every
    plane, from the segment's ``alpha`` and ``gamma``, combined by
    ``op``: ``np.add`` where they are the reference's, ``np.subtract``
    where they are its negation. A neighbour slice of ``None`` reads
    the identity equation's ``d = 0``, a Python float that computes in
    the planes' dtype.

    Each plane is swept only where ``cur`` meets its ``reach``. Outside
    it the plane and both its neighbours hold +0, where the reference
    computes ``+0 + alpha·0 + gamma·0``, +0 for finite ``alpha`` and
    ``gamma``, and the destination already holds that +0.
    """
    x0, x1 = cur.start, cur.stop
    for d, out, (r0, r1) in zip(src, dst, reach):
        here, below, above, a, g, t = cur, lo, hi, alpha, gamma, tmp
        if r0 > x0 or r1 < x1:
            k0, k1 = max(r0 - x0, 0), min(r1, x1) - x0
            if k0 >= k1:
                continue
            here, below, above = (
                s if s is None else slice(s.start + k0, s.start + k1)
                for s in (cur, lo, hi)
            )
            a, g, t = alpha[k0:k1], gamma[k0:k1], tmp[k0:k1]
        out = out[here]
        np.multiply(a, 0.0 if below is None else d[below], out=t)
        op(d[here], t, out=out)
        np.multiply(g, 0.0 if above is None else d[above], out=t)
        op(out, t, out=out)
