"""The SPIKE / Wang partition method.

The third classical family of parallel tridiagonal algorithms (after
cyclic-reduction variants and recursive doubling): partition each system
into ``p`` chunks, solve every chunk independently against three
right-hand sides (the data plus the two coupling "spikes"), reduce to a
small system over the chunk-boundary unknowns, then reconstruct. It is
the standard CPU/SIMD competitor to the GPU algorithms in this library
and the backbone of Intel's SPIKE solver — a natural registry entry for
cross-checks and baselines.

Partitions need not divide the system size: :func:`partition_bounds`
produces balanced chunks whose sizes differ by at most one row, and the
solver handles each distinct chunk size as one stacked solve. Requesting
more partitions than ``n // 2`` raises a :class:`ConfigurationError`
(every chunk must keep at least two rows so it has distinct first/last
boundary unknowns).

The reduced boundary system is block tridiagonal with 2×2 blocks and is
solved with :func:`repro.blocked.algorithms.block_thomas_solve` — the
extension packages composing. The decomposition helpers
(:func:`split_chunks`, :func:`spike_rhs`, :func:`solve_reduced_system`,
:func:`reconstruct_chunk`) are exported because the multi-device
domain-decomposition solver in :mod:`repro.dist` runs the same math with
each chunk's three-RHS solve placed on a different simulated device.

The helpers copy nothing: a chunk is views of the caller's arrays plus
its two coupling rows, and its three-RHS solve is a
:class:`~repro.systems.tridiagonal.SharedMatrixBatch` over those views
whose two spikes are impulse planes, each one row of values (Li, Serban
& Negrut, arXiv:1509.07919, define the spikes' right-hand sides as zero
outside one block row). The solver's ``Pad`` loads each chunk once into
the split chain's layout, clearing the decoupled corners as it copies;
the CPU reference here solves the tiled logical batch instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..systems.tridiagonal import SharedMatrixBatch, TridiagonalBatch
from ..util.errors import ConfigurationError
from .thomas import thomas_solve

__all__ = [
    "MIN_CHUNK_ROWS",
    "ChunkSplit",
    "partition_bounds",
    "split_chunks",
    "spike_rhs",
    "solve_reduced_system",
    "truncated_reduced_solve",
    "reconstruct_chunk",
    "spike_solve",
    "truncated_spike_solve",
]

# Every chunk needs distinct first and last rows — the two boundary
# unknowns (s_i, t_i) the reduced system solves for.
MIN_CHUNK_ROWS = 2


def _auto_partitions(n: int, cap: int = 16) -> int:
    """Largest power of two ``<= cap`` whose balanced chunks keep >= 2 rows."""
    p = 1
    while p * 2 <= cap and n >= (p * 2) * MIN_CHUNK_ROWS:
        p *= 2
    return p


def partition_bounds(n: int, partitions: int) -> Tuple[Tuple[int, int], ...]:
    """Balanced ``(start, stop)`` row ranges for ``partitions`` chunks.

    Chunk sizes differ by at most one row (the first ``n % p`` chunks get
    the extra row), so no divisibility constraint applies. Raises
    :class:`ConfigurationError` when any chunk would fall below
    :data:`MIN_CHUNK_ROWS` rows.
    """
    p = int(partitions)
    if p < 1 or n < p * MIN_CHUNK_ROWS:
        raise ConfigurationError(
            f"cannot split {n} rows into {partitions} partitions of at "
            f"least {MIN_CHUNK_ROWS} rows each"
        )
    base, extra = divmod(n, p)
    bounds: List[Tuple[int, int]] = []
    start = 0
    for i in range(p):
        q = base + (1 if i < extra else 0)
        bounds.append((start, start + q))
        start += q
    return tuple(bounds)


@dataclass(frozen=True)
class ChunkSplit:
    """One SPIKE chunk: its rows of every system, and their couplings.

    ``a``, ``b``, ``c`` and ``d`` are ``(m, q)`` views of the caller's
    arrays; ``a[:, 0]`` and ``c[:, -1]`` are the cross-boundary
    coefficients, which decoupling removes. ``left_coupling`` and
    ``right_coupling`` are those coefficients, one per system, tying the
    chunk's first row to the previous chunk's last unknown and its last
    row to the next chunk's first unknown.
    """

    index: int
    start: int
    stop: int
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    left_coupling: np.ndarray  # (m,)
    right_coupling: np.ndarray  # (m,)

    @property
    def size(self) -> int:
        """Rows in this chunk."""
        return self.stop - self.start

    @property
    def batch(self) -> TridiagonalBatch:
        """The decoupled local systems (corners +0), a copy built when
        read."""
        a, c = self.a.copy(), self.c.copy()
        a[:, 0] = c[:, -1] = 0
        return TridiagonalBatch(a, self.b, c, self.d)


def split_chunks(
    batch: TridiagonalBatch, bounds: Tuple[Tuple[int, int], ...]
) -> List[ChunkSplit]:
    """Cut ``batch`` into chunks along ``bounds``, as views."""
    chunks: List[ChunkSplit] = []
    for i, (start, stop) in enumerate(bounds):
        a, b, c, d = (
            arr[:, start:stop] for arr in (batch.a, batch.b, batch.c, batch.d)
        )
        chunks.append(
            ChunkSplit(i, start, stop, a, b, c, d, a[:, 0], c[:, -1])
        )
    return chunks


def spike_rhs(chunk: ChunkSplit) -> SharedMatrixBatch:
    """The chunk's three-RHS solve: its ``(m, q)`` matrix, once, against
    the planes [data | left spike | right spike].

    Plane 0 carries the data right-hand side (whose solution is ``y``),
    plane 1 the left coupling impulse (solution ``w``), plane 2 the right
    coupling impulse (solution ``v``). All three share the chunk's
    decoupled matrix, so the solve does the matrix's work once for all
    three. Solved, it is the logical ``(3m, q)`` batch
    (:meth:`~repro.systems.tridiagonal.SharedMatrixBatch.tiled`): rows
    ``[0, m)``, ``[m, 2m)`` and ``[2m, 3m)`` of its solution are ``y``,
    ``w`` and ``v``.

    The matrix and data are the chunk's views, whose corners still hold
    the couplings, and each spike is an impulse plane: the chunk's first
    or last row, holding the coupling values. A PCR step at stride ``s``
    widens a spike's nonzero rows by only ``s``, so until Thomas the
    split chain sweeps it only over those rows (:mod:`repro.kernels.chain`).
    """
    return SharedMatrixBatch(
        chunk.a,
        chunk.b,
        chunk.c,
        chunk.d[None],
        impulses=((0, chunk.left_coupling), (chunk.size - 1, chunk.right_coupling)),
    )


def solve_reduced_system(
    y_first: np.ndarray,
    y_last: np.ndarray,
    w_first: np.ndarray,
    w_last: np.ndarray,
    v_first: np.ndarray,
    v_last: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Solve the 2×2-block reduced boundary system.

    Inputs are ``(m, p)`` arrays of per-chunk boundary values of the data
    solution ``y`` and the spikes ``w``/``v``. Returns ``(t_prev,
    s_next)``, each ``(m, p)``: the neighbouring boundary unknowns chunk
    ``i`` needs for reconstruction (``t_{i-1}`` and ``s_{i+1}``; zero at
    the ends).
    """
    from ..blocked.algorithms import block_thomas_solve
    from ..blocked.containers import BlockTridiagonalBatch

    m, p = y_first.shape
    dtype = y_first.dtype
    eye = np.eye(2, dtype=dtype)
    B = np.broadcast_to(eye, (m, p, 2, 2)).copy()
    A = np.zeros((m, p, 2, 2), dtype=dtype)
    C = np.zeros((m, p, 2, 2), dtype=dtype)
    # Unknown u_i = (s_i, t_i) = (x_i[0], x_i[-1]);
    # u_i + A_i u_{i-1} + C_i u_{i+1} = (y_i[0], y_i[-1]).
    A[:, :, 0, 1] = w_first
    A[:, :, 1, 1] = w_last
    C[:, :, 0, 0] = v_first
    C[:, :, 1, 0] = v_last
    A[:, 0] = 0.0
    C[:, -1] = 0.0
    D = np.stack([y_first, y_last], axis=2)
    U = block_thomas_solve(BlockTridiagonalBatch(A, B, C, D))  # (m, p, 2)

    t_prev = np.zeros((m, p), dtype=dtype)
    t_prev[:, 1:] = U[:, :-1, 1]
    s_next = np.zeros((m, p), dtype=dtype)
    s_next[:, :-1] = U[:, 1:, 0]
    return t_prev, s_next


def truncated_reduced_solve(
    y_first: np.ndarray,
    y_last: np.ndarray,
    w_first: np.ndarray,
    w_last: np.ndarray,
    v_first: np.ndarray,
    v_last: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """The truncated-SPIKE boundary solve: independent 2×2 interfaces.

    Same signature and return convention as :func:`solve_reduced_system`
    so the two are drop-in interchangeable, but the coupling terms that
    tie an interface to its neighbours — ``w_last_i t_{i-1}`` and
    ``v_first_{i+1} s_{i+2}``, i.e. the spike values that crossed a
    whole chunk — are dropped (Li, Serban & Negrut, arXiv:1509.07919).
    What remains is one 2×2 system per chunk interface::

        [ 1            v_last_i ] [ t_i     ]   [ y_last_i      ]
        [ w_first_{i+1}    1    ] [ s_{i+1} ] = [ y_first_{i+1} ]

    solved in closed form, vectorised over all ``(m, p-1)`` interfaces.
    For a system with dominance ratio ``d > 1`` the dropped values decay
    like ``(1/d)^(q-1)`` across a ``q``-row chunk, so the induced error
    is bounded and checkable — and no information ever travels further
    than one chunk boundary, which is what removes the global reduced
    solve from the distributed critical path.
    """
    m, p = y_first.shape
    dtype = y_first.dtype
    # ``w_last`` and ``v_first`` are exactly the truncated terms; the
    # signature keeps them so callers can swap solvers without reshaping.
    del w_last, v_first
    t_prev = np.zeros((m, p), dtype=dtype)
    s_next = np.zeros((m, p), dtype=dtype)
    if p < 2:
        return t_prev, s_next
    vl = v_last[:, :-1]
    wf = w_first[:, 1:]
    det = 1.0 - vl * wf
    t_i = (y_last[:, :-1] - vl * y_first[:, 1:]) / det
    s_ip1 = (y_first[:, 1:] - wf * y_last[:, :-1]) / det
    t_prev[:, 1:] = t_i
    s_next[:, :-1] = s_ip1
    return t_prev, s_next


def reconstruct_chunk(
    y: np.ndarray,
    w: np.ndarray,
    v: np.ndarray,
    t_prev: np.ndarray,
    s_next: np.ndarray,
) -> np.ndarray:
    """Undo the decoupling: ``x_i = y_i - w_i t_{i-1} - v_i s_{i+1}``.

    ``y``/``w``/``v`` are ``(m, q)``; ``t_prev``/``s_next`` are ``(m,)``.
    """
    return y - w * t_prev[:, None] - v * s_next[:, None]


def spike_solve(
    batch: TridiagonalBatch, partitions: int | str = "auto"
) -> np.ndarray:
    """Solve every system with the SPIKE partition method.

    ``partitions`` is the chunk count ``p`` or ``"auto"``. Any ``p`` with
    ``n >= 2 p`` is valid — chunks are balanced, differing by at most one
    row, so ``p`` need not divide the system size. ``p = 1`` degenerates
    to the Thomas algorithm; an infeasible ``p`` raises
    :class:`ConfigurationError`.
    """
    return _spike_solve(batch, partitions, solve_reduced_system)


def truncated_spike_solve(
    batch: TridiagonalBatch, partitions: int | str = "auto"
) -> np.ndarray:
    """The truncated-SPIKE approximation: SPIKE without the reduced system.

    Identical to :func:`spike_solve` except the boundary unknowns come
    from :func:`truncated_reduced_solve` — independent per-interface 2×2
    solves instead of the global block-tridiagonal reduced system. The
    answer is *approximate*, with error bounded by the spike decay of a
    diagonally dominant matrix; callers are expected to check the
    residual a posteriori (see :mod:`repro.numerics`).
    """
    return _spike_solve(batch, partitions, truncated_reduced_solve)


def _spike_solve(
    batch: TridiagonalBatch, partitions: int | str, reduced_solver
) -> np.ndarray:
    m, n = batch.shape
    if partitions == "auto":
        p = _auto_partitions(n)
    else:
        p = int(partitions)
    if p == 1:
        return thomas_solve(batch)
    bounds = partition_bounds(n, p)
    chunks = split_chunks(batch, bounds)
    dtype = batch.dtype

    # Solve each distinct chunk size as one stacked three-RHS batch; a
    # balanced partition yields at most two distinct sizes.
    y: List[np.ndarray] = [None] * p  # type: ignore[list-item]
    w: List[np.ndarray] = [None] * p  # type: ignore[list-item]
    v: List[np.ndarray] = [None] * p  # type: ignore[list-item]
    by_size: Dict[int, List[ChunkSplit]] = {}
    for chunk in chunks:
        by_size.setdefault(chunk.size, []).append(chunk)
    for group in by_size.values():
        stacked = TridiagonalBatch.stack([spike_rhs(ch).tiled() for ch in group])
        sol = thomas_solve(stacked)
        for j, chunk in enumerate(group):
            off = j * 3 * m
            y[chunk.index] = sol[off : off + m]
            w[chunk.index] = sol[off + m : off + 2 * m]
            v[chunk.index] = sol[off + 2 * m : off + 3 * m]

    t_prev, s_next = reduced_solver(
        np.stack([y[i][:, 0] for i in range(p)], axis=1),
        np.stack([y[i][:, -1] for i in range(p)], axis=1),
        np.stack([w[i][:, 0] for i in range(p)], axis=1),
        np.stack([w[i][:, -1] for i in range(p)], axis=1),
        np.stack([v[i][:, 0] for i in range(p)], axis=1),
        np.stack([v[i][:, -1] for i in range(p)], axis=1),
    )

    x = np.empty((m, n), dtype=dtype)
    for i, (start, stop) in enumerate(bounds):
        x[:, start:stop] = reconstruct_chunk(
            y[i], w[i], v[i], t_prev[:, i], s_next[:, i]
        )
    return x
