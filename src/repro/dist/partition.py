"""Workload decomposition for the distributed solver.

Two ways to cut a workload across a device group:

- **rows** — split each system into contiguous per-device row chunks.
  The chunk math is the single-device SPIKE implementation
  (:mod:`repro.algorithms.spike`) verbatim: balanced bounds, 3-RHS chunk
  systems (data + two coupling spikes), the 2×2-block reduced boundary
  system, and the reconstruction FMA. This module re-exports it as the
  dist-facing API so the solver and tests have one import point.
- **batch** — split a wide batch by system: :func:`batch_shares` deals
  ``m`` systems across ``p`` devices as evenly as possible, idling
  devices beyond the system count.

Rows mode has an *approximate* variant (``approx``): the same chunk
split and 3-RHS solves, but the boundary unknowns come from
:func:`truncated_reduced_solve` — independent per-interface 2×2 solves
instead of the global reduced system, valid when the systems are
diagonally dominant enough (see :mod:`repro.numerics`).

It also has an exact *pipelined* variant: the same chunk split, but the
local solves lower fused (interleaved sweeps) and the reduced system is
swept neighbour-to-neighbour instead of gathered on device 0 — block
Thomas elimination on the 2×2-block reduced system is a left-to-right
forward pass plus a right-to-left backward pass, so each device can
keep its two reduced rows and forward a compacted carry. The
``PIPELINE_*_VALUES`` constants below size those carries.
"""

from __future__ import annotations

from typing import Tuple

from ..algorithms.spike import (
    MIN_CHUNK_ROWS,
    ChunkSplit,
    partition_bounds,
    reconstruct_chunk,
    solve_reduced_system,
    spike_rhs,
    split_chunks,
    truncated_reduced_solve,
)
from ..util.errors import ConfigurationError

__all__ = [
    "MIN_CHUNK_ROWS",
    "PIPELINE_BACK_VALUES",
    "PIPELINE_CARRY_VALUES",
    "PIPELINE_TIP_VALUES",
    "ChunkSplit",
    "batch_shares",
    "partition_bounds",
    "reconstruct_chunk",
    "solve_reduced_system",
    "spike_rhs",
    "split_chunks",
    "surviving_indices",
    "truncated_reduced_solve",
]

# Per-system carry sizes for the pipelined reduced sweep. The reduced
# system's 2×2 off-diagonal blocks are rank deficient by construction —
# B_k (coupling right) has only its second column nonzero (the w spike)
# and C_k (coupling left) only its first (the v spike) — so the forward
# Gauss transform compacts to 2 values, shipped with the 2-value partial
# RHS (4 total). Back-substitution needs only the neighbour's solved
# boundary pair (2), and the reconstruction tip t_{k-1} is 1 value.
PIPELINE_CARRY_VALUES = 4.0
PIPELINE_BACK_VALUES = 2.0
PIPELINE_TIP_VALUES = 1.0


def batch_shares(num_systems: int, num_devices: int) -> Tuple[int, ...]:
    """Balanced per-device system counts for ``batch`` mode.

    At most ``num_devices`` entries; devices beyond ``num_systems`` idle
    and get no entry. Shares differ by at most one system.
    """
    if num_systems < 1 or num_devices < 1:
        raise ConfigurationError("need at least one system and one device")
    active = min(num_devices, num_systems)
    base, extra = divmod(num_systems, active)
    return tuple(base + (1 if i < extra else 0) for i in range(active))


def surviving_indices(num_devices: int, dead) -> Tuple[int, ...]:
    """Group member indices left after ``dead`` members failed.

    The failover re-partition runs over exactly these members, in
    order, so chunk/share assignments stay deterministic.
    """
    survivors = tuple(i for i in range(num_devices) if i not in set(dead))
    if not survivors:
        raise ConfigurationError(
            f"all {num_devices} devices have failed; nothing to fail over to"
        )
    return survivors
