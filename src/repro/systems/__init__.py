"""Tridiagonal system containers, generators, properties, and I/O."""

from . import generators
from .batched import BatchedTridiagonal
from .io import load_batch, save_batch
from .properties import (
    BatchSummary,
    condition_estimate,
    dominance_margin,
    dominance_ratio,
    has_zero_diagonal,
    is_diagonally_dominant,
    is_symmetric,
    is_toeplitz,
    summarize,
)
from .suite import PAPER_WORKLOAD_NAMES, Workload, build_workload, paper_workloads
from .tridiagonal import SharedMatrixBatch, TridiagonalBatch, TridiagonalSystem

__all__ = [
    "TridiagonalBatch",
    "TridiagonalSystem",
    "SharedMatrixBatch",
    "BatchedTridiagonal",
    "generators",
    "save_batch",
    "load_batch",
    "dominance_margin",
    "dominance_ratio",
    "is_diagonally_dominant",
    "is_symmetric",
    "is_toeplitz",
    "has_zero_diagonal",
    "condition_estimate",
    "BatchSummary",
    "summarize",
    "Workload",
    "paper_workloads",
    "build_workload",
    "PAPER_WORKLOAD_NAMES",
]
