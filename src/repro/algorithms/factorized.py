"""Reusable factorization of the PCR-Thomas solve, for applications
(ADI stepping, implicit option pricing) that solve one matrix against a
fresh right-hand side every step: the split chain's matrix passes run
once, and each solve replays only its right-hand-side passes (see
:class:`~repro.kernels.chain.FactoredChain`)."""

from __future__ import annotations

from ..kernels.chain import FactoredChain
from ..systems.tridiagonal import TridiagonalBatch
from ..util.errors import ShapeError
from ..util.validation import check_power_of_two, ilog2

__all__ = ["factorize"]


def factorize(
    batch: TridiagonalBatch, split_depth: int | None = None
) -> FactoredChain:
    """Factor ``batch``'s matrix for repeated solves.

    ``split_depth`` is the number of PCR levels before the Thomas phase
    (default: ``log2(thomas default 64)`` capped by the system size).
    The RHS stored in ``batch`` is ignored.
    """
    n = batch.system_size
    check_power_of_two(n, "system_size")
    if split_depth is None:
        split_depth = min(6, ilog2(n))  # 2^6 = 64 subsystems, the default
    if split_depth < 0 or (1 << split_depth) > n:
        raise ShapeError(
            f"split_depth {split_depth} invalid for system size {n}"
        )
    return FactoredChain(batch, split_depth)
