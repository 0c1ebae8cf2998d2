"""Argument-validation helpers shared across the library.

These helpers centralise the error messages so tests can rely on stable
wording, and keep hot-path validation cheap (pure ``ndarray`` attribute
checks, no copies).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigurationError, InvalidSystemError, ShapeError

__all__ = [
    "require",
    "check_positive_int",
    "check_power_of_two",
    "is_power_of_two",
    "next_power_of_two",
    "check_dtype",
    "check_same_shape",
    "check_finite_batch",
    "check_system_batch",
    "resolve_faults",
    "ilog2",
]

_SUPPORTED_DTYPES = (np.float32, np.float64)


def require(condition: bool, message: str, exc: type = ConfigurationError) -> None:
    """Raise ``exc(message)`` unless ``condition`` holds."""
    if not condition:
        raise exc(message)


def check_positive_int(value: int, name: str) -> int:
    """Validate that ``value`` is a positive integer and return it."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be an int, got {type(value).__name__}")
    if value <= 0:
        raise ConfigurationError(f"{name} must be positive, got {value}")
    return int(value)


def is_power_of_two(value: int) -> bool:
    """True when ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def check_power_of_two(value: int, name: str) -> int:
    """Validate that ``value`` is a positive power of two and return it."""
    check_positive_int(value, name)
    if not is_power_of_two(value):
        raise ConfigurationError(f"{name} must be a power of two, got {value}")
    return int(value)


def next_power_of_two(value: int) -> int:
    """Smallest power of two >= ``value`` (>= 1)."""
    if value <= 1:
        return 1
    return 1 << (int(value) - 1).bit_length()


def ilog2(value: int) -> int:
    """Exact integer log2 of a power of two."""
    check_power_of_two(value, "value")
    return int(value).bit_length() - 1


def check_dtype(arr: np.ndarray, name: str) -> np.dtype:
    """Validate that ``arr`` has a supported floating dtype."""
    if arr.dtype not in _SUPPORTED_DTYPES:
        raise ShapeError(
            f"{name} must have dtype float32 or float64, got {arr.dtype}"
        )
    return arr.dtype


def check_finite_batch(batch, *, context: str = "request"):
    """Reject NaN/Inf anywhere in ``batch`` with a typed
    :class:`InvalidSystemError` naming the first such system."""
    finite = (
        np.isfinite(batch.a).all(axis=1)
        & np.isfinite(batch.b).all(axis=1)
        & np.isfinite(batch.c).all(axis=1)
        & np.isfinite(batch.d).all(axis=1)
    )
    if not finite.all():
        index = int(np.argmin(finite))
        raise InvalidSystemError(
            f"{context}: system {index} contains NaN or Inf coefficients",
            system_index=index,
        )


def check_system_batch(batch, *, context: str = "request"):
    """Reject malformed systems with a typed :class:`InvalidSystemError`.

    The service-boundary gate: NaN/Inf anywhere in the coefficients or
    right-hand side, or an exactly-zero main-diagonal entry, fails fast
    with the offending system's index instead of propagating as a
    garbage solution or a raw numpy warning deep inside a merged group
    solve. Two vectorised reductions over the batch — cheap relative to
    any solve. Returns ``batch`` so call sites can chain.
    """
    check_finite_batch(batch, context=context)
    diag_ok = (batch.b != 0).all(axis=1)
    if not diag_ok.all():
        index = int(np.argmin(diag_ok))
        raise InvalidSystemError(
            f"{context}: system {index} has a zero main-diagonal entry",
            system_index=index,
        )
    return batch


def check_same_shape(arrays: Sequence[np.ndarray], names: Iterable[str]) -> tuple:
    """Validate that all arrays share one shape; return that shape."""
    names = list(names)
    shapes = [a.shape for a in arrays]
    first = shapes[0]
    for shape, name in zip(shapes[1:], names[1:]):
        if shape != first:
            raise ShapeError(
                f"{name} has shape {shape}, expected {first} (same as {names[0]})"
            )
    return first


def resolve_faults(faults):
    """A front end's ``faults=`` as the injector it uses: ``None`` or a
    :class:`~repro.faults.FaultInjector` (or a view of one) as given, a
    bare :class:`~repro.faults.FaultPlan` in its own injector."""
    if faults is None or hasattr(faults, "before_step"):
        return faults
    from ..faults import FaultInjector  # repro.faults imports the front ends

    return FaultInjector(faults)
