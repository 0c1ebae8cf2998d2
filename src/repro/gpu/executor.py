"""Simulated device execution: sessions, launch records, reports.

A :class:`Device` is an immutable handle on a :class:`DeviceSpec`. Kernels
execute inside a :class:`SimSession`, which plays the role of a CUDA
stream + profiler: every kernel launch submits its :class:`KernelCost`
and the session records the resolved :class:`CostBreakdown` tagged with
the pipeline stage that issued it. A finished session yields a
:class:`SimReport` with totals and per-stage breakdowns — the simulated
equivalent of wall-clock measurements, and the quantity the self-tuner
minimises.

Each :class:`LaunchRecord` also carries a trace span (``start_ms`` /
``end_ms``) and the issuing device name. A session lays its launches
end to end; the instruction-program engine (:mod:`repro.ir.engine`)
builds the same records where its list scheduler places each launch,
and reports a solve program's launches as a :class:`SimReport` too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..util.errors import DeviceError
from .cost import CostBreakdown, KernelCost, kernel_time_ms
from .query import DeviceProperties, query_device
from .spec import DeviceSpec, get_device_spec

__all__ = ["Device", "SimSession", "LaunchRecord", "SimReport", "make_device"]


@dataclass(frozen=True)
class LaunchRecord:
    """One recorded kernel launch."""

    stage: str
    breakdown: CostBreakdown
    # Trace fields (defaulted so records remain cheap to construct by
    # hand in tests): where the launch ran and when it was placed.
    device_name: str = ""
    start_ms: float = 0.0
    end_ms: float = 0.0

    @property
    def total_ms(self) -> float:
        """Simulated duration of this launch."""
        return self.breakdown.total_ms


@dataclass(frozen=True)
class SimReport:
    """Aggregated timing of a finished session."""

    device_name: str
    records: tuple

    @property
    def total_ms(self) -> float:
        """Simulated end-to-end time."""
        return sum(r.total_ms for r in self.records)

    @property
    def num_launches(self) -> int:
        """Total kernel launches issued."""
        return len(self.records)

    def stage_ms(self) -> Dict[str, float]:
        """Per-stage time totals, insertion ordered."""
        out: Dict[str, float] = {}
        for rec in self.records:
            out[rec.stage] = out.get(rec.stage, 0.0) + rec.total_ms
        return out

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        lines = [f"{self.device_name}: {self.total_ms:.3f} ms "
                 f"({self.num_launches} launches)"]
        for stage, ms in self.stage_ms().items():
            share = ms / self.total_ms if self.total_ms else 0.0
            lines.append(f"  {stage:<24s} {ms:9.3f} ms  ({share:5.1%})")
        return "\n".join(lines)


class Device:
    """A simulated GPU. Cheap to construct; holds no mutable state."""

    def __init__(self, spec: DeviceSpec):
        self.spec = spec

    @property
    def name(self) -> str:
        """Marketing name of the simulated part."""
        return self.spec.name

    def properties(self) -> DeviceProperties:
        """The queryable view — all that tuners may read."""
        return query_device(self.spec)

    def max_onchip_system_size(self, dtype_size: int) -> int:
        """Largest power-of-two system one SM can solve on-chip."""
        return self.spec.max_onchip_system_size(dtype_size)

    def session(self) -> "SimSession":
        """Open a fresh execution session (one solve, one tuner probe...)."""
        return SimSession(self)

    def check_fits_global(self, nbytes: int) -> None:
        """Raise when a working set exceeds the device's global memory."""
        if nbytes > self.spec.global_mem_bytes:
            raise DeviceError(
                f"working set of {nbytes} B exceeds global memory "
                f"({self.spec.global_mem_bytes} B) on {self.name}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Device({self.name!r})"


class SimSession:
    """Collects launch records for one simulated execution."""

    def __init__(self, device: Device):
        self.device = device
        self._records: List[LaunchRecord] = []
        self._total_ms = 0.0  # running total; keeps elapsed_ms O(1)
        self._closed = False

    def submit(self, cost: KernelCost, *, stage: str) -> CostBreakdown:
        """Time one kernel launch and record it under ``stage``."""
        if self._closed:
            raise DeviceError("session is closed")
        breakdown = kernel_time_ms(self.device.spec, cost)
        start = self._total_ms
        self._total_ms = start + breakdown.total_ms
        self._records.append(
            LaunchRecord(
                stage=stage,
                breakdown=breakdown,
                device_name=self.device.name,
                start_ms=start,
                end_ms=self._total_ms,
            )
        )
        return breakdown

    @property
    def elapsed_ms(self) -> float:
        """Simulated time so far (accumulated, not re-summed)."""
        return self._total_ms

    def report(self) -> SimReport:
        """Close the session and return its report."""
        self._closed = True
        return SimReport(
            device_name=self.device.name, records=tuple(self._records)
        )


def make_device(name_or_spec) -> Device:
    """Build a :class:`Device` from a name, spec, or existing device."""
    if isinstance(name_or_spec, Device):
        return name_or_spec
    if isinstance(name_or_spec, DeviceSpec):
        return Device(name_or_spec)
    if isinstance(name_or_spec, str):
        return Device(get_device_spec(name_or_spec))
    raise DeviceError(f"cannot build a device from {type(name_or_spec).__name__}")
