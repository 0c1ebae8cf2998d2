"""Deterministic metrics: counters, gauges, and fixed-bucket histograms.

One :class:`MetricsRegistry` is threaded through the stack — the
service, the distributed solver, the tuning cache, the fault log — and
every instrument it hands out is labelled (Prometheus-flavoured names,
``snake_case`` with a ``repro_`` prefix and a unit suffix). The full
catalogue, with exact names and label sets, lives in
``docs/observability.md``.

Determinism is a design constraint, not an accident: histogram bucket
boundaries are fixed at registration (never adaptive), label sets render
sorted, and :meth:`MetricsRegistry.render` emits instruments in sorted
order — so two runs with the same seed produce byte-identical dumps,
and the dumps can be golden-tested like any other artefact.

Everything locks around plain dict/float updates, so instruments are
safe to bump from service worker threads.
"""

from __future__ import annotations

import bisect
import threading
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_MS_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
]

# Simulated-milliseconds buckets: decade steps with a 1-2-5 ladder, wide
# enough for microsecond kernels and multi-second distributed makespans.
DEFAULT_MS_BUCKETS: Tuple[float, ...] = (
    0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0,
    10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0,
)

# Power-of-two buckets for counts of systems/requests per merged group.
DEFAULT_SIZE_BUCKETS: Tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096,
)


def _label_key(labels: Dict[str, object]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _format_labels(key: Tuple[Tuple[str, str], ...]) -> str:
    if not key:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in key)
    return "{" + inner + "}"


class _Instrument:
    """Shared labelled-series bookkeeping for all instrument kinds."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str, lock: threading.Lock):
        self.name = name
        self.help_text = help_text
        self._lock = lock
        self._series: Dict[Tuple[Tuple[str, str], ...], object] = {}

    def _render_series(self) -> List[str]:  # pragma: no cover - overridden
        raise NotImplementedError

    def render(self) -> List[str]:
        lines = [f"# HELP {self.name} {self.help_text}", f"# TYPE {self.name} {self.kind}"]
        lines.extend(self._render_series())
        return lines


def _num(value: float) -> str:
    """Render a sample without float noise (integers stay integers)."""
    f = float(value)
    return str(int(f)) if f == int(f) else repr(f)


class Counter(_Instrument):
    """Monotonically increasing count, per label set."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        with self._lock:
            return float(self._series.get(_label_key(labels), 0.0))

    def total(self) -> float:
        """Sum across every label set."""
        with self._lock:
            return float(sum(self._series.values()))

    def _render_series(self) -> List[str]:
        with self._lock:
            items = sorted(self._series.items())
        return [f"{self.name}{_format_labels(k)} {_num(v)}" for k, v in items]


class Gauge(_Instrument):
    """Point-in-time value, per label set."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        with self._lock:
            self._series[_label_key(labels)] = float(value)

    def add(self, amount: float, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        with self._lock:
            return float(self._series.get(_label_key(labels), 0.0))

    def _render_series(self) -> List[str]:
        with self._lock:
            items = sorted(self._series.items())
        return [f"{self.name}{_format_labels(k)} {_num(v)}" for k, v in items]


class _HistogramSeries:
    __slots__ = ("bucket_counts", "count", "total")

    def __init__(self, num_buckets: int):
        self.bucket_counts = [0] * num_buckets
        self.count = 0
        self.total = 0.0


class Histogram(_Instrument):
    """Distribution over fixed, registration-time bucket boundaries.

    ``observe(v)`` increments the first bucket whose upper bound is
    >= v (cumulative rendering adds the implicit ``+Inf`` bucket), so
    the exported shape depends only on the observed values — never on
    observation order or count.
    """

    kind = "histogram"

    def __init__(self, name, help_text, lock, buckets: Sequence[float]):
        super().__init__(name, help_text, lock)
        if not buckets or list(buckets) != sorted(set(buckets)):
            raise ValueError("histogram buckets must be sorted and distinct")
        self.buckets: Tuple[float, ...] = tuple(float(b) for b in buckets)

    def observe(self, value: float, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(len(self.buckets))
            idx = bisect.bisect_left(self.buckets, float(value))
            if idx < len(self.buckets):
                series.bucket_counts[idx] += 1
            series.count += 1
            series.total += float(value)

    def count(self, **labels) -> int:
        with self._lock:
            series = self._series.get(_label_key(labels))
            return series.count if series else 0

    def sum(self, **labels) -> float:
        with self._lock:
            series = self._series.get(_label_key(labels))
            return series.total if series else 0.0

    def _render_series(self) -> List[str]:
        with self._lock:
            items = sorted(self._series.items())
            lines: List[str] = []
            for key, series in items:
                cumulative = 0
                for bound, in_bucket in zip(self.buckets, series.bucket_counts):
                    cumulative += in_bucket
                    bkey = key + (("le", _num(bound)),)
                    lines.append(f"{self.name}_bucket{_format_labels(bkey)} {cumulative}")
                bkey = key + (("le", "+Inf"),)
                lines.append(f"{self.name}_bucket{_format_labels(bkey)} {series.count}")
                lines.append(f"{self.name}_sum{_format_labels(key)} {_num(series.total)}")
                lines.append(f"{self.name}_count{_format_labels(key)} {series.count}")
        return lines


class MetricsRegistry:
    """Names instruments, hands them out, renders them deterministically.

    Registration is idempotent: asking twice for the same name returns
    the same instrument (with a kind check), so independently constructed
    components can share a registry without coordinating.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, _Instrument] = {}

    def _register(self, cls, name: str, help_text: str, **kwargs) -> _Instrument:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            inst = cls(name, help_text, threading.Lock(), **kwargs)
            self._instruments[name] = inst
            return inst

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._register(Counter, name, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._register(Gauge, name, help_text)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Sequence[float] = DEFAULT_MS_BUCKETS,
    ) -> Histogram:
        return self._register(Histogram, name, help_text, buckets=buckets)

    def get(self, name: str) -> Optional[_Instrument]:
        with self._lock:
            return self._instruments.get(name)

    def names(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._instruments))

    def render(self) -> str:
        """Plaintext exposition dump: instruments sorted by name.

        Byte-deterministic for a deterministic run — pin it in goldens.
        """
        with self._lock:
            instruments = [self._instruments[n] for n in sorted(self._instruments)]
        lines: List[str] = []
        for inst in instruments:
            lines.extend(inst.render())
        return "\n".join(lines) + ("\n" if lines else "")
