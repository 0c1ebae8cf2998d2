"""Metrics-driven autoscaling of the worker/device fleet.

The autoscaler closes the loop the observability layer opened: the
``repro_service_queue_depth`` gauge and the group-latency histograms
already in the :class:`~repro.obs.MetricsRegistry` *are* its inputs —
it reads the registry like any operator dashboard would, decides a
target fleet width, and applies it through anything with
``resize(n)``/``size`` (the real :class:`~repro.service.fleet
.ScalableWorkerFleet`, or the simulator's model of one).

Policy (deliberately boring — reviewable over clever):

- **scale up** when queue depth per worker exceeds
  ``target_queue_per_worker``, proportionally (depth / target rounds to
  the fleet that would restore the ratio), or when the group-latency
  p99 read off the histogram breaches ``latency_slo_ms``;
- **scale down** one worker at a time, only after ``idle_ticks_down``
  consecutive calm ticks: queue depth per worker at most
  ``target_queue_per_worker`` (the grow test's bound) and latency
  inside SLO — shrink slowly, grow fast;
- a ``cooldown_ticks`` refractory period after any change stops
  flapping.

Every tick emits a decision: a counter
(``repro_serve_autoscaler_decisions_total{action}``), a gauge of the
target, and — when a tracer is attached — an ``autoscale`` span
carrying the inputs it saw, so scaling history is replayable from the
trace alone. Decisions are pure functions of (registry state, policy,
tick count): deterministic in simulation, explainable in production.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..util.errors import ConfigurationError

__all__ = ["AutoscalerPolicy", "AutoscaleDecision", "Autoscaler"]


@dataclass(frozen=True)
class AutoscalerPolicy:
    """Bounds and thresholds for :class:`Autoscaler`."""

    min_workers: int = 1
    max_workers: int = 16
    target_queue_per_worker: float = 4.0  # scale up above this ratio
    latency_slo_ms: Optional[float] = None  # p99 trigger, None = depth only
    idle_ticks_down: int = 3  # consecutive calm ticks before shrinking
    cooldown_ticks: int = 1  # refractory ticks after any resize

    def __post_init__(self):
        if self.min_workers < 1:
            raise ConfigurationError(
                f"min_workers must be >= 1, got {self.min_workers}"
            )
        if self.max_workers < self.min_workers:
            raise ConfigurationError(
                f"max_workers ({self.max_workers}) must be >= min_workers "
                f"({self.min_workers})"
            )
        if self.target_queue_per_worker <= 0:
            raise ConfigurationError("target_queue_per_worker must be > 0")


@dataclass(frozen=True)
class AutoscaleDecision:
    """One tick's verdict, with the inputs that produced it."""

    tick: int
    action: str  # "up" | "down" | "hold"
    workers_before: int
    workers_after: int
    queue_depth: float
    latency_p99_ms: float
    reason: str


class Autoscaler:
    """Reads the registry, resizes the fleet, records what it did."""

    #: Histogram the p99 trigger reads (simulated group latency).
    LATENCY_METRIC = "repro_service_group_simulated_ms"
    #: Gauge the depth trigger reads.
    DEPTH_METRIC = "repro_service_queue_depth"

    def __init__(
        self,
        fleet,
        registry,
        policy: Optional[AutoscalerPolicy] = None,
        *,
        tracer=None,
    ):
        self.fleet = fleet
        self.registry = registry
        self.policy = policy or AutoscalerPolicy()
        self.tracer = tracer
        self._tick = 0
        self._calm_ticks = 0
        self._cooldown = 0
        self.decisions: "list[AutoscaleDecision]" = []
        self._decisions_metric = registry.counter(
            "repro_serve_autoscaler_decisions_total",
            "Autoscaler verdicts per tick, by action.",
        )
        self._target_metric = registry.gauge(
            "repro_serve_autoscaler_target_workers",
            "Fleet width the autoscaler last asked for.",
        )
        self._target_metric.set(self.fleet.size)

    # -- inputs --------------------------------------------------------------

    def _queue_depth(self) -> float:
        gauge = self.registry.get(self.DEPTH_METRIC)
        return gauge.value() if gauge is not None else 0.0

    def _latency_p99(self) -> float:
        hist = self.registry.get(self.LATENCY_METRIC)
        return hist.quantile(0.99) if hist is not None else 0.0

    # -- the control loop ----------------------------------------------------

    def tick(self, now_ms: Optional[float] = None) -> AutoscaleDecision:
        """One control-loop step; returns (and records) the decision.

        ``now_ms`` timestamps the decision span on the caller's clock
        (simulated ms in the load sim); omitted, spans use the tick
        index as their timeline.
        """
        policy = self.policy
        self._tick += 1
        depth = self._queue_depth()
        p99 = self._latency_p99()
        workers = self.fleet.size
        slo_breached = (
            policy.latency_slo_ms is not None and p99 > policy.latency_slo_ms
        )
        backlogged = depth > policy.target_queue_per_worker * workers

        action, reason, target = "hold", "steady", workers
        if self._cooldown > 0:
            self._cooldown -= 1
            reason = "cooldown"
        elif backlogged or slo_breached:
            self._calm_ticks = 0
            want = int(math.ceil(depth / policy.target_queue_per_worker))
            if slo_breached:
                want = max(want, workers + 1)
            target = max(
                policy.min_workers, min(policy.max_workers, max(want, workers))
            )
            if target > workers:
                action = "up"
                reason = "latency_slo" if slo_breached else "queue_depth"
            else:
                reason = "at_max" if workers >= policy.max_workers else "steady"
        else:
            self._calm_ticks += 1
            # Calm means depth <= target_queue_per_worker * workers, the
            # grow test's own bound.
            if (
                self._calm_ticks >= policy.idle_ticks_down
                and workers > policy.min_workers
            ):
                target = workers - 1
                action = "down"
                reason = "idle"
                self._calm_ticks = 0

        if target != workers:
            self.fleet.resize(target)
            self._cooldown = policy.cooldown_ticks
        decision = AutoscaleDecision(
            tick=self._tick,
            action=action,
            workers_before=workers,
            workers_after=target,
            queue_depth=depth,
            latency_p99_ms=p99,
            reason=reason,
        )
        self.decisions.append(decision)
        self._decisions_metric.inc(action=action)
        self._target_metric.set(target)
        if self.tracer is not None:
            at = float(self._tick) if now_ms is None else float(now_ms)
            self.tracer.leaf(
                f"autoscale[{self._tick}]",
                "autoscale",
                at,
                at,
                action=action,
                queue_depth=depth,
                latency_p99_ms=p99,
                reason=reason,
                workers_before=workers,
                workers_after=target,
            )
        return decision
