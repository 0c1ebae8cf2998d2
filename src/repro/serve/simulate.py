"""Deterministic serving-load simulation of the async tier's fleet.

Solving 100k real (if small) linear systems just to measure *queueing*
would drown the signal in host arithmetic, so the serve-bench scenario
is a *discrete-event simulation* of the serving tier in simulated
milliseconds — the same currency as the GPU cost model. What is
simulated and what is real:

- **real**: the :class:`~repro.serve.admission.AdmissionController`
  (typed quota/priority shedding), the
  :class:`~repro.serve.autoscaler.Autoscaler` (reading the same
  metric names off a real :class:`~repro.obs.MetricsRegistry`), the
  priced per-group solve times (taken from the repo's own cost model
  via :func:`repro.core.simulate_plan` and fitted affine in merged
  batch height), and the grouping rule (plan-signature keyed).
- **simulated**: Poisson arrivals, the clock, and worker occupancy.

The tuning cache is not modelled: a service reads it once per
(device, dtype) for its whole life and memoises the answer.

Every run goes through admission and the fleet; ``config.autoscale``
picks a fixed width (``workers``) or the autoscaler (floor
``workers``, ceiling ``max_workers``). :func:`fleet_ablation` runs
the fixed widths of :data:`FIXED_WIDTHS` and one autoscaled fleet over
the *same* seeded arrival stream, so the autoscaler is held to the
best fixed pool.

The report carries p50/p99/mean latency of served requests, shed
counts by typed reason, the fleet's peak and mean width, its
worker-ms (width summed over ticks, times the tick length), and the
autoscaler's decision counts. Everything is a pure function of the
seed.
"""

from __future__ import annotations

import heapq
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..analysis.report import ascii_table
from ..core import simulate_plan
from ..core.tuning import make_tuner
from ..gpu.executor import make_device
from ..obs import MetricsRegistry
from ..util.errors import (
    PriorityShedError,
    TenantQuotaExceededError,
)
from .admission import AdmissionController, TenantQuota
from .autoscaler import Autoscaler, AutoscalerPolicy

__all__ = [
    "FIXED_WIDTHS",
    "ServingSimConfig",
    "ServingSimReport",
    "ablation_payload",
    "fleet_ablation",
    "render_ablation",
    "simulate_serving",
]

#: Fixed fleet widths :func:`fleet_ablation` runs next to the autoscaler.
FIXED_WIDTHS = (4, 6, 8, 16)

#: Shape pools mirroring :func:`repro.systems.generators.mixed_requests`.
SIZES = (64, 100, 128, 200, 256, 384, 512)
DTYPE_SIZES = (4, 8)
MAX_SYSTEMS = 8

#: Tenant traffic profile: priority class cycles through the tenants,
#: tenant 0 is the heavy hitter (half the stream).
PRIORITY_CYCLE = ("interactive", "standard", "batch")


@dataclass(frozen=True)
class ServingSimConfig:
    """One simulated serving scenario."""

    requests: int = 100_000
    rate_per_s: float = 12_000.0  # Poisson arrival rate
    seed: int = 0
    tenants: int = 4
    device: str = "gtx470"
    workers: int = 4  # fixed width; the autoscaler's floor
    max_workers: int = 32  # autoscaler ceiling
    flush_every_ms: float = 5.0  # batching window / autoscaler tick
    dispatch_ms: float = 2.0  # host-side worker time per merged solve
    capacity: int = 512  # admission capacity
    latency_slo_ms: float = 200.0  # autoscaler p99 trigger
    autoscale: bool = True  # False keeps the fleet at ``workers``


@dataclass
class ServingSimReport:
    """Audited outcome of one fleet under one scenario."""

    requests: int
    served: int
    shed: Dict[str, int] = field(default_factory=dict)
    latency_p50_ms: float = 0.0
    latency_p99_ms: float = 0.0
    latency_mean_ms: float = 0.0
    makespan_ms: float = 0.0
    groups: int = 0
    max_workers: int = 0
    mean_workers: float = 0.0
    worker_ms: float = 0.0
    worker_trajectory: List[Tuple[float, int]] = field(default_factory=list)
    autoscaler_actions: Dict[str, int] = field(default_factory=dict)

    @property
    def shed_total(self) -> int:
        return sum(self.shed.values())

    @property
    def shed_rate(self) -> float:
        return self.shed_total / self.requests if self.requests else 0.0

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "served": self.served,
            "shed": dict(sorted(self.shed.items())),
            "shed_rate": self.shed_rate,
            "latency_p50_ms": self.latency_p50_ms,
            "latency_p99_ms": self.latency_p99_ms,
            "latency_mean_ms": self.latency_mean_ms,
            "makespan_ms": self.makespan_ms,
            "groups": self.groups,
            "max_workers": self.max_workers,
            "mean_workers": self.mean_workers,
            "worker_ms": self.worker_ms,
            "autoscaler_actions": dict(sorted(self.autoscaler_actions.items())),
        }


@dataclass(frozen=True)
class _Arrival:
    at_ms: float
    tenant: str
    priority: str
    signature: Tuple
    systems: int


class _CostModel:
    """Priced merged-solve time, affine in merged height per shape.

    Fit from two :func:`repro.core.simulate_plan` pricings per
    (system size, dtype) — the repo's actual cost model, so the sim's
    service times move if the machine model does.
    """

    def __init__(self, device_name: str):
        device = make_device(device_name)
        tuner = make_tuner("static")
        self._params: Dict[Tuple[int, int], Tuple[float, float]] = {}
        self._signatures: Dict[Tuple[int, int, int], Tuple] = {}
        for n in SIZES:
            for dsize in DTYPE_SIZES:
                switch = tuner.switch_points(device, 0, 0, dsize)
                lo_m, hi_m = 8, 128
                _, lo = simulate_plan(device, lo_m, n, dsize, switch)
                _, hi = simulate_plan(device, hi_m, n, dsize, switch)
                slope = (hi.total_ms - lo.total_ms) / (hi_m - lo_m)
                base = max(lo.total_ms - slope * lo_m, 0.0)
                self._params[(n, dsize)] = (base, max(slope, 0.0))
                for m in range(1, MAX_SYSTEMS + 1):
                    plan, _ = simulate_plan(device, m, n, dsize, switch)
                    self._signatures[(m, n, dsize)] = (
                        plan.signature, n, dsize
                    )

    def signature(self, m: int, n: int, dsize: int) -> Tuple:
        """Grouping key: the request's own plan signature + shape."""
        return self._signatures[(m, n, dsize)]

    def group_ms(self, signature: Tuple, total_systems: int) -> float:
        _, n, dsize = signature
        base, slope = self._params[(n, dsize)]
        return base + slope * total_systems


def _draw_arrivals(
    config: ServingSimConfig,
) -> Tuple[List[_Arrival], _CostModel]:
    rng = np.random.default_rng(config.seed)
    cost = _CostModel(config.device)
    interarrival_ms = 1e3 / config.rate_per_s
    tenants = [f"tenant{i}" for i in range(config.tenants)]
    priorities = {
        t: PRIORITY_CYCLE[i % len(PRIORITY_CYCLE)]
        for i, t in enumerate(tenants)
    }
    # Tenant 0 is half the traffic; the rest split the remainder.
    weights = np.full(config.tenants, 0.5 / max(config.tenants - 1, 1))
    weights[0] = 0.5 if config.tenants > 1 else 1.0
    arrivals: List[_Arrival] = []
    now = 0.0
    for _ in range(config.requests):
        now += float(rng.exponential(interarrival_ms))
        tenant = tenants[int(rng.choice(config.tenants, p=weights))]
        n = int(rng.choice(SIZES))
        m = int(rng.integers(1, MAX_SYSTEMS + 1))
        dsize = int(rng.choice(DTYPE_SIZES))
        arrivals.append(
            _Arrival(
                at_ms=now,
                tenant=tenant,
                priority=priorities[tenant],
                signature=cost.signature(m, n, dsize),
                systems=m,
            )
        )
    return arrivals, cost


class _SimFleet:
    """Worker occupancy model with the real fleet's resize surface."""

    def __init__(self, workers: int):
        self.free_at: List[float] = [0.0] * workers

    @property
    def size(self) -> int:
        return len(self.free_at)

    def resize(self, workers: int) -> None:
        while len(self.free_at) < workers:
            self.free_at.append(0.0)
        while len(self.free_at) > workers:
            # Retire the most idle worker — shrink never interrupts a
            # running merged solve, matching ScalableWorkerFleet.
            self.free_at.remove(min(self.free_at))

    def next_free(self) -> float:
        return min(self.free_at)

    def assign(self, ready_ms: float, duration_ms: float) -> float:
        idx = self.free_at.index(min(self.free_at))
        start = max(ready_ms, self.free_at[idx])
        self.free_at[idx] = start + duration_ms
        return start + duration_ms


def simulate_serving(
    config: ServingSimConfig,
    *,
    arrivals: Optional[List[_Arrival]] = None,
    cost: Optional[_CostModel] = None,
) -> ServingSimReport:
    """Run the fleet over the scenario's seeded arrival stream."""
    if arrivals is None or cost is None:
        arrivals, cost = _draw_arrivals(config)

    registry = MetricsRegistry()
    depth_gauge = registry.gauge(
        Autoscaler.DEPTH_METRIC, "Requests waiting to be flushed."
    )
    latency_hist = registry.histogram(
        Autoscaler.LATENCY_METRIC,
        "Simulated device time per merged solve.",
    )
    fleet = _SimFleet(config.workers)
    autoscaler = None
    sim_now = {"ms": 0.0}
    if config.autoscale:
        autoscaler = Autoscaler(
            fleet,
            registry,
            AutoscalerPolicy(
                min_workers=config.workers,
                max_workers=config.max_workers,
                latency_slo_ms=config.latency_slo_ms,
            ),
        )
    admission = AdmissionController(
        capacity=config.capacity,
        default_quota=TenantQuota(
            max_pending=config.capacity // 2, priority="standard"
        ),
        clock=lambda: sim_now["ms"] / 1e3,
    )
    admission.attach_metrics(registry)

    # Admitted requests and their tickets: waiting for this tick's
    # flush, then formed into groups the workers have not drained yet.
    pending: List[Tuple[_Arrival, object]] = []
    group_queue: List[Tuple[Tuple, List[Tuple[_Arrival, object]]]] = []
    release_heap: List[Tuple[float, int, object]] = []  # (finish, seq, ticket)
    latencies: List[float] = []
    shed: Dict[str, int] = {}
    groups = 0
    max_workers_seen = fleet.size
    trajectory: List[Tuple[float, int]] = []

    i = 0
    now = 0.0
    total = len(arrivals)
    while i < total or group_queue:
        now += config.flush_every_ms
        # -- arrivals in this window ----------------------------------------
        while i < total and arrivals[i].at_ms <= now:
            req = arrivals[i]
            i += 1
            sim_now["ms"] = req.at_ms
            while release_heap and release_heap[0][0] <= req.at_ms:
                admission.release(heapq.heappop(release_heap)[2])
            try:
                ticket = admission.admit(req.tenant, req.priority)
            except TenantQuotaExceededError as exc:
                key = f"tenant_{exc.quota}"
                shed[key] = shed.get(key, 0) + 1
                continue
            except PriorityShedError as exc:
                key = f"priority_{exc.priority}"
                shed[key] = shed.get(key, 0) + 1
                continue
            pending.append((req, ticket))
        sim_now["ms"] = now
        # -- autoscale on the visible backlog, then flush -------------------
        depth_gauge.set(
            len(pending) + sum(len(members) for _, members in group_queue)
        )
        if autoscaler is not None:
            autoscaler.tick(now)
            max_workers_seen = max(max_workers_seen, fleet.size)
        trajectory.append((now, fleet.size))
        # Plan-signature keyed groups in first-member order (the
        # batcher's rule).
        open_groups: Dict[Tuple, List[Tuple[_Arrival, object]]] = {}
        for req, ticket in pending:
            open_groups.setdefault(req.signature, []).append((req, ticket))
        group_queue.extend(open_groups.items())
        pending.clear()
        # -- drain: workers pull groups while they can start this window ----
        while group_queue and fleet.next_free() < now + config.flush_every_ms:
            signature, members = group_queue.pop(0)
            systems = sum(req.systems for req, _ in members)
            # Worker occupancy = host-side dispatch (plan lookup, merge,
            # slicing, launches) + the cost model's priced device time.
            duration = config.dispatch_ms + cost.group_ms(signature, systems)
            finish = fleet.assign(now, duration)
            latency_hist.observe(duration)
            groups += 1
            for req, ticket in members:
                latencies.append(finish - req.at_ms)
                # Released when the request's group finishes.
                heapq.heappush(release_heap, (finish, ticket.seq, ticket))

    lat = np.asarray(latencies) if latencies else np.zeros(1)
    width_ticks = sum(width for _, width in trajectory)
    return ServingSimReport(
        requests=total,
        served=len(latencies),
        shed=shed,
        latency_p50_ms=float(np.percentile(lat, 50)),
        latency_p99_ms=float(np.percentile(lat, 99)),
        latency_mean_ms=float(lat.mean()),
        makespan_ms=max(max(fleet.free_at), now),
        groups=groups,
        max_workers=max_workers_seen,
        mean_workers=width_ticks / len(trajectory),
        worker_ms=config.flush_every_ms * width_ticks,
        worker_trajectory=trajectory,
        autoscaler_actions=(
            {
                action: sum(
                    1 for d in autoscaler.decisions if d.action == action
                )
                for action in ("up", "down", "hold")
            }
            if autoscaler is not None
            else {}
        ),
    )


def fleet_ablation(config: ServingSimConfig) -> Dict[str, ServingSimReport]:
    """Fixed fleets of :data:`FIXED_WIDTHS` workers, then the autoscaler
    from ``config.workers`` up to ``config.max_workers``, all over the
    identical seeded arrival stream.

    Keys are ``"fixed <width>"`` and ``"autoscale"``, in that order.
    """
    arrivals, cost = _draw_arrivals(config)
    runs = {
        f"fixed {width}": replace(config, workers=width, autoscale=False)
        for width in FIXED_WIDTHS
    }
    runs["autoscale"] = replace(config, autoscale=True)
    return {
        label: simulate_serving(run, arrivals=arrivals, cost=cost)
        for label, run in runs.items()
    }


def render_ablation(
    reports: Dict[str, ServingSimReport], title: Optional[str] = None
) -> str:
    """The ablation as a table, then the narrowest fixed fleet that
    holds the autoscaler's p99 and sheds nothing, set against it."""
    table = ascii_table(
        ["fleet", "p50 ms", "p99 ms", "shed", "peak workers",
         "mean workers", "worker-ms"],
        [
            [label, r.latency_p50_ms, r.latency_p99_ms, f"{r.shed_rate:.1%}",
             r.max_workers, r.mean_workers, r.worker_ms]
            for label, r in reports.items()
        ],
        title=title,
    )
    auto = reports["autoscale"]
    holding = [
        (label, r)
        for label, r in reports.items()
        if label != "autoscale"
        and not r.shed_total
        and r.latency_p99_ms <= auto.latency_p99_ms
    ]
    if not holding:
        return table + "\nno fixed fleet holds the autoscaler's p99"
    label, best = holding[0]
    return table + (
        f"\n{label} holds the autoscaler's p99 "
        f"({best.latency_p99_ms:.2f} vs {auto.latency_p99_ms:.2f} ms) in "
        f"{best.worker_ms:,.0f} worker-ms against {auto.worker_ms:,.0f} "
        f"({best.worker_ms / auto.worker_ms:.2f}x)"
    )


def ablation_payload(
    config: ServingSimConfig, reports: Dict[str, ServingSimReport]
) -> dict:
    """JSON form of :func:`fleet_ablation`: the scenario, one row per fleet."""
    scenario = asdict(config)
    del scenario["autoscale"]  # each row sets its own
    return {
        "config": scenario,
        "rows": {label: r.as_dict() for label, r in reports.items()},
    }
