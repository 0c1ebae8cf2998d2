"""Per-layer metrics from a traced run, and the two-clock table.

Host busy time of a layer is the summed duration of its outermost spans
(a span nested inside another span of the same name is not counted
twice); self time is a span's duration minus its child spans. Busy times
are given per request; counts are totals over the traced units, whose
number is fixed by the run length, so they repeat exactly.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

import numpy as np

from tracing import LAYER_OF_PREFIX, Span, layer_of

__all__ = ["OPCODES", "STAGES", "DIST_MODES", "PER_LAYER", "layer_metrics", "two_clock_table"]

#: Opcodes the engine executes on the host.
OPCODES = (
    "Pad", "SplitCoop", "SplitBlock", "OnChipSolve", "Interleave", "BatchedSolve",
    "Unsplit", "Unpad",
)
#: Priced stages of single-device programs (SimReport.stage_ms keys).
STAGES = (
    "stage1_coop_pcr", "stage2_global_pcr", "stage3_pcr_thomas",
    "interleave", "fused_sweep", "deinterleave",
)
#: Which priced stages each host opcode runs.
OPCODE_STAGES = {
    "SplitCoop": ("stage1_coop_pcr",),
    "SplitBlock": ("stage2_global_pcr",),
    "OnChipSolve": ("stage3_pcr_thomas",),
    "Interleave": ("interleave", "deinterleave"),
    "BatchedSolve": ("fused_sweep",),
}
DIST_MODES = ("rows", "batch", "pipelined", "approx")
RUNGS = ("accepted", "refined", "resolved", "breakdown")
LAYERS = tuple(LAYER_OF_PREFIX.values())

#: Every per-layer metric, with its unit, in report order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("tuning.busy_ms", "ms/req"),
    ("tuning.setup_busy_ms", "ms"),
    ("tuning.hit_ratio", "fraction"),
    ("core.plan.busy_ms", "ms/req"),
    ("core.execute_plan.busy_ms", "ms/req"),
    ("ir.lower.busy_ms", "ms/req"),
    ("ir.lower.calls", "count"),
    ("ir.price.busy_ms", "ms/req"),
    ("ir.price.calls", "count"),
    ("ir.execute.self_ms", "ms/req"),
    ("ir.fused_share", "fraction"),
    *((f"kernels.busy_ms.{op}", "ms/req") for op in OPCODES),
    *((f"kernels.calls.{op}", "count") for op in OPCODES),
    *((f"kernels.priced_ms.{stage}", "sim_ms/req") for stage in STAGES),
    ("kernels.launches", "count"),
    ("numerics.decide.busy_ms", "ms/req"),
    ("numerics.enforce.busy_ms", "ms/req"),
    *((f"numerics.rung.{rung}", "count") for rung in RUNGS),
    ("service.submit.busy_us_per_request", "us/req"),
    ("service.validate.busy_ms", "ms/req"),
    ("service.group.busy_ms", "ms/req"),
    ("service.merge.busy_ms", "ms/req"),
    ("service.queue_wait_ms.p50", "ms"),
    ("service.groups", "count"),
    ("service.requests_per_group", "req/group"),
    ("service.bisections", "count"),
    ("serve.admit.busy_ms", "ms/req"),
    ("serve.shed", "count"),
    ("dist.price.busy_ms", "ms/req"),
    ("dist.execute.busy_ms", "ms/req"),
    ("dist.local_solve.busy_ms", "ms/req"),
    ("dist.reduced.busy_ms", "ms/req"),
    ("dist.reconstruct.busy_ms", "ms/req"),
    *((f"dist.mode.{mode}", "count") for mode in DIST_MODES),
    ("dist.priced_ms", "sim_ms/req"),
    ("dist.priced_speedup_vs_best_1dev", "x"),
    *((f"host_share.{layer}", "fraction") for layer in LAYERS),
    ("priced_ms_per_request", "sim_ms/req"),
    ("host_ms_per_priced_ms", "ratio"),
    ("error_rate", "fraction"),
    ("trace.overhead_frac", "fraction"),
)


class SpanIndex:
    """Parent links and self times over one traced run's spans."""

    def __init__(self, spans: Iterable[Span]):
        self.spans: List[Span] = list(spans)
        self.by_id: Dict[int, Span] = {s.id: s for s in self.spans}
        child_time: Dict[int, float] = {}
        for s in self.spans:
            if s.parent >= 0:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
        self.self_time = {s.id: s.duration - child_time.get(s.id, 0.0) for s in self.spans}

    def named(self, *names: str) -> List[Span]:
        return [s for s in self.spans if s.name in names]

    def _inside(self, span: Span, names: Tuple[str, ...]) -> bool:
        parent = self.by_id.get(span.parent)
        while parent is not None:
            if parent.name in names:
                return True
            parent = self.by_id.get(parent.parent)
        return False

    def busy_s(self, *names: str) -> float:
        """Summed duration of the outermost spans called any of ``names``."""
        return sum(s.duration for s in self.named(*names) if not self._inside(s, names))

    def self_s(self, *names: str) -> float:
        return sum(self.self_time[s.id] for s in self.named(*names))

    def layer_self_s(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for s in self.spans:
            out[layer_of(s.name)] += self.self_time[s.id]
        return out

    def root_busy_s(self) -> float:
        """Host time spent inside any traced layer, summed over threads."""
        return sum(s.duration for s in self.spans if s.parent < 0)


def _ratio(num: float, den: float, empty: float = 0.0) -> float:
    return num / den if den else empty


def layer_metrics(
    index: SpanIndex,
    *,
    requests: int,
    setup_spans: SpanIndex,
    cache_before: Dict[str, int],
    cache_after: Dict[str, int],
    counters_delta: Dict[str, int],
) -> Dict[str, float]:
    """Every per-layer metric that comes from spans and program counters."""
    per_req = 1e3 / max(requests, 1)  # seconds total -> ms per request
    m: Dict[str, float] = {}
    m["tuning.busy_ms"] = index.busy_s("tuning.switch_points", "tuning.get_or_tune") * per_req
    m["tuning.setup_busy_ms"] = (
        setup_spans.busy_s("tuning.switch_points", "tuning.get_or_tune") * 1e3
    )
    hits = cache_after["hits"] - cache_before["hits"]
    misses = cache_after["misses"] - cache_before["misses"]
    # No lookup at all in steady state means nothing was re-tuned.
    m["tuning.hit_ratio"] = _ratio(hits, hits + misses, empty=1.0)
    m["core.plan.busy_ms"] = index.busy_s("core.plan") * per_req
    m["core.execute_plan.busy_ms"] = index.busy_s("core.execute_plan") * per_req
    m["ir.lower.busy_ms"] = index.busy_s("ir.lower") * per_req
    m["ir.lower.calls"] = len(index.named("ir.lower"))
    m["ir.price.busy_ms"] = index.busy_s("ir.price") * per_req
    m["ir.price.calls"] = len(index.named("ir.price"))
    m["ir.execute.self_ms"] = index.self_s("ir.execute") * per_req
    executes = index.named("ir.execute")
    m["ir.fused_share"] = _ratio(sum(bool(s.attrs.get("fused")) for s in executes), len(executes))
    for op in OPCODES:
        m[f"kernels.busy_ms.{op}"] = index.busy_s(f"kernels.{op}") * per_req
        m[f"kernels.calls.{op}"] = len(index.named(f"kernels.{op}"))
    priced = {stage: 0.0 for stage in STAGES}
    launches = 0
    for s in executes:
        for stage, ms in s.attrs.get("stage_ms", {}).items():
            priced[stage] = priced.get(stage, 0.0) + ms
        launches += s.attrs.get("launches", 0)
    for stage in STAGES:
        m[f"kernels.priced_ms.{stage}"] = priced[stage] / max(requests, 1)
    m["kernels.launches"] = launches
    m["numerics.decide.busy_ms"] = index.busy_s("numerics.decide") * per_req
    m["numerics.enforce.busy_ms"] = index.busy_s("numerics.enforce") * per_req
    enforce = index.named("numerics.enforce")
    for rung in RUNGS:
        m[f"numerics.rung.{rung}"] = sum(
            1
            for s in enforce
            if s.attrs.get("rung") == rung
            or (rung == "breakdown" and s.attrs.get("error") == "NumericalBreakdownError")
        )
    m["service.submit.busy_us_per_request"] = index.busy_s("service.submit") * per_req * 1e3
    m["service.validate.busy_ms"] = index.busy_s("service.validate") * per_req
    m["service.group.busy_ms"] = index.busy_s("service.group") * per_req
    m["service.merge.busy_ms"] = index.busy_s("service.merge") * per_req
    m["service.queue_wait_ms.p50"] = _queue_wait_p50_ms(index)
    groups = sum(s.attrs.get("groups", 0) for s in index.named("service.flush"))
    m["service.groups"] = groups
    m["service.requests_per_group"] = _ratio(requests, groups)
    m["service.bisections"] = counters_delta.get("bisections", 0)
    m["serve.admit.busy_ms"] = index.busy_s("serve.admit") * per_req
    m["serve.shed"] = counters_delta.get("shed", 0)
    m["dist.price.busy_ms"] = index.busy_s("dist.price") * per_req
    m["dist.execute.busy_ms"] = index.busy_s("dist.execute") * per_req
    m["dist.local_solve.busy_ms"] = (
        sum(
            s.duration
            for s in index.named("core.execute_plan")
            if index.by_id.get(s.parent) is not None
            and index.by_id[s.parent].name == "dist.execute"
        )
        * per_req
    )
    m["dist.reduced.busy_ms"] = index.busy_s("dist.reduced") * per_req
    m["dist.reconstruct.busy_ms"] = index.busy_s("dist.reconstruct") * per_req
    for mode in DIST_MODES:
        m[f"dist.mode.{mode}"] = sum(
            1 for s in index.named("dist.execute") if s.attrs.get("mode") == mode
        )
    shares = index.layer_self_s()
    total = index.root_busy_s()
    for layer in LAYERS:
        m[f"host_share.{layer}"] = _ratio(shares[layer], total)
    return m


def _queue_wait_p50_ms(index: SpanIndex) -> float:
    """Median wait from a flush to the start of each group's solve.

    A group's merged solve is a root ``core.execute_plan`` span on a
    worker thread; the flush that dispatched it is the latest one that
    started before it.
    """
    starts = np.sort([s.start for s in index.named("service.flush")])
    if not starts.size:
        return 0.0
    waits = []
    for s in index.named("core.execute_plan"):
        if s.parent >= 0:
            continue
        k = int(np.searchsorted(starts, s.start, side="right")) - 1
        if k >= 0:
            waits.append(s.start - starts[k])
    return float(np.median(waits)) * 1e3 if waits else 0.0


def two_clock_table(m: Dict[str, float], host_ms_per_request: float) -> str:
    """Each layer's host busy ms next to its priced ms, per request."""
    rows = [("layer", "host ms/req", "priced ms/req")]
    for op in OPCODES:
        host = m[f"kernels.busy_ms.{op}"]
        stages = OPCODE_STAGES.get(op, ())
        priced = sum(m[f"kernels.priced_ms.{s}"] for s in stages)
        if host or priced:
            rows.append((f"kernels.{op}", f"{host:.3f}", f"{priced:.4f}" if stages else "-"))
    for name in (
        "tuning.busy_ms", "core.plan.busy_ms", "ir.lower.busy_ms", "ir.price.busy_ms",
        "ir.execute.self_ms", "numerics.decide.busy_ms", "numerics.enforce.busy_ms",
        "service.validate.busy_ms", "service.group.busy_ms", "service.merge.busy_ms",
        "serve.admit.busy_ms", "dist.price.busy_ms", "dist.reduced.busy_ms",
        "dist.reconstruct.busy_ms",
    ):
        if m[name]:
            rows.append((name.rsplit(".", 1)[0], f"{m[name]:.3f}", "-"))
    if m["dist.execute.busy_ms"]:
        rows.append(("dist.execute", f"{m['dist.execute.busy_ms']:.3f}",
                     f"{m['dist.priced_ms']:.4f}"))
    rows.append(("request", f"{host_ms_per_request:.3f}", f"{m['priced_ms_per_request']:.4f}"))
    width = max(len(r[0]) for r in rows)
    lines = [f"{a:<{width}}  {b:>12}  {c:>14}" for a, b, c in rows]
    lines.append(f"host_ms_per_priced_ms = {m['host_ms_per_priced_ms']:.2f}")
    return "\n".join(lines)
