"""The numerical-safety governor: decide, verify, escalate.

The governor sits between every entry point (functional ``solve``,
:class:`~repro.core.MultiStageSolver`, the distributed solver, the
batched service and the async serve tier) and the kernels. It owns two
moments of a governed solve:

- **decide** (a priori): given the caller's tolerance and a cheap
  :class:`~repro.numerics.DominanceEstimate`, is the truncated-SPIKE
  approximate path safe to *attempt*? The decision is advisory — it
  picks a starting rung, never the final answer.
- **enforce** (a posteriori): measure the relative residual of whatever
  the chosen path produced and walk the escalation ladder until the
  tolerance is met or the rungs run out::

      accept ──> one step of iterative refinement ──> re-solve on the
      exact path ──> typed NumericalBreakdownError (with the offending
      system's diagnostics)

Every decision and every rung lands in the metrics registry (dominance
histogram, decision/outcome counters, residual-ratio histogram) and, if
a tracer is attached, as spans in the trace — so escalation and
fallback rates are visible in the same dump and Perfetto timeline as
everything else. The headline chaos guarantee extends from faults to
numerics: a governed solve returns a residual-verified solution or a
typed error, never an unverified answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from ..systems.tridiagonal import TridiagonalBatch
from ..util.errors import NumericalBreakdownError
from .estimate import DominanceEstimate

__all__ = ["Governor", "GovernorDecision", "LadderOutcome", "residual_refinement"]

# Residual/tolerance ratio buckets: < 1 is within tolerance, the tail
# measures how badly the failed attempts missed.
_RATIO_BUCKETS = (1e-6, 1e-4, 1e-2, 0.1, 0.5, 1.0, 10.0, 1e3, 1e6)
_DOMINANCE_BUCKETS = (0.5, 0.9, 1.0, 1.1, 1.5, 2.0, 4.0, 8.0, 16.0, 64.0, 256.0)


@dataclass(frozen=True)
class GovernorDecision:
    """Outcome of the a-priori gate for one governed solve."""

    approx: bool
    tolerance: float
    chunk_rows: int
    bound: float  # (1/d)^(q-1) truncation bound for this partition
    estimate: DominanceEstimate
    reason: str

    def describe(self) -> str:
        """One-line summary for ``repro plan`` and logs."""
        path = "approx (truncated SPIKE)" if self.approx else "exact"
        return (
            f"governor: {path} — {self.reason}; "
            f"estimated truncation bound {self.bound:.3e} vs "
            f"tolerance {self.tolerance:.3e}"
        )


@dataclass(frozen=True)
class LadderOutcome:
    """A governed solve that ended with a verified solution."""

    x: np.ndarray
    rung: str  # "accepted" | "refined" | "resolved"
    residual: float  # worst relative residual of the returned x
    tolerance: float
    attempts: Tuple[str, ...]  # rungs tried, in order


def residual_refinement(
    solve: Callable[[TridiagonalBatch], np.ndarray]
) -> Callable[[TridiagonalBatch, np.ndarray], np.ndarray]:
    """The ladder's refine rung: ``x + solve(A, d - A·x)``, where
    ``solve`` re-runs the plan that produced ``x`` on a batch."""

    def refine(batch: TridiagonalBatch, x: np.ndarray) -> np.ndarray:
        return x + solve(batch.with_rhs(batch.d - batch.matvec(x)))

    return refine


class Governor:
    """Stateless policy plus observability plumbing.

    ``metrics`` is a :class:`~repro.obs.MetricsRegistry` (or ``None`` to
    skip recording); ``tracer`` an :class:`~repro.obs.Tracer` (or
    ``None``). One governor instance is shared per solver/service, so
    its counters aggregate across requests.
    """

    def __init__(self, metrics=None, tracer=None):
        self.metrics = metrics
        self.tracer = tracer

    # -- a priori ---------------------------------------------------------

    def decide(
        self,
        batch: TridiagonalBatch,
        tolerance: float,
        chunk_rows: int,
        *,
        estimate: Optional[DominanceEstimate] = None,
    ) -> GovernorDecision:
        """Gate the approximate path for ``batch`` at ``tolerance``.

        ``chunk_rows`` is the smallest per-device chunk of the candidate
        partition — the decay distance of the dropped coupling terms.
        """
        est = estimate if estimate is not None else DominanceEstimate.measure(batch)
        bound = est.truncation_bound(chunk_rows)
        approx = est.safe_for(tolerance, chunk_rows)
        if approx:
            reason = (
                f"min dominance ratio {est.min_ratio:.3g} decays the "
                f"dropped couplings below tolerance across "
                f"{chunk_rows}-row chunks"
            )
        elif est.min_ratio <= 1.0:
            reason = (
                f"no dominance guarantee (min ratio {est.min_ratio:.3g})"
            )
        else:
            reason = (
                f"dominance ratio {est.min_ratio:.3g} too weak for "
                f"tolerance {tolerance:.1e} at {chunk_rows}-row chunks"
            )
        decision = GovernorDecision(
            approx=approx,
            tolerance=float(tolerance),
            chunk_rows=int(chunk_rows),
            bound=bound,
            estimate=est,
            reason=reason,
        )
        if self.metrics is not None:
            hist = self.metrics.histogram(
                "repro_numerics_dominance_ratio",
                "Batch-wide minimum diagonal-dominance ratio per governed solve.",
                buckets=_DOMINANCE_BUCKETS,
            )
            hist.observe(min(est.min_ratio, _DOMINANCE_BUCKETS[-1] * 4))
            self.metrics.counter(
                "repro_numerics_decisions_total",
                "Governor a-priori path decisions.",
            ).inc(path="approx" if approx else "exact")
        if self.tracer is not None:
            self.tracer.leaf(
                "governor.decide",
                "numerics",
                0.0,
                0.0,
                path="approx" if approx else "exact",
                bound=f"{bound:.3e}",
                tolerance=f"{tolerance:.3e}",
                min_ratio=f"{est.min_ratio:.3g}",
            )
        return decision

    # -- a posteriori -----------------------------------------------------

    def enforce(
        self,
        batch: TridiagonalBatch,
        x: np.ndarray,
        tolerance: float,
        *,
        refine: Optional[Callable[[TridiagonalBatch, np.ndarray], np.ndarray]] = None,
        resolve: Optional[Callable[[TridiagonalBatch], np.ndarray]] = None,
        path: str = "exact",
        context: str = "governed solve",
    ) -> LadderOutcome:
        """Walk the escalation ladder until ``x`` meets ``tolerance``.

        ``refine(batch, x)`` performs one step of iterative refinement
        (rung 2); ``resolve(batch)`` re-solves from scratch on the exact
        path (rung 3). Either may be ``None`` when the caller has no
        such rung (e.g. the exact path has no further "exact" fallback).
        Raises :class:`NumericalBreakdownError` with the offending
        system's diagnostics when the ladder runs out.
        """
        tolerance = float(tolerance)
        attempts = [path]
        rungs = [("refine", refine), ("resolve", resolve)]
        residuals = batch.residual(x)
        worst = float(residuals.max()) if residuals.size else 0.0
        rung_name = "accepted"
        while not (np.isfinite(worst) and worst <= tolerance):
            if not rungs:
                self._record(path, "breakdown", worst, tolerance)
                index = self._worst_index(residuals)
                ratio = self._ratio_of(batch, index)
                raise NumericalBreakdownError(
                    f"{context}: residual {worst:.3e} exceeds tolerance "
                    f"{tolerance:.3e} after {' -> '.join(attempts)} "
                    f"(worst system {index}, dominance ratio {ratio:.3g})",
                    system_index=index,
                    residual=worst,
                    tolerance=tolerance,
                    dominance_ratio=ratio,
                    attempts=tuple(attempts),
                )
            name, step = rungs.pop(0)
            if step is None:
                continue
            attempts.append(name)
            x = step(batch, x) if name == "refine" else step(batch)
            residuals = batch.residual(x)
            worst = float(residuals.max()) if residuals.size else 0.0
            rung_name = "refined" if name == "refine" else "resolved"
        self._record(path, rung_name, worst, tolerance)
        return LadderOutcome(
            x=x,
            rung=rung_name,
            residual=worst,
            tolerance=tolerance,
            attempts=tuple(attempts),
        )

    # -- plumbing ---------------------------------------------------------

    @staticmethod
    def _worst_index(residuals: np.ndarray) -> int:
        finite = np.nan_to_num(residuals, nan=np.inf, posinf=np.inf)
        return int(np.argmax(finite)) if finite.size else 0

    @staticmethod
    def _ratio_of(batch: TridiagonalBatch, index: int) -> float:
        from ..systems.properties import dominance_ratio

        sub = TridiagonalBatch(
            batch.a[index : index + 1],
            batch.b[index : index + 1],
            batch.c[index : index + 1],
            batch.d[index : index + 1],
        )
        return float(dominance_ratio(sub)[0])

    def _record(
        self, path: str, rung: str, worst: float, tolerance: float
    ) -> None:
        if self.metrics is not None:
            self.metrics.counter(
                "repro_numerics_outcomes_total",
                "Governed-solve ladder outcomes, by starting path and rung.",
            ).inc(path=path, rung=rung)
            ratio = worst / tolerance if tolerance > 0 else np.inf
            if not np.isfinite(ratio):
                ratio = _RATIO_BUCKETS[-1] * 10
            self.metrics.histogram(
                "repro_numerics_residual_ratio",
                "Final residual / requested tolerance per governed solve.",
                buckets=_RATIO_BUCKETS,
            ).observe(ratio)
        if self.tracer is not None:
            self.tracer.leaf(
                "governor.enforce",
                "numerics",
                0.0,
                0.0,
                path=path,
                rung=rung,
                residual=f"{worst:.3e}",
                tolerance=f"{tolerance:.3e}",
            )
