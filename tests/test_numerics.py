"""The numerical-safety governor: estimate, decide, verify, escalate.

Covers the truncated-SPIKE approximate mode and the machinery that makes
it safe to ship: the cheap dominance estimate gating it, the
escalation ladder (accept -> refine -> re-solve -> typed breakdown)
behind it, boundary validation in front of the service, and the
adversarial-numerics chaos phase auditing the whole stack. The pinned
goldens freeze the approx/exact switch point so the admission policy
cannot drift silently.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.spike import spike_solve, truncated_spike_solve
from repro.core.solver import solve
from repro.dist.solver import DistributedSolver
from repro.numerics import (
    SAFETY_MARGIN,
    DominanceEstimate,
    Governor,
    GovernorDecision,
)
from repro.service import BatchSolveService
from repro.systems import dominance_ratio, generators
from repro.systems.tridiagonal import TridiagonalBatch
from repro.util.errors import (
    InvalidSystemError,
    NumericalBreakdownError,
    ReproError,
)
from repro.util.validation import check_system_batch

pytestmark = pytest.mark.numerics


def _ratio_four_batch(num_systems=2, system_size=64):
    """Interior dominance ratio exactly 4: |b| = 8, |a| + |c| = 2."""
    m, n = num_systems, system_size
    a = np.full((m, n), -1.0)
    c = np.full((m, n), -1.0)
    a[:, 0] = 0
    c[:, -1] = 0
    b = np.full((m, n), 8.0)
    d = np.arange(m * n, dtype=np.float64).reshape(m, n) / (m * n)
    return TridiagonalBatch(a, b, c, d)


# ---------------------------------------------------------------------------
# dominance estimation
# ---------------------------------------------------------------------------


class TestDominanceEstimate:
    def test_dominant_generator_meets_its_advertised_ratio(self):
        batch = generators.random_dominant(4, 256, dominance=4.0, rng=0)
        est = DominanceEstimate.measure(batch)
        assert est.min_ratio >= 4.0
        assert est.num_systems == 4 and est.system_size == 256
        assert est.ratios.shape == (4,)

    def test_poisson_sits_exactly_at_the_dominance_boundary(self):
        est = DominanceEstimate.measure(generators.poisson_1d(2, 128))
        assert est.min_ratio == pytest.approx(1.0)
        assert est.truncation_bound(64) == 1.0
        assert not est.safe_for(1e-6, 64)

    def test_row_scaling_preserves_the_ratio(self):
        base = generators.random_dominant(3, 128, rng=5)
        scaled = generators.huge_dynamic_range(3, 128, rng=5)
        # Same seed consumes the rng identically for the base batch,
        # so the two ratios agree row-for-row despite ~12 decades of
        # magnitude spread in the scaled one.
        np.testing.assert_allclose(
            dominance_ratio(base), dominance_ratio(scaled), rtol=1e-12
        )

    def test_pinned_truncation_bound_golden(self):
        # The frozen arithmetic of the admission policy: dominance
        # ratio 4 across 9-row chunks decays the dropped couplings by
        # (1/4)^(9-1) exactly.
        est = DominanceEstimate.measure(_ratio_four_batch())
        assert est.min_ratio == pytest.approx(4.0)
        assert est.truncation_bound(9) == pytest.approx(
            1.52587890625e-05, rel=0, abs=0
        )

    def test_pinned_approx_exact_switch_point(self):
        # bound == SAFETY_MARGIN * tolerance is the admission edge:
        # exactly at it the approx path is allowed, one notch tighter
        # and the governor prices exact instead.
        est = DominanceEstimate.measure(_ratio_four_batch())
        edge = est.truncation_bound(9) / SAFETY_MARGIN
        assert est.safe_for(edge, 9)
        assert not est.safe_for(edge * (1 - 1e-12), 9)

    def test_identity_batch_has_infinite_ratio_and_zero_bound(self):
        est = DominanceEstimate.measure(generators.identity(2, 32))
        assert est.min_ratio == np.inf
        assert est.truncation_bound(16) == 0.0
        assert est.safe_for(1e-300, 16)


# ---------------------------------------------------------------------------
# truncated SPIKE
# ---------------------------------------------------------------------------


class TestTruncatedSpike:
    def test_matches_exact_spike_on_dominant_systems(self):
        batch = generators.random_dominant(4, 1024, rng=1)
        exact = spike_solve(batch, partitions=8)
        approx = truncated_spike_solve(batch, partitions=8)
        np.testing.assert_allclose(approx, exact, atol=1e-12)
        assert batch.residual(approx).max() < 1e-12

    def test_honestly_fails_without_dominance(self):
        # Ratio-1 systems decay nothing: the dropped couplings bite and
        # the residual must expose it (this is what the ladder catches).
        batch = generators.poisson_1d(2, 512)
        approx = truncated_spike_solve(batch, partitions=8)
        assert batch.residual(approx).max() > 1e-2


# ---------------------------------------------------------------------------
# governor: decide + enforce
# ---------------------------------------------------------------------------


class TestGovernor:
    def test_decide_admits_approx_for_dominant_work(self):
        decision = Governor().decide(
            generators.random_dominant(2, 256, rng=0), 1e-8, 128
        )
        assert isinstance(decision, GovernorDecision)
        assert decision.approx
        assert decision.bound <= SAFETY_MARGIN * 1e-8
        assert "approx" in decision.describe()

    def test_decide_refuses_approx_without_dominance(self):
        decision = Governor().decide(generators.poisson_1d(2, 256), 1e-8, 128)
        assert not decision.approx
        assert "no dominance guarantee" in decision.reason

    def test_enforce_accepts_a_good_solution_unchanged(self):
        batch = generators.identity(2, 16)
        x = batch.d.copy()
        outcome = Governor().enforce(batch, x, 1e-12)
        assert outcome.rung == "accepted"
        assert outcome.x is x
        assert outcome.attempts == ("exact",)

    def test_enforce_walks_refine_then_resolve_in_order(self):
        batch = generators.identity(1, 8)
        exact = batch.d.copy()
        calls = []

        def bad_refine(b, x):
            calls.append("refine")
            return x  # no improvement

        def good_resolve(b):
            calls.append("resolve")
            return exact

        outcome = Governor().enforce(
            batch,
            np.zeros_like(exact),
            1e-12,
            refine=bad_refine,
            resolve=good_resolve,
            path="approx",
        )
        assert outcome.rung == "resolved"
        assert calls == ["refine", "resolve"]
        assert outcome.attempts == ("approx", "refine", "resolve")

    def test_enforce_breakdown_carries_diagnostics(self):
        batch = generators.poisson_1d(3, 32)
        with pytest.raises(NumericalBreakdownError) as excinfo:
            Governor().enforce(
                batch, np.zeros((3, 32)), 1e-12, path="approx"
            )
        err = excinfo.value
        assert isinstance(err, ReproError)
        assert 0 <= err.system_index < 3
        assert err.residual > err.tolerance == 1e-12
        assert err.attempts == ("approx",)
        assert err.dominance_ratio == pytest.approx(1.0)

    def test_outcomes_and_decisions_land_in_metrics(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        gov = Governor(metrics=registry)
        batch = generators.random_dominant(1, 64, rng=2)
        gov.decide(batch, 1e-8, 32)
        gov.enforce(batch, solve(batch).x, 1e-8)
        assert registry.get("repro_numerics_decisions_total").total() == 1
        assert registry.get("repro_numerics_outcomes_total").value(
            path="exact", rung="accepted"
        ) == 1
        assert registry.get("repro_numerics_dominance_ratio").count() == 1
        assert registry.get("repro_numerics_residual_ratio").count() == 1


# ---------------------------------------------------------------------------
# governed entry points
# ---------------------------------------------------------------------------


class TestGovernedSolves:
    def test_single_device_governed_solve_verifies(self):
        batch = generators.random_dominant(2, 512, rng=3)
        result = solve(batch, tolerance=1e-10)
        assert batch.residual(result.x).max() <= 1e-10

    def test_single_device_breakdown_is_typed(self):
        batch = generators.ill_conditioned(1, 64, epsilon=1e-13, rng=0)
        with pytest.raises(NumericalBreakdownError):
            solve(batch, tolerance=1e-13)

    def test_dist_governed_approx_meets_tolerance(self):
        solver = DistributedSolver(8, mode="approx")
        batch = generators.random_dominant(4, 1 << 14, rng=4)
        result = solver.solve(batch, tolerance=1e-8)
        assert result.plan.mode == "approx"
        assert batch.residual(result.x).max() <= 1e-8

    def test_dist_approx_escalates_to_exact_on_hostile_data(self):
        # Forced-approx on boundary-dominance systems: the truncated
        # reduced solve misses tolerance, the ladder re-solves on the
        # exact path, and the caller still gets a verified answer.
        solver = DistributedSolver(4, mode="approx")
        batch = generators.poisson_1d(2, 1 << 12)
        result = solver.solve(batch, tolerance=1e-8)
        assert batch.residual(result.x).max() <= 1e-8

    def test_auto_mode_only_prices_approx_when_governed(self):
        # At 16 devices approx is the cheapest plan once a tolerance
        # admits it (0.4073 ms against hub rows' 0.5476 ms).
        solver = DistributedSolver(16)
        m, n = 4, 1 << 16
        ungoverned, _ = solver.price(m, n, 8)
        governed, _ = solver.price(m, n, 8, tolerance=1e-6)
        assert ungoverned.mode != "approx"
        assert governed.mode == "approx"


@pytest.mark.dist
class TestApproxPerformance:
    def test_approx_is_faster_than_exact_rows_at_scale(self):
        """The acceptance bar: a measurable priced step change from
        skipping the sequential reduced-system exchange, at >= 8
        devices, growing with device count."""
        m, n = 4, 1 << 16
        speedups = []
        for devices in (8, 16, 32):
            rows = DistributedSolver(devices, mode="rows")
            approx = DistributedSolver(devices, mode="approx")
            _, rows_report = rows.price(m, n, 8)
            _, approx_report = approx.price(m, n, 8)
            speedups.append(rows_report.total_ms / approx_report.total_ms)
        assert speedups[0] > 1.0
        assert speedups == sorted(speedups)
        assert speedups[-1] > 2.0

    def test_priced_approx_matches_executed_makespan(self):
        solver = DistributedSolver(8, mode="approx")
        batch = generators.random_dominant(4, 1 << 13, rng=6)
        plan, priced = solver.price(4, 1 << 13, 8)
        result = solver.execute_plan(batch, plan)
        assert result.report.total_ms == pytest.approx(priced.total_ms)


# ---------------------------------------------------------------------------
# boundary validation
# ---------------------------------------------------------------------------


class TestBoundaryValidation:
    def test_clean_batch_passes_through(self):
        batch = generators.random_dominant(2, 64, rng=0)
        assert check_system_batch(batch) is batch

    @pytest.mark.parametrize("poison", ["nan", "inf"])
    def test_nonfinite_coefficients_rejected_with_index(self, poison):
        gen = (
            generators.nan_poisoned
            if poison == "nan"
            else generators.inf_poisoned
        )
        batch = gen(3, 32, rng=1)
        with pytest.raises(InvalidSystemError) as excinfo:
            check_system_batch(batch, context="test")
        bad = excinfo.value.system_index
        assert not np.isfinite(batch.b[bad]).all()

    def test_zero_diagonal_rejected(self):
        with pytest.raises(InvalidSystemError, match="zero main-diagonal"):
            check_system_batch(generators.singular(2, 64))

    def test_service_rejects_invalid_and_counts_it(self):
        with BatchSolveService(auto_flush=None) as svc:
            with pytest.raises(InvalidSystemError):
                svc.submit(generators.nan_poisoned(1, 64, rng=0))
            with pytest.raises(InvalidSystemError):
                svc.submit(generators.singular(1, 64))
            assert (
                svc.metrics.get("repro_service_invalid_total").total() == 2
            )


# ---------------------------------------------------------------------------
# governed service
# ---------------------------------------------------------------------------


class TestGovernedService:
    def test_group_merge_honours_strictest_tolerance(self):
        from repro.service.batcher import SolveGroup

        with BatchSolveService(auto_flush=None) as svc:
            loose = svc.submit(
                generators.random_dominant(1, 128, rng=0), tolerance=1e-4
            )
            strict = svc.submit(
                generators.random_dominant(1, 128, rng=1), tolerance=1e-12
            )
            ungoverned = svc.submit(generators.random_dominant(1, 128, rng=2))
            groups = [loose, strict, ungoverned]
            svc.flush()
            for fut in groups:
                fut.result(timeout=30)
        group = SolveGroup(
            key=None,
            requests=[
                type("R", (), {"tolerance": t})()
                for t in (1e-4, 1e-12, None)
            ],
        )
        assert group.strictest_tolerance() == 1e-12

    def test_governed_group_members_all_verify(self):
        batches = [
            generators.random_dominant(2, 128, rng=i) for i in range(4)
        ]
        with BatchSolveService(auto_flush=None) as svc:
            futures = [
                svc.submit(b, tolerance=1e-10) for b in batches
            ]
            svc.flush()
            for batch, fut in zip(batches, futures):
                res = fut.result(timeout=30)
                assert batch.residual(res.x).max() <= 1e-10
            counter = svc.metrics.get("repro_numerics_outcomes_total")
            assert counter.value(path="service", rung="accepted") >= 1

    def test_bisection_isolates_numerical_breakdown(self):
        good = [generators.random_dominant(1, 64, rng=i) for i in range(3)]
        poison = generators.ill_conditioned(1, 64, epsilon=1e-13, rng=7)
        with BatchSolveService(auto_flush=None) as svc:
            good_futs = [svc.submit(b, tolerance=1e-10) for b in good]
            poison_fut = svc.submit(poison, tolerance=1e-10)
            svc.flush()
            for batch, fut in zip(good, good_futs):
                assert batch.residual(fut.result(timeout=30).x).max() <= 1e-10
            with pytest.raises(NumericalBreakdownError):
                poison_fut.result(timeout=30)
            assert svc.stats.snapshot()["group_bisections"] >= 1

    def test_refinement_recovers_moderately_hostile_groups(self):
        batch = generators.ill_conditioned(2, 256, epsilon=1e-7, rng=4)
        with BatchSolveService(auto_flush=None) as svc:
            fut = svc.submit(batch, tolerance=1e-8)
            svc.flush()
            res = fut.result(timeout=30)
            assert batch.residual(res.x).max() <= 1e-8
            counter = svc.metrics.get("repro_numerics_outcomes_total")
            assert counter.value(path="service", rung="refined") == 1


# ---------------------------------------------------------------------------
# the property: tolerance met or typed error, never neither
# ---------------------------------------------------------------------------


@st.composite
def tridiagonal_batches(draw):
    m = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=8, max_value=48))
    finite = st.floats(
        min_value=-100.0, max_value=100.0, allow_nan=False
    )
    def grid():
        return np.array(
            draw(
                st.lists(
                    st.lists(finite, min_size=n, max_size=n),
                    min_size=m,
                    max_size=m,
                )
            ),
            dtype=np.float64,
        )

    a, b, c, d = grid(), grid(), grid(), grid()
    a[:, 0] = 0
    c[:, -1] = 0
    return TridiagonalBatch(a, b, c, d)


class TestGovernedContract:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=30, deadline=None)
    @given(tridiagonal_batches())
    def test_tolerance_met_or_typed_error_never_neither(self, batch):
        """The headline guarantee as a property over arbitrary finite
        systems (including singular and wildly non-dominant ones): a
        governed solve either returns a solution whose measured
        relative residual is within tolerance, or raises a typed
        ReproError. A wrong answer delivered silently fails the test;
        so does any untyped exception."""
        tolerance = 1e-8
        try:
            result = solve(batch, tolerance=tolerance)
        except ReproError:
            return  # typed failure: contract satisfied
        assert batch.residual(result.x).max() <= tolerance


# ---------------------------------------------------------------------------
# adversarial chaos
# ---------------------------------------------------------------------------


@pytest.mark.chaos
class TestAdversarialNumericsChaos:
    def test_numerics_phase_is_clean_and_exercises_the_ladder(self):
        from repro.faults.chaos import run_campaign

        report = run_campaign(
            0,
            requests=40,
            serve_requests=0,
            numerics_requests=48,
        )
        nm = report.numerics
        assert report.clean
        assert nm["silent_wrong"] == 0
        assert nm["untyped_errors"] == 0
        assert nm["solved"] + nm["typed_errors"] == nm["requests"]
        # The hostile mix must actually exercise every path: boundary
        # rejections, ladder breakdowns, and at least one refinement.
        assert nm["rejected_invalid"] > 0
        assert nm["breakdowns"] > 0
        assert nm["refined"] > 0


@pytest.mark.chaos
@pytest.mark.slow
def test_nightly_adversarial_numerics_sweep():
    """Three seeds, zero silently-wrong solutions — the nightly bar."""
    from repro.faults.chaos import run_sweep

    reports = run_sweep((0, 1, 2), requests=80, numerics_requests=64)
    assert all(r.clean for r in reports)
    for r in reports:
        assert r.numerics["silent_wrong"] == 0
        assert r.numerics["untyped_errors"] == 0
