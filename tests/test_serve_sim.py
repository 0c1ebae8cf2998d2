"""The serving-load simulation: determinism and the fleet ablation.

The simulator drives the *real* admission controller and autoscaler on
a simulated clock, so these tests pin (a) bit-for-bit determinism in
the seed, (b) the ablation — the 4-wide pool saturates and sheds while
the 16-wide pool and the autoscaler serve everything — (c) the
accounting invariant that every request is either served or shed,
never lost, and (d) worker-ms as the fleet width summed over ticks.
"""

import pytest

from repro.serve import (
    FIXED_WIDTHS,
    ServingSimConfig,
    fleet_ablation,
    simulate_serving,
)

pytestmark = pytest.mark.serve

# Small but past the 4-wide pool's saturation point.
CONFIG = ServingSimConfig(requests=4000, rate_per_s=12_000.0, seed=7)


@pytest.fixture(scope="module")
def reports():
    return fleet_ablation(CONFIG)


def test_one_row_per_fixed_width_then_autoscale(reports):
    assert list(reports) == [f"fixed {w}" for w in FIXED_WIDTHS] + ["autoscale"]
    for width in FIXED_WIDTHS:
        row = reports[f"fixed {width}"]
        assert row.max_workers == row.mean_workers == width
        assert row.autoscaler_actions == {}


def test_every_request_is_served_or_shed(reports):
    for report in reports.values():
        assert report.served + report.shed_total == report.requests


def test_the_four_wide_pool_sheds(reports):
    assert reports["fixed 4"].shed_total > 0


def test_the_sixteen_wide_pool_and_the_autoscaler_shed_nothing(reports):
    for label in ("fixed 16", "autoscale"):
        assert reports[label].shed_total == 0
        assert reports[label].served == CONFIG.requests
    auto = reports["autoscale"]
    # It kept up *by scaling*, not by luck.
    assert auto.max_workers > CONFIG.workers
    assert auto.autoscaler_actions["up"] > 0


def test_worker_ms_is_width_summed_over_ticks(reports):
    for report in reports.values():
        widths = [width for _, width in report.worker_trajectory]
        assert report.worker_ms == CONFIG.flush_every_ms * sum(widths)
        assert report.mean_workers == pytest.approx(sum(widths) / len(widths))


def test_simulation_is_deterministic_in_the_seed(reports):
    again = fleet_ablation(CONFIG)
    assert {k: r.as_dict() for k, r in again.items()} == {
        k: r.as_dict() for k, r in reports.items()
    }
    other = simulate_serving(
        ServingSimConfig(requests=4000, rate_per_s=12_000.0, seed=8)
    )
    assert other.as_dict() != reports["autoscale"].as_dict()


def test_autoscale_off_keeps_the_fleet_fixed():
    config = ServingSimConfig(
        requests=2000, rate_per_s=12_000.0, seed=7, autoscale=False
    )
    report = simulate_serving(config)
    assert report.max_workers == config.workers
    assert report.autoscaler_actions == {}
