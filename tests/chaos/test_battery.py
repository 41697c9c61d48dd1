"""The chaos battery: plan registry, grading, and (slow) survival runs.

The fast half certifies the registry's shape — coverage of the required
fault × runtime matrix and lossless serialisation, since plans cross the
spawn boundary as JSON.  The slow half actually runs the battery; CI's
``chaos`` job executes it with per-test timeouts (see
``.github/workflows/ci.yml``).
"""

import pytest

from repro.chaos import FaultPlan
from repro.chaos.battery import builtin_plans, run_battery, run_plan
from repro.errors import SearchError
from repro.netmodel.examples import canadian_two_class


@pytest.fixture(scope="module")
def network():
    return canadian_two_class(18.0, 18.0)


@pytest.fixture(scope="module")
def reference(network):
    """The fault-free serial oracle at the battery's search-space size."""
    from repro.core.windim import windim

    return tuple(windim(network, max_window=6).windows)


class TestRegistry:
    def test_at_least_twelve_plans(self):
        assert len(builtin_plans()) >= 12

    def test_required_fault_runtime_matrix_covered(self):
        plans = builtin_plans().values()

        def covered(action, site, pool):
            return any(
                plan.pool == pool
                and any(
                    r.site == site and r.action == action for r in plan.rules
                )
                for plan in plans
            )

        # worker crash and hang on the pool runtime
        assert covered("crash", "pool.worker.task", "persistent")
        assert covered("hang", "pool.worker.task", "persistent")
        # corrupted store bytes (serial and under the fleet), slow IO, skew
        assert covered("corrupt", "store.record", None)
        assert covered("corrupt", "store.record", "persistent")
        assert any(
            any(r.action == "delay" for r in p.rules) for p in plans
        )
        assert any(
            any(r.site == "clock" for r in p.rules) for p in plans
        )

    def test_every_plan_serialises_losslessly(self):
        for plan in builtin_plans().values():
            assert FaultPlan.from_json(plan.to_json()) == plan

    def test_reload_plans_exercise_multiple_runs(self):
        plans = builtin_plans()
        assert plans["corrupt-store-reload"].runs >= 2
        assert plans["corrupt-store-persistent"].runs >= 2

    def test_unknown_plan_name_rejected(self, network):
        with pytest.raises(SearchError, match="unknown chaos plan"):
            run_battery(network, plan_names=["no-such-plan"], max_window=4)


class TestRunPlanFast:
    """Serial scenarios are quick enough for the default test tier."""

    def test_flaky_store_io_survives(self, network, reference, tmp_path):
        plan = builtin_plans()["flaky-store-io"]
        outcome = run_plan(
            network, plan, reference, max_window=6, work_dir=str(tmp_path)
        )
        assert outcome.ok
        assert outcome.outcome in ("optimal", "recovered")
        assert outcome.windows == reference

    def test_clock_skew_degrades_but_terminates(
        self, network, reference, tmp_path
    ):
        plan = builtin_plans()["clock-skew-deadline"]
        outcome = run_plan(
            network, plan, reference, max_window=6, work_dir=str(tmp_path)
        )
        assert outcome.ok
        assert outcome.outcome == "degraded"
        assert outcome.status == "budget_exhausted"
        assert outcome.seconds < plan.max_seconds

    def test_corrupt_store_reload_quarantines(
        self, network, reference, tmp_path
    ):
        plan = builtin_plans()["corrupt-store-reload"]
        outcome = run_plan(
            network, plan, reference, max_window=6, work_dir=str(tmp_path)
        )
        assert outcome.ok
        assert outcome.quarantined >= 1


@pytest.mark.slow
class TestFullBattery:
    def test_every_plan_survives(self, network):
        report = run_battery(network, max_window=6, network_label="canadian2")
        assert len(report.outcomes) >= 12
        failed = [o for o in report.outcomes if not o.ok]
        assert report.ok, report.summary()
        assert not failed
        assert report.survival_rate == 1.0
        # every scenario terminated promptly — no hangs slipped through
        assert all(o.seconds < 120.0 for o in report.outcomes)
        summary = report.summary()
        for outcome in report.outcomes:
            assert outcome.plan in summary
