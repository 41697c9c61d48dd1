"""Runtime hook layer: arming, firing, fuses, clock skew, env staging."""

import os

import pytest

from repro.chaos import (
    ENV_FUSES,
    ENV_PLAN,
    FaultInjector,
    FaultPlan,
    FaultRule,
    InjectedFault,
    inject,
    monotonic,
    perform,
    worker_chaos,
)
from repro.chaos import hooks as hooks_module
from repro.errors import SearchError


def _plan(*rules, **kwargs):
    return FaultPlan(name="test", rules=tuple(rules), **kwargs)


class TestFaultInjector:
    def test_fires_on_matching_occurrence_only(self):
        injector = FaultInjector(
            _plan(FaultRule("store.record", "error", occurrence=2))
        )
        assert injector.fire("store.record") is None
        action = injector.fire("store.record")
        assert action is not None and action.action == "error"
        assert injector.fire("store.record") is None

    def test_sites_counted_independently(self):
        injector = FaultInjector(
            _plan(FaultRule("store.load", "error", occurrence=1))
        )
        assert injector.fire("store.record") is None  # other site
        assert injector.fire("store.load") is not None

    def test_fuses_bound_count_across_injectors(self, tmp_path):
        # Two injectors sharing a fuse dir model two processes: the rule
        # allows two firings fleet-wide, not two per process.
        plan = _plan(
            FaultRule("pool.worker.task", "crash", occurrence=1, count=2)
        )
        first = FaultInjector(plan, str(tmp_path))
        second = FaultInjector(plan, str(tmp_path))
        assert first.fire("pool.worker.task") is not None
        assert second.fire("pool.worker.task") is not None
        third = FaultInjector(plan, str(tmp_path))
        assert third.fire("pool.worker.task") is None  # all fuses burnt

    def test_clock_skew_is_cumulative_and_persistent(self):
        injector = FaultInjector(
            _plan(FaultRule("clock", "skew", occurrence=3, seconds=100.0))
        )
        assert injector.clock_skew() == 0.0
        assert injector.clock_skew() == 0.0
        assert injector.clock_skew() == 100.0
        assert injector.clock_skew() == 100.0  # stays skewed


class TestPerform:
    def test_noop_without_plan(self):
        assert hooks_module.active() is None
        assert perform("store.record") is None

    def test_error_action_raises_oserror_subclass(self):
        plan = _plan(FaultRule("store.record", "error"))
        with inject(plan):
            with pytest.raises(InjectedFault) as excinfo:
                perform("store.record")
        assert isinstance(excinfo.value, OSError)

    def test_delay_action_sleeps_and_reports(self):
        plan = _plan(FaultRule("store.record", "delay", seconds=0.01))
        with inject(plan):
            action = perform("store.record")
        assert action is not None and action.action == "delay"

    def test_corrupt_action_returned_to_caller(self):
        plan = _plan(FaultRule("store.record", "corrupt"))
        with inject(plan):
            action = perform("store.record")
        assert action is not None and action.action == "corrupt"


class TestInjectContext:
    def test_stages_and_restores_environment(self):
        plan = _plan(env=(("REPRO_TASK_DEADLINE", "0.5"),))
        assert ENV_PLAN not in os.environ
        with inject(plan):
            assert os.environ[ENV_PLAN] == plan.to_json()
            assert os.path.isdir(os.environ[ENV_FUSES])
            assert os.environ["REPRO_TASK_DEADLINE"] == "0.5"
            fuse_dir = os.environ[ENV_FUSES]
        assert ENV_PLAN not in os.environ
        assert ENV_FUSES not in os.environ
        assert "REPRO_TASK_DEADLINE" not in os.environ
        assert not os.path.exists(fuse_dir)

    def test_restores_preexisting_values(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_DEADLINE", "9")
        with inject(_plan(env=(("REPRO_TASK_DEADLINE", "0.5"),))):
            assert os.environ["REPRO_TASK_DEADLINE"] == "0.5"
        assert os.environ["REPRO_TASK_DEADLINE"] == "9"

    def test_nested_injection_rejected(self):
        with inject(_plan()):
            with pytest.raises(SearchError, match="already armed"):
                with inject(_plan()):
                    pass  # pragma: no cover

    def test_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with inject(_plan()):
                raise RuntimeError("boom")
        assert hooks_module.active() is None
        assert ENV_PLAN not in os.environ


class TestWorkerChaos:
    def test_none_without_plan_or_worker_rules(self):
        assert worker_chaos() is None
        with inject(_plan(FaultRule("store.record", "error"))):
            assert worker_chaos() is None

    def test_handle_built_when_worker_rules_exist(self):
        plan = _plan(FaultRule("pool.worker.task", "delay", seconds=0.0))
        with inject(plan):
            chaos = worker_chaos(worker=0)
            assert chaos is not None
            chaos.on_task()  # delay 0s: returns without incident


class TestChaosClock:
    def test_tracks_time_monotonic_without_plan(self):
        import time

        assert abs(monotonic() - time.monotonic()) < 1.0

    def test_applies_skew_under_plan(self):
        import time

        plan = _plan(FaultRule("clock", "skew", occurrence=1, seconds=5000.0))
        with inject(plan):
            assert monotonic() - time.monotonic() > 4000.0
