"""The plane degradation ladder, exercised at the plane layer.

Satellite coverage for a worker SIGKILLed while it holds a demanded
task, the failure budget, and the serial rung's bookkeeping (cache
priming, ``EvalResult.health``, trajectory preservation).
"""

import os
import signal
import threading
import time

import pytest

from repro.chaos import FaultPlan, FaultRule, inject
from repro.core.objective import WindowObjective
from repro.errors import SearchError
from repro.evalplane.persistent import PersistentPlane
from repro.resilience.health import DegradationEvent
from repro.search.cache import EvaluationCache
from repro.search.space import IntegerBox

from tests.evalplane.conftest import build_harness

POINT = (4, 4)


def _kill_one_worker(objective):
    pid = objective.ensure_pool().worker_pids[0]
    os.kill(pid, signal.SIGKILL)
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except OSError:
            return pid
        time.sleep(0.02)
    return pid


def _serial_value(network, point):
    with WindowObjective(network, "mva-heuristic") as serial:
        return serial(point)


def _submit_while_worker_zero_dies(objective, plane, point):
    """Demand ``point`` and SIGKILL the worker solving it, mid-task.

    Worker 0 takes the first task of an idle fleet; the armed plan holds
    it there for 30 s, and a timer kills the worker half a second in.
    """
    plan = FaultPlan(
        name="hold-demand",
        rules=(FaultRule("pool.worker.task", "delay", worker=0, seconds=30.0),),
    )
    with inject(plan):
        pid = objective.ensure_pool().worker_pids[0]
        killer = threading.Timer(0.5, os.kill, (pid, signal.SIGKILL))
        killer.start()
        try:
            started = time.monotonic()
            result = plane.submit(point)
            elapsed = time.monotonic() - started
        finally:
            killer.cancel()
    assert elapsed < 20.0  # answered after the kill, not after the delay
    return result


class TestDemandedTaskDeath:
    def test_demand_survives_worker_sigkill(self, moderate_net):
        # Default respawn budget: the fleet respawns the worker, requeues
        # the demanded task and answers it.
        objective, plane = build_harness("persistent", moderate_net)
        with plane:
            result = _submit_while_worker_zero_dies(objective, plane, POINT)
            assert plane.mode == "persistent"
            assert plane.pool_health.respawns == 1
            assert result.fresh
            assert result.value == _serial_value(moderate_net, POINT)
            assert plane.cache.evaluations == 1
            again = plane.submit(POINT)
            assert not again.fresh

    def test_demand_degrades_when_respawns_forbidden(
        self, moderate_net, monkeypatch
    ):
        monkeypatch.setenv("REPRO_MAX_RESPAWNS", "0")
        objective, plane = build_harness("persistent", moderate_net)
        with plane, pytest.warns(RuntimeWarning, match="degraded"):
            result = _submit_while_worker_zero_dies(objective, plane, POINT)
            assert plane.mode == "serial"
            assert plane.degradations
            assert plane.degradations[0].from_mode == "persistent"
            assert plane.degradations[0].to_mode == "serial"
            # the lost demand is solved once, in-process
            assert result.value == _serial_value(moderate_net, POINT)
            assert plane.cache.evaluations == 1
            # demanded evaluations keep flowing on the serial rung, and
            # results now carry the degradation record
            probe = plane.submit((5, 5))
            assert probe.value > 0
            assert probe.health == plane.degradations
            assert isinstance(probe.health[0], DegradationEvent)


class TestFailureBudget:
    def test_budget_breach_degrades_before_next_demand(self, moderate_net):
        objective = WindowObjective(moderate_net, "mva-heuristic", workers=2)
        space = IntegerBox.windows(moderate_net.num_chains, 12)
        plane = PersistentPlane(
            objective,
            cache=EvaluationCache(objective),
            space=space,
            failure_budget=1,
        )
        assert plane.failure_budget == 1
        with plane, pytest.warns(RuntimeWarning, match="failure budget"):
            first = plane.submit(POINT)
            _kill_one_worker(objective)  # respawn bumps the failure count
            plane.submit((5, 4))  # let the pool notice the death
            for delta in range(2, 6):
                plane.submit((4 + delta, 4))
            assert plane.mode != "persistent"
            assert any(
                "failure budget" in event.reason
                for event in plane.degradations
            )
        # the trajectory-facing contract held throughout: values primed
        # by the pool and by the serial rung match in-process solves
        assert plane.cache.values[POINT] == _serial_value(moderate_net, POINT)

    def test_env_override_sets_default_budget(self, moderate_net, monkeypatch):
        monkeypatch.setenv("REPRO_POOL_FAILURE_BUDGET", "3")
        objective, plane = build_harness("persistent", moderate_net)
        with plane:
            assert plane.failure_budget == 3

    def test_malformed_env_budget_raises(self, moderate_net, monkeypatch):
        monkeypatch.setenv("REPRO_POOL_FAILURE_BUDGET", "abc")
        with pytest.raises(SearchError, match="REPRO_POOL_FAILURE_BUDGET"):
            build_harness("persistent", moderate_net)
