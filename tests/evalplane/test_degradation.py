"""The plane degradation ladder, exercised at the plane layer.

Satellite coverage for ``PersistentPlane.drain()`` under mid-drain
worker death, the failure budget, and the serial rung's bookkeeping
(cache priming, ``EvalResult.health``, trajectory preservation).
"""

import os
import signal
import time

import pytest

from repro.core.objective import WindowObjective
from repro.errors import SearchError
from repro.evalplane import create_plane
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


class TestMidDrainDeath:
    def test_drain_survives_mid_drain_sigkill(self, moderate_net):
        # Default respawn budget: the fleet absorbs the kill and the
        # drain banks every speculative completion as usual.
        objective, plane = build_harness("persistent", moderate_net)
        with plane:
            first = plane.submit(POINT)
            plane.hint_sweep(POINT, first.value, 2)  # speculation in flight
            _kill_one_worker(objective)
            plane.drain()  # must neither raise nor hang
            assert plane.mode in ("persistent", "serial")
            # the plane is still serviceable after the drain
            again = plane.submit(POINT)
            assert again.value == first.value
            assert not again.fresh

    def test_drain_degrades_when_respawns_forbidden(
        self, moderate_net, monkeypatch
    ):
        monkeypatch.setenv("REPRO_MAX_RESPAWNS", "0")
        objective, plane = build_harness("persistent", moderate_net)
        with plane, pytest.warns(RuntimeWarning, match="degraded"):
            first = plane.submit(POINT)
            plane.hint_sweep(POINT, first.value, 2)
            _kill_one_worker(objective)
            plane.drain()
            assert plane.mode == "serial"
            assert plane.degradations
            assert plane.degradations[0].from_mode == "persistent"
            assert plane.degradations[0].to_mode == "serial"
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
        plane = create_plane(
            "persistent",
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
        with WindowObjective(moderate_net, "mva-heuristic") as serial:
            assert plane.cache.values[POINT] == serial(POINT)

    def test_env_override_sets_default_budget(self, moderate_net, monkeypatch):
        monkeypatch.setenv("REPRO_POOL_FAILURE_BUDGET", "3")
        objective, plane = build_harness("persistent", moderate_net)
        with plane:
            assert plane.failure_budget == 3

    def test_malformed_env_budget_raises(self, moderate_net, monkeypatch):
        monkeypatch.setenv("REPRO_POOL_FAILURE_BUDGET", "abc")
        with pytest.raises(SearchError, match="REPRO_POOL_FAILURE_BUDGET"):
            build_harness("persistent", moderate_net)
