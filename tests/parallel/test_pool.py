"""Persistent worker-fleet lifecycle: correctness, death, spawn safety.

Covers the pool half of the tentpole: values match in-process solves,
warm seeds travel by arena slot, a killed worker is respawned with its
tasks requeued, the whole stack works under the ``spawn`` start
method (which is what makes it portable off fork-capable hosts), and
workers exit on their own when their parent is killed.
"""

import os
import pickle
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from repro.chaos import FaultPlan, FaultRule, inject
from repro.core.objective import WindowObjective
from repro.errors import PoolFailure, SearchError
from repro.netmodel.examples import canadian_two_class
from repro.parallel import PersistentEvalPool

KEYS = [(2, 2), (3, 3), (4, 2), (2, 5)]


@pytest.fixture(scope="module")
def network():
    return canadian_two_class(18.0, 18.0)


def _serial_values(network, keys):
    with WindowObjective(network) as objective:
        return {key: objective(key) for key in keys}


def test_map_matches_in_process_objective(network):
    expected = _serial_values(network, KEYS)
    with PersistentEvalPool(network, "mva-heuristic",
                            workers=2) as pool:
        completions = pool.map(KEYS)
        pids = pool.worker_pids
        assert all(done.ok for done in completions.values())
        for key, done in completions.items():
            assert done.value == pytest.approx(expected[key], rel=1e-12)
        # Second batch: same fleet, nothing respawned.
        again = pool.map(KEYS)
        assert pool.worker_pids == pids
        assert pool.health.respawns == 0
        assert {k: d.value for k, d in again.items()} == {
            k: d.value for k, d in completions.items()
        }
        # Tasks are micro-messages, not model broadcasts.
        assert 0 < pool.health.payload_bytes_per_task < 4096


def test_warm_seed_travels_by_arena_slot(network):
    with PersistentEvalPool(network, "mva-heuristic",
                            workers=1) as pool:
        cold = pool.map([(3, 3)])[(3, 3)]
        assert cold.payload["warmed"] is False
        seed = np.asarray(cold.payload["queue_lengths"], dtype=np.float64)
        warm = pool.map([(3, 4)], seeds={(3, 4): seed})[(3, 4)]
        assert warm.payload["warmed"] is True
        expected = _serial_values(network, [(3, 4)])[(3, 4)]
        assert warm.value == pytest.approx(expected, rel=1e-8)


def test_killed_worker_is_respawned_and_tasks_complete(network):
    expected = _serial_values(network, KEYS)
    with PersistentEvalPool(network, "mva-heuristic",
                            workers=2) as pool:
        victim = pool.worker_pids[0]
        os.kill(victim, signal.SIGKILL)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                os.kill(victim, 0)
            except OSError:
                break
            time.sleep(0.05)
        completions = pool.map(KEYS)
        assert all(done.ok for done in completions.values())
        for key, done in completions.items():
            assert done.value == pytest.approx(expected[key], rel=1e-12)
        assert pool.health.respawns >= 1
        assert victim not in pool.worker_pids
        kinds = {event.kind for event in pool.health.events}
        assert {"death", "respawn"} <= kinds


def test_pool_under_spawn_start_method(network):
    # spawn re-imports the worker module and re-attaches the arena by
    # name — the portability path (macOS / Windows defaults).
    expected = _serial_values(network, KEYS[:2])
    with PersistentEvalPool(network, "mva-heuristic", workers=2, start_method="spawn") as pool:
        assert pool.health.start_method == "spawn"
        completions = pool.map(KEYS[:2])
        for key, done in completions.items():
            assert done.value == pytest.approx(expected[key], rel=1e-12)


def test_update_model_requires_quiescence(network):
    with PersistentEvalPool(network, "mva-heuristic",
                            workers=1) as pool:
        pool.submit((3, 3))
        with pytest.raises(SearchError):
            pool.update_model(canadian_two_class(25.0, 25.0))
        assert pool.poll(timeout=None).ok


def test_update_model_retargets_live_fleet(network):
    with PersistentEvalPool(network, "mva-heuristic",
                            workers=2) as pool:
        before = pool.map([(3, 3)])[(3, 3)].value
        pids = pool.worker_pids
        retargeted = canadian_two_class(25.0, 25.0)
        pool.update_model(retargeted)
        after = pool.map([(3, 3)])[(3, 3)].value
        assert pool.worker_pids == pids  # same fleet, new scenario
        assert after != before
        expected = _serial_values(retargeted, [(3, 3)])[(3, 3)]
        assert after == pytest.approx(expected, rel=1e-12)


def test_requeue_and_respawn_limits_read_from_env(network, monkeypatch):
    monkeypatch.setenv("REPRO_MAX_REQUEUES", "7")
    monkeypatch.setenv("REPRO_MAX_RESPAWNS", "11")
    monkeypatch.setenv("REPRO_TASK_DEADLINE", "2.5")
    with PersistentEvalPool(network, "mva-heuristic",
                            workers=1) as pool:
        assert pool.max_requeues == 7
        assert pool.max_respawns == 11
        assert pool.task_deadline == 2.5
    # Explicit constructor arguments beat the environment.
    with PersistentEvalPool(network, "mva-heuristic", workers=1, max_requeues=1, max_respawns=2,
                            task_deadline=9.0) as pool:
        assert pool.max_requeues == 1
        assert pool.max_respawns == 2
        assert pool.task_deadline == 9.0


def test_invalid_limits_rejected(network):
    with pytest.raises(SearchError, match="must be"):
        PersistentEvalPool(network, "mva-heuristic", workers=1,
                           max_requeues=-1)
    with pytest.raises(SearchError, match="positive"):
        PersistentEvalPool(network, "mva-heuristic", workers=1,
                           task_deadline=0.0)


def test_watchdog_kills_hung_worker_and_requeues(network):
    # A worker wedges (60s hang) on its first task; the 0.5s deadline
    # must SIGKILL it, respawn, requeue, and still answer every task.
    expected = _serial_values(network, KEYS)
    plan = FaultPlan(
        name="hang-once",
        rules=(FaultRule("pool.worker.task", "hang", occurrence=1,
                         seconds=60.0),),
    )
    started = time.monotonic()
    with inject(plan):
        with PersistentEvalPool(network, "mva-heuristic",
                                workers=2,
                                task_deadline=0.5) as pool:
            completions = pool.map(KEYS)
    assert time.monotonic() - started < 30.0  # never waited out the hang
    assert all(done.ok for done in completions.values())
    for key, done in completions.items():
        assert done.value == pytest.approx(expected[key], rel=1e-12)
    assert pool.health.hung >= 1
    assert pool.health.respawns >= 1
    kinds = {event.kind for event in pool.health.events}
    assert {"hung", "death", "respawn"} <= kinds
    assert "hung" in pool.health.summary()


def test_poll_timeout_expires_while_worker_hangs(network):
    plan = FaultPlan(
        name="hang-forever",
        rules=(FaultRule("pool.worker.task", "hang", occurrence=1,
                         seconds=120.0),),
    )
    with inject(plan):
        with PersistentEvalPool(network, "mva-heuristic",
                                workers=1) as pool:
            pool.submit((3, 3))
            started = time.monotonic()
            assert pool.poll(timeout=0.3) is None
            assert time.monotonic() - started < 5.0


def test_respawn_budget_exhaustion_raises_pool_failure(network):
    # Every task crashes its worker; with a single respawn allowed the
    # second death must surface as PoolFailure instead of a respawn loop.
    plan = FaultPlan(
        name="crash-always",
        rules=(FaultRule("pool.worker.task", "crash", occurrence=1,
                         count=16),),
    )
    with inject(plan):
        with PersistentEvalPool(network, "mva-heuristic",
                                workers=1,
                                max_respawns=1) as pool:
            with pytest.raises(PoolFailure, match="respawn budget"):
                pool.map(KEYS)
            assert pool.health.respawns == 1


def test_objective_with_live_pool_pickles(network):
    # Campaign tasks pickle the objective into spawn workers; a live
    # persistent pool (queues, processes, shared memory) must never ride
    # along.
    objective = WindowObjective(network, workers=2)
    try:
        objective.ensure_pool()
        baseline = objective((3, 3))
        clone = pickle.loads(pickle.dumps(objective))
        try:
            assert clone((3, 3)) == pytest.approx(baseline, rel=1e-12)
        finally:
            clone.close()
    finally:
        objective.close()


_ORPHAN_SCRIPT = textwrap.dedent(
    """
    import sys, time
    from repro.netmodel.examples import canadian_two_class
    from repro.parallel import PersistentEvalPool

    pool = PersistentEvalPool(
        canadian_two_class(18.0, 18.0), "mva-heuristic",
        workers=2, start_method=sys.argv[1],
    )
    assert pool.map([(3, 3), (4, 4)])[(3, 3)].ok
    print(" ".join(str(pid) for pid in pool.worker_pids), flush=True)
    time.sleep(120)
    """
)


def _running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return False
    return state != "Z"


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc/<pid>/stat"
)
@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_workers_exit_when_the_parent_is_terminated(start_method):
    # SIGTERM kills the parent without closing the pool, so no stop
    # message ever reaches the workers: they must notice by themselves.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "..", "src")]
        + [p for p in [env.get("PYTHONPATH")] if p]
    )
    parent = subprocess.Popen(
        [sys.executable, "-c", _ORPHAN_SCRIPT, start_method],
        stdout=subprocess.PIPE,
        env=env,
        text=True,
    )
    workers = []
    try:
        workers = [int(pid) for pid in parent.stdout.readline().split()]
        assert len(workers) == 2
        assert all(_running(pid) for pid in workers)
        parent.send_signal(signal.SIGTERM)
        assert parent.wait(timeout=10) == -signal.SIGTERM
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and any(map(_running, workers)):
            time.sleep(0.05)
        assert not [pid for pid in workers if _running(pid)]
    finally:
        if parent.poll() is None:
            parent.kill()
            parent.wait()
        parent.stdout.close()
        for pid in filter(_running, workers):  # a failed run leaks none
            os.kill(pid, signal.SIGKILL)
