"""Cross-plane conformance wall for :mod:`repro.evalplane`.

One battery, both planes: a pattern search driven through
any evaluation plane must make the same fresh evaluations, walk the
bitwise-identical accepted-move trajectory and return the identical
optimum as the serial reference — on the golden thesis fixtures and on
25 seeded fuzz networks — while budgets, caps, store-style cache
seeding and warm seeds behave equivalently, and faults (a SIGKILLed
worker, mid-search budget exhaustion, racing cache primes) degrade to
the same answer.  Both planes are built by
:func:`repro.evalplane.build_plane`, the one way the library picks a
plane, and every test runs on each via the ``plane_name`` fixture.

The fuzz slice uses :func:`repro.verify.fuzz.generate_named_cases`, so
each instance is pinned to its case *name* — growing the suite never
perturbs existing cases.  A fast subset runs in tier-1; the remainder
is marked ``slow`` and runs in the CI conformance job.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Dict, Tuple

import numpy as np
import pytest

from repro.core.initializers import initial_windows
from repro.errors import SearchError
from repro.evalplane import build_plane
from repro.resilience.budget import SearchBudget
from repro.resilience.ladder import ResilientSolver
from repro.search.pattern import pattern_search
from repro.verify.fuzz import FuzzConfig, generate_named_cases
from repro.verify.golden import golden_cases

from tests.evalplane.conftest import PLANES, build_harness

FUZZ_SEED = 977
FUZZ_COUNT = 25
FUZZ_FAST = 3
FUZZ_NAMES = tuple(f"conformance-{i:03d}" for i in range(FUZZ_COUNT))

#: Goldens exercised in tier-1; the rest ride in the slow battery.
GOLDEN_FAST = ("table47_moderate", "table48_skewed")

_GOLDENS = {case.name: case for case in golden_cases()}

_golden_params = [
    pytest.param(name, marks=() if name in GOLDEN_FAST else pytest.mark.slow)
    for name in _GOLDENS
]

_fuzz_params = [
    pytest.param(name, marks=() if i < FUZZ_FAST else pytest.mark.slow)
    for i, name in enumerate(FUZZ_NAMES)
]

_fuzz_cases: Dict[str, object] = {}


def _fuzz_network(name: str):
    if name not in _fuzz_cases:
        case = next(iter(generate_named_cases(FUZZ_SEED, [name], FuzzConfig())))
        _fuzz_cases[name] = case
    return _fuzz_cases[name].network


def _run_search(plane_name: str, network, max_window: int, **harness_kw):
    """One pattern search through ``plane_name``; returns (result, plane)."""
    objective, plane = build_harness(
        plane_name, network, max_window=max_window, **harness_kw
    )
    start = initial_windows(network, "hops")
    with plane:
        result = pattern_search(
            objective, start, plane.space, plane=plane
        )
    return result, plane


_serial_oracle: Dict[Tuple[str, int], object] = {}


def _oracle(label: str, network, max_window: int):
    """Memoised serial-reference search for a (network, box) pair."""
    key = (label, max_window)
    if key not in _serial_oracle:
        _serial_oracle[key], _ = _run_search("serial", network, max_window)
    return _serial_oracle[key]


def _assert_identical(result, oracle, label: str) -> None:
    """The conformance core: the serial run's evaluations, trajectory and
    optimum, bitwise."""
    assert result.base_points == oracle.base_points, label
    assert result.best_point == oracle.best_point, label
    assert result.best_value == oracle.best_value, label
    assert result.status == oracle.status, label
    assert result.evaluations == oracle.evaluations, label
    assert result.lookups == oracle.lookups, label


class TestLifecycle:
    """Construction, context management, close idempotence."""

    def test_close_is_idempotent_and_final(self, plane_name, moderate_net):
        _objective, plane = build_harness(plane_name, moderate_net)
        with plane:
            plane.submit((2, 2))
            assert not plane.closed
        assert plane.closed
        plane.close()  # second close is a no-op
        with pytest.raises(SearchError):
            plane.submit((3, 3))

    @pytest.mark.parametrize("reuse", [False, True], ids=["packed", "per-point"])
    def test_closed_plane_rejects_batches(self, plane_name, moderate_net, reuse):
        # Without reuse a serial batch takes the pack path, with reuse the
        # per-point loop; a closed plane evaluates on neither and fires
        # no hook (a closed store must not be written).
        hook_calls = []
        objective, plane = build_harness(
            plane_name, moderate_net, reuse=reuse,
            on_evaluation=lambda cache: hook_calls.append(cache.evaluations),
        )
        plane.close()
        with pytest.raises(SearchError, match="closed"):
            plane.submit_many([(1, 1), (2, 2)])
        assert plane.cache.evaluations == 0
        assert objective.evaluations == 0
        assert hook_calls == []

    def test_exceptional_exit_still_closes(self, plane_name, moderate_net):
        _objective, plane = build_harness(plane_name, moderate_net)
        with pytest.raises(RuntimeError):
            with plane:
                plane.submit((2, 2))
                raise RuntimeError("mid-search crash")
        assert plane.closed

    def test_cache_hit_is_free_and_fresh_flag_correct(
        self, plane_name, moderate_net
    ):
        _objective, plane = build_harness(plane_name, moderate_net)
        with plane:
            first = plane.submit((2, 2))
            second = plane.submit((2, 2))
        assert first.fresh and not second.fresh
        assert first.value == second.value
        assert first.source == plane_name
        assert plane.cache.evaluations == 1

    def test_pool_health_survives_close(self, plane_name, moderate_net):
        _objective, plane = build_harness(plane_name, moderate_net)
        with plane:
            plane.submit((2, 2))
        if plane_name == "persistent":
            assert plane.pool_health is not None
            assert plane.pool_health.workers >= 1
        else:
            assert plane.pool_health is None

    def test_rejects_foreign_cache(self, plane_name, moderate_net):
        from repro.core.objective import WindowObjective
        from repro.search.cache import EvaluationCache

        objective, plane = build_harness(plane_name, moderate_net)
        other = EvaluationCache(WindowObjective(moderate_net, "mva-heuristic"))
        try:
            with pytest.raises(SearchError):
                build_plane(objective, cache=other, space=plane.space)
        finally:
            plane.close()


class TestGoldenTrajectoryParity:
    """Bitwise-identical search on every golden thesis fixture.

    The inputs are both planes plus ``resilient``: the serial
    plane driving an objective that solves through the retry/escalation
    ladder, which is what ``windim(resilient=True)`` runs.
    """

    @pytest.mark.parametrize("golden", _golden_params)
    @pytest.mark.parametrize("harness", [*PLANES, "resilient"])
    def test_identical_trajectory_and_optimum(self, harness, golden):
        network = _GOLDENS[golden].build().network
        max_window = 6 if network.num_chains > 2 else 12
        oracle = _oracle(golden, network, max_window)
        if harness == "resilient":
            ladder = ResilientSolver("mva-heuristic")
            result, plane = _run_search(
                "serial", network, max_window, solver=ladder
            )
            assert len(ladder.health_log) == plane.cache.evaluations
        else:
            result, plane = _run_search(harness, network, max_window)
        _assert_identical(result, oracle, f"{golden} via {harness}")
        assert plane.closed


class TestFuzzTrajectoryEquivalence:
    """Bitwise-identical search on 25 seeded fuzz networks per plane."""

    @pytest.mark.parametrize("fuzz_name", _fuzz_params)
    def test_identical_trajectory_and_optimum(self, plane_name, fuzz_name):
        network = _fuzz_network(fuzz_name)
        oracle = _oracle(fuzz_name, network, 4)
        result, _plane = _run_search(plane_name, network, 4)
        _assert_identical(result, oracle, f"{fuzz_name} via {plane_name}")


class TestBudgetSemantics:
    """Caps and budgets: raise before work, best-so-far, serial counts."""

    def test_zero_cap_exhausts_before_any_work(self, plane_name, moderate_net):
        result, plane = _run_search(
            plane_name, moderate_net, 12, max_evaluations=0
        )
        assert result.status == "budget_exhausted"
        assert plane.cache.evaluations == 0
        assert result.best_value == float("inf")

    def test_small_cap_stops_with_best_so_far(self, plane_name, moderate_net):
        result, plane = _run_search(
            plane_name, moderate_net, 12, max_evaluations=5
        )
        serial, serial_plane = _run_search(
            "serial", moderate_net, 12, max_evaluations=5
        )
        assert result.status == "budget_exhausted"
        # Every plane spends the cap on the serial run's points.
        assert plane.cache.evaluations == 5
        assert plane.cache.history == serial_plane.cache.history
        _assert_identical(result, serial, f"cap 5 via {plane_name}")
        # Best-so-far is the best *cached* value.
        _best_point, best_value = plane.cache.best()
        assert result.best_value == best_value
        assert plane.cache.values[result.best_point] == best_value

    def test_expired_deadline_returns_immediately(
        self, plane_name, moderate_net
    ):
        import itertools

        # Deterministic clock: already past the deadline at first check.
        ticks = itertools.count()
        budget = SearchBudget(
            max_seconds=0.5, clock=lambda: float(next(ticks))
        )
        result, plane = _run_search(
            plane_name, moderate_net, 12, budget=budget
        )
        assert result.status == "budget_exhausted"
        assert "deadline passed" in result.stop_reason
        assert plane.cache.evaluations == 0
        assert plane.closed

    def test_submit_many_is_quiet_under_cap(self, plane_name, moderate_net):
        _objective, plane = build_harness(
            plane_name, moderate_net, max_evaluations=2
        )
        with plane:
            batch = [(1, 1), (1, 1), (2, 2), (3, 3), (4, 4)]
            results = plane.submit_many(batch)  # never raises
            assert plane.cache.evaluations == 2
            for res in results:
                assert res.windows in plane.cache

    def test_submit_many_is_trimmed_to_the_budget_cap(self, plane_name):
        # A batch packed in one call stops where the per-point loop of
        # a plain callable does: at the budget's cap, not the plane's.
        from repro.evalplane.serial import SerialPlane
        from repro.netmodel.examples import canadian_four_class

        network = canadian_four_class(20.0, 20.0, 20.0, 40.0)
        batch = [(1, 1, 1, w) for w in range(1, 10)]
        objective, plane = build_harness(
            plane_name, network, budget=SearchBudget(max_evaluations=5)
        )
        looped = SerialPlane(
            lambda windows: objective(windows),
            budget=SearchBudget(max_evaluations=5),
        )
        with plane, looped:
            assert len(plane.submit_many(batch)) == 5
            assert len(looped.submit_many(batch)) == 5
            assert plane.cache.evaluations == looped.cache.evaluations == 5
            assert plane.cache.history == looped.cache.history


class TestSeededResume:
    """Store-style cache seeding: a resumed run pays nothing."""

    def test_seeded_rerun_is_free_and_identical(self, plane_name, moderate_net):
        # A store written by the serial reference seeds every plane: each
        # makes only the serial run's evaluations, so nothing is left.
        first, first_plane = _run_search("serial", moderate_net, 12)
        # Re-seed a fresh harness with the first run's cache entries —
        # exactly what an EvaluationStore replay does.
        entries = dict(first_plane.cache.values)
        objective, plane = build_harness(plane_name, moderate_net)
        hook_calls = []
        plane.on_evaluation = lambda cache: hook_calls.append(
            cache.evaluations
        )
        for point, value in entries.items():
            plane.cache.values[point] = value  # seeded, not counted
        start = initial_windows(moderate_net, "hops")
        with plane:
            second = pattern_search(
                objective, start, plane.space, plane=plane
            )
        assert second.best_point == first.best_point
        assert second.best_value == first.best_value
        assert second.base_points == first.base_points
        assert plane.cache.evaluations == 0  # nothing fresh
        assert hook_calls == []  # the hook only fires on fresh work


class TestWarmSeedsAndBounds:
    """EvalResult carries solutions and warm seeds."""

    def test_warm_seed_matches_retained_solution(
        self, plane_name, moderate_net
    ):
        _objective, plane = build_harness(plane_name, moderate_net)
        with plane:
            result = plane.submit((3, 3))
        assert result.solution is not None
        assert result.solution.converged
        assert result.warm_seed is not None
        np.testing.assert_array_equal(
            np.asarray(result.warm_seed),
            np.asarray(result.solution.queue_lengths),
        )

    def test_reuse_run_matches_same_optimum(self, plane_name, moderate_net):
        plain, _ = _run_search(plane_name, moderate_net, 12)
        reused, plane = _run_search(
            plane_name, moderate_net, 12, reuse=True
        )
        # Warm starts stay inside the 1e-8 parity band: same chosen
        # optimum.
        assert reused.best_point == plain.best_point
        assert reused.best_value == pytest.approx(
            plain.best_value, rel=1e-8
        )
        assert plane.closed


class TestHeterogeneousBatches:
    """submit_networks: mixed-shape batches through every plane."""

    def _mixed_networks(self):
        from repro.netmodel.examples import canadian_two_class
        from repro.netmodel.generator import random_network

        return [
            canadian_two_class(12.0, 9.0, windows=(3, 2)),
            canadian_two_class(18.0, 18.0, windows=(4, 4)),
            random_network(
                num_nodes=6, num_classes=3, extra_edges=2, seed=42
            ).with_populations([2, 1, 3]),
        ]

    def test_mixed_shapes_match_serial_solves(self, plane_name, moderate_net):
        from repro.core.power import power_report
        from repro.core.objective import resolve_solver

        networks = self._mixed_networks()
        objective, plane = build_harness(plane_name, moderate_net)
        solver = objective._solver_name or "mva-heuristic"
        with plane:
            results = plane.submit_networks(networks)
        assert len(results) == len(networks)
        solve = resolve_solver(solver)
        for network, res in zip(networks, results):
            assert res.fresh
            assert res.source == plane_name
            assert res.windows == tuple(int(p) for p in network.populations)
            assert res.solution is not None
            expected = power_report(solve(network)).power
            # Packs and serial solves are one floating-point program.
            assert res.value == 1.0 / expected
            if res.solution.converged:
                np.testing.assert_array_equal(
                    np.asarray(res.warm_seed),
                    np.asarray(res.solution.queue_lengths),
                )
        # Hetero values never pollute the window-keyed cache: the batch
        # bypasses it entirely (foreign topologies share window shapes).
        assert plane.cache.evaluations == 0

    def test_engagement_is_observable(self, moderate_net):
        from repro.mva import autobatch

        networks = self._mixed_networks()
        # The solver-mix evidence: the batch engages for a batchable
        # solver (tiny networks) and is declined, with a counted reason,
        # for one without a pack — never silent either way.
        for solver in ("mva-heuristic", "linearizer"):
            _objective, plane = build_harness("serial", moderate_net, solver=solver)
            autobatch.reset_stats()
            with plane:
                plane.submit_networks(networks)
            stats = autobatch.batch_stats()
            if solver == "mva-heuristic":
                assert stats["engaged_batches"] == 1
                assert stats["declined_batches"] == 0
            else:
                assert stats["engaged_batches"] == 0
                assert stats["declined_batches"] == 1
                ((reason, count),) = stats["declined_reasons"].items()
                assert reason.startswith("solver 'linearizer'")
                assert count == 1

    def test_closed_plane_rejects_and_empty_is_empty(self, moderate_net):
        _objective, plane = build_harness("serial", moderate_net)
        with plane:
            assert plane.submit_networks([]) == []
        with pytest.raises(SearchError):
            plane.submit_networks(self._mixed_networks())

    def test_spent_cap_declines_quietly(self, moderate_net):
        _objective, plane = build_harness(
            "serial", moderate_net, max_evaluations=0
        )
        with plane:
            assert plane.submit_networks(self._mixed_networks()) == []

    def test_plain_callable_rejected(self, moderate_net):
        from repro.evalplane.serial import SerialPlane
        from repro.search.space import IntegerBox

        plane = SerialPlane(
            lambda point: float(sum(point)),
            space=IntegerBox.windows(2, 8),
        )
        with plane:
            with pytest.raises(SearchError, match="batch_solve_networks"):
                plane.submit_networks(self._mixed_networks())


class TestFaultInjection:
    """Faults must degrade to the serial answer, never corrupt it."""

    def test_killed_worker_recovers_to_same_optimum(self, moderate_net):
        oracle = _oracle("moderate-fault", moderate_net, 12)
        objective, plane = build_harness("persistent", moderate_net)
        start = initial_windows(moderate_net, "hops")
        with plane:
            pool = objective.ensure_pool()
            victim = pool.worker_pids[0]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                try:
                    os.kill(victim, 0)
                except OSError:
                    break
                time.sleep(0.05)
            result = pattern_search(objective, start, plane.space, plane=plane)
        _assert_identical(result, oracle, "persistent after SIGKILL")
        assert plane.pool_health.respawns >= 1

    def test_racing_primes_first_write_wins(self, plane_name, moderate_net):
        import threading

        _objective, plane = build_harness(plane_name, moderate_net)
        with plane:
            barrier = threading.Barrier(8)
            outcomes = [None] * 8

            def racer(i: int) -> None:
                barrier.wait()
                outcomes[i] = plane.cache.prime((5, 5), float(i + 1))

            threads = [
                threading.Thread(target=racer, args=(i,)) for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            # Exactly one racer won; the plane then serves the winner's
            # value as a cache hit, never re-evaluating.
            assert sum(1 for won in outcomes if won) == 1
            assert plane.cache.evaluations == 1
            result = plane.submit((5, 5))
            assert not result.fresh
            assert result.value in {float(i + 1) for i in range(8)}

    def test_objective_error_mid_search_still_drains(
        self, plane_name, moderate_net
    ):
        _objective, plane = build_harness(plane_name, moderate_net)
        with pytest.raises(ValueError):
            with plane:
                plane.submit((2, 2))
                plane.submit((2.5, 2))  # fractional window -> ValueError
        assert plane.closed

