"""Concurrency safety of the shared search state.

Parallel batch evaluation (``WindowObjective.batch_solve`` on a process
pool) funnels results back into one :class:`EvaluationCache`, which may
be hit from the search thread and callback contexts concurrently.  These
tests hammer it from many threads and require the invariants the search
relies on:

* cache values/history/counters stay mutually consistent, each distinct
  point is evaluated exactly once, racing ``prime`` calls elect a single
  winner, and a snapshot is mutually consistent;
* a parallel run interrupted mid-batch resumes from its evaluation store
  to the same optimum as an uninterrupted serial run.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.windim import windim
from repro.netmodel.examples import canadian_two_class
from repro.search.cache import EvaluationCache
from repro.search.store import EvaluationStore, model_fingerprint

THREADS = 8


def _run_threads(workers):
    threads = [threading.Thread(target=w) for w in workers]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


class TestCacheThreadSafety:
    def test_concurrent_lookups_evaluate_each_point_once(self):
        calls = []
        cache = EvaluationCache(lambda p: calls.append(p) or float(sum(p)))
        points = [(i, i + 1) for i in range(40)]

        def worker(offset):
            def run():
                for point in points[offset:] + points[:offset]:
                    assert cache(point) == float(sum(point))

            return run

        _run_threads([worker(i) for i in range(THREADS)])

        assert len(cache.values) == len(points)
        assert cache.misses == len(points)
        assert len(calls) == len(points), "an objective call was duplicated"
        assert cache.hits == THREADS * len(points) - len(points)
        assert len(cache.history) == len(points)
        assert dict(cache.history) == cache.values

    def test_racing_prime_elects_a_single_winner(self):
        cache = EvaluationCache(lambda p: 0.0)
        wins = []

        def worker(value):
            def run():
                if cache.prime((3, 4), float(value)):
                    wins.append(value)

            return run

        _run_threads([worker(v) for v in range(THREADS)])

        assert len(wins) == 1
        assert cache.misses == 1
        assert cache.values[(3, 4)] == float(wins[0])
        assert cache.history == [((3, 4), float(wins[0]))]

    def test_mixed_prime_and_call_keep_invariants(self):
        cache = EvaluationCache(lambda p: float(sum(p)))
        points = [(i,) for i in range(60)]

        def caller():
            for point in points:
                cache(point)

        def primer():
            for point in points:
                cache.prime(point, float(sum(point)))

        _run_threads([caller, primer] * (THREADS // 2))

        assert len(cache.values) == len(points)
        assert cache.misses == len(points)
        assert len(cache.history) == len(points)
        assert dict(cache.history) == cache.values
        assert all(cache.values[p] == float(sum(p)) for p in points)

    def test_snapshot_is_mutually_consistent(self):
        """values, history, best() and evaluations describe one state."""
        cache = EvaluationCache(lambda p: float(sum(p)))
        for i in range(10):
            cache((i, 0))
        values = dict(cache.values)
        assert dict(cache.history) == values
        assert cache.best() == min(values.items(), key=lambda kv: kv[1])
        assert cache.evaluations == len(values) == 10


class TestParallelStoreResume:
    NETWORK_ARGS = (18.0, 18.0)

    def test_mid_batch_interrupt_resumes_to_same_optimum(self, tmp_path):
        """Exhaust the evaluation budget mid-way through a parallel run,
        then resume from the store: same optimum as serial."""
        network = canadian_two_class(*self.NETWORK_ARGS)
        baseline = windim(network, max_window=16)

        path = str(tmp_path / "parallel.store")
        cut = 6
        assert baseline.search.evaluations > cut
        partial = windim(
            network,
            max_window=16,
            workers=2,
            store_path=path,
            max_evaluations=cut,
        )
        assert partial.status == "budget_exhausted"
        with EvaluationStore.open(
            path, model_fingerprint(network, "mva-heuristic")
        ) as interrupted:
            stored = len(interrupted)
        assert 0 < stored <= cut

        resumed = windim(
            network,
            max_window=16,
            workers=2,
            store_path=path,
        )
        assert resumed.windows == baseline.windows
        assert resumed.power == pytest.approx(baseline.power)
        assert resumed.store_seeded == stored
