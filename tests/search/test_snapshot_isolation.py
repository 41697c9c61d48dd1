"""`EvaluationCache.snapshot` isolation under concurrent mutation.

A snapshot may be read while pool-scheduler merges keep priming the live
cache; it must be a deep copy so nothing it already captured can change
under it.
"""

import threading

from repro.search.cache import EvaluationCache


def test_snapshot_is_isolated_from_later_mutation():
    cache = EvaluationCache(objective=lambda p: float(sum(p)))
    cache((1, 2))
    cache((2, 2))
    entries, best_point, best_value, evaluations = cache.snapshot()

    cache.prime((9, 9), 0.5)  # a racing scheduler merge...
    cache.clear()             # ...or even a full reset

    assert sorted(entries) == [((1, 2), 3.0), ((2, 2), 4.0)]
    assert best_point == (1, 2)
    assert best_value == 3.0
    assert evaluations == 2


def test_snapshot_consistent_under_concurrent_primes():
    cache = EvaluationCache(objective=lambda p: float(sum(p)))
    stop = threading.Event()

    # Bounded producer: enough churn to interleave with the snapshots
    # below, small enough that each (deep-copying) snapshot stays cheap.
    def producer():
        for i in range(2000):
            if stop.is_set():
                break
            cache.prime((i, i + 1), float(2 * i + 1))

    thread = threading.Thread(target=producer)
    thread.start()
    try:
        for _ in range(100):
            entries, best_point, best_value, evaluations = cache.snapshot()
            # Internal consistency: the reported best and count must match
            # the captured entries exactly, however the race interleaved.
            assert evaluations == len(entries)
            if entries:
                point, value = min(entries, key=lambda item: item[1])
                assert best_point == point
                assert best_value == value
            else:
                assert best_point is None
    finally:
        stop.set()
        thread.join()
