"""Property tests for :class:`EvalResult` / cache-merge invariants.

Hypothesis drives randomized batches of window vectors and racing prime
values through both evaluation planes and asserts the merge
invariants the conformance wall's determinism rests on:

* **prime-winner stability** — the first value written for a key is the
  value every later submit observes, regardless of how many racers lose;
* **snapshot isolation** — a copy of the cache's values taken earlier
  still matches the live cache after more merges: no merge rewrites a
  value already cached;
* **backend-agnostic cache keys** — numpy integers, Python ints and
  integer-valued floats all normalise to the identical key, so a cache
  (or evaluation store) written by one backend is reused verbatim by
  another.

Pooled planes are expensive to build, so each plane gets
one module-scoped harness that all examples share — which is itself a
useful property: the invariants must hold on a *long-lived* cache, not
just a fresh one.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.evalplane.conftest import PLANES, build_harness

MAX_WINDOW = 9

windows_vectors = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=MAX_WINDOW),
        st.integers(min_value=1, max_value=MAX_WINDOW),
    ),
    min_size=1,
    max_size=6,
)

_HARNESSES = {}


def _harness(plane_name: str):
    """One long-lived (objective, plane) per backend, shared by examples."""
    if plane_name not in _HARNESSES:
        from repro.netmodel.examples import canadian_two_class

        network = canadian_two_class(18.0, 18.0, windows=(4, 4))
        _HARNESSES[plane_name] = build_harness(
            plane_name, network, max_window=MAX_WINDOW
        )
    return _HARNESSES[plane_name]


@pytest.fixture(scope="module", autouse=True)
def _close_harnesses():
    yield
    while _HARNESSES:
        _name, (_objective, plane) = _HARNESSES.popitem()
        plane.close()


_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.mark.parametrize("plane_name", PLANES)
class TestMergeInvariants:
    @_SETTINGS
    @given(batch=windows_vectors)
    def test_submit_is_idempotent_and_stable(self, plane_name, batch):
        """Resubmitting any vector returns the first-written value."""
        _objective, plane = _harness(plane_name)
        first = {w: plane.submit(w).value for w in batch}
        for w in batch:
            again = plane.submit(w)
            assert not again.fresh
            assert again.value == first[w]
            assert plane.cache.values[again.windows] == first[w]

    @_SETTINGS
    @given(batch=windows_vectors)
    def test_submit_many_agrees_with_submit(self, plane_name, batch):
        """The batch path merges the same values as one-at-a-time."""
        _objective, plane = _harness(plane_name)
        results = {r.windows: r.value for r in plane.submit_many(batch)}
        for w in batch:
            assert results[tuple(w)] == plane.submit(w).value

    @_SETTINGS
    @given(
        key=st.tuples(
            st.integers(min_value=10, max_value=40),
            st.integers(min_value=10, max_value=40),
        ),
        values=st.lists(
            st.floats(
                min_value=0.001, max_value=1000.0, allow_nan=False
            ),
            min_size=2,
            max_size=8,
        ),
    )
    def test_prime_winner_is_stable_under_races(self, plane_name, key, values):
        """Exactly one racing prime wins; the winner's value sticks."""
        _objective, plane = _harness(plane_name)
        cache = plane.cache
        if key in cache:  # a previous example already claimed this key
            before = cache.values[tuple(key)]
            assert not any(cache.prime(key, v) for v in values)
            assert cache.values[tuple(key)] == before
            return
        barrier = threading.Barrier(len(values))
        outcomes = [None] * len(values)

        def racer(i: int, v: float) -> None:
            barrier.wait()
            outcomes[i] = cache.prime(key, v)

        threads = [
            threading.Thread(target=racer, args=(i, v))
            for i, v in enumerate(values)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(1 for won in outcomes if won) == 1
        winner = cache.values[tuple(key)]
        assert winner in {float(v) for v in values}
        # And the plane serves the winner as a hit forever after.
        result = plane.submit(key)
        assert not result.fresh
        assert result.value == winner

    @_SETTINGS
    @given(batch=windows_vectors)
    def test_snapshot_isolation(self, plane_name, batch):
        """Merges never change a value already in the cache."""
        _objective, plane = _harness(plane_name)
        plane.submit_many(batch[: len(batch) // 2])
        frozen = dict(plane.cache.values)
        evals = plane.cache.evaluations
        plane.submit_many(batch)
        for point, value in frozen.items():
            assert plane.cache.values[point] == value
        assert evals <= plane.cache.evaluations

    @_SETTINGS
    @given(
        a=st.integers(min_value=1, max_value=MAX_WINDOW),
        b=st.integers(min_value=1, max_value=MAX_WINDOW),
    )
    def test_cache_keys_are_representation_agnostic(self, plane_name, a, b):
        """ints, numpy ints and integral floats hit the same key."""
        _objective, plane = _harness(plane_name)
        canonical = plane.submit((a, b))
        for variant in (
            (np.int64(a), np.int64(b)),
            (float(a), float(b)),
            (np.float64(a), np.float64(b)),
        ):
            result = plane.submit(variant)
            assert result.windows == (a, b)
            assert not result.fresh
            assert result.value == canonical.value
