"""Regression tests for the multistart pool-lifecycle bug.

Before the evaluation plane, :func:`windim_multistart` wired its worker
pool per start and returned early — on budget exhaustion or a raising
solver — without shutting its pool down, leaking pool processes.  The
search loop now runs on ``windim``'s own runner, inside one plane
context manager, so *every* exit path (normal, exhausted cap, raising
start) must leave the plane closed and the pool shut down.  The spies
sit where that runner looks its collaborators up:
``repro.core.windim.build_plane`` and ``repro.core.windim.pattern_search``.
"""

from __future__ import annotations

import importlib

import pytest

from repro.core.multistart import windim_multistart
from repro.errors import SearchError

# ``repro.core`` re-exports the function ``windim`` under the module's
# name, so the module itself is reached through the import system.
windim_mod = importlib.import_module("repro.core.windim")


@pytest.fixture
def captured_planes(monkeypatch):
    """Record every plane multistart builds so tests can inspect it."""
    planes = []
    real_build = windim_mod.build_plane

    def spy(*args, **kwargs):
        plane = real_build(*args, **kwargs)
        planes.append(plane)
        return plane

    monkeypatch.setattr(windim_mod, "build_plane", spy)
    return planes


class TestMultistartLifecycle:
    def test_normal_return_closes_the_plane(self, captured_planes, moderate_net):
        result = windim_multistart(moderate_net, max_window=8)
        assert result.windows == result.search.best_point
        (plane,) = captured_planes
        assert plane.closed

    def test_exhausted_budget_still_closes_pooled_plane(
        self, captured_planes, moderate_net
    ):
        """The original bug: early best-so-far return leaked the pool."""
        result = windim_multistart(
            moderate_net,
            max_window=8,
            workers=2,
            max_evaluations=3,
        )
        (plane,) = captured_planes
        assert plane.closed
        assert plane.cache.evaluations <= 3
        assert result.pool_health is not None
        assert result.pool_health.workers

    def test_raising_search_closes_the_plane(
        self, captured_planes, moderate_net, monkeypatch
    ):
        """A start that blows up mid-loop must not leak the plane."""
        calls = {"n": 0}
        real_search = windim_mod.pattern_search

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise SearchError("synthetic failure on the second start")
            return real_search(*args, **kwargs)

        monkeypatch.setattr(windim_mod, "pattern_search", flaky)
        with pytest.raises(SearchError, match="synthetic failure"):
            windim_multistart(moderate_net, max_window=8)
        (plane,) = captured_planes
        assert plane.closed
        assert calls["n"] == 2

    def test_pooled_seed_batch_lands_in_shared_cache(
        self, captured_planes, moderate_net
    ):
        """All deduplicated starts are batch-primed before searching."""
        windim_multistart(
            moderate_net,
            max_window=8,
            workers=2,
            extra_starts=[(5, 5)],
        )
        (plane,) = captured_planes
        assert plane.closed
        assert (5, 5) in plane.cache.values
