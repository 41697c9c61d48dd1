"""Unit tests for multi-start WINDIM."""

import pytest

from repro.core.multistart import windim_multistart
from repro.core.objective import WindowObjective
from repro.core.windim import windim
from repro.errors import ModelError
from repro.netmodel.examples import canadian_two_class
from repro.search.exhaustive import exhaustive_search
from repro.search.space import IntegerBox


class TestMultistart:
    def test_never_worse_than_single_start(self):
        net = canadian_two_class(10.0, 15.0)
        single = windim(net)
        multi = windim_multistart(net)
        assert multi.power >= single.power - 1e-9

    def test_matches_global_optimum_where_single_start_misses(self):
        """The (10, 15) case where plain WINDIM parks at a local optimum
        one step from the global one (see test_windim)."""
        net = canadian_two_class(10.0, 15.0)
        multi = windim_multistart(net, solver="mva-exact", max_window=8)
        objective = WindowObjective(net, "mva-exact")
        reference = exhaustive_search(objective, IntegerBox.windows(2, 8))
        assert multi.power == pytest.approx(1.0 / reference.best_value, rel=1e-9)

    def test_cache_shared_across_starts(self):
        net = canadian_two_class(18.0, 18.0)
        multi = windim_multistart(net)
        # Lookups strictly exceed distinct evaluations — the starts overlap.
        assert multi.search.lookups > multi.search.evaluations

    def test_extra_starts_accepted(self):
        net = canadian_two_class(18.0, 18.0)
        multi = windim_multistart(net, extra_starts=[(7, 7)])
        assert multi.power > 0

    def test_bad_extra_start_rejected(self):
        net = canadian_two_class(18.0, 18.0)
        with pytest.raises(ModelError):
            windim_multistart(net, extra_starts=[(1, 2, 3)])

    def test_pooled_run_matches_serial(self):
        """One fleet serves the seed batch and every start, and pays for
        exactly the serial run's evaluations."""
        net = canadian_two_class(25.0, 25.0)
        serial = windim_multistart(net, max_window=8)
        pooled = windim_multistart(net, max_window=8, workers=2)
        assert list(pooled.windows) == list(serial.windows)
        assert pooled.power == serial.power
        assert pooled.search.evaluations == serial.search.evaluations
        assert pooled.pool_health is not None
        assert pooled.pool_health.respawns == 0

    def test_result_is_consistent(self):
        net = canadian_two_class(25.0, 25.0)
        multi = windim_multistart(net)
        assert multi.solution.network.populations.tolist() == list(multi.windows)
        assert multi.search.method == "pattern-search-multistart"
