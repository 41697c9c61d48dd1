"""Unit and behaviour tests for the WINDIM algorithm."""

import pytest

from repro.core.power import network_power
from repro.core.windim import windim
from repro.errors import ModelError, SearchError
from repro.exact.mva_exact import solve_mva_exact
from repro.netmodel.examples import canadian_two_class, tandem_network
from repro.search.exhaustive import exhaustive_search
from repro.search.space import IntegerBox
from repro.core.objective import WindowObjective


class TestBasicRun:
    def test_returns_consistent_result(self):
        net = canadian_two_class(18.0, 18.0)
        result = windim(net)
        assert len(result.windows) == 2
        assert result.power > 0
        assert result.power == pytest.approx(result.report.power)
        assert result.solution.network.populations.tolist() == list(result.windows)
        assert result.initial_windows == (4, 4)

    def test_explicit_start_used(self):
        net = canadian_two_class(18.0, 18.0)
        result = windim(net, start=(2, 2))
        assert result.initial_windows == (2, 2)

    def test_bad_start_length_rejected(self):
        net = canadian_two_class(18.0, 18.0)
        with pytest.raises(ModelError):
            windim(net, start=(2, 2, 2))

    def test_fractional_start_rejected(self):
        net = canadian_two_class(18.0, 18.0)
        with pytest.raises(ModelError, match="non-integral"):
            windim(net, start=(1.5, 2))
        assert windim(net, start=(2.0, 3.0)).initial_windows == (2, 3)

    def test_negative_evaluation_cap_rejected(self):
        net = canadian_two_class(18.0, 18.0)
        with pytest.raises(SearchError, match="max_evaluations must be >= 0"):
            windim(net, max_evaluations=-5)

    def test_summary_text(self):
        result = windim(canadian_two_class(25.0, 25.0))
        text = result.summary()
        assert "optimal windows" in text
        assert "power" in text

    def test_per_batch_pool_mode_is_rejected(self):
        net = canadian_two_class(18.0, 18.0)
        with pytest.raises(ModelError, match="per-batch mode was removed"):
            windim(net, max_window=8, workers=2, pool_mode="per-batch")


class TestOptimality:
    @pytest.mark.parametrize("rates", [(18.0, 18.0), (10.0, 15.0)])
    def test_near_global_optimum_with_exact_solver(self, rates):
        """WINDIM promises *good* windows (§4.1); on small grids its power
        must be within a fraction of a percent of the global optimum found
        by exhaustive search (the §4.5 global-optimality probe).  The power
        surface is extremely flat near the top, so the window vector itself
        may differ from the argmax."""
        net = canadian_two_class(*rates)
        result = windim(net, solver="mva-exact", max_window=8)
        objective = WindowObjective(net, "mva-exact")
        reference = exhaustive_search(objective, IntegerBox.windows(2, 8))
        global_power = 1.0 / reference.best_value
        assert result.power >= 0.995 * global_power

    def test_single_chain_tandem_optimum_near_hop_count(self):
        """Kleinrock's rule: with no chain interaction the optimal window
        is close to the hop count (§4.6)."""
        net = tandem_network(hops=4, arrival_rate=1000.0)  # saturating source
        result = windim(net, solver="mva-exact", max_window=16)
        assert abs(result.windows[0] - 4) <= 1

    def test_symmetric_loads_give_symmetric_windows(self):
        result = windim(canadian_two_class(22.5, 22.5))
        assert result.windows[0] == result.windows[1]

    def test_power_at_least_as_good_as_initial(self):
        net = canadian_two_class(18.0, 18.0)
        result = windim(net)
        objective = WindowObjective(net)
        initial_value = objective(result.initial_windows)
        assert 1.0 / result.power <= initial_value + 1e-12


class TestLoadDependence:
    def test_windows_shrink_as_load_grows(self):
        """Table 4.7's central observation."""
        low = windim(canadian_two_class(12.5, 12.5))
        high = windim(canadian_two_class(75.0, 75.0))
        assert sum(high.windows) < sum(low.windows)

    def test_power_grows_with_load(self):
        low = windim(canadian_two_class(12.5, 12.5))
        high = windim(canadian_two_class(50.0, 50.0))
        assert high.power > low.power
