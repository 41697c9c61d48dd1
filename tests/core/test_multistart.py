"""Unit tests for multi-start WINDIM."""

import warnings

import pytest

from repro.cli import EXIT_BUDGET_EXHAUSTED, _exit_code_for
from repro.core.multistart import windim_multistart
from repro.core.objective import WindowObjective
from repro.core.windim import windim
from repro.errors import ConvergenceWarning, ModelError, SearchError
from repro.mva.convergence import IterationControl
from repro.mva.heuristic import solve_mva_heuristic
from repro.netmodel.examples import canadian_four_class, canadian_two_class
from repro.search.exhaustive import exhaustive_search
from repro.search.space import IntegerBox
from repro.search.store import EvaluationStore, model_fingerprint


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

    def test_fractional_extra_start_rejected(self):
        net = canadian_two_class(18.0, 18.0)
        with pytest.raises(ModelError, match="non-integral"):
            windim_multistart(net, max_window=8, extra_starts=[(1.5, 2)])
        assert windim_multistart(net, max_window=8, extra_starts=[(2.0, 3.0)]).power > 0

    def test_negative_evaluation_cap_rejected(self):
        net = canadian_two_class(18.0, 18.0)
        with pytest.raises(SearchError, match="max_evaluations must be >= 0"):
            windim_multistart(net, max_window=8, max_evaluations=-1)

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


class TestRunsOnWindimsPath:
    """Multistart reports what ``windim`` reports: one run path."""

    def test_capped_run_reads_budget_exhausted(self):
        result = windim_multistart(
            canadian_four_class(20, 20, 20, 40), max_evaluations=5
        )
        assert result.search.evaluations == 5
        assert result.status == "budget_exhausted"
        assert result.search.status == "budget_exhausted"
        assert result.search.stop_reason
        assert "best-so-far" in result.summary()
        assert _exit_code_for(result) == EXIT_BUDGET_EXHAUSTED

    def test_unconverged_optimum_is_reported(self):
        def capped(network):
            return solve_mva_heuristic(
                network, control=IterationControl(max_iterations=3)
            )

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            result = windim_multistart(
                canadian_two_class(18.0, 18.0), solver=capped, max_window=8
            )
        assert not result.solution.converged
        assert result.converged is False
        assert "solver did not converge" in result.summary()

    def test_store_without_reuse_holds_no_seeds(self, tmp_path):
        net = canadian_two_class(18.0, 18.0)
        store = str(tmp_path / "multi.store")
        windim_multistart(net, max_window=8, store_path=store)
        with EvaluationStore.open(
            store, model_fingerprint(net, "mva-heuristic")
        ) as reloaded:
            assert len(reloaded) > 0
            assert reloaded.seeds == {}

    def test_cross_packs_are_reported(self):
        result = windim_multistart(
            canadian_four_class(20, 20, 20, 40), max_window=8
        )
        assert result.solved_ahead >= result.ahead_used > 0
        assert "cross packs" in result.summary()

    def test_corrupt_store_line_is_quarantined(self, tmp_path):
        net = canadian_two_class(18.0, 18.0)
        store = tmp_path / "multi.store"
        first = windim_multistart(net, max_window=8, store_path=str(store))
        lines = store.read_text().splitlines(keepends=True)
        assert len(lines) > 3
        lines[2] = "{not json\n"
        store.write_text("".join(lines))
        with pytest.warns(RuntimeWarning, match="quarantined"):
            second = windim_multistart(net, max_window=8, store_path=str(store))
        assert second.store_quarantined == 1
        assert "WARNING: store quarantined 1" in second.summary()
        assert second.windows == first.windows
