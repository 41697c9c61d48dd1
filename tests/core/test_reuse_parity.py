"""Trajectory-safe parity of the cross-evaluation reuse engine.

The PR-4 acceptance bar: on every golden fixture, WINDIM with reuse
enabled (warm starts + shared lattices) must choose the *same* optimum
window vector as a reuse-off run, with the objective value within 1e-8.
The machinery is designed so this holds exactly — warm starts keep the
solvers' stopping criteria — and this test wall pins the design.
"""

import dataclasses
import warnings

import pytest

from repro.core.objective import WindowObjective
from repro.core.windim import windim
from repro.errors import ConvergenceWarning
from repro.mva.heuristic import solve_mva_heuristic
from repro.netmodel.examples import canadian_four_class, canadian_two_class
from repro.parallel.pool import _solution_payload
from repro.verify.golden import golden_cases

MAX_WINDOW = 12
MAX_EVALUATIONS = 3_000

GOLDENS = {case.name: case for case in golden_cases()}


def _windim_pair(network, solver):
    off = windim(
        network, solver=solver, max_window=MAX_WINDOW,
        max_evaluations=MAX_EVALUATIONS,
    )
    on = windim(
        network, solver=solver, max_window=MAX_WINDOW,
        max_evaluations=MAX_EVALUATIONS, reuse=True,
    )
    return off, on


class TestWindimReuseParity:
    @pytest.mark.parametrize("name", sorted(GOLDENS))
    def test_heuristic_same_optimum(self, name):
        network = GOLDENS[name].build().network
        off, on = _windim_pair(network, "mva-heuristic")
        assert on.windows == off.windows
        assert on.search.best_value == pytest.approx(
            off.search.best_value, rel=1e-8, abs=1e-8
        )

    @pytest.mark.parametrize(
        "name", ["table47_light", "table48_skewed", "tandem4_kleinrock"]
    )
    def test_exact_mva_same_optimum(self, name):
        network = GOLDENS[name].build().network
        off, on = _windim_pair(network, "mva-exact")
        assert on.windows == off.windows
        assert on.search.best_value == pytest.approx(
            off.search.best_value, rel=1e-8, abs=1e-8
        )

    def test_identical_trajectory_not_just_optimum(self):
        """Stronger than the acceptance bar: every accepted base point
        matches, so pruning and warm starts never even *redirect* the
        search on the way to the optimum."""
        network = GOLDENS["arpanet_default"].build().network
        off, on = _windim_pair(network, "mva-heuristic")
        assert on.search.base_points == off.search.base_points

    def test_reuse_reports_warm_solves(self):
        network = GOLDENS["table47_moderate"].build().network
        result = windim(
            network, max_window=MAX_WINDOW,
            max_evaluations=MAX_EVALUATIONS, reuse=True,
        )
        stats = result.reuse_stats
        assert stats is not None
        assert stats["warm_solves"] > 0
        # Warm solves must be cheaper on average than cold ones.
        if stats["cold_solves"] and stats["warm_solves"]:
            warm_avg = stats["warm_iterations"] / stats["warm_solves"]
            cold_avg = stats["cold_iterations"] / stats["cold_solves"]
            assert warm_avg <= cold_avg

    def test_reuse_off_has_no_stats(self):
        network = GOLDENS["table47_light"].build().network
        result = windim(network, max_window=8)
        assert result.reuse_stats is None


#: Table 4.12 row 8 class rates and its reuse-off optimum power.
ROW8 = (28.18, 38.02, 2.87, 30.93)
ROW8_COLD_POWER = 576.2566919594269


class TestGuardedWarmStarts:
    def test_row8_reuse_converges_to_cold_optimum(self):
        """Unguarded Aitken steps once left 14 of this campaign's warm
        solves at the iteration budget and returned a wrong optimum."""
        network = canadian_four_class(*ROW8)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            result = windim(network, reuse=True)
        assert result.converged
        assert result.power >= ROW8_COLD_POWER * (1 - 1e-8)
        assert result.reuse_stats["aitken_switched_off"] > 0
        assert "Aitken switched off in" in result.summary()

    def test_guard_never_fires_on_arpanet(self):
        network = GOLDENS["arpanet_default"].build().network
        result = windim(network, reuse=True)
        assert result.reuse_stats["aitken_switched_off"] == 0
        assert "Aitken switched off in 0" in result.summary()


class TestSeedBanking:
    """Only converged solutions become warm-start seeds."""

    @staticmethod
    def _unconverged(network, windows):
        solution = solve_mva_heuristic(network.with_populations(windows))
        return dataclasses.replace(solution, converged=False)

    def test_in_process_unconverged_solve_banks_no_seed(self):
        network = canadian_two_class(12.5, 12.5)
        unconverged = self._unconverged(network, (3, 3))

        def solver(candidate, warm_start=None):
            if tuple(candidate.populations) == (3, 3):
                return unconverged
            return solve_mva_heuristic(candidate, warm_start=warm_start)

        objective = WindowObjective(network, solver=solver, reuse=True)
        objective((2, 2))
        before = objective.seed_for((3, 3))
        objective((3, 3))
        assert objective.seed_for((3, 3)) is before

    def test_remote_unconverged_solve_banks_no_seed(self):
        network = canadian_two_class(12.5, 12.5)
        objective = WindowObjective(network, reuse=True)
        objective((2, 2))
        before = objective.seed_for((3, 3))
        payload = _solution_payload(self._unconverged(network, (3, 3)), True)
        objective.absorb_remote((3, 3), payload)
        assert objective.seed_for((3, 3)) is before
        converged = solve_mva_heuristic(network.with_populations((3, 3)))
        objective.absorb_remote((3, 3), _solution_payload(converged, True))
        assert objective.seed_for((3, 3)) is not before
