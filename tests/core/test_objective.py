"""Unit tests for the window objective function."""

import pytest

from repro.core.objective import SOLVERS, WindowObjective, resolve_solver
from repro.errors import ModelError
from repro.netmodel.examples import canadian_two_class


@pytest.fixture
def objective(two_class_net):
    return WindowObjective(two_class_net)


class TestResolveSolver:
    def test_known_names(self):
        for name in SOLVERS:
            assert callable(resolve_solver(name))

    def test_callable_passthrough(self):
        marker = lambda net: None  # noqa: E731
        assert resolve_solver(marker) is marker

    def test_unknown_name_rejected(self):
        with pytest.raises(ModelError):
            resolve_solver("quantum")


class TestEvaluation:
    def test_returns_inverse_power(self, two_class_net, objective):
        from repro.core.power import inverse_power
        from repro.mva.heuristic import solve_mva_heuristic

        value = objective((4, 4))
        direct = inverse_power(
            solve_mva_heuristic(two_class_net.with_populations([4, 4]))
        )
        assert value == pytest.approx(direct)

    def test_wrong_window_count_rejected(self, objective):
        with pytest.raises(ModelError):
            objective((4,))

    def test_negative_window_rejected(self, objective):
        with pytest.raises(ModelError):
            objective((4, -1))

    def test_fractional_windows_rejected_not_truncated(self, objective):
        # Truncation would answer for (1, 1): every entry point refuses.
        with pytest.raises(ModelError, match="non-integral"):
            objective((1.7, 1))
        with pytest.raises(ModelError, match="non-integral"):
            objective.batch_solve([(2.5, 1), (1, 1)])
        with pytest.raises(ModelError, match="non-integral"):
            objective.solution((1.9, 1))
        with pytest.raises(ModelError, match="non-integral"):
            objective.cached_solution((1.9, 1))
        assert objective.evaluations == 0

    def test_integral_floats_are_the_same_key(self, objective):
        assert objective((2.0, 3.0)) == objective((2, 3))
        assert objective.solution((2.0, 3)) is objective.solution((2, 3))
        assert objective.batch_solve([(2.0, 3.0), (1, 1)]) == [
            objective((2, 3)),
            objective((1, 1)),
        ]

    def test_zero_windows_are_inf(self, objective):
        assert objective((0, 0)) == float("inf")

    def test_evaluation_counter(self, objective):
        objective((2, 2))
        objective((3, 3))
        assert objective.evaluations == 2

    def test_solver_failure_maps_to_inf(self, two_class_net):
        from repro.errors import SolverError

        def failing(_net):
            raise SolverError("boom")

        objective = WindowObjective(two_class_net, failing)
        assert objective((2, 2)) == float("inf")


class TestSolutionAccess:
    def test_solution_cached(self, objective):
        objective((3, 3))
        solution = objective.solution((3, 3))
        assert solution.network.populations.tolist() == [3, 3]

    def test_solution_solves_on_demand(self, objective):
        solution = objective.solution((2, 5))
        assert solution.network.populations.tolist() == [2, 5]

    def test_exact_solver_objective_close_to_heuristic(self, two_class_net):
        heuristic = WindowObjective(two_class_net, "mva-heuristic")
        exact = WindowObjective(two_class_net, "mva-exact")
        assert heuristic((4, 4)) == pytest.approx(exact((4, 4)), rel=0.05)


class TestSolutionRetentionCap:
    """Retained solutions are LRU-bounded (the 500-chain memory fix)."""

    def test_cap_enforced(self, two_class_net):
        objective = WindowObjective(two_class_net, max_solutions=3)
        for w in range(1, 6):
            objective((w, w))
        assert len(objective._solutions) == 3
        # Oldest evaluations were evicted, newest survive.
        assert objective.cached_solution((1, 1)) is None
        assert objective.cached_solution((5, 5)) is not None

    def test_eviction_resolves_on_demand(self, two_class_net):
        objective = WindowObjective(two_class_net, max_solutions=2)
        value = objective((2, 2))
        objective((3, 3))
        objective((4, 4))  # evicts (2, 2)
        assert objective.cached_solution((2, 2)) is None
        solution = objective.solution((2, 2))  # re-solves transparently
        assert solution.network.populations.tolist() == [2, 2]
        from repro.core.power import inverse_power

        assert inverse_power(solution) == pytest.approx(value, rel=1e-12)

    def test_reads_refresh_recency(self, two_class_net):
        objective = WindowObjective(two_class_net, max_solutions=2)
        objective((2, 2))
        objective((3, 3))
        objective.cached_solution((2, 2))  # touch: (3, 3) is now LRU
        objective((4, 4))
        assert objective.cached_solution((2, 2)) is not None
        assert objective.cached_solution((3, 3)) is None

    def test_invalid_cap_rejected(self, two_class_net):
        with pytest.raises(ModelError):
            WindowObjective(two_class_net, max_solutions=0)
