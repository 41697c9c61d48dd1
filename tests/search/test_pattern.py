"""Unit tests for integer Hooke–Jeeves pattern search."""

import pytest

from repro.errors import SearchError
from repro.search.cache import EvaluationCache
from repro.search.exhaustive import exhaustive_search
from repro.search.pattern import _steps, pattern_search
from repro.search.space import IntegerBox


def sphere(point):
    return sum((x - 7) ** 2 for x in point)


def ridge(point):
    # A narrow diagonal valley: minimised at x == y == 12.
    x, y = point
    return (x - y) ** 2 * 10 + (x - 12) ** 2


def rosenbrock_int(point):
    x, y = point
    return (1 - x) ** 2 + 100 * (y - x * x) ** 2


class TestConvergence:
    def test_finds_sphere_minimum(self):
        space = IntegerBox.windows(3, 20)
        result = pattern_search(sphere, (1, 1, 1), space)
        assert result.best_point == (7, 7, 7)
        assert result.best_value == 0

    def test_ridge_descended_to_valley_floor(self):
        # Integer axis moves cannot always reach the exact diagonal
        # minimum (a unit step off the diagonal costs 10), but the search
        # must land on the valley floor near the optimum.
        space = IntegerBox.windows(2, 30)
        result = pattern_search(ridge, (1, 1), space)
        x, y = result.best_point
        assert x == y  # on the valley floor
        assert result.best_value <= ridge((13, 13))
        # And the point is an axis-move local minimum.
        for dx, dy in [(1, 0), (-1, 0), (0, 1), (0, -1)]:
            neighbor = (x + dx, y + dy)
            if neighbor in space:
                assert ridge(neighbor) >= result.best_value

    def test_start_outside_space_is_clipped(self):
        space = IntegerBox.windows(2, 10)
        result = pattern_search(sphere, (50, -4), space)
        assert result.best_point == (7, 7)

    def test_already_at_minimum(self):
        space = IntegerBox.windows(2, 10)
        result = pattern_search(sphere, (7, 7), space)
        assert result.best_point == (7, 7)
        assert result.base_points[0] == (7, 7)

    def test_minimum_on_boundary(self):
        space = IntegerBox.windows(2, 5)
        result = pattern_search(sphere, (1, 1), space)  # true min (7,7) outside
        assert result.best_point == (5, 5)

    @pytest.mark.parametrize("start", [(1, 1), (20, 20), (1, 20)])
    def test_matches_exhaustive_on_convex(self, start):
        space = IntegerBox.windows(2, 20)
        pattern = pattern_search(sphere, start, space)
        globally = exhaustive_search(sphere, space)
        assert pattern.best_value == globally.best_value


class TestEfficiency:
    def test_far_fewer_evaluations_than_exhaustive(self):
        space = IntegerBox.windows(2, 40)
        pattern = pattern_search(sphere, (1, 1), space)
        assert pattern.evaluations < space.size() / 10

    def test_evaluation_budget_respected(self):
        space = IntegerBox.windows(2, 100)
        result = pattern_search(sphere, (1, 1), space, max_evaluations=5)
        assert result.evaluations <= 6  # budget checked between phases

    def test_cache_shared_across_runs(self):
        cache = EvaluationCache(sphere)
        space = IntegerBox.windows(2, 20)
        pattern_search(sphere, (1, 1), space, cache=cache)
        first = cache.evaluations
        pattern_search(sphere, (1, 1), space, cache=cache)
        assert cache.evaluations == first  # fully memoised second run


class TestTrajectory:
    def test_base_points_monotone_decreasing(self):
        space = IntegerBox.windows(2, 30)
        result = pattern_search(ridge, (1, 1), space)
        values = [ridge(p) for p in result.base_points]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert result.base_points[-1] == result.best_point

    def test_handles_infinite_objective_regions(self):
        def partial(point):
            if point[0] > 10:
                return float("inf")
            return sphere(point)

        space = IntegerBox.windows(2, 30)
        result = pattern_search(partial, (1, 1), space)
        assert result.best_point == (7, 7)


class TestValidation:
    def test_bad_initial_step(self):
        with pytest.raises(SearchError):
            pattern_search(sphere, (1, 1), IntegerBox.windows(2, 5), initial_step=0)

    def test_bad_halvings(self):
        with pytest.raises(SearchError):
            pattern_search(
                sphere, (1, 1), IntegerBox.windows(2, 5), max_halvings=-1
            )

    def test_negative_evaluation_cap_rejected(self):
        with pytest.raises(SearchError, match="max_evaluations must be >= 0"):
            pattern_search(
                sphere, (1, 1), IntegerBox.windows(2, 5), max_evaluations=-1
            )

    def test_foreign_cache_rejected(self):
        cache = EvaluationCache(ridge)
        with pytest.raises(SearchError):
            pattern_search(sphere, (1, 1), IntegerBox.windows(2, 5), cache=cache)


class TestStepperProtocol:
    """The stepper driven by hand, answering each demand directly."""

    @staticmethod
    def _drive(objective, start, space):
        trajectory = []
        stepper = _steps(space, space.clip(start), 2, 8, trajectory)
        demanded = []
        cross, reference = (), None
        value = None
        try:
            while True:
                request = stepper.send(value)
                if not isinstance(request, tuple):
                    cross = list(request)
                    reference = objective(cross[0])
                    value = None
                    continue
                demanded.append(request)
                value = objective(request)
                if reference is not None:
                    # Up to and including its first improvement, a move
                    # demands only points of the cross it yielded.
                    assert request in cross
                    if value < reference:
                        reference = None
        except StopIteration as done:
            return demanded, trajectory, done.value

    @pytest.mark.parametrize(
        "objective, start, space",
        [
            (sphere, (1, 1, 1), IntegerBox.windows(3, 20)),
            (ridge, (1, 1), IntegerBox.windows(2, 30)),
            (rosenbrock_int, (5, 1), IntegerBox.windows(2, 30)),
            (sphere, (50, -4), IntegerBox.windows(2, 10)),
        ],
    )
    def test_demands_are_the_search_history(self, objective, start, space):
        demanded, trajectory, (best, value) = self._drive(
            objective, start, space
        )
        cache = EvaluationCache(objective)
        result = pattern_search(objective, start, space, cache=cache)
        assert list(dict.fromkeys(demanded)) == [p for p, _ in cache.history]
        assert result.lookups == len(demanded)
        assert trajectory == result.base_points
        assert (best, value) == (result.best_point, result.best_value)
        # A plain function packs no cross.
        assert result.solved_ahead == result.ahead_used == 0
