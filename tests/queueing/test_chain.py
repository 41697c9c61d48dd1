"""Unit tests for routing chains."""

import pytest

from repro.errors import ModelError
from repro.queueing.chain import ClosedChain, OpenChain


def make_chain(**overrides):
    kwargs = dict(
        name="c",
        visits=("src", "l1", "l2"),
        service_times=(0.05, 0.02, 0.02),
        population=4,
        source_station="src",
    )
    kwargs.update(overrides)
    return ClosedChain(**kwargs)


class TestClosedChainValidation:
    def test_valid_chain_builds(self):
        chain = make_chain()
        assert chain.population == 4

    def test_empty_name_rejected(self):
        with pytest.raises(ModelError):
            make_chain(name="")

    def test_empty_route_rejected(self):
        with pytest.raises(ModelError):
            make_chain(visits=(), service_times=())

    def test_length_mismatch_rejected(self):
        with pytest.raises(ModelError):
            make_chain(service_times=(0.05, 0.02))

    def test_nonpositive_service_rejected(self):
        with pytest.raises(ModelError):
            make_chain(service_times=(0.05, 0.0, 0.02))

    def test_negative_population_rejected(self):
        with pytest.raises(ModelError):
            make_chain(population=-1)

    def test_source_must_be_on_route(self):
        with pytest.raises(ModelError):
            make_chain(source_station="elsewhere")

    def test_zero_population_allowed(self):
        assert make_chain(population=0).population == 0


class TestClosedChainBehaviour:
    def test_with_population_returns_new_chain(self):
        chain = make_chain()
        bigger = chain.with_population(9)
        assert bigger.population == 9
        assert chain.population == 4
        assert bigger.visits == chain.visits
        assert bigger.service_times == chain.service_times
        assert bigger.source_station == chain.source_station
        assert bigger == make_chain(population=9)

    @pytest.mark.parametrize("population", [-1, 2.5, "3"])
    def test_with_population_checks_the_window(self, population):
        with pytest.raises(ModelError, match="'c'.*population"):
            make_chain().with_population(population)

    def test_hop_count_excludes_source(self):
        assert make_chain().hop_count == 2

    def test_hop_count_without_source_counts_all(self):
        assert make_chain(source_station=None).hop_count == 3

    def test_demand_accumulates_repeat_visits(self):
        chain = ClosedChain(
            name="loop",
            visits=("a", "b", "a"),
            service_times=(0.1, 0.2, 0.3),
            population=1,
        )
        demand = chain.demand_by_station()
        assert demand["a"] == pytest.approx(0.4)
        assert demand["b"] == pytest.approx(0.2)

    def test_from_route_coerces_floats(self):
        chain = ClosedChain.from_route("c", ["a"], [1], window=2)
        assert chain.service_times == (1.0,)


class TestOpenChain:
    def test_valid_open_chain(self):
        chain = OpenChain(
            name="o", visits=("a", "b"), service_times=(0.1, 0.1), arrival_rate=3.0
        )
        assert chain.arrival_rate == 3.0
        assert chain.demand_by_station() == {"a": 0.1, "b": 0.1}

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ModelError):
            OpenChain(
                name="o", visits=("a",), service_times=(0.1,), arrival_rate=0.0
            )

    def test_length_mismatch_rejected(self):
        with pytest.raises(ModelError):
            OpenChain(
                name="o", visits=("a", "b"), service_times=(0.1,), arrival_rate=1.0
            )
