"""Unit tests for state-space enumeration."""

import pytest

from repro.exact.states import (
    EXACT_LATTICE_LIMIT,
    compositions,
    exact_applicability,
    lattice_size,
    population_vectors,
    population_vectors_by_total,
)
from repro.netmodel.examples import canadian_two_class
from repro.queueing.network import ClosedNetwork
from repro.queueing.station import Station


class TestLatticeSize:
    def test_matches_product(self):
        assert lattice_size([2, 3]) == 12
        assert lattice_size([0]) == 1
        assert lattice_size([]) == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            lattice_size([-1])


class TestExactApplicability:
    """The one exact-rung gate, read by the ladder and by the oracle."""

    def test_small_fixed_rate_lattice_passes(self):
        assert exact_applicability(canadian_two_class(18.0, 18.0, windows=(3, 4))) is None

    def test_lattice_over_the_limit(self):
        net = canadian_two_class(18.0, 18.0, windows=(3, 4))  # 20 vectors
        assert exact_applicability(net, limit=20) is None
        assert exact_applicability(net, limit=19) == (
            "population lattice too large (20 > 19)"
        )
        big = net.with_populations((999, 999))
        assert exact_applicability(big) == (
            f"population lattice too large (1000000 > {EXACT_LATTICE_LIMIT})"
        )

    def test_load_dependent_station(self, tiny_two_chain_net):
        stations = list(tiny_two_chain_net.stations)
        stations[1] = Station.fcfs("shared", servers=2)
        net = ClosedNetwork.build(stations, tiny_two_chain_net.chains)
        assert exact_applicability(net) == "needs fixed-rate single-server / IS stations"

    def test_ladder_and_oracle_give_the_same_reason(self):
        from repro.errors import LadderExhaustedError, SolverError
        from repro.resilience import ResilientSolver
        from repro.verify.oracle import VerifyCase, get_solver

        def dead(network, control=None):
            raise SolverError("down")

        net = canadian_two_class(18.0, 18.0, windows=(500, 500))  # 251,001 vectors
        ladder = ResilientSolver(dead, escalation=("mva-exact",))
        with pytest.raises(LadderExhaustedError) as excinfo:
            ladder(net)
        (skipped,) = [a for a in excinfo.value.health.attempts if a.solver == "mva-exact"]
        case = VerifyCase.from_network("big", net)
        assert skipped.detail == get_solver("mva-exact").applicability(case)
        assert skipped.detail == exact_applicability(net)


class TestPopulationVectors:
    def test_enumerates_full_lattice(self):
        vectors = list(population_vectors([1, 2]))
        assert len(vectors) == 6
        assert (0, 0) in vectors
        assert (1, 2) in vectors

    def test_by_total_order_is_nondecreasing(self):
        totals = [sum(v) for v in population_vectors_by_total([2, 2, 1])]
        assert totals == sorted(totals)

    def test_by_total_covers_lattice(self):
        assert set(population_vectors_by_total([2, 2])) == set(
            population_vectors([2, 2])
        )

    def test_predecessors_precede(self):
        order = {v: i for i, v in enumerate(population_vectors_by_total([2, 3]))}
        for vector, position in order.items():
            for axis in range(2):
                if vector[axis] > 0:
                    predecessor = list(vector)
                    predecessor[axis] -= 1
                    assert order[tuple(predecessor)] < position


class TestCompositions:
    def test_counts_match_stars_and_bars(self):
        # C(total + parts - 1, parts - 1)
        assert len(list(compositions(3, 2))) == 4
        assert len(list(compositions(4, 3))) == 15

    def test_all_sum_to_total(self):
        for combo in compositions(5, 3):
            assert sum(combo) == 5

    def test_zero_parts(self):
        assert list(compositions(0, 0)) == [()]
        assert list(compositions(2, 0)) == []

    def test_single_part(self):
        assert list(compositions(7, 1)) == [(7,)]

    def test_negative_parts_rejected(self):
        with pytest.raises(ValueError):
            list(compositions(1, -1))
