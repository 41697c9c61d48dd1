"""Unit tests for the closed multichain network model."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.queueing.chain import ClosedChain
from repro.queueing.network import ClosedNetwork
from repro.queueing.station import Station


def build_two_chain():
    stations = [Station.fcfs("src1"), Station.fcfs("src2"), Station.fcfs("shared")]
    chains = [
        ClosedChain.from_route(
            "c1", ["src1", "shared"], [0.1, 0.02], window=3, source_station="src1"
        ),
        ClosedChain.from_route(
            "c2", ["src2", "shared"], [0.2, 0.02], window=2, source_station="src2"
        ),
    ]
    return ClosedNetwork.build(stations, chains)


class TestBuildValidation:
    def test_valid_network(self):
        net = build_two_chain()
        assert net.num_stations == 3
        assert net.num_chains == 2

    def test_unknown_station_rejected(self):
        stations = [Station.fcfs("a")]
        chain = ClosedChain.from_route("c", ["a", "ghost"], [0.1, 0.1], window=1)
        with pytest.raises(ModelError):
            ClosedNetwork.build(stations, [chain])

    def test_duplicate_chain_name_rejected(self):
        stations = [Station.fcfs("a")]
        chains = [
            ClosedChain.from_route("c", ["a"], [0.1], window=1),
            ClosedChain.from_route("c", ["a"], [0.1], window=1),
        ]
        with pytest.raises(ModelError):
            ClosedNetwork.build(stations, chains)

    def test_no_chains_rejected(self):
        with pytest.raises(ModelError):
            ClosedNetwork.build([Station.fcfs("a")], [])

    def test_fcfs_service_mismatch_rejected(self):
        stations = [Station.fcfs("shared"), Station.fcfs("s1"), Station.fcfs("s2")]
        chains = [
            ClosedChain.from_route("c1", ["s1", "shared"], [0.1, 0.02], window=1),
            ClosedChain.from_route("c2", ["s2", "shared"], [0.1, 0.03], window=1),
        ]
        with pytest.raises(ModelError, match="different"):
            ClosedNetwork.build(stations, chains)

    def test_fcfs_mismatch_allowed_when_not_strict(self):
        stations = [Station.fcfs("shared"), Station.fcfs("s1"), Station.fcfs("s2")]
        chains = [
            ClosedChain.from_route("c1", ["s1", "shared"], [0.1, 0.02], window=1),
            ClosedChain.from_route("c2", ["s2", "shared"], [0.1, 0.03], window=1),
        ]
        net = ClosedNetwork.build(stations, chains, strict_fcfs=False)
        assert net.num_chains == 2


class TestDerivedArrays:
    def test_demands_match_routes(self):
        net = build_two_chain()
        shared = net.station_id("shared")
        src1 = net.station_id("src1")
        assert net.demands[0, shared] == pytest.approx(0.02)
        assert net.demands[0, src1] == pytest.approx(0.1)
        assert net.demands[1, src1] == 0.0

    def test_populations_vector(self):
        net = build_two_chain()
        assert net.populations.tolist() == [3, 2]

    def test_source_index(self):
        net = build_two_chain()
        assert net.source_index[0] == net.station_id("src1")
        assert net.source_index[1] == net.station_id("src2")

    def test_visited_stations_and_visiting_chains(self):
        net = build_two_chain()
        shared = net.station_id("shared")
        assert set(net.visited_stations(0)) == {net.station_id("src1"), shared}
        assert set(net.visiting_chains(shared)) == {0, 1}
        assert set(net.visiting_chains(net.station_id("src1"))) == {0}

    def test_delay_mask_excludes_sources(self):
        net = build_two_chain()
        mask = net.delay_mask()
        assert not mask[0, net.station_id("src1")]
        assert mask[0, net.station_id("shared")]
        assert not mask[1, net.station_id("src2")]

    def test_repeat_visits_accumulate(self):
        stations = [Station.fcfs("a"), Station.fcfs("b")]
        chain = ClosedChain(
            name="loop",
            visits=("a", "b", "a"),
            service_times=(0.1, 0.2, 0.1),
            population=1,
        )
        net = ClosedNetwork.build(stations, [chain])
        assert net.demands[0, net.station_id("a")] == pytest.approx(0.2)
        assert net.visit_counts[0, net.station_id("a")] == 2


class TestWithPopulations:
    def test_changes_windows_only(self):
        net = build_two_chain()
        resized = net.with_populations([5, 7])
        assert resized.populations.tolist() == [5, 7]
        assert net.populations.tolist() == [3, 2]
        np.testing.assert_array_equal(resized.demands, net.demands)

    def test_wrong_length_rejected(self):
        with pytest.raises(ModelError):
            build_two_chain().with_populations([1])

    def test_negative_window_rejected(self):
        with pytest.raises(ModelError, match="'c2'.*population"):
            build_two_chain().with_populations([1, -1])

    def test_copies_share_the_topology_masks(self):
        net = build_two_chain()
        resized = net.with_populations([5, 7])
        assert resized.delay_mask() is net.delay_mask()
        assert resized.route_layout is net.route_layout


def _per_chain_delay_mask(net):
    """The power-delay mask built chain by chain, as it once was."""
    mask = net.visit_counts > 0
    for r in range(net.num_chains):
        if net.source_index[r] >= 0:
            mask[r, net.source_index[r]] = False
    return mask


class TestDelayMask:
    @pytest.mark.parametrize("name", ["arpanet", "medium"])
    def test_equals_per_chain_construction(self, name):
        from repro.netmodel.examples import arpanet_fragment
        from repro.netmodel.generator import scale_fixture

        net = arpanet_fragment() if name == "arpanet" else scale_fixture("medium")
        np.testing.assert_array_equal(net.delay_mask(), _per_chain_delay_mask(net))

    def test_built_once_and_read_only(self):
        net = build_two_chain()
        mask = net.delay_mask()
        assert net.delay_mask() is mask
        with pytest.raises(ValueError):
            mask[0, 0] = True


class TestQueries:
    def test_station_and_chain_lookup(self):
        net = build_two_chain()
        assert net.station_names[net.station_id("shared")] == "shared"
        assert net.chain_names[net.chain_id("c2")] == "c2"
        with pytest.raises(KeyError):
            net.station_id("nope")
        with pytest.raises(KeyError):
            net.chain_id("nope")

    def test_bottleneck_station(self):
        net = build_two_chain()
        assert net.bottleneck_station(0) == net.station_id("src1")

    def test_total_population(self):
        assert build_two_chain().total_population() == 5

    def test_is_fixed_rate_true_for_default(self):
        assert build_two_chain().is_fixed_rate()

    def test_is_fixed_rate_false_for_multiserver(self):
        stations = [Station.fcfs("a", servers=2)]
        chain = ClosedChain.from_route("c", ["a"], [0.1], window=1)
        net = ClosedNetwork.build(stations, [chain])
        assert not net.is_fixed_rate()

    def test_delay_station_keeps_fixed_rate(self):
        stations = [Station.fcfs("a"), Station.delay("d")]
        chain = ClosedChain.from_route("c", ["a", "d"], [0.1, 0.5], window=1)
        net = ClosedNetwork.build(stations, [chain])
        assert net.is_fixed_rate()

    def test_describe_mentions_everything(self):
        text = build_two_chain().describe()
        assert "shared" in text
        assert "c1" in text
        assert "window=3" in text

    def test_subnetwork_isolates_one_chain(self):
        net = build_two_chain()
        sub = net.subnetwork(0)
        assert sub.num_chains == 1
        assert set(sub.station_names) == {"src1", "shared"}
