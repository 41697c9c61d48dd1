"""Cross-network SoA batching: bitwise parity, chunking, gates.

The batched tier's whole claim is "same floating-point program, one
tensor pass": for shared-topology and heterogeneous packs alike every
solution must match the serial vectorized solver *bit for bit* (not just
within tolerance), including iteration counts, convergence flags and
residual extras.
"""

import numpy as np
import pytest

import repro.mva.soa as soa
from repro.backend import BACKEND_ENV_VAR
from repro.core.objective import WindowObjective
from repro.errors import ModelError
from repro.mva.accel import AitkenAccelerator
from repro.mva.convergence import IterationControl
from repro.mva.heuristic import solve_mva_heuristic
from repro.mva.schweitzer import solve_schweitzer
from repro.mva.soa import (
    BATCHABLE_SOLVERS,
    pack_networks,
    pack_windows,
    solve_packed,
    solve_windows_batched,
)
from repro.netmodel.examples import canadian_two_class
from repro.netmodel.generator import random_network

SERIAL = {"mva-heuristic": solve_mva_heuristic, "schweitzer": solve_schweitzer}


@pytest.fixture(autouse=True)
def vectorized_kernel(monkeypatch):
    """Packs exist only on the vectorized kernel: pin it, so this file
    checks the same pack/serial contract whatever the process default.
    """
    monkeypatch.setenv(BACKEND_ENV_VAR, "vectorized")


def _assert_same_solution(sol, ref):
    assert np.array_equal(sol.throughputs, ref.throughputs)
    assert np.array_equal(sol.queue_lengths, ref.queue_lengths)
    assert np.array_equal(sol.waiting_times, ref.waiting_times)
    assert sol.iterations == ref.iterations
    assert sol.converged == ref.converged
    assert sol.extras == ref.extras
    assert sol.method == ref.method


def _assert_bitwise(network, windows, solver):
    batched = solve_windows_batched(network, windows, solver, backend="vectorized")
    assert len(batched) == len(windows)
    for w, sol in zip(windows, batched):
        ref = SERIAL[solver](network.with_populations(w), backend="vectorized")
        _assert_same_solution(sol, ref)


class TestBitwiseParity:
    @pytest.mark.parametrize("solver", BATCHABLE_SOLVERS)
    def test_window_grid_matches_serial(self, solver):
        network = canadian_two_class(4.0, 4.0)
        windows = [[a, b] for a in range(1, 9) for b in range(1, 9)]
        _assert_bitwise(network, windows, solver)

    @pytest.mark.parametrize("solver", BATCHABLE_SOLVERS)
    def test_random_networks_match_serial(self, solver):
        for seed in range(4):
            network = random_network(
                num_nodes=9, num_classes=3, extra_edges=4, seed=seed
            )
            rng = np.random.default_rng(seed)
            windows = [
                [int(x) for x in rng.integers(1, 7, size=network.num_chains)]
                for _ in range(6)
            ]
            _assert_bitwise(network, windows, solver)

    def test_duplicate_windows_share_nothing_but_agree(self):
        network = canadian_two_class(4.0, 4.0)
        batched = solve_windows_batched(
            network, [[2, 3], [2, 3], [2, 3]], "mva-heuristic"
        )
        for sol in batched[1:]:
            assert np.array_equal(sol.throughputs, batched[0].throughputs)


class TestHeterogeneousPack:
    def test_hetero_pack_matches_serial_bitwise(self):
        networks = [
            random_network(
                num_nodes=6 + k, num_classes=2 + k % 3, extra_edges=3, seed=100 + k
            ).with_populations([2 + k % 4] * (2 + k % 3))
            for k in range(5)
        ]
        pack = pack_networks(networks)
        for solver in BATCHABLE_SOLVERS:
            solutions = solve_packed(pack, solver)
            for network, sol in zip(networks, solutions):
                ref = SERIAL[solver](network, backend="vectorized")
                _assert_same_solution(sol, ref)
                # Solution dims are the network's own.
                assert sol.throughputs.shape == (network.num_chains,)
                assert sol.queue_lengths.shape == (
                    network.num_chains,
                    network.num_stations,
                )

    def test_pack_shapes(self):
        networks = [
            canadian_two_class(4.0, 4.0, windows=(2, 2)),
            random_network(num_nodes=5, num_classes=3, seed=1).with_populations(
                [1, 2, 3]
            ),
        ]
        pack = pack_networks(networks)
        assert not pack.shared
        assert pack.batch == 2
        # One column per chain, no chain padding; K is the longest route.
        assert pack.columns == 5
        assert list(pack.chain_offsets) == [0, 2, 5]
        depth = max(n.route_layout.depth for n in networks)
        assert pack.depth == depth
        assert pack.demands.shape == (depth, 5)
        # Each network's bins are its own: stations plus one spare bin.
        first, second = networks[0].num_stations, networks[1].num_stations
        assert pack.bins[:, :2].max() <= first
        assert pack.bins[:, 2:].min() >= first + 1
        assert pack.bins[:, 2:].max() <= first + 1 + second

    @pytest.mark.parametrize("solver", BATCHABLE_SOLVERS)
    @pytest.mark.parametrize("seed", range(6))
    def test_fuzz_mixed_topologies_match_serial(self, solver, seed):
        # The hetero-pack fuzz wall: each batch mixes sizes, topologies
        # and window vectors; every batched solution must equal the
        # corresponding serial solve bit for bit.
        rng = np.random.default_rng(9000 + seed)
        networks = []
        for k in range(int(rng.integers(3, 7))):
            classes = int(rng.integers(1, 4))
            net = random_network(
                num_nodes=int(rng.integers(4, 10)),
                num_classes=classes,
                extra_edges=int(rng.integers(0, 5)),
                seed=int(rng.integers(0, 10_000)),
            )
            windows = [int(w) for w in rng.integers(1, 8, size=classes)]
            networks.append(net.with_populations(windows))
        batched = soa.solve_networks_batched(networks, solver=solver)
        assert len(batched) == len(networks)
        for network, sol in zip(networks, batched):
            _assert_same_solution(sol, SERIAL[solver](network, backend="vectorized"))

    def test_hetero_chunking_is_bitwise(self, monkeypatch):
        # Networks in a pack never interact, so chunking regroups columns
        # and nothing else: results must not move at all.
        networks = [
            random_network(
                num_nodes=5 + k % 3, num_classes=1 + k % 3, seed=500 + k
            ).with_populations([2 + k % 3] * (1 + k % 3))
            for k in range(9)
        ]
        whole = soa.solve_networks_batched(networks)
        packs = []

        def recording_solve(pack, **kwargs):
            packs.append(pack)
            return solve_packed(pack, **kwargs)

        monkeypatch.setattr(soa, "solve_packed", recording_solve)
        largest = max(n.route_layout.depth for n in networks) * max(
            n.num_chains for n in networks
        )
        monkeypatch.setattr(soa, "SOA_ELEMENT_BUDGET", largest * 2)
        chunked = soa.solve_networks_batched(networks)
        assert len(packs) > 1
        assert all(
            p.depth * p.columns <= largest * 2 or p.batch == 1 for p in packs
        )
        for a, b in zip(whole, chunked):
            _assert_same_solution(a, b)

    def test_same_shape_chunking_is_bitwise(self, monkeypatch):
        # All networks share (R, L): every chunk pads identically, so a
        # chunked solve is literally the same floating-point program.
        networks = [
            canadian_two_class(3.0 + k, 5.0, windows=(1 + k % 4, 2))
            for k in range(8)
        ]
        whole = soa.solve_networks_batched(networks)
        layout = networks[0].route_layout
        monkeypatch.setattr(
            soa, "SOA_ELEMENT_BUDGET", layout.depth * layout.num_chains * 3
        )
        chunked = soa.solve_networks_batched(networks)
        for a, b in zip(whole, chunked):
            assert np.array_equal(a.throughputs, b.throughputs)
            assert a.iterations == b.iterations

    def test_empty_batch_is_empty(self):
        assert soa.solve_networks_batched([]) == []


class TestChunking:
    def test_chunked_solve_is_invisible(self, monkeypatch):
        network = canadian_two_class(4.0, 4.0)
        windows = [[a, b] for a in range(1, 7) for b in range(1, 7)]
        whole = solve_windows_batched(network, windows, "mva-heuristic")
        # Force a tiny element budget so the sweep splits into many chunks.
        layout = network.route_layout
        monkeypatch.setattr(
            soa, "SOA_ELEMENT_BUDGET", layout.depth * layout.num_chains * 4
        )
        chunked = solve_windows_batched(network, windows, "mva-heuristic")
        for a, b in zip(whole, chunked):
            assert np.array_equal(a.throughputs, b.throughputs)
            assert a.iterations == b.iterations


class TestGates:
    def test_unbatchable_solver_rejected(self):
        pack = pack_windows(canadian_two_class(4.0, 4.0), [[1, 1]])
        with pytest.raises(ModelError, match="no batched SoA kernel"):
            solve_packed(pack, solver="linearizer")

    def test_scalar_backend_rejected(self):
        pack = pack_windows(canadian_two_class(4.0, 4.0), [[1, 1]])
        with pytest.raises(ModelError, match="dense kernel backend"):
            solve_packed(pack, backend="scalar")

    def test_empty_windows_rejected(self):
        with pytest.raises(ModelError):
            pack_windows(canadian_two_class(4.0, 4.0), [])

    def test_empty_networks_rejected(self):
        with pytest.raises(ModelError):
            pack_networks([])

    def test_accelerator_needs_a_pack_of_one(self):
        # Aitken extrapolates the whole iterate; across networks it would
        # couple them.
        pack = pack_windows(canadian_two_class(4.0, 4.0), [[1, 1], [2, 2]])
        with pytest.raises(ModelError, match="pack of one network"):
            soa.fixed_point(
                pack, "mva-heuristic", IterationControl(), None, AitkenAccelerator()
            )


class TestObjectiveIntegration:
    def test_serial_batch_solve_uses_soa_and_matches_pointwise(self):
        network = canadian_two_class(8.0, 8.0)
        batched_obj = WindowObjective(network, "mva-heuristic")
        assert batched_obj.soa_batchable
        keys = [(a, b) for a in (1, 2, 3) for b in (1, 2, 4)]
        batched_values = batched_obj.batch_solve(keys)

        pointwise_obj = WindowObjective(network, "mva-heuristic")
        pointwise_values = [pointwise_obj(k) for k in keys]
        assert batched_values == pointwise_values
        assert batched_obj.evaluations == len(keys)

    def test_non_batchable_solver_falls_back(self):
        network = canadian_two_class(8.0, 8.0)
        objective = WindowObjective(network, "linearizer")
        assert not objective.soa_batchable
        values = objective.batch_solve([(1, 1), (2, 2)])
        assert len(values) == 2

    def test_large_network_not_auto_batched(self):
        # Past the crossover, stacking B copies evicts the cache and
        # loses to the per-network loop (measured 0.5x on the 120-chain
        # fixture) — the automatic path must keep the serial loop.
        # Direct solve_windows_batched calls are still honoured at any
        # size.
        from repro.netmodel.generator import scale_fixture

        network = scale_fixture("medium")
        objective = WindowObjective(network, "mva-heuristic")
        assert not objective.soa_batchable
        engage, reason = objective.soa_assessment(batch_size=4)
        assert not engage
        assert "crossover" in reason

    def test_batch_solve_networks_matches_serial(self):
        from repro.core.power import inverse_power
        from repro.mva import autobatch

        autobatch.reset_stats()
        networks = [
            canadian_two_class(4.0 + k, 6.0, windows=(1 + k, 2))
            for k in range(3)
        ] + [
            random_network(num_nodes=5, num_classes=3, seed=3).with_populations(
                [2, 1, 3]
            )
        ]
        objective = WindowObjective(
            canadian_two_class(4.0, 4.0), "mva-heuristic"
        )
        results = objective.batch_solve_networks(networks)
        assert len(results) == len(networks)
        assert objective.evaluations == len(networks)
        for network, (value, solution) in zip(networks, results):
            ref = solve_mva_heuristic(network, backend="vectorized")
            assert solution is not None
            _assert_same_solution(solution, ref)
            assert value == inverse_power(ref)
        stats = autobatch.batch_stats()
        assert stats["engaged_batches"] == 1
        assert stats["engaged_networks"] == len(networks)

    def test_batch_solve_networks_decline_is_counted(self, monkeypatch):
        from repro.mva import autobatch

        monkeypatch.setattr(autobatch, "CROSSOVER", 0)
        networks = [
            canadian_two_class(4.0 + k, 6.0, windows=(2, 2)) for k in range(3)
        ]
        objective = WindowObjective(
            canadian_two_class(4.0, 4.0), "mva-heuristic"
        )
        results = objective.batch_solve_networks(networks)
        assert all(sol is not None for _, sol in results)
        stats = autobatch.batch_stats()
        assert stats["declined_batches"] == 1
        assert stats["declined_networks"] == 3
        assert stats["engaged_batches"] == 0

    def test_power_curve_engages_hetero_batching(self, monkeypatch):
        from repro.analysis.sweeps import power_curve
        from repro.mva import autobatch
        from repro.netmodel.examples import canadian_two_class as factory

        autobatch.reset_stats()
        rates = [(4.0, 4.0), (8.0, 8.0), (12.0, 12.0), (16.0, 16.0)]
        curve = power_curve(factory, rates, windows=(3, 3))
        assert autobatch.batch_stats()["engaged_batches"] == 1
        # Pin the crossover to zero: the same sweep now declines and runs
        # the serial loop — values must not move (hetero packs are
        # bit-identical to serial solves).
        monkeypatch.setattr(autobatch, "CROSSOVER", 0)
        autobatch.reset_stats()
        serial_curve = power_curve(factory, rates, windows=(3, 3))
        assert autobatch.batch_stats()["engaged_batches"] == 0
        assert autobatch.batch_stats()["declined_batches"] == 1
        for (label, power), (s_label, s_power) in zip(curve, serial_curve):
            assert label == s_label
            assert power == s_power

    def test_small_network_auto_batched_with_reason(self, monkeypatch):
        from repro.mva import autobatch

        network = canadian_two_class(4.0, 4.0)
        objective = WindowObjective(network, "mva-heuristic")
        engage, reason = objective.soa_assessment(batch_size=4)
        assert engage
        assert "crossover" in reason
        # A pinned crossover of zero declines even the tiny network.
        monkeypatch.setattr(autobatch, "CROSSOVER", 0)
        assert not objective.soa_batchable
