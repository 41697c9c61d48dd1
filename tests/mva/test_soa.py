"""Cross-network SoA batching: bitwise parity, chunking, gates.

The batched tier's whole claim is "same floating-point program, one
tensor pass": for one topology under many windows and for mixed
topologies alike every solution must match the serial vectorized solver *bit for bit* (not just
within tolerance), including iteration counts, convergence flags and
residual extras.
"""

from collections import Counter

import numpy as np
import pytest

import repro.mva.heuristic as heuristic
import repro.mva.soa as soa
from repro.core.objective import WindowObjective
from repro.core.power import inverse_power, network_power, pack_power
from repro.errors import ModelError, SolverError
from repro.mva.accel import AitkenAccelerator
from repro.mva.convergence import IterationControl
from repro.mva.heuristic import solve_mva_heuristic
from repro.mva.schweitzer import solve_schweitzer
from repro.mva.soa import (
    BATCHABLE_SOLVERS,
    pack_networks,
    solve_packed,
    solve_windows_batched,
)
from repro.netmodel.examples import canadian_four_class, canadian_two_class
from repro.netmodel.generator import random_network, scale_fixture
from repro.queueing.network import ClosedNetwork
from repro.solution import NetworkSolution

SERIAL = {"mva-heuristic": solve_mva_heuristic, "schweitzer": solve_schweitzer}

#: The eight Table 4.12 load points (class rates, msg/s).
TABLE_4_12 = [
    (6.0, 6.0, 6.0, 12.0), (9.957, 4.419, 7.656, 7.968),
    (17.61, 3.56, 3.0, 5.83), (12.5, 12.5, 12.5, 25.0),
    (21.24, 9.86, 18.85, 12.55), (33.59, 1.70, 24.15, 3.06),
    (20.0, 20.0, 20.0, 40.0), (28.18, 38.02, 2.87, 30.93),
]
#: Every window vector of [1, 6]^4, the grid of the optimality probes.
GRID = np.indices((6,) * 4).reshape(4, -1).T + 1


def _assert_same_solution(sol, ref):
    assert np.array_equal(sol.throughputs, ref.throughputs)
    assert np.array_equal(sol.queue_lengths, ref.queue_lengths)
    assert np.array_equal(sol.waiting_times, ref.waiting_times)
    assert sol.iterations == ref.iterations
    assert sol.converged == ref.converged
    assert sol.extras == ref.extras
    assert sol.method == ref.method


def _assert_bitwise(network, windows, solver):
    batched = solve_windows_batched(network, windows, solver)
    assert len(batched) == len(windows)
    for w, sol in zip(windows, batched):
        ref = SERIAL[solver](network.with_populations(w))
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
                ref = SERIAL[solver](network)
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
            _assert_same_solution(sol, SERIAL[solver](network))

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


class TestSegmentedStopping:
    """Every network's stopping decision of a sweep is one reduction."""

    def test_mixed_sizes_match_serial_bitwise(self):
        # The 120-chain segment sits at a nonzero offset, so its residual
        # goes through reduceat's blocked summation mid-pack.
        networks = [
            canadian_four_class(6.0, 6.0, 6.0, 12.0, windows=(2, 2, 2, 4)),
            scale_fixture("medium"),
            canadian_two_class(4.0, 4.0, windows=(3, 2)),
        ]
        for solver in BATCHABLE_SOLVERS:
            solutions = solve_packed(pack_networks(networks), solver)
            for network, sol in zip(networks, solutions):
                _assert_same_solution(
                    sol, SERIAL[solver](network)
                )

    def test_one_residuals_call_per_sweep(self, monkeypatch):
        calls = {"residuals": 0, "residual": 0}

        def counted(name):
            original = getattr(IterationControl, name)

            def wrapper(self, *args):
                calls[name] += 1
                return original(self, *args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(IterationControl, name, counted(name))
        network = canadian_four_class(6.0, 6.0, 6.0, 12.0)
        # Every window vector of [1, 6]^4.
        windows = (np.indices((6,) * 4).reshape(4, -1).T + 1).tolist()
        assert len(windows) == 1296
        solutions = solve_windows_batched(network, windows)
        assert all(sol.converged for sol in solutions)
        assert calls == {
            "residuals": max(sol.iterations for sol in solutions),
            "residual": 0,
        }

    def test_increments_recurse_each_column_to_its_own_window(self, monkeypatch):
        # One kernel call on a 1,296-window [1, 6]^4 pack: column c
        # advances E_c steps, not the pack's largest window, so the
        # recursion makes sum(windows) = 18,144 column-steps, not
        # 5,184 columns x depth 6 = 31,104.
        network = canadian_four_class(*TABLE_4_12[0])
        pack = pack_networks((network,) * len(GRID), populations=GRID)
        plan = heuristic.plan_increments(
            soa.route_sum(pack.demands) > 0, pack.populations, pack.queueing
        )
        column_steps = []
        original = heuristic.route_sum

        def counted(wait):
            column_steps.append(wait.shape[1])
            return original(wait)

        monkeypatch.setattr(heuristic, "route_sum", counted)
        heuristic.batched_increments(
            pack.demands, pack.populations, pack.queueing, plan
        )
        assert len(column_steps) == 6
        assert sum(column_steps) == int(GRID.sum()) == 18_144


class TestCrossPackCounts:
    """Host-independent counts of the serial plane's cross packs."""

    @pytest.fixture
    def fixed_points(self, monkeypatch):
        calls = Counter()
        original = soa.fixed_point

        def counted(pack, *args, **kwargs):
            calls["calls"] += 1
            calls["networks"] += pack.batch
            return original(pack, *args, **kwargs)

        # The serial heuristic imported the name; packs look it up in soa.
        monkeypatch.setattr(soa, "fixed_point", counted)
        monkeypatch.setattr(heuristic, "fixed_point", counted)
        return calls

    def test_row_one_campaign_packs_its_crosses(self, fixed_points):
        # Table 4.12 row 1: the 29 evaluations of a serial run, in 11
        # fixed points (one per evaluation without cross packs).
        from repro.core.windim import windim

        result = windim(canadian_four_class(*TABLE_4_12[0]))
        assert result.search.evaluations == 29
        assert result.windows == (1, 1, 1, 4)
        assert fixed_points["calls"] == 11
        assert result.ahead_used == 24
        assert fixed_points["networks"] == 29 - 24 + result.solved_ahead
        assert "24 used by the search" in result.summary()

    def test_wide_network_keeps_one_fixed_point_per_evaluation(
        self, fixed_points
    ):
        # 25 chains: a cross of 51 points would be 1,275 columns, far
        # past repro.search.pattern.CROSS_COLUMNS, so nothing is
        # solved ahead.
        from repro.core.windim import windim

        result = windim(
            scale_fixture("small"), max_window=8, initial_step=1,
            max_evaluations=12,
        )
        assert result.search.evaluations == 12
        assert fixed_points["calls"] == fixed_points["networks"] == 12
        assert result.solved_ahead == 0

    def test_reuse_campaign_never_banks_nor_logs_a_decline(self, fixed_points):
        from repro.core.windim import windim
        from repro.mva import autobatch

        result = windim(canadian_four_class(*TABLE_4_12[0]), reuse=True)
        assert result.solved_ahead == 0
        assert fixed_points["calls"] == result.search.evaluations
        assert autobatch.batch_stats()["declined_batches"] == 0


class TestScatter:
    def test_cached_index_matches_nonzero_scatter(self):
        networks = (canadian_four_class(6.0, 6.0, 6.0, 12.0), scale_fixture("small"))
        for network in networks:
            layout = network.route_layout
            rng = np.random.default_rng(3)
            # A pack pads columns past the layout's own depth.
            padded = rng.standard_normal((layout.depth + 2, layout.num_chains))
            expected = np.zeros((layout.num_chains, layout.num_stations))
            k, r = np.nonzero(layout.valid)
            expected[r, layout.slots[k, r]] = padded[k, r]
            assert np.array_equal(layout.scatter(padded), expected)


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
        pack = pack_networks([canadian_two_class(4.0, 4.0, windows=(1, 1))])
        with pytest.raises(ModelError, match="no batched SoA kernel"):
            solve_packed(pack, solver="linearizer")

    def test_scalar_backend_rejected(self):
        # Packs are named solvers' only: the scalar reference has none.
        from repro.mva import reference

        pack = pack_networks([canadian_two_class(4.0, 4.0, windows=(1, 1))])
        with pytest.raises(ModelError, match="no batched SoA kernel"):
            solve_packed(pack, solver=reference.solve_mva_heuristic)

    def test_empty_networks_rejected(self):
        with pytest.raises(ModelError):
            pack_networks([])

    def test_accelerator_needs_a_pack_of_one(self):
        # Aitken extrapolates the whole iterate; across networks it would
        # couple them.
        network = canadian_two_class(4.0, 4.0)
        pack = pack_networks(
            [network.with_populations(w) for w in ([1, 1], [2, 2])]
        )
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

    def test_scale_fixture_batch_engages_and_matches_serial(self):
        # Route-compacted packs win at every size, so a 120-chain batch
        # packs like a thesis-scale one and stays bitwise serial.
        from repro.core.power import inverse_power
        from repro.mva import autobatch
        from repro.netmodel.generator import scale_fixture

        network = scale_fixture("medium")
        objective = WindowObjective(network, "mva-heuristic")
        rng = np.random.default_rng(7)
        keys = [
            tuple(int(w) for w in rng.integers(1, 5, size=network.num_chains))
            for _ in range(4)
        ]
        autobatch.reset_stats()
        values = objective.batch_solve(keys)
        stats = autobatch.batch_stats()
        assert stats["engaged_batches"] == 1
        assert stats["engaged_networks"] == 4
        assert stats["declined_batches"] == 0
        for key, value in zip(keys, values):
            ref = solve_mva_heuristic(
                network.with_populations(key))
            assert value == inverse_power(ref)
            _assert_same_solution(objective.cached_solution(key), ref)

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
            ref = solve_mva_heuristic(network)
            assert solution is not None
            _assert_same_solution(solution, ref)
            assert value == inverse_power(ref)
        stats = autobatch.batch_stats()
        assert stats["engaged_batches"] == 1
        assert stats["engaged_networks"] == len(networks)

    def test_batch_solve_networks_decline_is_counted(self):
        from repro.mva import autobatch

        networks = [
            canadian_two_class(4.0 + k, 6.0, windows=(2, 2)) for k in range(3)
        ]
        # Linearizer has no pack: the batch declines.
        objective = WindowObjective(canadian_two_class(4.0, 4.0), "linearizer")
        results = objective.batch_solve_networks(networks)
        assert all(sol is not None for _, sol in results)
        stats = autobatch.batch_stats()
        assert stats["declined_batches"] == 1
        assert stats["declined_networks"] == 3
        assert stats["engaged_batches"] == 0

    def test_serial_plane_decline_is_counted_once(self):
        from repro.evalplane.serial import SerialPlane
        from repro.mva import autobatch

        batch = [(1, 1), (2, 2), (3, 3)]
        # A reuse engine declines packs: the plane falls back to its
        # per-point loop and the decline is logged exactly once.
        reused = WindowObjective(
            canadian_two_class(4.0, 4.0), "mva-heuristic", reuse=True
        )
        autobatch.reset_stats()
        with SerialPlane(reused) as plane:
            assert len(plane.submit_many(batch)) == len(batch)
        stats = autobatch.batch_stats()
        assert stats["declined_batches"] == 1
        assert stats["declined_networks"] == len(batch)
        assert sum(stats["declined_reasons"].values()) == 1
        assert stats["engaged_batches"] == 0
        # An engaging objective packs the same batch once, no decline.
        packed = WindowObjective(canadian_two_class(4.0, 4.0), "mva-heuristic")
        autobatch.reset_stats()
        with SerialPlane(packed) as plane:
            assert len(plane.submit_many(batch)) == len(batch)
        stats = autobatch.batch_stats()
        assert stats["engaged_batches"] == 1
        assert stats["declined_batches"] == 0

    def test_power_curve_engages_hetero_batching(self):
        from repro.analysis.sweeps import power_curve
        from repro.mva import autobatch
        from repro.netmodel.examples import canadian_two_class as factory

        autobatch.reset_stats()
        rates = [(4.0, 4.0), (8.0, 8.0), (12.0, 12.0), (16.0, 16.0)]
        curve = power_curve(factory, rates, windows=(3, 3))
        assert autobatch.batch_stats()["engaged_batches"] == 1
        # The same solver as a plain callable has no batched kernel: the
        # sweep declines and runs the serial loop — values must not move
        # (hetero packs are bit-identical to serial solves).
        autobatch.reset_stats()
        serial_curve = power_curve(
            factory, rates, windows=(3, 3), solver=solve_mva_heuristic
        )
        assert autobatch.batch_stats()["engaged_batches"] == 0
        assert autobatch.batch_stats()["declined_batches"] == 1
        for (label, power), (s_label, s_power) in zip(curve, serial_curve):
            assert label == s_label
            assert power == s_power

    def test_small_network_auto_batched_with_reason(self):
        network = canadian_two_class(4.0, 4.0)
        objective = WindowObjective(network, "mva-heuristic")
        engage, reason = objective.soa_assessment(batch_size=4)
        assert engage
        assert "4 networks packed" in reason
        # A reuse engine declines the same network: warm starts are
        # per-key.
        reused = WindowObjective(network, "mva-heuristic", reuse=True)
        engage, reason = reused.soa_assessment(batch_size=4)
        assert not engage
        assert "reuse" in reason
        assert not reused.soa_batchable


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _assert_pack_matches_serial(network, windows):
    """Pack power, iterations and flags against serial solves, bitwise."""
    packed = solve_windows_batched(network, windows)
    serial = [
        solve_mva_heuristic(network.with_populations(w))
        for w in windows
    ]
    assert np.array_equal(
        _bits(pack_power(packed)), _bits([network_power(s) for s in serial])
    )
    assert packed.iterations.tolist() == [s.iterations for s in serial]
    assert packed.converged.tolist() == [s.converged for s in serial]
    return packed


class TestPackPower:
    """Power scored from a pack's arrays equals ``network_power`` bitwise."""

    @pytest.mark.parametrize("rates", TABLE_4_12)
    def test_grid_sample_matches_serial(self, rates):
        rng = np.random.default_rng(412)
        sample = GRID[rng.choice(len(GRID), size=24, replace=False)]
        # An all-zero window (no throughput: power 0, value inf) and one
        # with idle chains ride along.
        windows = np.vstack([sample, [[0, 0, 0, 0], [0, 3, 0, 2]]])
        packed = _assert_pack_matches_serial(canadian_four_class(*rates), windows)
        assert pack_power(packed)[-2] == 0.0

    @pytest.mark.slow
    @pytest.mark.parametrize("rates", TABLE_4_12)
    def test_every_grid_window_matches_serial(self, rates):
        _assert_pack_matches_serial(canadian_four_class(*rates), GRID)

    def test_wide_and_mixed_packs_match_network_power(self):
        # 25 chains: throughputs and delay slots past the pairwise
        # threshold; and a mixed pack, grouped by layout.
        network = scale_fixture("small")
        rng = np.random.default_rng(3)
        windows = rng.integers(0, 4, size=(5, network.num_chains))
        packed = solve_windows_batched(network, windows)
        assert np.array_equal(
            _bits(pack_power(packed)), _bits([network_power(s) for s in packed])
        )
        networks = [
            random_network(
                num_nodes=5 + k, num_classes=1 + k % 9, extra_edges=3, seed=k
            ).with_populations([1 + k % 3] * (1 + k % 9))
            for k in range(12)
        ]
        networks += [networks[4].with_populations([0] * 5), networks[2]]
        mixed = soa.solve_networks_batched(networks)
        assert np.array_equal(
            _bits(pack_power(mixed)), _bits([network_power(s) for s in mixed])
        )

    def test_objective_values_are_inverse_powers(self):
        network = canadian_four_class(*TABLE_4_12[0])
        objective = WindowObjective(network)
        windows = [(0, 0, 0, 0), (1, 1, 1, 4), (6, 1, 2, 3)]
        values = objective.batch_solve(windows)
        assert values[0] == float("inf")
        for w, value in zip(windows, values):
            ref = solve_mva_heuristic(network.with_populations(w))
            assert _bits(value) == _bits(inverse_power(ref))

    def test_power_curve_failed_point_scores_zero(self):
        from repro.analysis.sweeps import power_curve

        rates = [(4.0, 4.0), (8.0, 8.0), (12.0, 12.0)]

        def failing_at_eight(network):
            if network.demands.max() == canadian_two_class(8.0, 8.0).demands.max():
                raise SolverError("injected failure")
            return solve_mva_heuristic(network)

        packed = power_curve(canadian_two_class, rates, windows=(3, 3))
        serial = power_curve(
            canadian_two_class, rates, windows=(3, 3), solver=failing_at_eight
        )
        assert serial[1] == (rates[1], 0.0)
        assert packed[1][1] > 0.0
        for k in (0, 2):
            assert _bits(serial[k][1]) == _bits(packed[k][1])


class TestColumnarGrid:
    """A window grid is solved and scored as arrays (host-independent counts)."""

    @pytest.fixture
    def counts(self, monkeypatch) -> Counter:
        counts: Counter = Counter()

        def counted(owner, name, key, per_call=lambda *args: 1):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                counts[key] += per_call(*args)
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(ClosedNetwork, "with_populations", "copies")
        counted(
            ClosedNetwork, "with_population_rows", "copies",
            per_call=lambda network, rows: len(rows),
        )
        counted(NetworkSolution, "__init__", "solutions")
        counted(heuristic, "batched_increments", "kernel")
        return counts

    def test_grid_copies_no_network_and_builds_no_solution(self, counts):
        from repro.analysis.sweeps import window_grid_power
        from repro.search.space import IntegerBox

        network = canadian_four_class(*TABLE_4_12[0])
        grid = window_grid_power(network, IntegerBox.windows(4, 6))
        assert len(grid) == len(GRID) == 1296
        assert counts["copies"] == 0
        assert counts["solutions"] == 0
        # One kernel call per sweep of the one pack: the slowest window
        # of this grid takes 33 sweeps.
        assert counts["kernel"] == 33

    def test_solution_after_a_packed_grid_builds_one(self, counts):
        from repro.evalplane.serial import SerialPlane

        network = canadian_four_class(*TABLE_4_12[0])
        objective = WindowObjective(network)
        windows = [tuple(w) for w in GRID.tolist()]
        with SerialPlane(objective) as plane:
            results = plane.submit_many(windows)
        assert counts["solutions"] == 0
        evaluations = objective.evaluations
        last = windows[-1]
        solution = objective.solution(last)
        assert counts["solutions"] == 1
        assert objective.evaluations == evaluations
        # Built once: the plane's result and later reads share it.
        assert objective.solution(last) is solution
        assert results[-1].solution is solution
        assert counts["solutions"] == 1
        _assert_same_solution(
            solution,
            solve_mva_heuristic(network.with_populations(last)),
        )
        assert solution.network.populations.tolist() == list(last)

    def test_retained_keys_are_the_lru_tail(self):
        network = canadian_four_class(*TABLE_4_12[0])
        objective = WindowObjective(network, max_solutions=100)
        windows = [tuple(w) for w in GRID.tolist()]
        objective.batch_solve(windows)
        retained = [w for w in windows if objective.cached_solution(w) is not None]
        assert retained == windows[-100:]

    def test_population_column_is_checked(self):
        network = canadian_two_class(4.0, 4.0)
        for bad, match in (
            ([[1, 1]], "window vectors"),
            ([[1, 1], [1]], "window vectors"),
            ([[1, 1], [1.5, 1]], "integers"),
            ([[1, 1], [-1, 1]], ">= 0"),
        ):
            with pytest.raises(ModelError, match=match):
                soa.pack_networks([network] * 2, populations=bad)

    def test_population_rows_share_chain_copies(self):
        network = canadian_two_class(4.0, 4.0)
        first, second = network.with_population_rows([[2, 3], [2, 5]])
        assert first.chains[0] is second.chains[0]
        assert [c.population for c in second.chains] == [2, 5]
        assert second.populations.tolist() == [2, 5]
        assert second.route_layout is network.route_layout
