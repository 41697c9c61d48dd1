"""Sub-lattice memoisation for exact MVA (``exact/lattice_cache.py``).

Exact MVA's recursion visits every population vector below the target;
the per-level station totals depend only on the vector and the network,
never on which target requested them (the prefix-lattice property).  A
shared :class:`LatticeCache` must therefore be *bit-exact*: a cached-row
solve returns byte-identical arrays to a cold solve.
"""

import numpy as np
import pytest

from repro.core.objective import WindowObjective
from repro.exact.lattice_cache import LatticeCache
from repro.exact.mva_exact import solve_mva_exact
from repro.mva import reference
from repro.netmodel.examples import arpanet_fragment, canadian_two_class


@pytest.fixture
def network():
    return canadian_two_class(18.0, 18.0).with_populations([4, 5])


class TestBitExactness:
    def test_cached_solve_identical(self, network):
        cold = solve_mva_exact(network)
        cache = LatticeCache()
        first = solve_mva_exact(network, lattice_cache=cache)
        second = solve_mva_exact(network, lattice_cache=cache)
        for warm in (first, second):
            assert np.array_equal(warm.throughputs, cold.throughputs)
            assert np.array_equal(warm.queue_lengths, cold.queue_lengths)
            assert np.array_equal(warm.waiting_times, cold.waiting_times)

    def test_incremental_population_bit_exact(self, network):
        cache = LatticeCache()
        solve_mva_exact(network, lattice_cache=cache)
        bigger = network.with_populations([5, 5])
        warm = solve_mva_exact(bigger, lattice_cache=cache)
        cold = solve_mva_exact(bigger)
        assert np.array_equal(warm.throughputs, cold.throughputs)
        assert np.array_equal(warm.queue_lengths, cold.queue_lengths)


class TestReuseAccounting:
    def test_second_solve_computes_only_target(self, network):
        cache = LatticeCache()
        solve_mva_exact(network, lattice_cache=cache)
        computed_first = cache.stats()["computed"]
        solve_mva_exact(network, lattice_cache=cache)
        # The target row is recomputed (it is never cached); everything
        # below it is a hit.
        assert cache.stats()["computed"] == computed_first + 1
        assert cache.stats()["hits"] > 0

    def test_population_excluded_from_token(self, network):
        cache = LatticeCache()
        solve_mva_exact(network, lattice_cache=cache)
        repopulated = network.with_populations([2, 2])
        solve_mva_exact(repopulated, lattice_cache=cache)
        assert cache.stats()["resets"] == 0
        assert cache.stats()["hits"] > 0

    def test_different_network_resets(self, network):
        cache = LatticeCache()
        solve_mva_exact(network, lattice_cache=cache)
        other = arpanet_fragment().with_populations([2, 2, 2, 2])
        warm = solve_mva_exact(other, lattice_cache=cache)
        assert cache.stats()["resets"] == 1
        cold = solve_mva_exact(other)
        assert np.array_equal(warm.throughputs, cold.throughputs)

    def test_capacity_cap_respected(self, network):
        cache = LatticeCache(max_vectors=3)
        solve_mva_exact(network, lattice_cache=cache)
        assert len(cache) <= 3

    def test_scalar_backend_ignores_cache(self, network):
        # The reference walk takes no lattice cache, so a reuse objective
        # on it shares none, and agrees with the fast walk to rounding.
        objective = WindowObjective(network, reference.solve_mva_exact, reuse=True)
        for windows in ((4, 5), (5, 5)):
            value = objective(windows)
            fast = WindowObjective(network, "mva-exact")(windows)
            assert value == pytest.approx(fast, rel=1e-12)
        assert not any(k.startswith("lattice_") for k in objective.reuse_stats)
