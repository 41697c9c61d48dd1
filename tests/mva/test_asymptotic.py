"""CLT/asymptotic solver: fixed point, regime gates, ladder selection.

The asymptotic tier is exact only in the many-chain limit, so the tests
pin three separate contracts: (1) the mean-field fixed point itself
converges and behaves like a window solver (more window -> more
throughput, power peaks at an interior window); (2) the verify oracle
only trusts it inside its calibrated regime (>= ASYMPTOTIC_MIN_CHAINS
chains) and judges it there under the dedicated "asymptotic-exact"
bands; (3) the resilience ladder runs it only when named — a heuristic
ladder stays on the heuristic at every scale.
"""

import numpy as np
import pytest

from repro.core.objective import SOLVERS
from repro.errors import ModelError
from repro.mva.asymptotic import (
    ASYMPTOTIC_MIN_CHAINS,
    asymptotic_applicability,
    solve_asymptotic,
)
from repro.mva.convergence import IterationControl
from repro.mva.heuristic import solve_mva_heuristic
from repro.netmodel.examples import canadian_two_class
from repro.netmodel.generator import random_network
from repro.resilience.ladder import ResilientSolver
from repro.verify.differential import TolerancePolicy, check_pair
from repro.verify.oracle import VerifyCase, get_solver


def _many_chain_network(seed: int = 1, chains: int = ASYMPTOTIC_MIN_CHAINS):
    network = random_network(
        num_nodes=10, num_classes=chains, extra_edges=5, seed=seed
    )
    return network.with_populations([1] * chains)


class TestFixedPoint:
    def test_converges_with_metadata(self):
        solution = solve_asymptotic(_many_chain_network())
        assert solution.converged
        assert solution.method == "asymptotic"
        assert solution.iterations >= 1
        assert "residual" in solution.extras
        assert np.all(solution.throughputs > 0)

    def test_registered_as_named_solver(self):
        assert "asymptotic" in SOLVERS

    def test_throughput_monotone_in_window(self):
        network = canadian_two_class(50.0, 50.0)
        small = solve_asymptotic(network.with_populations([2, 2]))
        large = solve_asymptotic(network.with_populations([8, 8]))
        assert large.network_throughput > small.network_throughput

    def test_warm_start_converges_to_same_fixed_point(self):
        network = _many_chain_network(seed=3)
        cold = solve_asymptotic(network)
        warm = solve_asymptotic(network, warm_start=cold.queue_lengths)
        np.testing.assert_allclose(
            warm.throughputs, cold.throughputs, rtol=1e-6
        )
        assert warm.iterations <= cold.iterations

    def test_zero_demand_chain_rejected(self):
        import dataclasses

        network = canadian_two_class(10.0, 10.0)
        zeroed = dataclasses.replace(
            network, demands=np.zeros_like(network.demands)
        )
        with pytest.raises(ModelError, match="zero total demand"):
            solve_asymptotic(zeroed)

    def test_exhaustion_reports_nonconverged(self):
        from repro.mva.convergence import ConvergenceWarning

        control = IterationControl(max_iterations=1, raise_on_failure=False)
        with pytest.warns(ConvergenceWarning):
            solution = solve_asymptotic(_many_chain_network(), control=control)
        assert not solution.converged

    def test_tracks_heuristic_in_regime(self):
        # In-regime the mean-field answer must stay within the calibrated
        # order-of-magnitude bands of the thesis heuristic.
        network = _many_chain_network(seed=5)
        mean_field = solve_asymptotic(network)
        heuristic = solve_mva_heuristic(network)
        rel = np.abs(mean_field.throughputs - heuristic.throughputs) / np.abs(
            heuristic.throughputs
        )
        assert float(rel.max()) < TolerancePolicy().asymptotic_throughput_rtol


class TestOracleRegime:
    def test_applicability_threshold(self):
        assert not asymptotic_applicability(canadian_two_class(10.0, 10.0))
        assert asymptotic_applicability(_many_chain_network())

    def test_oracle_rejects_below_regime(self):
        case = VerifyCase.from_network(
            "2chain", canadian_two_class(18.0, 18.0, windows=(4, 4))
        )
        reason = get_solver("asymptotic").applicability(case)
        assert reason is not None
        assert "chain" in reason

    def test_oracle_accepts_in_regime_under_asymptotic_bands(self):
        network = _many_chain_network(seed=2)
        case = VerifyCase.from_network("many-chain", network)
        assert get_solver("asymptotic").applicability(case) is None
        reference = get_solver("mva-heuristic").solve(case)
        candidate = get_solver("asymptotic").solve(case)
        result = check_pair(case, reference, candidate)
        assert result.policy == "asymptotic-exact"
        assert result.ok, result


class TestLadderAutoSelection:
    def test_heuristic_ladder_stays_on_the_heuristic_at_full_scale(self):
        from repro.netmodel.generator import scale_fixture

        ladder = ResilientSolver("mva-heuristic")
        solution = ladder(scale_fixture("full"))
        assert solution.method == "mva-heuristic"
        health = ladder.last_health
        assert health.final_solver == "mva-heuristic"
        assert all(a.solver != "asymptotic" for a in health.attempts)

    def test_explicit_asymptotic_primary_honoured_at_any_size(self):
        network = canadian_two_class(18.0, 18.0, windows=(4, 4))
        ladder = ResilientSolver("asymptotic")
        solution = ladder(network)
        assert solution.method == "asymptotic"
