"""Unit tests for iteration control."""

import numpy as np
import pytest

from repro.errors import ConvergenceError, ConvergenceWarning, ModelError
from repro.mva import reference
from repro.mva.convergence import IterationControl
from repro.mva.heuristic import solve_mva_heuristic
from repro.mva.schweitzer import solve_schweitzer
from repro.mva.soa import (
    pack_networks,
    solve_networks_batched,
    solve_packed,
    solve_windows_batched,
)
from repro.queueing.chain import ClosedChain
from repro.queueing.network import ClosedNetwork
from repro.queueing.station import Station


class TestValidation:
    def test_defaults_valid(self):
        control = IterationControl()
        assert control.tolerance > 0

    def test_nonpositive_tolerance_rejected(self):
        with pytest.raises(ModelError):
            IterationControl(tolerance=0.0)

    def test_bad_iteration_budget_rejected(self):
        with pytest.raises(ModelError):
            IterationControl(max_iterations=0)

    def test_bad_damping_rejected(self):
        with pytest.raises(ModelError):
            IterationControl(damping=0.0)
        with pytest.raises(ModelError):
            IterationControl(damping=1.5)


class TestResidual:
    def test_euclidean_norm(self):
        control = IterationControl()
        assert control.residual(np.array([3.0, 0.0]), np.array([0.0, 4.0])) == 5.0

    def test_residuals_keeps_the_3_4_5_example_per_segment(self):
        control = IterationControl()
        current = np.array([3.0, 0.0, 1.0, 6.0, 0.0])
        previous = np.array([0.0, 4.0, 1.0, 0.0, 8.0])
        residuals = control.residuals(current, previous, np.array([0, 2, 3]))
        assert residuals.tolist() == [5.0, 0.0, 10.0]

    def test_residuals_equal_residual_per_segment(self):
        # Segments longer than 8 are summed in numpy's blocked order; it
        # must depend on the segment alone, never on its offset.
        control = IterationControl()
        rng = np.random.default_rng(7)
        lengths = [4, 120, 2, 25, 1, 9]
        starts = np.cumsum([0] + lengths[:-1])
        for scale in (1e-9, 1.0, 1e4):
            current = rng.standard_normal(sum(lengths)) * scale
            previous = rng.standard_normal(sum(lengths)) * scale
            residuals = control.residuals(current, previous, starts)
            for j, (start, length) in enumerate(zip(starts, lengths)):
                segment = slice(start, start + length)
                assert residuals[j] == control.residual(
                    current[segment], previous[segment]
                )

    def test_has_converged(self):
        control = IterationControl(tolerance=1e-3)
        assert control.has_converged(np.array([1.0]), np.array([1.0 + 1e-4]))
        assert not control.has_converged(np.array([1.0]), np.array([1.01]))


class TestDamping:
    def test_full_damping_returns_proposed(self):
        control = IterationControl(damping=1.0)
        proposed = np.array([2.0])
        assert control.apply_damping(proposed, np.array([0.0])) is proposed

    def test_partial_damping_blends(self):
        control = IterationControl(damping=0.25)
        result = control.apply_damping(np.array([4.0]), np.array([0.0]))
        assert result[0] == pytest.approx(1.0)


class TestExhaustion:
    def test_warns_but_does_not_raise_by_default(self):
        # Non-convergence must never pass silently: the default policy
        # returns the last iterate but emits a ConvergenceWarning.
        with pytest.warns(ConvergenceWarning):
            IterationControl().on_exhausted("solver", 10, 0.5)

    def test_raises_when_configured(self):
        control = IterationControl(raise_on_failure=True)
        with pytest.raises(ConvergenceError) as excinfo:
            control.on_exhausted("solver", 10, 0.5)
        assert excinfo.value.iterations == 10
        assert excinfo.value.residual == 0.5


def _two_chain_network():
    stations = [Station("a"), Station("b"), Station("c")]
    chains = [
        ClosedChain("x", ("a", "b"), (0.1, 0.2), population=3),
        ClosedChain("y", ("b", "c"), (0.2, 0.05), population=2),
    ]
    return ClosedNetwork.build(stations, chains)


class TestWarningLocation:
    """A cut solve's ConvergenceWarning points at the code that called it."""

    @pytest.mark.parametrize("kernel", ["reference", "vectorized"])
    @pytest.mark.parametrize("solve", [solve_mva_heuristic, solve_schweitzer])
    def test_serial_solve_warns_at_the_caller(self, solve, kernel):
        if kernel == "reference":
            solve = getattr(reference, solve.__name__)
        network = _two_chain_network()
        control = IterationControl(max_iterations=1)
        with pytest.warns(ConvergenceWarning) as record:
            solution = solve(network, control=control)
        assert not solution.converged
        assert [w.filename for w in record] == [__file__]

    @pytest.mark.parametrize("solve", [solve_mva_heuristic, solve_schweitzer])
    def test_cut_serial_solve_raises_when_configured(self, solve):
        control = IterationControl(max_iterations=1, raise_on_failure=True)
        with pytest.raises(ConvergenceError) as excinfo:
            solve(_two_chain_network(), control=control)
        assert excinfo.value.iterations == 1

    def test_cut_pack_warns_once_per_network(self):
        # Every batch entry point warns at its caller, however many pack
        # frames (wrappers, chunking) it runs through.
        network = _two_chain_network()
        windows = [[3, 2], [1, 1]]
        networks = [network.with_populations(w) for w in windows]
        control = IterationControl(max_iterations=1)
        for solve in (
            lambda: solve_windows_batched(
                network, windows, control=control),
            lambda: solve_networks_batched(
                networks, control=control),
            lambda: solve_packed(
                pack_networks(networks), control=control),
        ):
            with pytest.warns(ConvergenceWarning) as record:
                solutions = solve()
            assert [s.converged for s in solutions] == [False, False]
            assert len(record) == 2
            assert [w.filename for w in record] == [__file__] * 2
