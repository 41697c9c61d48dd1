"""Failure injection: the library's behaviour when components misbehave.

Each test wires a deliberately broken piece (a solver that raises or
returns garbage, an objective that yields NaN, a CLI call with bad input)
into a healthy pipeline and asserts the failure is contained, reported,
or rejected — never silently absorbed.
"""

import math

import numpy as np
import pytest

from repro.core.objective import WindowObjective
from repro.errors import ModelError, SolverError
from repro.netmodel.examples import canadian_two_class
from repro.search.pattern import pattern_search
from repro.search.space import IntegerBox


class TestObjectiveFailureContainment:
    def test_solver_error_becomes_inf_not_crash(self, two_class_net):
        calls = []

        def flaky(network):
            calls.append(tuple(network.populations))
            raise SolverError("injected failure")

        objective = WindowObjective(two_class_net, flaky)
        assert objective((3, 3)) == float("inf")
        assert calls == [(3, 3)]

    def test_unexpected_exception_propagates(self, two_class_net):
        def broken(network):
            raise ZeroDivisionError("genuine bug, must not be swallowed")

        objective = WindowObjective(two_class_net, broken)
        with pytest.raises(ZeroDivisionError):
            objective((3, 3))

    def test_solution_after_total_failure_raises_solver_error(
        self, two_class_net
    ):
        def always_fails(network):
            raise SolverError("nope")

        objective = WindowObjective(two_class_net, always_fails)
        with pytest.raises(SolverError):
            objective.solution((2, 2))


class TestSearchRobustness:
    def test_nan_objective_regions_do_not_trap_search(self):
        def nan_hole(point):
            if point[0] == 5:
                return float("nan")  # NaN compares False: never accepted
            return (point[0] - 7) ** 2 + (point[1] - 7) ** 2

        result = pattern_search(nan_hole, (1, 1), IntegerBox.windows(2, 12))
        assert not math.isnan(result.best_value)
        # The search still finds a good point despite the NaN wall at x=5.
        assert result.best_value <= nan_hole((1, 1))

    def test_all_inf_objective_returns_start(self):
        result = pattern_search(
            lambda p: float("inf"), (4, 4), IntegerBox.windows(2, 8)
        )
        assert result.best_point == (4, 4)
        assert result.best_value == float("inf")

    def test_exception_in_objective_propagates(self):
        def explodes(point):
            raise RuntimeError("instrument failure")

        with pytest.raises(RuntimeError):
            pattern_search(explodes, (1, 1), IntegerBox.windows(2, 4))


class TestSolverInputPoisoning:
    def test_heuristic_rejects_zero_demand_chain(self):
        from repro.mva.heuristic import solve_mva_heuristic
        from repro.queueing.chain import ClosedChain
        from repro.queueing.network import ClosedNetwork
        from repro.queueing.station import Station

        # A chain whose only demand sits at a station it never visits is
        # impossible to build legally; the closest poison is service times
        # so small the cycle demand underflows to zero — ModelError either
        # at build (validation) or solve time.
        with pytest.raises(ModelError):
            ClosedChain.from_route("c", ["q"], [0.0], window=1)

    def test_network_rejects_nan_service_times_downstream(self):
        from repro.mva.single_chain import solve_single_chain

        trace = solve_single_chain([float("nan"), 0.1], 2)
        # NaN demands poison results visibly rather than silently: the
        # throughputs must be NaN, not plausible numbers.
        assert math.isnan(trace.throughputs[2])


class TestResilienceLadderInjection:
    """ISSUE cases: flaky solver, timing-out solver, torn store record."""

    def test_flaky_solver_recovers_on_second_damped_retry(self, two_class_net):
        from repro.mva.heuristic import solve_mva_heuristic
        from repro.resilience import AttemptOutcome, ResilientSolver

        def flaky(network, control=None):
            if control.damping > 0.5:
                raise SolverError("injected: diverges undamped")
            return solve_mva_heuristic(network, control=control)

        solver = ResilientSolver(flaky)
        solution = solver(two_class_net)
        assert solution.converged
        health = solver.last_health
        assert [a.outcome for a in health.attempts] == [
            AttemptOutcome.ERROR,
            AttemptOutcome.OK,
        ]
        assert health.attempts[1].damping == 0.5

    def test_timing_out_solver_yields_budget_exhausted_not_hang(self):
        # Every solve "takes" 100 simulated seconds against a 250-second
        # deadline: the full search would need dozens of evaluations, so
        # without the budget this run would effectively hang.
        from repro.core.windim import windim
        from repro.mva.heuristic import solve_mva_heuristic
        from repro.resilience import SearchBudget

        network = canadian_two_class(18.0, 18.0, windows=(1, 1))
        ticks = [0.0]

        def glacial(net):
            ticks[0] += 100.0
            return solve_mva_heuristic(net)

        result = windim(
            network,
            max_window=16,
            solver=glacial,
            budget=SearchBudget(max_seconds=250.0, clock=lambda: ticks[0]),
        )
        assert result.status == "budget_exhausted"
        assert result.search.evaluations <= 3
        assert "deadline" in result.search.stop_reason

    def test_store_corrupted_mid_write_is_quarantined(self, tmp_path):
        # Simulate a torn record from a crash of a non-atomic writer: a
        # record line holds only a prefix of its JSON.  Resume must never
        # start silently from garbage: the damaged line is quarantined
        # with a loud warning, and the healthy records still seed the run.
        import os

        from repro.core.windim import windim

        network = canadian_two_class(18.0, 18.0, windows=(1, 1))
        path = str(tmp_path / "torn.store")
        first = windim(network, max_window=8, store_path=path)
        with open(path) as handle:
            lines = handle.read().splitlines()
        lines[2] = lines[2][: len(lines[2]) - 10]
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")

        with pytest.warns(RuntimeWarning, match="quarantined 1 corrupt"):
            result = windim(network, max_window=8, store_path=path)
        assert result.status == "completed"
        assert result.windows == first.windows
        assert result.store_quarantined == 1
        assert result.store_seeded == first.search.evaluations - 1
        assert result.search.evaluations == 1  # only the torn point
        assert os.path.exists(path + ".quarantine")


class TestCliFailurePaths:
    def test_unknown_solver_rejected_by_parser(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["solve", "--rates", "18", "18", "--solver", "oracle"])

    def test_broken_spec_reports_error_exit(self, tmp_path, capsys):
        from repro.cli import main

        spec = tmp_path / "broken.json"
        spec.write_text('{"nodes": []}')
        code = main(["solve", "--spec", str(spec)])
        assert code == 2
        assert "error" in capsys.readouterr().err
