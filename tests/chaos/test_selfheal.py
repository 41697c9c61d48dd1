"""Self-healing behaviour at the windim level, driven by injected faults.

Covers the seams the unit suites cannot reach alone: store damage
quarantined on reload and surfacing in the result, the full degradation
ladder preserving the fault-free optimum, and the ``windim chaos`` CLI
entry point.
"""

import os

import pytest

from repro.chaos import FaultPlan, FaultRule, inject
from repro.core.windim import windim
from repro.netmodel.examples import canadian_two_class

MAX_WINDOW = 6


@pytest.fixture(scope="module")
def network():
    return canadian_two_class(18.0, 18.0)


@pytest.fixture(scope="module")
def reference(network):
    return windim(network, max_window=MAX_WINDOW)


class TestStoreSelfHealing:
    def test_quarantine_surfaces_in_result_and_summary(
        self, network, reference, tmp_path
    ):
        store_path = str(tmp_path / "evals.store")
        plan = FaultPlan(
            name="store-rot",
            rules=(FaultRule("store.record", "corrupt", occurrence=2),),
        )
        with inject(plan):
            first = windim(
                network, max_window=MAX_WINDOW, store_path=store_path
            )
            with pytest.warns(RuntimeWarning, match="quarantined"):
                second = windim(
                    network, max_window=MAX_WINDOW, store_path=store_path
                )
        assert tuple(first.windows) == tuple(reference.windows)
        assert tuple(second.windows) == tuple(reference.windows)
        assert second.store_quarantined == 1
        assert "WARNING: store quarantined 1" in second.summary()
        assert os.path.exists(store_path + ".quarantine")
        # third run: auto-compaction already scrubbed the damage
        third = windim(network, max_window=MAX_WINDOW, store_path=store_path)
        assert third.store_quarantined == 0


class TestDegradationLadder:
    def test_persistent_ladder_preserves_the_optimum(
        self, network, reference
    ):
        # Zero respawn budget: the first crash breaks the pool and the
        # plane steps down to serial, where worker faults cannot reach.
        # The search must still land on the fault-free optimum, with
        # exactly that one rung on record.
        plan = FaultPlan(
            name="ladder-crash",
            rules=(
                FaultRule("pool.worker.task", "crash", occurrence=1,
                          count=8),
            ),
            env=(("REPRO_MAX_RESPAWNS", "0"),),
        )
        with inject(plan), pytest.warns(RuntimeWarning, match="degraded"):
            result = windim(network, max_window=MAX_WINDOW, workers=2)
        assert tuple(result.windows) == tuple(reference.windows)
        assert result.power == pytest.approx(reference.power, rel=1e-12)
        assert result.status == "completed"
        (event,) = result.degradations
        assert (event.from_mode, event.to_mode) == ("persistent", "serial")
        assert "WARNING: plane degraded" in result.summary()


class TestChaosCli:
    def test_list_names_every_builtin_plan(self, capsys):
        from repro.chaos.battery import builtin_plans
        from repro.cli import main

        assert main(["chaos", "--list"]) == 0
        out = capsys.readouterr().out
        for name in builtin_plans():
            assert name in out

    def test_selected_plans_print_a_survival_report(
        self, capsys, tmp_path
    ):
        from repro.cli import main

        report_path = str(tmp_path / "report.json")
        code = main(
            [
                "chaos",
                "--plans",
                "flaky-store-io",
                "clock-skew-deadline",
                "--max-window",
                str(MAX_WINDOW),
                "--json",
                report_path,
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "2/2 plans survived" in out
        assert os.path.exists(report_path)

    def test_unknown_plan_is_a_usage_error(self, capsys):
        from repro.cli import main

        assert main(["chaos", "--plans", "nope"]) == 2
