"""End-to-end CLI matrix over the evaluation-plane backends.

Drives ``repro.cli.main`` in-process across the ``--workers`` ×
``--reuse`` × ``--store`` matrix and asserts that every
combination reports the *identical* optimum, that a pooled run pays
for exactly the serial run's evaluations, and that resuming from a
store pays for none.  This is the user-facing face of the conformance wall: the
backends are interchangeable not just at the library layer but through
the shell entry point.
"""

from __future__ import annotations

import re

import pytest

from repro.cli import main

MAX_WINDOW = 8
RATES = ["18", "18"]

BASE = [
    "solve",
    "--network",
    "canadian2",
    "--rates",
    *RATES,
    "--max-window",
    str(MAX_WINDOW),
]

#: (label, extra argv) — serial, the worker pool and the resilient
#: ladder, with and without cross-evaluation reuse, capped at 2 workers
#: for CI.
MATRIX = [
    ("serial", []),
    ("serial-reuse", ["--reuse"]),
    ("persistent", ["--workers", "2"]),
    ("persistent-reuse", ["--workers", "2", "--reuse"]),
    ("resilient", ["--resilient"]),
]


def _run(argv, capsys):
    """Run the CLI in-process; return (windows, power, evaluations)."""
    assert main(argv) == 0
    out = capsys.readouterr().out
    windows = re.search(r"WINDIM optimal windows = \[([0-9, ]+)\]", out)
    power = re.search(r"network power\s+= ([0-9.]+)", out)
    evals = re.search(r"objective evaluations = (\d+)", out)
    assert windows and power and evals, out
    return (
        tuple(int(x) for x in windows.group(1).split(",")),
        float(power.group(1)),
        int(evals.group(1)),
    )


class TestSolveMatrix:
    def test_all_backends_agree_on_the_optimum(self, capsys):
        """Every --workers/--reuse combination reports the same windows."""
        runs = {label: _run(BASE + extra, capsys) for label, extra in MATRIX}
        windows = {r[0] for r in runs.values()}
        powers = {r[1] for r in runs.values()}
        assert len(windows) == 1, runs
        # power is printed at 2 decimals, so exact string equality holds
        assert len(powers) == 1, runs

    @pytest.mark.parametrize(
        "pool_args",
        [
            pytest.param([], id="serial"),
            pytest.param(["--workers", "2"], id="persistent"),
        ],
    )
    def test_resume_reuses_the_store(self, pool_args, capsys, tmp_path):
        """--store seeds the cache: same optimum, no fresh evals."""
        argv = BASE + pool_args + ["--store", str(tmp_path / "solve.store")]
        serial = _run(BASE, capsys)
        cold = _run(argv, capsys)
        resumed = _run(argv, capsys)
        assert resumed[0] == cold[0] == serial[0]
        assert resumed[1] == cold[1] == serial[1]
        # Every plane makes only the evaluations the search demands: the
        # store holds the serial run's points, and the resume pays 0.
        assert cold[2] == serial[2] > 0
        assert resumed[2] == 0

    def test_resume_chain_is_monotone(self, capsys, tmp_path):
        """Each resume leg evaluates no more than the previous leg."""
        argv = BASE + ["--store", str(tmp_path / "chain.store")]
        first = _run(argv, capsys)
        legs = [first]
        for _ in range(2):
            legs.append(_run(argv, capsys))
        assert {leg[0] for leg in legs} == {first[0]}
        evals = [leg[2] for leg in legs]
        assert evals == sorted(evals, reverse=True) or evals[1] == evals[2]
        assert evals[1] < evals[0]


class TestExitCodes:
    """The documented shell contract: each failure class has a code."""

    def test_budget_exhausted_exits_4(self, capsys):
        from repro.cli import EXIT_BUDGET_EXHAUSTED

        code = main(BASE + ["--max-evaluations", "2"])
        out = capsys.readouterr().out
        assert "budget_exhausted" in out
        assert code == EXIT_BUDGET_EXHAUSTED == 4

    def test_degraded_completion_exits_3(self, capsys):
        from repro.chaos import FaultPlan, FaultRule, inject
        from repro.cli import EXIT_DEGRADED

        plan = FaultPlan(
            name="cli-degrade",
            rules=(
                FaultRule("pool.worker.task", "crash", occurrence=1,
                          count=8),
            ),
            env=(("REPRO_MAX_RESPAWNS", "0"),),
        )
        with inject(plan), pytest.warns(RuntimeWarning, match="degraded"):
            code = main(BASE + ["--workers", "2"])
        out = capsys.readouterr().out
        assert "WINDIM optimal windows" in out  # it still finished
        assert code == EXIT_DEGRADED == 3

    def test_ladder_exhausted_exits_5(self, capsys, monkeypatch):
        import repro.cli as cli
        from repro.cli import EXIT_LADDER_EXHAUSTED
        from repro.errors import LadderExhaustedError

        def doomed(*args, **kwargs):
            raise LadderExhaustedError("every rung failed")

        monkeypatch.setattr(cli, "windim", doomed)
        code = main(BASE)
        err = capsys.readouterr().err
        assert "resilient ladder exhausted" in err
        assert code == EXIT_LADDER_EXHAUSTED == 5

    def test_usage_errors_exit_2(self, capsys):
        from repro.cli import EXIT_ERROR

        code = main(["solve", "--network", "canadian2"])  # --rates missing
        assert code == EXIT_ERROR == 2
        assert "error" in capsys.readouterr().err.lower()

    def test_negative_evaluation_cap_exits_2(self, capsys):
        from repro.cli import EXIT_ERROR

        code = main(BASE + ["--max-evaluations", "-1"])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert "max_evaluations must be >= 0" in captured.err
        assert "optimal windows" not in captured.out
