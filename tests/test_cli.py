"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_defaults(self):
        args = build_parser().parse_args(
            ["solve", "--rates", "18", "18"]
        )
        assert args.network == "canadian2"
        assert args.solver == "mva-heuristic"


class TestSolve(object):
    def test_solve_prints_windows(self, capsys):
        code = main(["solve", "--network", "canadian2", "--rates", "25", "25"])
        assert code == 0
        out = capsys.readouterr().out
        assert "optimal windows" in out
        assert "power" in out

    def test_wrong_rate_count_is_error(self, capsys):
        code = main(["solve", "--network", "canadian2", "--rates", "25"])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestResilienceFlags:
    def test_run_alias_accepted(self, capsys):
        code = main(["run", "--network", "canadian2", "--rates", "25", "25"])
        assert code == 0
        assert "optimal windows" in capsys.readouterr().out

    def test_resilient_flag(self, capsys):
        code = main(
            [
                "run",
                "--network", "canadian2",
                "--rates", "25", "25",
                "--resilient",
            ]
        )
        assert code == 0
        assert "resilient solves" in capsys.readouterr().out

    def test_deadline_flag_parses(self):
        args = build_parser().parse_args(
            ["run", "--rates", "18", "18", "--deadline", "30"]
        )
        assert args.deadline == 30.0
        assert args.store is None

    def test_store_resumes_via_cli(self, tmp_path, capsys):
        argv = [
            "run",
            "--network", "canadian2",
            "--rates", "25", "25",
            "--store", str(tmp_path / "cli.store"),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "persistent store" in out and "preloaded" in out
        assert "objective evaluations = 0 " in out

    @pytest.mark.parametrize(
        "flag", [["--checkpoint", "run.ckpt"], ["--checkpoint-every", "5"],
                 ["--resume"]]
    )
    def test_checkpoint_flags_are_removed(self, flag):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--rates", "18", "18", *flag])

    def test_max_evaluations_budget_reported(self, capsys):
        code = main(
            [
                "run",
                "--network", "canadian2",
                "--rates", "25", "25",
                "--max-evaluations", "3",
            ]
        )
        # A budgeted stop is a distinct, scriptable outcome (exit 4),
        # still with the best-so-far result printed.
        from repro.cli import EXIT_BUDGET_EXHAUSTED

        assert code == EXIT_BUDGET_EXHAUSTED
        assert "best-so-far" in capsys.readouterr().out


class TestPersistentPoolE2E:
    """The full parallel stack through the CLI: pool + reuse + store
    resume in one run, checked against the serial answer."""

    @staticmethod
    def _windows(out):
        import re

        return re.search(r"optimal windows\s*=\s*\[([^\]]*)\]", out).group(1)

    @staticmethod
    def _fresh_evaluations(out):
        import re

        return int(re.search(r"objective evaluations\s*=\s*(\d+)", out).group(1))

    def test_pool_reuse_store_resume(self, tmp_path, capsys):
        base = [
            "solve",
            "--network", "canadian2",
            "--rates", "25", "25",
            "--max-window", "10",
        ]
        assert main(base) == 0
        serial_out = capsys.readouterr().out

        combined = base + [
            "--workers", "2",
            "--reuse",
            "--store", str(tmp_path / "run.store"),
        ]
        assert main(combined) == 0
        first_out = capsys.readouterr().out
        assert self._windows(first_out) == self._windows(serial_out)
        assert "evaluation pool" in first_out

        assert main(combined) == 0
        resumed_out = capsys.readouterr().out
        assert "evaluations preloaded" in resumed_out
        assert self._windows(resumed_out) == self._windows(serial_out)
        # Everything the first run solved rides in via the store, so the
        # resumed run pays strictly fewer fresh evaluations.
        assert (
            self._fresh_evaluations(resumed_out)
            < self._fresh_evaluations(first_out)
        )

    def test_pool_flag_is_removed(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["solve", "--rates", "18", "18", "--pool", "persistent"]
            )


class TestEvaluate:
    def test_evaluate_prints_solution(self, capsys):
        code = main(
            [
                "evaluate",
                "--network", "canadian2",
                "--rates", "18", "18",
                "--windows", "4", "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "network throughput" in out
        assert "power=" in out

    def test_window_count_checked(self, capsys):
        code = main(
            [
                "evaluate",
                "--network", "canadian2",
                "--rates", "18", "18",
                "--windows", "4",
            ]
        )
        assert code == 2


class TestSweep:
    def test_sweep_renders_table(self, capsys):
        code = main(
            [
                "sweep",
                "--network", "canadian2",
                "--rates-list", "20,20;60,60",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "optimal windows" in out
        assert out.count("\n") >= 4

    def test_bad_rate_vector_is_error(self, capsys):
        code = main(
            ["sweep", "--network", "canadian2", "--rates-list", "20;60,60"]
        )
        assert code == 2


class TestSpecFile:
    def test_solve_from_spec(self, tmp_path, capsys):
        import json

        spec = {
            "nodes": ["A", "B", "C"],
            "channels": [
                {"between": ["A", "B"], "capacity_bps": 50000},
                {"between": ["B", "C"], "capacity_bps": 50000},
            ],
            "classes": [
                {"path": ["A", "B", "C"], "arrival_rate": 20.0}
            ],
        }
        path = tmp_path / "net.json"
        path.write_text(json.dumps(spec))
        code = main(["solve", "--spec", str(path)])
        assert code == 0
        assert "optimal windows" in capsys.readouterr().out

    def test_spec_and_rates_conflict(self, tmp_path, capsys):
        path = tmp_path / "net.json"
        path.write_text("{}")
        code = main(["solve", "--spec", str(path), "--rates", "1"])
        assert code == 2

    def test_missing_rates_without_spec(self, capsys):
        code = main(["solve", "--network", "canadian2"])
        assert code == 2


class TestBuffers:
    def test_buffers_prints_table(self, capsys):
        code = main(
            [
                "buffers",
                "--network", "canadian2",
                "--rates", "18", "18",
                "--windows", "3", "3",
                "--target", "1e-3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "hard bound" in out
        assert "ch1" in out

    def test_buffers_window_count_checked(self, capsys):
        code = main(
            [
                "buffers",
                "--network", "canadian2",
                "--rates", "18", "18",
                "--windows", "3",
            ]
        )
        assert code == 2


class TestMultistart:
    def test_multistart_prints_summary(self, capsys):
        code = main(
            [
                "multistart",
                "--network", "canadian2",
                "--rates", "25", "25",
                "--max-window", "8",
            ]
        )
        assert code == 0
        assert "optimal windows" in capsys.readouterr().out


class TestSimulate:
    def test_simulate_prints_summary(self, capsys):
        code = main(
            [
                "simulate",
                "--network", "canadian2",
                "--rates", "18", "18",
                "--windows", "3", "3",
                "--duration", "200",
                "--warmup", "20",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "network throughput" in out
        assert "closed sources" in out


class TestVerify:
    def test_verify_fuzz_slice(self, capsys):
        code = main(["verify", "--seed", "0", "--cases", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "differential verification: 3 cases" in out
        assert "all solver pairs agree" in out

    def test_verify_json_report(self, tmp_path, capsys):
        import json

        report_path = tmp_path / "report.json"
        code = main(
            ["verify", "--seed", "0", "--cases", "2", "--json", str(report_path)]
        )
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["ok"] is True
        assert payload["num_cases"] == 2

    def test_verify_golden_replay(self, capsys):
        code = main(["verify", "--cases", "0", "--golden"])
        assert code == 0
        assert "golden fixtures: 8/8 match" in capsys.readouterr().out

    def test_record_golden_to_custom_dir(self, tmp_path, capsys):
        code = main(
            ["verify", "--record-golden", "--golden-dir", str(tmp_path)]
        )
        assert code == 0
        assert len(list(tmp_path.glob("*.json"))) == 8

    def test_missing_fixture_fails_replay(self, tmp_path, capsys):
        main(["verify", "--record-golden", "--golden-dir", str(tmp_path)])
        (tmp_path / "table412_row1.json").unlink()
        code = main(
            ["verify", "--cases", "0", "--golden", "--golden-dir", str(tmp_path)]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "7/8 match" in out
        assert "fixture missing" in out
