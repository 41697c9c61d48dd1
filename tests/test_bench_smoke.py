"""Tier-1 smoke coverage for the perf-regression harness.

The real benchmarks live outside ``testpaths`` and only run when invoked
explicitly (``pytest benchmarks``), so a broken bench entrypoint would
otherwise surface long after the change that broke it.  Each JSON-emitting
bench exposes a ``run_*_bench(tiny=True)`` mode sized for the fast suite;
this file drives those and checks the emitted payload shape that CI's
artifact upload and regression diffing rely on.  Payloads are emitted
into a temporary directory, so a test run never rewrites the committed
baselines under ``benchmarks/results/``.
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

BENCHMARKS_DIR = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture(scope="module", autouse=True)
def _benchmarks_importable():
    sys.path.insert(0, str(BENCHMARKS_DIR))
    try:
        yield
    finally:
        sys.path.remove(str(BENCHMARKS_DIR))


@pytest.fixture
def results_dir(monkeypatch, tmp_path):
    """Redirect every bench JSON into ``tmp_path``."""
    import _util

    monkeypatch.setattr(_util, "RESULTS_DIR", tmp_path)
    return tmp_path


def _check_run(run: dict) -> None:
    assert run["wall_seconds"] > 0
    assert run["evaluations"] > 0
    assert run["evaluations_per_second"] > 0
    assert run["backend"] in ("scalar", "vectorized")
    assert run["workers"] >= 1


def test_pattern_search_bench_tiny_mode(results_dir):
    from bench_pattern_search import run_pattern_search_bench

    payload = run_pattern_search_bench(tiny=True)
    assert payload["tiny"] is True
    assert set(payload["runs"]) == {"scalar", "vectorized", "pool", "reuse"}
    for run in payload["runs"].values():
        _check_run(run)
    # Same search under every configuration: identical optimum, and the
    # persistent pool additionally makes the same evaluations and walks
    # the identical accepted-move trajectory on a fleet that never lost a
    # worker.
    optima = {tuple(r["best_windows"]) for r in payload["runs"].values()}
    assert len(optima) == 1
    pool_run = payload["runs"]["pool"]
    assert pool_run["trajectory"] == payload["runs"]["scalar"]["trajectory"]
    assert pool_run["evaluations"] == payload["runs"]["scalar"]["evaluations"]
    assert pool_run["pool"]["stable_pids"]
    assert pool_run["pool"]["respawns"] == 0
    assert pool_run["pool"]["payload_bytes_per_task"] > 0
    assert payload["pool_speedup_vs_serial_vectorized"] > 0
    assert payload["reuse_speedup_vs_serial_vectorized"] > 0

    emitted = json.loads(
        (results_dir / "BENCH_pattern_search_tiny.json").read_text()
    )
    assert emitted["bench"] == "pattern_search"
    assert emitted["runs"]["scalar"]["workers"] == 1


def test_warm_start_bench_tiny_mode(results_dir):
    from bench_warm_start import run_warm_start_bench

    payload = run_warm_start_bench(tiny=True)
    assert payload["tiny"] is True
    assert set(payload["solvers"]) == {
        "mva-heuristic", "schweitzer", "linearizer"
    }
    for stats in payload["solvers"].values():
        assert stats["solves"] > 0
        assert stats["cold_iterations_per_solve"] > 0
        assert stats["warm_iterations_per_solve"] > 0
        assert stats["iteration_reduction"] > 0
    windim_part = payload["windim"]
    assert windim_part["on"]["best_windows"] == windim_part["off"]["best_windows"]
    assert windim_part["reuse_speedup"] > 0

    emitted = json.loads(
        (results_dir / "BENCH_warm_start_tiny.json").read_text()
    )
    assert emitted["bench"] == "warm_start"


def test_regression_gate_comparison_logic():
    """The CI gate's tolerance arithmetic, without running any bench."""
    from check_regression import compare_metric

    # Higher-is-better (throughput): 4x slower fails, 3x slower passes.
    assert compare_metric("m", 100.0, 100.0, 4.0, higher_is_better=True) is None
    assert compare_metric("m", 30.0, 100.0, 4.0, higher_is_better=True) is None
    assert compare_metric("m", 20.0, 100.0, 4.0, higher_is_better=True)

    # Lower-is-better (iterations): growth past tolerance fails.
    assert compare_metric("m", 12.0, 10.0, 1.5, higher_is_better=False) is None
    assert compare_metric("m", 16.0, 10.0, 1.5, higher_is_better=False)

    # Degenerate baselines carry no signal.
    assert compare_metric("m", 5.0, 0.0, 4.0, higher_is_better=True) is None


def test_mva_kernels_bench_tiny_mode(results_dir):
    from bench_mva_kernels import run_mva_kernels_bench

    payload = run_mva_kernels_bench(tiny=True)
    assert payload["tiny"] is True
    assert payload["cells"], "tiny mode must still measure at least one cell"
    for cell in payload["cells"].values():
        for backend in ("scalar", "vectorized"):
            assert cell[backend]["wall_seconds"] > 0
            assert cell[backend]["ms_per_solve"] > 0
        assert cell["vectorized_speedup"] > 0

    emitted = json.loads(
        (results_dir / "BENCH_mva_kernels_tiny.json").read_text()
    )
    assert emitted["bench"] == "mva_kernels"
    assert emitted["workers"] == 1


@pytest.mark.parametrize(
    "name, rewritten", [("BENCH_demo", True), ("BENCH_demo_tiny", False)]
)
def test_noise_guard_applies_to_tiny_files_only(results_dir, name, rewritten):
    from _util import publish_json

    path = publish_json(name, {"bench": "demo", "wall_seconds": 1.0})
    publish_json(name, {"bench": "demo", "wall_seconds": 1.3})
    wall = json.loads(path.read_text())["wall_seconds"]
    assert wall == (1.3 if rewritten else 1.0)
