"""CI perf-regression gate over the committed tiny-mode bench baselines.

The full benches (``BENCH_pattern_search.json`` etc.) are artifacts: they
measure the real ARPANET workload but take long enough that CI only
uploads them.  This script is the *gate*: it re-runs every JSON-emitting
bench in tiny mode (seconds, not minutes), loads the committed
``benchmarks/results/BENCH_*_tiny.json`` baselines — from ``git show
HEAD:...`` when available, falling back to the checked-out files — and
fails when a fresh measurement regresses past a generous tolerance.

Tolerances are deliberately loose because shared CI runners are noisy:

* wall-clock throughput (evaluations/second, ms/solve) may degrade up to
  ``WALL_TOLERANCE``x before failing — this catches order-of-magnitude
  mistakes (an accidentally quadratic path, a dropped cache), not
  single-digit-percent drift;
* iteration counts are deterministic, so warm-started solves get the
  much tighter ``ITERATION_TOLERANCE``x — more iterations per solve
  means the reuse engine itself regressed, no noise excuse.

Payload *metadata* — the ``host`` block ``publish_json`` stamps into
every payload (cpu_count, python version, platform), and any run rows
present on one side only (e.g. a parallel row measured on a multi-core
host but absent from a baseline recorded before it existed) — is
ignored: the gate compares the metrics both sides actually share, so
baselines stay valid across hosts and across payload-schema growth.

Run from the repository root::

    PYTHONPATH=src python benchmarks/check_regression.py
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: A fresh wall-clock metric may be this many times slower than baseline.
WALL_TOLERANCE = 4.0
#: A fresh (deterministic) iteration count may exceed baseline by this factor.
ITERATION_TOLERANCE = 1.5


def load_baseline(name: str) -> dict:
    """Committed tiny baseline ``name`` (git HEAD first, then disk).

    Prefers ``git show`` so that a bench run earlier in the same CI job
    (which rewrites the on-disk tiny files) can never compare fresh
    numbers against themselves.
    """
    rel = f"benchmarks/results/{name}.json"
    try:
        blob = subprocess.run(
            ["git", "show", f"HEAD:{rel}"],
            cwd=REPO_ROOT,
            capture_output=True,
            check=True,
            text=True,
        ).stdout
        return json.loads(blob)
    except (subprocess.CalledProcessError, FileNotFoundError, OSError):
        return json.loads((RESULTS_DIR / f"{name}.json").read_text())


def compare_metric(
    label: str, fresh: float, baseline: float, tolerance: float,
    higher_is_better: bool,
) -> "str | None":
    """One metric check; returns a failure message or None.

    Non-positive baselines are skipped — they carry no regression signal.
    """
    if baseline <= 0:
        return None
    if higher_is_better:
        floor = baseline / tolerance
        if fresh < floor:
            return (
                f"{label}: {fresh:.4g} fell below {floor:.4g} "
                f"(baseline {baseline:.4g} / tolerance {tolerance}x)"
            )
    else:
        ceiling = baseline * tolerance
        if fresh > ceiling:
            return (
                f"{label}: {fresh:.4g} exceeded {ceiling:.4g} "
                f"(baseline {baseline:.4g} * tolerance {tolerance}x)"
            )
    return None


def shared_rows(fresh: dict, baseline: dict, table: str) -> "list[tuple]":
    """Rows present in both payloads' ``table`` — metadata-drift safe.

    Rows only one side has (a new bench variant, a host-gated parallel
    row) and non-dict entries (stray metadata) are skipped with a note
    instead of a KeyError, so payload-schema growth never breaks the
    gate retroactively.
    """
    fresh_table = fresh.get(table) or {}
    rows = []
    for name, row in (baseline.get(table) or {}).items():
        fresh_row = fresh_table.get(name)
        if not isinstance(row, dict) or not isinstance(fresh_row, dict):
            print(f"  note: {table}[{name}] not comparable on both sides; skipped")
            continue
        rows.append((name, fresh_row, row))
    return rows


def check_pattern_search(fresh: dict, baseline: dict) -> "list[str]":
    failures = []
    for name, fresh_run, run in shared_rows(fresh, baseline, "runs"):
        failure = compare_metric(
            f"pattern_search[{name}].evaluations_per_second",
            fresh_run["evaluations_per_second"],
            run["evaluations_per_second"],
            WALL_TOLERANCE,
            higher_is_better=True,
        )
        if failure:
            failures.append(failure)
    return failures


def check_warm_start(fresh: dict, baseline: dict) -> "list[str]":
    failures = []
    for name, fresh_stats, stats in shared_rows(fresh, baseline, "solvers"):
        failure = compare_metric(
            f"warm_start[{name}].warm_iterations_per_solve",
            fresh_stats["warm_iterations_per_solve"],
            stats["warm_iterations_per_solve"],
            ITERATION_TOLERANCE,
            higher_is_better=False,
        )
        if failure:
            failures.append(failure)
    return failures


def check_mva_kernels(fresh: dict, baseline: dict) -> "list[str]":
    failures = []
    for cell, fresh_stats, stats in shared_rows(fresh, baseline, "cells"):
        for kernel in ("scalar", "vectorized"):
            failure = compare_metric(
                f"mva_kernels[{cell}][{kernel}].ms_per_solve",
                fresh_stats[kernel]["ms_per_solve"],
                stats[kernel]["ms_per_solve"],
                WALL_TOLERANCE,
                higher_is_better=False,
            )
            if failure:
                failures.append(failure)
    return failures


def check_scale(fresh: dict, baseline: dict) -> "list[str]":
    failures = []
    for cell, fresh_stats, stats in shared_rows(fresh, baseline, "cells"):
        failure = compare_metric(
            f"scale[{cell}].batched.ms_per_solve",
            fresh_stats["batched"]["ms_per_solve"],
            stats["batched"]["ms_per_solve"],
            WALL_TOLERANCE,
            higher_is_better=False,
        )
        if failure:
            failures.append(failure)
        failure = compare_metric(
            f"scale[{cell}].batched_speedup",
            fresh_stats["batched_speedup"],
            stats["batched_speedup"],
            WALL_TOLERANCE,
            higher_is_better=True,
        )
        if failure:
            failures.append(failure)
    # The mixed-topology campaign-batching cell (top-level, not a sweep
    # cell; absent from older baselines).
    fresh_hetero = fresh.get("hetero")
    base_hetero = baseline.get("hetero")
    if isinstance(fresh_hetero, dict) and isinstance(base_hetero, dict):
        for metric, higher in (
            ("batched_speedup", True),
        ):
            failure = compare_metric(
                f"scale[hetero].{metric}",
                fresh_hetero[metric],
                base_hetero[metric],
                WALL_TOLERANCE,
                higher_is_better=higher,
            )
            if failure:
                failures.append(failure)
        failure = compare_metric(
            "scale[hetero].batched.ms_per_solve",
            fresh_hetero["batched"]["ms_per_solve"],
            base_hetero["batched"]["ms_per_solve"],
            WALL_TOLERANCE,
            higher_is_better=False,
        )
        if failure:
            failures.append(failure)
    return failures


CHECKS = {
    "BENCH_pattern_search_tiny": ("run_pattern_search_bench", check_pattern_search),
    "BENCH_warm_start_tiny": ("run_warm_start_bench", check_warm_start),
    "BENCH_mva_kernels_tiny": ("run_mva_kernels_bench", check_mva_kernels),
    "BENCH_scale_tiny": ("run_scale_bench", check_scale),
}

RUNNERS = {
    "run_pattern_search_bench": "bench_pattern_search",
    "run_warm_start_bench": "bench_warm_start",
    "run_mva_kernels_bench": "bench_mva_kernels",
    "run_scale_bench": "bench_scale",
}


def main() -> int:
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
    failures = []
    for name, (runner, check) in CHECKS.items():
        try:
            baseline = load_baseline(name)
        except FileNotFoundError:
            print(f"SKIP {name}: no committed baseline yet")
            continue
        module = __import__(RUNNERS[runner])
        fresh = getattr(module, runner)(tiny=True)
        bench_failures = check(fresh, baseline)
        status = "FAIL" if bench_failures else "ok"
        print(f"{status:>4} {name}")
        failures.extend(bench_failures)
    for failure in failures:
        print(f"  regression: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
