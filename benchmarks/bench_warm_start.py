"""Experiment F4.5 — warm-started fixed points (the PR-4 reuse engine).

Measures the two layers of cross-evaluation reuse separately:

* **Solver level** — walk a line of adjacent window vectors (the access
  pattern of a pattern-search sweep) and solve each one cold (balanced
  initialiser) and warm (seeded from the previous vector's converged
  queue lengths).  The stopping criteria are identical, so the entire
  difference is iterations saved.
* **End to end** — the full ARPANET windim run with ``reuse=`` off vs on
  (single worker, vectorized kernels): same optimum, wall-clock speedup.

Emits ``results/BENCH_warm_start.json``; the tiny mode backs the tier-1
smoke test and the CI regression gate.
"""

import time

from repro.analysis.tables import render_table
from repro.core.windim import windim
from repro.mva.heuristic import solve_mva_heuristic
from repro.mva.linearizer import solve_linearizer
from repro.mva.schweitzer import solve_schweitzer
from repro.netmodel.examples import arpanet_fragment, canadian_two_class

from _util import publish, publish_json

SOLVERS = {
    "mva-heuristic": solve_mva_heuristic,
    "schweitzer": solve_schweitzer,
    "linearizer": solve_linearizer,
}


def _iteration_sweep(solve, network, windows_line):
    """Cold vs warm iteration totals along a line of window vectors."""
    cold_total = 0
    warm_total = 0
    previous_seed = None
    for windows in windows_line:
        candidate = network.with_populations(windows)
        cold = solve(candidate)
        cold_total += cold.iterations
        if previous_seed is None:
            warm_total += cold.iterations
        else:
            warm = solve(candidate, warm_start=previous_seed)
            warm_total += warm.iterations
        previous_seed = cold.queue_lengths
    solves = len(windows_line)
    return {
        "solves": solves,
        "cold_iterations_per_solve": cold_total / solves,
        "warm_iterations_per_solve": warm_total / solves,
        "iteration_reduction": cold_total / max(1, warm_total),
    }


def _timed_windim_pair(network, repeats, base_kwargs):
    """Best-of-``repeats`` wall time for reuse off vs on, interleaved.

    Interleaving the two configurations within each repeat round means a
    transient load spike hits both equally instead of skewing the
    reported speedup.
    """
    best = {"off": float("inf"), "on": float("inf")}
    results = {}
    for _ in range(repeats):
        for name, extra in (("off", {}), ("on", {"reuse": True})):
            t0 = time.perf_counter()
            results[name] = windim(network, **base_kwargs, **extra)
            best[name] = min(best[name], time.perf_counter() - t0)
    return results, best


def run_warm_start_bench(tiny: bool = False) -> dict:
    """Cold-vs-warm iteration reduction + end-to-end reuse speedup."""
    if tiny:
        network = canadian_two_class(18.0, 18.0)
        line = [(k, k) for k in range(2, 7)]
        start, max_window, repeats = (6, 6), 12, 1
    else:
        network = arpanet_fragment((8.0, 8.0, 6.0, 6.0))
        line = [(k, k, k, k) for k in range(2, 17)]
        start, max_window, repeats = (12, 12, 12, 12), 24, 5

    solvers = {
        name: _iteration_sweep(solve, network, line)
        for name, solve in SOLVERS.items()
    }

    results, best = _timed_windim_pair(
        network, repeats,
        dict(start=start, max_window=max_window),
    )
    off_result, off_seconds = results["off"], best["off"]
    on_result, on_seconds = results["on"], best["on"]
    windim_part = {
        "off": {
            "wall_seconds": off_seconds,
            "evaluations": off_result.search.evaluations,
            "best_windows": list(off_result.windows),
        },
        "on": {
            "wall_seconds": on_seconds,
            "evaluations": on_result.search.evaluations,
            "best_windows": list(on_result.windows),
            "reuse_stats": on_result.reuse_stats,
        },
        "reuse_speedup": off_seconds / on_seconds,
    }

    payload = {
        "bench": "warm_start",
        "network": "canadian2" if tiny else "arpanet_fragment",
        "tiny": tiny,
        "window_line": [list(w) for w in line],
        "solvers": solvers,
        "windim": windim_part,
    }
    publish_json("BENCH_warm_start" + ("_tiny" if tiny else ""), payload)

    if tiny:
        # The text table is a full-run artifact; a tiny smoke run must
        # not clobber it (the JSON already gets its own _tiny file).
        return payload

    rows = [
        (
            name,
            stats["cold_iterations_per_solve"],
            stats["warm_iterations_per_solve"],
            stats["iteration_reduction"],
        )
        for name, stats in solvers.items()
    ]
    rows.append(
        (
            "windim (wall s)",
            off_seconds,
            on_seconds,
            windim_part["reuse_speedup"],
        )
    )
    publish(
        "warm_start",
        render_table(
            ["configuration", "cold", "warm", "ratio"],
            rows,
            title=(
                "F4.5 — warm-started fixed points: iterations/solve along a "
                "window line, and end-to-end windim wall time (reuse off vs on)"
            ),
            precision=3,
        ),
    )
    return payload


def test_warm_start_perf_regression():
    payload = run_warm_start_bench()
    # Warm starts must actually save iterations on every iterative solver.
    for name, stats in payload["solvers"].items():
        assert stats["iteration_reduction"] > 1.0, name
    # And reuse must never change the chosen optimum.
    windim_part = payload["windim"]
    assert windim_part["on"]["best_windows"] == windim_part["off"]["best_windows"]
    assert windim_part["reuse_speedup"] > 1.0
