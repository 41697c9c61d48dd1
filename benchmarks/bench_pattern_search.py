"""Experiment F4.4 — pattern-search behaviour (Figs. 4.2–4.4) and
optimiser comparison.

Regenerates a search trajectory on the real power surface (the base-point
sequence of Fig. 4.4) and compares Hooke–Jeeves against coordinate descent
and exhaustive search in evaluations-to-solution.

Also the perf-regression anchor for the search stack: emits
``results/BENCH_pattern_search.json`` with end-to-end window dimensioning
throughput (evaluations/second) on the ARPANET fragment per solver
kernel, plus the multi-worker pool's throughput reported separately.
The ``scalar`` row searches with the reference heuristic of
:mod:`repro.mva.reference` passed as a custom solver.
"""

import time

import pytest

from repro.analysis.tables import render_table
from repro.core.objective import WindowObjective
from repro.core.windim import windim
from repro.mva import reference
from repro.netmodel.examples import arpanet_fragment, canadian_two_class
from repro.search.coordinate import coordinate_descent
from repro.search.exhaustive import exhaustive_search
from repro.search.pattern import pattern_search
from repro.search.space import IntegerBox

from _util import publish, publish_json


@pytest.fixture(scope="module")
def surface():
    net = canadian_two_class(18.0, 18.0)
    return WindowObjective(net)


def test_trajectory_and_optimizer_comparison(surface):
    space = IntegerBox.windows(2, 12)
    start = (10, 10)

    pattern = pattern_search(surface, start, space)
    coordinate = coordinate_descent(surface, start, space)
    exhaustive = exhaustive_search(surface, space)

    trajectory = " -> ".join(str(list(p)) for p in pattern.base_points)
    rows = [
        ("pattern search", str(list(pattern.best_point)),
         1.0 / pattern.best_value, pattern.evaluations),
        ("coordinate descent", str(list(coordinate.best_point)),
         1.0 / coordinate.best_value, coordinate.evaluations),
        ("exhaustive", str(list(exhaustive.best_point)),
         1.0 / exhaustive.best_value, exhaustive.evaluations),
    ]
    text = render_table(
        ["optimiser", "windows", "power", "evaluations"],
        rows,
        title=(
            "F4.4 — optimiser comparison on the 2-class power surface "
            f"(start {list(start)})\npattern trajectory: {trajectory}"
        ),
        precision=2,
    )
    publish("pattern_search", text)

    # Pattern search reaches within 1% of the global optimum at a
    # fraction of exhaustive cost.
    assert 1.0 / pattern.best_value >= 0.99 / exhaustive.best_value
    assert pattern.evaluations < exhaustive.evaluations / 2

    # And is never worse than coordinate descent here.
    assert pattern.best_value <= coordinate.best_value + 1e-12


def _reference_heuristic(network, control=None):
    """The scalar reference heuristic as a custom ``windim`` solver."""
    return reference.solve_mva_heuristic(network, control=control)


def _timed_windim_grid(network, repeats, configurations):
    """Best-of-``repeats`` wall time for several windim configurations.

    The configurations are *interleaved* within each repeat round rather
    than timed as sequential blocks, so a transient load spike degrades
    every configuration's round equally instead of silently skewing the
    speedup ratios between them.
    """
    best = {name: float("inf") for name in configurations}
    results = {}
    for _ in range(repeats):
        for name, kwargs in configurations.items():
            t0 = time.perf_counter()
            results[name] = windim(network, **kwargs)
            best[name] = min(best[name], time.perf_counter() - t0)
    runs = {}
    for name in configurations:
        result = results[name]
        run = {
            "wall_seconds": best[name],
            "evaluations": result.search.evaluations,
            "evaluations_per_second": result.search.evaluations / best[name],
            "best_windows": list(result.windows),
            "trajectory": [list(p) for p in result.search.base_points],
        }
        health = result.pool_health
        if health is not None:
            run["pool"] = {
                "workers": health.workers,
                "start_method": health.start_method,
                "tasks_completed": health.tasks_completed,
                "respawns": health.respawns,
                "payload_bytes_per_task": health.payload_bytes_per_task,
                # One PID per worker slot and zero respawns = the same
                # processes served every batch of the run.
                "stable_pids": (
                    health.respawns == 0
                    and len(set(health.worker_pids)) == health.workers
                ),
            }
        runs[name] = run
    return runs


def run_pattern_search_bench(tiny: bool = False) -> dict:
    """ARPANET pattern-search throughput, scalar vs vectorized vs pool.

    The single-worker scalar/vectorized pair is the regression signal
    (same search, same evaluation count — pure kernel speed).  The
    multi-worker ``pool`` row runs the same search on the persistent
    shared-memory worker fleet: the search demands one point at a time,
    so it makes the same evaluations and its speedup measures the
    pool's per-evaluation overhead, not parallelism.  Its ``pool``
    sub-record carries the PID stability and per-task payload-byte
    evidence.
    """
    if tiny:
        network = canadian_two_class(18.0, 18.0)
        start, max_window, repeats = (6, 6), 12, 1
        pool_workers = 2
    else:
        network = arpanet_fragment((8.0, 8.0, 6.0, 6.0))
        start, max_window, repeats = (12, 12, 12, 12), 24, 9
        pool_workers = 8

    base = dict(start=start, max_window=max_window)
    # "reuse" (PR 4) is the same single-worker vectorized search, but
    # fixed points warm-start from the nearest solved neighbour (with
    # Aitken acceleration) — identical optimum by construction, fewer
    # iterations per solve.
    configurations = {
        "scalar": dict(base, solver=_reference_heuristic),
        "vectorized": base,
        "pool": dict(base, workers=pool_workers),
        "reuse": dict(base, reuse=True),
    }
    timed = _timed_windim_grid(network, repeats, configurations)
    annotations = {
        "scalar": ("scalar", 1),
        "vectorized": ("vectorized", 1),
        "pool": ("vectorized", pool_workers),
        "reuse": ("vectorized", 1),
    }
    runs = {
        name: {
            **timed[name],
            "backend": annotations[name][0],
            "workers": annotations[name][1],
        }
        for name in configurations
    }

    payload = {
        "bench": "pattern_search",
        "network": "canadian2" if tiny else "arpanet_fragment",
        "tiny": tiny,
        "start": list(start),
        "max_window": max_window,
        "repeats": repeats,
        "runs": runs,
        "vectorized_speedup_vs_scalar": (
            runs["vectorized"]["evaluations_per_second"]
            / runs["scalar"]["evaluations_per_second"]
        ),
        "pool_speedup_vs_serial_vectorized": (
            runs["pool"]["evaluations_per_second"]
            / runs["vectorized"]["evaluations_per_second"]
        ),
        "reuse_speedup_vs_serial_vectorized": (
            runs["reuse"]["evaluations_per_second"]
            / runs["vectorized"]["evaluations_per_second"]
        ),
    }
    # Tiny (smoke) runs get their own file so they never clobber the real
    # artifact CI uploads.
    publish_json("BENCH_pattern_search" + ("_tiny" if tiny else ""), payload)
    return payload


def test_pattern_search_perf_regression():
    payload = run_pattern_search_bench()
    runs = payload["runs"]
    # Both single-worker searches walk the identical trajectory.
    assert runs["vectorized"]["best_windows"] == runs["scalar"]["best_windows"]
    assert runs["vectorized"]["evaluations"] == runs["scalar"]["evaluations"]
    # The vectorized kernels must keep their >= 2x end-to-end win on the
    # ARPANET dimensioning run (the acceptance bar of the kernel work).
    assert payload["vectorized_speedup_vs_scalar"] >= 2.0
    # The persistent pool must make the serial search's evaluations and
    # walk its *identical accepted-move trajectory*, on a fleet that never
    # lost a worker, shipping micro payloads instead of the model.
    assert runs["pool"]["best_windows"] == runs["scalar"]["best_windows"]
    assert runs["pool"]["trajectory"] == runs["scalar"]["trajectory"]
    assert runs["pool"]["evaluations"] == runs["scalar"]["evaluations"]
    pool_stats = runs["pool"]["pool"]
    assert pool_stats["stable_pids"], "worker PIDs changed across batches"
    assert pool_stats["respawns"] == 0
    assert 0 < pool_stats["payload_bytes_per_task"] < 4096
    # Reuse walks the identical trajectory to the identical optimum and
    # must clear its >= 1.5x evaluations/sec acceptance bar over the
    # plain single-worker vectorized run.
    assert runs["reuse"]["best_windows"] == runs["vectorized"]["best_windows"]
    assert runs["reuse"]["evaluations"] == runs["vectorized"]["evaluations"]
    assert payload["reuse_speedup_vs_serial_vectorized"] >= 1.5


def test_pattern_search_speed(benchmark, surface):
    space = IntegerBox.windows(2, 12)
    benchmark(lambda: pattern_search(surface, (10, 10), space))


def test_exhaustive_search_speed(benchmark, surface):
    space = IntegerBox.windows(2, 12)
    benchmark(lambda: exhaustive_search(surface, space))
