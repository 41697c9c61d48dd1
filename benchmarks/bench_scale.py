"""Internet-scale solver-tier benchmark (SoA batching + large fixtures).

Two jobs, one file:

* **Sweep cells** — time a 64-window sweep three ways: the per-network
  ``scalar`` loop, the per-network ``vectorized`` loop, and the
  cross-network batched SoA pass
  (:func:`repro.mva.soa.solve_windows_batched`).  The guarded metric
  is the ``sweep`` cell — a thesis-scale 10-node network where
  per-solve cost is NumPy-dispatch-bound, exactly the workload SoA
  batching exists for — and tiny mode asserts its batched speedup stays
  >= 5x.  The :func:`repro.netmodel.generator.scale_fixture` presets
  chart how that advantage *shrinks* as per-network work grows and both
  paths become compute-bound.  Route-compacted packs still win at 25
  and 120 chains, so :mod:`repro.mva.autobatch` has no size gate: the
  ``soa_auto`` section records its decision next to each cell, and the
  tiny test *asserts* that no engaged cell measurably loses.
* **Hetero cell** — a mixed-topology batch through
  :func:`repro.mva.soa.solve_networks_batched` (padded packs) against
  the serial per-network loop: the campaign-batching speedup.
* **Dimensioning cell** (full mode only) — run WINDIM end to end on the
  1000-node / 500-chain ``full`` fixture under the resilient ladder
  (which stays on the thesis heuristic at this chain count) and record
  wall time, evaluations, evaluations/second and the solver mix.
  The acceptance bar is completion under the **default** evaluation
  budget — ``status == "completed"``, not ``"budget_exhausted"``.

Emits ``results/BENCH_scale.json`` (full) / ``BENCH_scale_tiny.json``
(smoke); the tiny file is the CI regression baseline.

Scalar cells time :func:`repro.mva.reference.solve_mva_heuristic` on a
few windows only (the reference kernel exists for auditability, not speed — at 120+ chains a single scalar solve costs
minutes) and the per-solve figures are reported alongside how many
windows were actually timed, so nothing is extrapolated silently.
"""

import time

import numpy as np

from repro.core.objective import WindowObjective
from repro.core.windim import windim
from repro.mva import autobatch, reference
from repro.mva.heuristic import solve_mva_heuristic
from repro.mva.soa import solve_networks_batched, solve_windows_batched
from repro.netmodel.generator import (
    SCALE_FIXTURE_SEED,
    random_network,
    scale_fixture,
)

from _util import publish_json

#: Windows per sweep cell — the "64-network sweep" of the acceptance bar.
SWEEP_WINDOWS = 64

#: Windows timed under the scalar kernel per cell (full scalar sweeps
#: would dominate the bench wall clock for no extra signal).
SCALAR_WINDOWS = {"sweep": 8, "small": 4, "medium": 2}


def _sweep_fixture():
    """The dispatch-bound guarded fixture: thesis-scale, 64-window sweep."""
    return random_network(
        num_nodes=10, num_classes=4, extra_edges=4, seed=SCALE_FIXTURE_SEED
    )


def _sweep(network, count: int = SWEEP_WINDOWS):
    """Deterministic batch of window vectors in the dimensioning range."""
    rng = np.random.default_rng(SCALE_FIXTURE_SEED)
    return [
        [int(w) for w in rng.integers(1, 9, size=network.num_chains)]
        for _ in range(count)
    ]


def _time(fn, repeats: int) -> float:
    """Best wall time (seconds) over ``repeats`` runs, warmed once."""
    fn()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _per_solve(seconds: float, solves: int) -> dict:
    return {
        "wall_seconds": seconds,
        "windows_timed": solves,
        "ms_per_solve": seconds / solves * 1e3,
        "evaluations_per_second": solves / seconds,
    }


def _sweep_cell(network, repeats: int, scalar_windows: int) -> dict:
    windows = _sweep(network)

    def per_network(batch, solve):
        for w in batch:
            solve(network.with_populations(w))

    cell = {
        "chains": network.num_chains,
        "stations": network.num_stations,
        "batched": _per_solve(
            _time(
                lambda: solve_windows_batched(network, windows, "mva-heuristic"),
                repeats,
            ),
            len(windows),
        ),
        "per_network": _per_solve(
            _time(lambda: per_network(windows, solve_mva_heuristic), repeats),
            len(windows),
        ),
    }
    if scalar_windows > 0:
        cell["scalar"] = _per_solve(
            _time(
                lambda: per_network(
                    windows[:scalar_windows], reference.solve_mva_heuristic
                ),
                1,
            ),
            scalar_windows,
        )
        cell["scalar_speedup"] = (
            cell["scalar"]["ms_per_solve"] / cell["batched"]["ms_per_solve"]
        )
    cell["batched_speedup"] = (
        cell["per_network"]["ms_per_solve"] / cell["batched"]["ms_per_solve"]
    )
    return cell


#: Mixed-topology batch size for the hetero cell.
HETERO_BATCH = 24


def _hetero_networks():
    """A deterministic mixed-topology batch (sizes, classes, windows)."""
    rng = np.random.default_rng(SCALE_FIXTURE_SEED + 1)
    networks = []
    for _ in range(HETERO_BATCH):
        classes = int(rng.integers(2, 5))
        net = random_network(
            num_nodes=int(rng.integers(6, 12)),
            num_classes=classes,
            extra_edges=int(rng.integers(0, 5)),
            seed=int(rng.integers(0, 100_000)),
        )
        windows = [int(w) for w in rng.integers(1, 9, size=classes)]
        networks.append(net.with_populations(windows))
    return networks


def _hetero_cell(repeats: int) -> dict:
    """Mixed-topology campaign batching vs the serial per-network loop."""
    networks = _hetero_networks()

    def serial():
        for net in networks:
            solve_mva_heuristic(net)

    cell = {
        "chains": max(n.num_chains for n in networks),
        "stations": max(n.num_stations for n in networks),
        "networks": len(networks),
        "batched": _per_solve(
            _time(
                lambda: solve_networks_batched(networks, "mva-heuristic"),
                repeats,
            ),
            len(networks),
        ),
        "per_network": _per_solve(
            _time(serial, repeats), len(networks)
        ),
    }
    cell["batched_speedup"] = (
        cell["per_network"]["ms_per_solve"] / cell["batched"]["ms_per_solve"]
    )
    return cell


def _autobatch_section(networks: dict, cells: dict) -> dict:
    """The auto-engagement decision next to each measured cell."""
    decisions = {}
    for name, cell in cells.items():
        objective = WindowObjective(networks[name])
        engage, reason = objective.soa_assessment(SWEEP_WINDOWS)
        decisions[name] = {
            "auto_engaged": engage,
            "reason": reason,
            "measured_batched_speedup": cell["batched_speedup"],
        }
    return {"batch_stats": autobatch.batch_stats(), "decisions": decisions}


def _dimensioning_cell() -> dict:
    """WINDIM on the full 1000-node / 500-chain fixture, default budget."""
    network = scale_fixture("full")
    t0 = time.perf_counter()
    # resilient=True (not solver="resilient") so one shared ladder
    # accumulates the health log the solver-mix column reads; step 1 is
    # the right stride for a [1, 8] box — at 500 chains every
    # exploratory sweep costs ~1000 evaluations, so the step-2 rung of
    # the default ladder would burn half the budget re-walking it.
    result = windim(
        network,
        resilient=True,
        reuse=True,
        max_window=8,
        initial_step=1,
    )
    wall = time.perf_counter() - t0
    solver_mix: dict = {}
    for health in result.health_log:
        name = health.final_solver or "failed"
        solver_mix[name] = solver_mix.get(name, 0) + 1
    return {
        "chains": network.num_chains,
        "stations": network.num_stations,
        "status": result.status,
        "converged": result.converged,
        "power": result.power,
        "evaluations": result.search.evaluations,
        "cache_lookups": result.search.lookups,
        "wall_seconds": wall,
        "evaluations_per_second": result.search.evaluations / wall,
        "ms_per_solve": wall / max(1, result.search.evaluations) * 1e3,
        "solver_mix": solver_mix,
        "window_range": [min(result.windows), max(result.windows)],
    }


def run_scale_bench(tiny: bool = False) -> dict:
    repeats = 1 if tiny else 3
    networks = {"sweep": _sweep_fixture(), "small": scale_fixture("small")}
    if not tiny:
        networks["medium"] = scale_fixture("medium")
    cells = {}
    for name, network in networks.items():
        scalar_windows = min(2, SCALAR_WINDOWS[name]) if tiny else SCALAR_WINDOWS[name]
        cells[name] = _sweep_cell(network, repeats, scalar_windows)

    payload = {
        "bench": "scale",
        "tiny": tiny,
        "repeats": repeats,
        "sweep_windows": SWEEP_WINDOWS,
        "cells": cells,
        "hetero": _hetero_cell(repeats),
        "soa_auto": _autobatch_section(networks, cells),
        # ev/s and ms/solve across the scale ladder, batched vs serial.
        "trajectory": [
            {
                "cell": preset,
                "chains": cell["chains"],
                "stations": cell["stations"],
                "batched_ms_per_solve": cell["batched"]["ms_per_solve"],
                "per_network_ms_per_solve": cell["per_network"]["ms_per_solve"],
                "batched_evaluations_per_second": cell["batched"][
                    "evaluations_per_second"
                ],
            }
            for preset, cell in cells.items()
        ],
    }
    if not tiny:
        payload["dimensioning"] = _dimensioning_cell()
    publish_json("BENCH_scale" + ("_tiny" if tiny else ""), payload)
    return payload


def test_scale_batched_speedup():
    """Tiny smoke: batched SoA >= 5x the per-network vectorized loop."""
    payload = run_scale_bench(tiny=True)
    cell = payload["cells"]["sweep"]
    assert cell["batched_speedup"] >= 5.0, cell
    # The scalar tier must remain strictly the slowest — it exists for
    # auditability, and a scalar "win" would mean the dense path broke.
    assert cell["scalar_speedup"] > cell["batched_speedup"]
    # The 25-chain preset sits near the top of the auto-batching regime:
    # the win there is real but thin (~1.1x full-mode on one core), so
    # only guard against a *collapse* — a tensor-path regression shows
    # up as << 1, host noise as a few percent.
    assert payload["cells"]["small"]["batched_speedup"] >= 0.75
    # The auto-engagement regression guard: batching has no size gate,
    # so every cell engages, and none may measurably lose.
    for name, decision in payload["soa_auto"]["decisions"].items():
        if decision["auto_engaged"]:
            assert decision["measured_batched_speedup"] >= 0.75, (
                name,
                decision,
            )
    # Mixed-topology campaign batching must not collapse either (the
    # same dispatch-amortisation win).
    assert payload["hetero"]["batched_speedup"] >= 0.75, payload["hetero"]


def test_scale_dimensioning_full():
    """Full campaign: the 1000-node dimensioning finishes in budget.

    Long (tens of minutes): runs the real full-mode bench.  Excluded from
    tier-1 by ``testpaths``; invoke explicitly to refresh the artifact.
    """
    payload = run_scale_bench(tiny=False)
    dim = payload["dimensioning"]
    assert dim["status"] == "completed", dim
    # The ladder never swaps in the asymptotic solver by size.
    assert set(dim["solver_mix"]) == {"mva-heuristic"}, dim["solver_mix"]
