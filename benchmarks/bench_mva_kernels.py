"""Perf-regression anchor for the MVA solver kernels.

Times every solver with a scalar reference kernel (heuristic,
Schweitzer, Linearizer, exact MVA) on the thesis fixture networks, once
as :mod:`repro.mva.reference` (the ``scalar`` column) and once as the
library runs it (the ``vectorized`` column), and emits
``results/BENCH_mva_kernels.json`` — milliseconds per solve, solves per
second, and the vectorized/scalar speedup per (solver, network) cell.

The parity wall (``tests/test_backend_parity.py``) guarantees the two
kernels agree numerically; this file guards the *reason the vectorized
kernels exist* — their speed — against regression.
"""

import time

from repro.exact.mva_exact import solve_mva_exact
from repro.mva import reference
from repro.mva.heuristic import solve_mva_heuristic
from repro.mva.linearizer import solve_linearizer
from repro.mva.schweitzer import solve_schweitzer
from repro.netmodel.examples import (
    arpanet_fragment,
    canadian_four_class,
    canadian_two_class,
)

from _util import publish_json

#: solver -> {kernel column: solve function}.
SOLVERS = {
    "mva-heuristic": {
        "scalar": reference.solve_mva_heuristic,
        "vectorized": solve_mva_heuristic,
    },
    "schweitzer": {
        "scalar": reference.solve_schweitzer,
        "vectorized": solve_schweitzer,
    },
    "linearizer": {
        "scalar": reference.solve_linearizer,
        "vectorized": solve_linearizer,
    },
    "mva-exact": {
        "scalar": reference.solve_mva_exact,
        "vectorized": solve_mva_exact,
    },
}

#: Exact MVA enumerates the window lattice, so it only runs on the
#: fixtures whose lattice stays small.
EXACT_NETWORKS = ("canadian2", "canadian4")


def _networks(tiny: bool) -> dict:
    if tiny:
        return {"canadian2": canadian_two_class(18.0, 18.0)}
    return {
        "canadian2": canadian_two_class(18.0, 18.0),
        "canadian4": canadian_four_class(6.0, 6.0, 6.0, 12.0),
        "arpanet": arpanet_fragment((8.0, 8.0, 6.0, 6.0)).with_populations(
            [12, 12, 12, 12]
        ),
    }


def _time_solver(solve, network, repeats: int) -> float:
    """Best per-solve wall time (seconds) over ``repeats`` timed runs."""
    solve(network)  # warm caches outside the timing
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        solve(network)
        best = min(best, time.perf_counter() - t0)
    return best


def run_mva_kernels_bench(tiny: bool = False) -> dict:
    repeats = 1 if tiny else 10
    cells = {}
    for net_name, network in _networks(tiny).items():
        for solver_name, kernels in SOLVERS.items():
            if solver_name == "mva-exact" and net_name not in EXACT_NETWORKS:
                continue
            cell = {}
            for kernel, solve in kernels.items():
                seconds = _time_solver(solve, network, repeats)
                cell[kernel] = {
                    "backend": kernel,
                    "wall_seconds": seconds,
                    "ms_per_solve": seconds * 1e3,
                    "solves_per_second": 1.0 / seconds,
                }
            cell["vectorized_speedup"] = (
                cell["scalar"]["wall_seconds"]
                / cell["vectorized"]["wall_seconds"]
            )
            cells[f"{solver_name}/{net_name}"] = cell

    payload = {
        "bench": "mva_kernels",
        "tiny": tiny,
        "repeats": repeats,
        "workers": 1,
        "cells": cells,
    }
    # Tiny (smoke) runs get their own file so they never clobber the real
    # artifact CI uploads.
    publish_json("BENCH_mva_kernels" + ("_tiny" if tiny else ""), payload)
    return payload


def test_mva_kernels_perf_regression():
    payload = run_mva_kernels_bench()
    cells = payload["cells"]
    # Every (solver, fixture) pair was actually measured under both kernels.
    assert all("vectorized_speedup" in cell for cell in cells.values())
    # The vectorized kernels must stay clearly ahead where batching pays:
    # the multichain heuristic on the 4-chain fixtures.
    assert cells["mva-heuristic/arpanet"]["vectorized_speedup"] >= 1.2
    assert cells["mva-exact/canadian4"]["vectorized_speedup"] >= 1.5
