"""The scalar reference kernels: the thesis recurrences as plain loops.

Each function here solves the same model as its namesake in
:mod:`repro.mva` or :mod:`repro.exact`, one chain (or one population
vector) at a time over dense ``(R, L)`` state, the way the thesis states
it.  They are the executable specification the fast kernels are diffed
against: the parity wall (``tests/test_backend_parity.py``) and the
verification oracle's ``mva-exact`` and ``mva-heuristic`` entries call
them directly.  Nothing on a run's path imports this module.

The fast fixed points carry route-compacted, slot-major state and sum
routes slot by slot, where these loops sum pairwise over all stations,
so the two agree to rounding rather than bit for bit.

A search on the reference kernel passes it as a custom solver::

    windim(net, solver=lambda n, control=None: solve_mva_heuristic(n, control=control))
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import ModelError
from repro.exact.mva_exact import check_lattice
from repro.exact.states import population_vectors_by_total
from repro.mva.accel import AitkenAccelerator, solve_extras
from repro.mva.convergence import IterationControl
from repro.mva.heuristic import initial_queue_lengths
from repro.mva.linearizer import _linearize
from repro.mva.single_chain import solve_single_chain
from repro.mva.warmstart import validate_warm_start
from repro.queueing.network import ClosedNetwork
from repro.solution import NetworkSolution

__all__ = [
    "solve_mva_heuristic",
    "solve_schweitzer",
    "solve_linearizer",
    "solve_mva_exact",
]


def solve_mva_heuristic(
    network: ClosedNetwork,
    control: Optional[IterationControl] = None,
    initializer: str = "balanced",
    warm_start: Optional[np.ndarray] = None,
) -> NetworkSolution:
    """The §4.2 heuristic: dense ``(R, L)`` state, per-chain recursions.

    Each sweep isolates every chain in turn and runs the exact
    single-chain recursion (:func:`~repro.mva.single_chain.
    solve_single_chain`) over all ``L`` stations — the thesis recurrences
    line by line.  Parameters and result mirror
    :func:`repro.mva.heuristic.solve_mva_heuristic`.
    """
    if control is None:
        control = IterationControl()
    demands = network.demands
    num_chains = demands.shape[0]
    populations = network.populations.astype(float)
    layout = network.route_layout
    delay_mask = layout.delay_mask

    if warm_start is not None:
        queue_lengths = validate_warm_start(network, warm_start)
        accelerator = AitkenAccelerator() if control.damping >= 1.0 else None
    else:
        queue_lengths = initial_queue_lengths(network, initializer)
        accelerator = None
    throughputs = np.zeros(num_chains)
    waiting = np.zeros_like(demands)
    sigma = np.zeros_like(demands)
    active = [r for r in range(num_chains) if populations[r] > 0]
    active_mask = populations > 0

    visited_demand = np.where(layout.visit_mask, demands, 0.0).sum(axis=1)
    if np.any(active_mask & (visited_demand <= 0)):
        bad = int(np.flatnonzero(active_mask & (visited_demand <= 0))[0])
        raise ModelError(
            f"chain {network.chains[bad].name!r} has zero total demand"
        )

    delay_row = delay_mask[None, :]
    invisible = ~layout.visit_mask

    iterations = 0
    residual = float("inf")
    for iterations in range(1, control.max_iterations + 1):
        # STEP 2 — own-chain queue-length increments from the isolated
        # single-chain problem with inflated service times.
        total_by_station = queue_lengths.sum(axis=0)
        others = total_by_station[None, :] - queue_lengths
        scaled = np.where(delay_row, demands, demands * (1.0 + others))
        sigma[:] = 0.0
        for r in active:
            trace = solve_single_chain(
                scaled[r], int(network.populations[r]), delay_station=delay_mask
            )
            sigma[r] = trace.increment()

        # STEP 3 — arrival theorem with N(D - u_r) ~= N(D) - sigma(r-).
        seen = np.maximum(total_by_station[None, :] - sigma, 0.0)
        waiting = np.where(delay_row, demands, demands * (1.0 + seen))
        waiting[invisible] = 0.0

        # STEP 4 — Little's law for chains.
        cycle_times = waiting.sum(axis=1)
        new_throughputs = np.where(
            active_mask,
            populations / np.where(cycle_times > 0, cycle_times, 1.0),
            0.0,
        )
        new_throughputs = control.apply_damping(new_throughputs, throughputs)

        # STEP 5 — Little's law for queues.
        queue_lengths = new_throughputs[:, None] * waiting

        # STEP 6 — stopping criterion on the throughput vector.
        residual = control.residual(new_throughputs, throughputs)
        throughputs = new_throughputs
        if residual < control.tolerance:
            break
        if accelerator is not None:
            accelerated = accelerator.push(queue_lengths)
            if accelerated is not None:
                queue_lengths = accelerated
    return _finish(
        NetworkSolution(
            network=network,
            throughputs=throughputs,
            queue_lengths=queue_lengths,
            waiting_times=waiting,
            method="mva-heuristic",
            iterations=iterations,
            converged=residual < control.tolerance,
            extras=solve_extras(residual, accelerator),
        ),
        control,
    )


def solve_schweitzer(
    network: ClosedNetwork,
    control: Optional[IterationControl] = None,
    warm_start: Optional[np.ndarray] = None,
) -> NetworkSolution:
    """Schweitzer–Bard AMVA: dense ``(R, L)`` state, per-chain loops.

    Parameters and result mirror :func:`repro.mva.schweitzer.
    solve_schweitzer`.
    """
    if control is None:
        control = IterationControl()
    demands = network.demands
    num_chains = demands.shape[0]
    populations = network.populations.astype(float)
    layout = network.route_layout

    accelerator = None
    if warm_start is not None:
        queue_lengths = validate_warm_start(network, warm_start)
        accelerator = AitkenAccelerator() if control.damping >= 1.0 else None
    else:
        # Balanced start, as in the thesis heuristic.
        queue_lengths = np.zeros_like(demands)
        for r in range(num_chains):
            stations = network.visited_stations(r)
            if populations[r] > 0 and stations.size > 0:
                queue_lengths[r, stations] = populations[r] / stations.size

    throughputs = np.zeros(num_chains)
    waiting = np.zeros_like(demands)
    active = [r for r in range(num_chains) if populations[r] > 0]

    # Scaling factor (D_r - 1)/D_r of the own-chain term; zero-population
    # chains never enter the loops below.
    shrink = np.ones(num_chains)
    for r in active:
        shrink[r] = (populations[r] - 1.0) / populations[r]

    delay_row = layout.delay_mask[None, :]
    invisible = ~layout.visit_mask

    iterations = 0
    residual = float("inf")
    for iterations in range(1, control.max_iterations + 1):
        total_by_station = queue_lengths.sum(axis=0)
        # Arrival-instant estimate: total minus the own-chain share removed.
        seen = total_by_station[None, :] - queue_lengths * (1.0 - shrink[:, None])
        waiting = np.where(delay_row, demands, demands * (1.0 + seen))
        waiting[invisible] = 0.0

        new_throughputs = np.zeros(num_chains)
        for r in active:
            cycle_time = waiting[r].sum()
            if cycle_time <= 0:
                raise ModelError(
                    f"chain {network.chains[r].name!r} has zero total demand"
                )
            new_throughputs[r] = populations[r] / cycle_time
        new_throughputs = control.apply_damping(new_throughputs, throughputs)
        queue_lengths = new_throughputs[:, None] * waiting

        residual = control.residual(new_throughputs, throughputs)
        throughputs = new_throughputs
        if residual < control.tolerance:
            break
        if accelerator is not None:
            accelerated = accelerator.push(queue_lengths)
            if accelerated is not None:
                queue_lengths = accelerated
    return _finish(
        NetworkSolution(
            network=network,
            throughputs=throughputs,
            queue_lengths=queue_lengths,
            waiting_times=waiting,
            method="schweitzer",
            iterations=iterations,
            converged=residual < control.tolerance,
            extras=solve_extras(residual, accelerator),
        ),
        control,
    )


def _finish(solution: NetworkSolution, control: IterationControl) -> NetworkSolution:
    """Warn (or raise) on a cut solve, as the fast solvers do."""
    if not solution.converged:
        control.on_exhausted(
            solution.method, solution.iterations, solution.extras["residual"]
        )
    return solution


def solve_linearizer(
    network: ClosedNetwork,
    control: Optional[IterationControl] = None,
    refinements: int = 2,
    warm_start: Optional[np.ndarray] = None,
) -> NetworkSolution:
    """Linearizer with the nested per-chain core loops.

    The outer refinement passes are :func:`repro.mva.linearizer.
    solve_linearizer`'s; only the core fixed point differs.
    """
    return _linearize(network, control, refinements, warm_start, _linearizer_core)


def _linearizer_core(
    demands: np.ndarray,
    populations: np.ndarray,
    delay_mask: np.ndarray,
    visit_mask: np.ndarray,
    deltas: np.ndarray,
    control: IterationControl,
    queue_lengths: np.ndarray,
):
    """One population vector with frozen deltas, one arriving chain at a time."""
    num_chains, num_stations = demands.shape
    active = [r for r in range(num_chains) if populations[r] > 0]
    throughputs = np.zeros(num_chains)
    waiting = np.zeros_like(demands)
    iterations = 0
    residual = float("inf")
    for iterations in range(1, control.max_iterations + 1):
        fractions = np.zeros_like(demands)
        for r in active:
            fractions[r] = queue_lengths[r] / populations[r]

        new_throughputs = np.zeros(num_chains)
        for j in active:
            # Estimated queue lengths seen by an arriving chain-j customer.
            seen = np.zeros(num_stations)
            for r in active:
                reduced = populations[r] - (1.0 if r == j else 0.0)
                seen += reduced * np.clip(fractions[r] + deltas[j, r], 0.0, 1.0)
            wait_j = np.where(delay_mask, demands[j], demands[j] * (1.0 + seen))
            wait_j = np.where(visit_mask[j], wait_j, 0.0)
            cycle_time = wait_j.sum()
            if cycle_time <= 0:
                raise ModelError("chain with zero total demand")
            new_throughputs[j] = populations[j] / cycle_time
            waiting[j] = wait_j

        new_throughputs = control.apply_damping(new_throughputs, throughputs)
        queue_lengths = new_throughputs[:, None] * waiting
        residual = control.residual(new_throughputs, throughputs)
        throughputs = new_throughputs
        if residual < control.tolerance:
            break
    return throughputs, queue_lengths, waiting, iterations, residual


def solve_mva_exact(network: ClosedNetwork) -> NetworkSolution:
    """Exact MVA walked one population vector and one chain at a time.

    Accepts and rejects the networks :func:`repro.exact.mva_exact.
    solve_mva_exact` does; the level-batched walk matches it per
    (vector, chain) operation.
    """
    limits, size = check_lattice(network)
    demands = network.demands
    num_chains, num_stations = demands.shape
    delay_mask = np.asarray([s.is_delay for s in network.stations], dtype=bool)
    visit_mask = network.visit_counts > 0

    # queue_totals maps a population vector to its (L,) total mean queue
    # length vector.  Only the previous total-population level is needed
    # to process the current one, so older levels are dropped as the walk
    # proceeds — memory is O(width of one level), not O(lattice).
    previous_level: Dict[Tuple[int, ...], np.ndarray] = {
        tuple([0] * num_chains): np.zeros(num_stations)
    }
    current_level: Dict[Tuple[int, ...], np.ndarray] = {}
    current_total = 0

    target = tuple(limits)
    final_wait = np.zeros((num_chains, num_stations))
    final_throughput = np.zeros(num_chains)
    final_queue = np.zeros((num_chains, num_stations))

    for vector in population_vectors_by_total(limits):
        total = sum(vector)
        if total == 0:
            continue
        if total != current_total:
            if current_total != 0:
                previous_level = current_level
            current_level = {}
            current_total = total
        waits = np.zeros((num_chains, num_stations))
        throughputs = np.zeros(num_chains)
        per_chain_queue = np.zeros((num_chains, num_stations))
        for r in range(num_chains):
            if vector[r] == 0:
                continue
            predecessor = list(vector)
            predecessor[r] -= 1
            seen = previous_level[tuple(predecessor)]
            wait_r = np.where(delay_mask, demands[r], demands[r] * (1.0 + seen))
            wait_r = np.where(visit_mask[r], wait_r, 0.0)
            cycle_time = wait_r.sum()
            if cycle_time <= 0:
                raise ModelError(
                    f"chain {network.chains[r].name!r} has zero total demand"
                )
            lam = vector[r] / cycle_time
            waits[r] = wait_r
            throughputs[r] = lam
            per_chain_queue[r] = lam * wait_r
        current_level[vector] = per_chain_queue.sum(axis=0)
        if vector == target:
            final_wait = waits
            final_throughput = throughputs
            final_queue = per_chain_queue

    return NetworkSolution(
        network=network,
        throughputs=final_throughput,
        queue_lengths=final_queue,
        waiting_times=final_wait,
        method="mva-exact",
        iterations=0,
        converged=True,
        extras={"lattice_size": float(size)},
    )
