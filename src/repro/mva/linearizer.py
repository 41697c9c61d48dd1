"""Linearizer approximate MVA (Chandy–Neuse).

The thesis notes that "more advanced search techniques can of course be
used" (§4.1) and that heuristic MVA accuracy improves with population
(§4.2).  Linearizer is the classical next rung above Schweitzer–Bard and
the thesis heuristic: instead of assuming the queue-length *fractions*
``F_ir = N_ir / D_r`` are unchanged by removing one customer, it estimates
the first-order changes

    Delta_ir(j) = F_ir(D - u_j) - F_ir(D)

by actually solving the ``R`` reduced populations, then re-solving the
full population with the corrected arrival-instant estimate

    N_ir(D - u_j) ~= (D_r - [j == r]) * (F_ir(D) + Delta_ir(j)).

Two to three outer refinements typically bring multichain errors well
under one percent.  Included as an extension/ablation: the benchmark
``bench_mva_vs_exact`` reports its accuracy next to the thesis heuristic.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ModelError
from repro.mva.convergence import IterationControl
from repro.mva.warmstart import validate_warm_start
from repro.queueing.network import ClosedNetwork
from repro.solution import NetworkSolution

__all__ = ["solve_linearizer"]


def _core_fixed_point(
    demands: np.ndarray,
    populations: np.ndarray,
    delay_mask: np.ndarray,
    visit_mask: np.ndarray,
    deltas: np.ndarray,
    control: IterationControl,
    core,
    seed: Optional[np.ndarray] = None,
):
    """Solve one population vector with frozen fraction corrections.

    ``deltas[j, r, i]`` estimates ``F_ri(D - u_j) - F_ri(D)``.  ``seed``
    optionally replaces the balanced queue-length start; ``core`` runs
    the fixed point from that start.  Returns
    ``(throughputs, queue_lengths, waiting, iterations, residual)``.
    """
    if seed is not None:
        queue_lengths = seed.copy()
    else:
        queue_lengths = np.zeros_like(demands)
        for r in range(demands.shape[0]):
            if populations[r] > 0:
                stations = np.flatnonzero(visit_mask[r])
                queue_lengths[r, stations] = populations[r] / stations.size
    return core(
        demands, populations, delay_mask, visit_mask, deltas, control, queue_lengths
    )


def _core_vectorized(
    demands: np.ndarray,
    populations: np.ndarray,
    delay_mask: np.ndarray,
    visit_mask: np.ndarray,
    deltas: np.ndarray,
    control: IterationControl,
    queue_lengths: np.ndarray,
):
    """Dense-array core: all arriving chains ``j`` updated in one batch.

    ``seen[j] = sum_r (D_r - [r == j]) * clip(F_r + delta[j, r], 0, 1)``
    is evaluated as one ``(R, R, L)`` contraction instead of the nested
    per-``j``/per-``r`` loops of :func:`repro.mva.reference.solve_linearizer`.
    """
    num_chains, _num_stations = demands.shape
    active_mask = populations > 0
    safe_pop = np.where(active_mask, populations, 1.0)
    # Customers the arriving chain j sees of chain r: D_r minus its own.
    reduced = np.where(
        active_mask[None, :],
        populations[None, :] - np.eye(num_chains),
        0.0,
    )

    throughputs = np.zeros(num_chains)
    waiting = np.zeros_like(demands)
    iterations = 0
    residual = float("inf")
    for iterations in range(1, control.max_iterations + 1):
        fractions = np.where(
            active_mask[:, None], queue_lengths / safe_pop[:, None], 0.0
        )
        corrected = np.clip(fractions[None, :, :] + deltas, 0.0, 1.0)
        seen = (reduced[:, :, None] * corrected).sum(axis=1)
        waiting = np.where(delay_mask[None, :], demands, demands * (1.0 + seen))
        waiting = np.where(visit_mask, waiting, 0.0)
        waiting[~active_mask] = 0.0
        cycle_times = waiting.sum(axis=1)
        if np.any(active_mask & (cycle_times <= 0)):
            raise ModelError("chain with zero total demand")
        new_throughputs = np.where(
            active_mask,
            populations / np.where(cycle_times > 0, cycle_times, 1.0),
            0.0,
        )
        new_throughputs = control.apply_damping(new_throughputs, throughputs)
        queue_lengths = new_throughputs[:, None] * waiting
        residual = control.residual(new_throughputs, throughputs)
        throughputs = new_throughputs
        if residual < control.tolerance:
            break
    return throughputs, queue_lengths, waiting, iterations, residual


def solve_linearizer(
    network: ClosedNetwork,
    control: Optional[IterationControl] = None,
    refinements: int = 2,
    warm_start: Optional[np.ndarray] = None,
) -> NetworkSolution:
    """Solve a closed multichain network with the Linearizer AMVA.

    Parameters
    ----------
    network / control:
        As for :func:`repro.mva.heuristic.solve_mva_heuristic`.
    refinements:
        Number of outer delta-refinement passes (2 is the classical
        choice; 0 degenerates to Schweitzer–Bard).
    warm_start:
        Optional ``(R, L)`` queue-length seed for the *initial*
        full-population core solve (see :mod:`repro.mva.warmstart`);
        the reduced ``D - u_j`` sub-solves and the refinement re-solves
        keep their balanced start (re-solve seeding compounds stopping
        slack through the deltas past the 1e-8 parity band).

    Returns
    -------
    NetworkSolution
        With ``method="linearizer"``.
    """
    return _linearize(network, control, refinements, warm_start, _core_vectorized)


def _linearize(network, control, refinements, warm_start, core) -> NetworkSolution:
    """The refinement passes of :func:`solve_linearizer` around ``core``."""
    if control is None:
        control = IterationControl()
    if refinements < 0:
        raise ModelError(f"refinements must be >= 0, got {refinements}")

    demands = network.demands
    num_chains, num_stations = demands.shape
    populations = network.populations.astype(float)
    delay_mask = np.asarray([s.is_delay for s in network.stations], dtype=bool)
    visit_mask = network.visit_counts > 0

    deltas = np.zeros((num_chains, num_chains, num_stations))
    total_iterations = 0
    seed = (
        validate_warm_start(network, warm_start)
        if warm_start is not None
        else None
    )

    result = _core_fixed_point(
        demands, populations, delay_mask, visit_mask, deltas, control, core,
        seed=seed,
    )
    total_iterations += result[3]

    for _pass in range(refinements):
        throughputs, queue_lengths, _w, _it, _res = result
        fractions_full = np.zeros_like(demands)
        for r in range(num_chains):
            if populations[r] > 0:
                fractions_full[r] = queue_lengths[r] / populations[r]

        # Solve each reduced population D - u_j with the current deltas.
        for j in range(num_chains):
            if populations[j] <= 0:
                continue
            reduced = populations.copy()
            reduced[j] -= 1.0
            sub = _core_fixed_point(
                demands, reduced, delay_mask, visit_mask, deltas, control, core
            )
            total_iterations += sub[3]
            sub_queue = sub[1]
            for r in range(num_chains):
                if reduced[r] > 0:
                    deltas[j, r] = sub_queue[r] / reduced[r] - fractions_full[r]
                else:
                    deltas[j, r] = 0.0

        # Refinement re-solves keep the balanced start even in warm mode:
        # seeding them from the previous converged point compounds the
        # (tolerance-sized) stopping slack through the refreshed deltas
        # and can push the final throughputs past the 1e-8 parity band.
        result = _core_fixed_point(
            demands, populations, delay_mask, visit_mask, deltas, control, core
        )
        total_iterations += result[3]

    throughputs, queue_lengths, waiting, _it, residual = result
    converged = residual < control.tolerance
    if not converged:
        control.on_exhausted("linearizer", total_iterations, residual)
    return NetworkSolution(
        network=network,
        throughputs=throughputs,
        queue_lengths=queue_lengths,
        waiting_times=waiting,
        method="linearizer",
        iterations=total_iterations,
        converged=converged,
        extras={"residual": residual},
    )
