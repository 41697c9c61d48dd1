"""Schweitzer–Bard approximate MVA (comparison baseline).

The thesis heuristic estimates the arrival-instant queue lengths through an
auxiliary single-chain MVA.  The earlier and simpler Schweitzer–Bard
approximation instead assumes queue lengths scale proportionally when one
customer is removed from chain ``r``:

    N_ij(D - u_r) ~= N_ij(D)                        for j != r
    N_ir(D - u_r) ~= N_ir(D) * (D_r - 1) / D_r      for j == r

yielding the fixed point

    t_ir = G_ir * (1 + sum_{j != r} N_ij + N_ir (D_r - 1)/D_r)
    lambda_r = D_r / sum_i t_ir,   N_ir = lambda_r t_ir.

It is included as an ablation: the benchmark ``bench_mva_vs_exact`` compares
both heuristics against the exact solvers in accuracy and cost.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.backend import resolve_backend
from repro.errors import ModelError
from repro.mva.accel import AitkenAccelerator, solve_extras
from repro.mva.convergence import IterationControl
from repro.mva.soa import fixed_point, pack_networks
from repro.mva.warmstart import validate_warm_start
from repro.queueing.network import ClosedNetwork
from repro.solution import NetworkSolution

__all__ = ["solve_schweitzer"]


def solve_schweitzer(
    network: ClosedNetwork,
    control: Optional[IterationControl] = None,
    backend: Optional[str] = None,
    warm_start: Optional[np.ndarray] = None,
) -> NetworkSolution:
    """Solve a closed multichain network with Schweitzer–Bard AMVA.

    Parameters and return value mirror
    :func:`repro.mva.heuristic.solve_mva_heuristic`; the returned solution
    has ``method="schweitzer"``.  ``backend`` selects the route-compacted
    fixed point (``"vectorized"``, default; :func:`repro.mva.soa.
    fixed_point` on a pack of one) or the dense per-chain reference loop
    (``"scalar"``); both agree to rounding.  ``warm_start`` replaces the
    balanced start with a caller-supplied ``(R, L)`` queue-length seed
    (see :mod:`repro.mva.warmstart`).
    """
    if control is None:
        control = IterationControl()
    accelerator = None
    seed = None
    if warm_start is not None:
        seed = validate_warm_start(network, warm_start)
        # Warm seeds get guarded Aitken extrapolation; cold solves stay
        # the plain iteration (see repro.mva.accel for the method, the
        # gating and the guard).
        accelerator = AitkenAccelerator() if control.damping >= 1.0 else None
    if resolve_backend(backend) == "scalar":
        solution = _solve_dense_reference(network, control, seed, accelerator)
    else:
        start = None if seed is None else network.route_layout.gather(seed)
        (solution,) = fixed_point(
            pack_networks([network]), "schweitzer", control, start, accelerator
        )
    if not solution.converged:
        # Warned from here, so the warning points at the caller.
        control.on_exhausted(
            "schweitzer", solution.iterations, solution.extras["residual"]
        )
    return solution


def _solve_dense_reference(
    network: ClosedNetwork,
    control: IterationControl,
    seed: Optional[np.ndarray],
    accelerator: Optional[AitkenAccelerator],
) -> NetworkSolution:
    """The scalar reference: dense ``(R, L)`` state, per-chain loops."""
    demands = network.demands
    num_chains = demands.shape[0]
    populations = network.populations.astype(float)
    layout = network.route_layout

    if seed is not None:
        queue_lengths = seed
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
    return NetworkSolution(
        network=network,
        throughputs=throughputs,
        queue_lengths=queue_lengths,
        waiting_times=waiting,
        method="schweitzer",
        iterations=iterations,
        converged=residual < control.tolerance,
        extras=solve_extras(residual, accelerator),
    )
