"""CLT/asymptotic solver for large closed product-form networks.

Fayolle–Lasgouttes (PAPERS.md) analyse closed product-form networks in
the regime where the number of chains (and with it the total population)
grows: the stationary distribution concentrates around a mean-field
fixed point, with Gaussian (CLT) fluctuations of relative size
``O(1/sqrt(R))``.  In that regime the arrival theorem's own-chain
correction — the ``sigma_ir`` term the thesis heuristic estimates with
an auxiliary single-chain recursion — vanishes: removing one customer
from one of many chains leaves the queue a chain sees on arrival
essentially unchanged,

    N_ij(D - u_r)  ->  N_ij(D)        as R -> infinity,

which is also why the heuristic itself is asymptotically exact (thesis
p. 89).  Dropping ``sigma`` entirely yields the mean-field fixed point

    t_ir      = G_ir * (1 + sum_j N_ij)        (queueing stations)
    lambda_r  = E_r / sum_i t_ir,   N_ir = lambda_r t_ir,

with no per-population recursion.  This is the ``"asymptotic"`` solver:
exact in the many-chain limit, a documented approximation elsewhere.
It carries dense ``(R, L)`` state, while the heuristic's fixed point is
route-compacted (:mod:`repro.mva.layout`); at 500 chains a cold
asymptotic solve costs about 13x a cold heuristic one and lands up to
43% away from it in throughput (EXPERIMENTS.md A17).  So it is an
explicit solver and a verify oracle, never a substitute WINDIM picks on
its own.

Validity regime
---------------
:func:`asymptotic_applicability` gates where the solver is trusted
*unsupervised*: at least :data:`ASYMPTOTIC_MIN_CHAINS` chains, where the
verify oracle's calibrated bands hold (see
:mod:`repro.verify.differential`).  Explicit calls
(``solver="asymptotic"``, or a resilience ladder naming it) are honoured
at any size, since callers asking for the mean-field answer by name know
what they are getting.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ModelError
from repro.mva.accel import AitkenAccelerator, solve_extras
from repro.mva.convergence import IterationControl
from repro.mva.warmstart import validate_warm_start
from repro.queueing.network import ClosedNetwork
from repro.solution import NetworkSolution

__all__ = [
    "solve_asymptotic",
    "asymptotic_applicability",
    "ASYMPTOTIC_MIN_CHAINS",
]

#: Oracle validity floor: with at least this many chains the CLT
#: concentration argument holds well enough that the calibrated bands in
#: :class:`repro.verify.differential.TolerancePolicy` apply.
ASYMPTOTIC_MIN_CHAINS = 12


def asymptotic_applicability(network: ClosedNetwork) -> bool:
    """True where the CLT/asymptotic solver's calibrated bands are valid."""
    return network.num_chains >= ASYMPTOTIC_MIN_CHAINS


def solve_asymptotic(
    network: ClosedNetwork,
    control: Optional[IterationControl] = None,
    warm_start: Optional[np.ndarray] = None,
) -> NetworkSolution:
    """Solve the mean-field (CLT-limit) fixed point of a closed network.

    Parameters mirror :func:`repro.mva.heuristic.solve_mva_heuristic`.
    Returns a solution with ``method="asymptotic"``.
    """
    if control is None:
        control = IterationControl()

    demands = network.demands
    num_chains, _num_stations = demands.shape
    populations = network.populations.astype(float)
    delay_row = np.asarray([s.is_delay for s in network.stations], dtype=bool)[None, :]
    visit_mask = network.visit_counts > 0
    invisible = ~visit_mask
    active_mask = populations > 0

    visited_demand = np.where(visit_mask, demands, 0.0).sum(axis=1)
    if np.any(active_mask & (visited_demand <= 0)):
        bad = int(np.flatnonzero(active_mask & (visited_demand <= 0))[0])
        raise ModelError(
            f"chain {network.chains[bad].name!r} has zero total demand"
        )

    accelerator = None
    if warm_start is not None:
        queue_lengths = validate_warm_start(network, warm_start)
        # Same gating as the heuristic: warm seeds get guarded Aitken
        # extrapolation (see repro.mva.accel).
        if control.damping >= 1.0:
            accelerator = AitkenAccelerator()
    else:
        # Balanced start, as in the heuristic (eq. 4.18).
        queue_lengths = np.zeros_like(demands)
        for r in range(num_chains):
            stations = network.visited_stations(r)
            if populations[r] > 0 and stations.size > 0:
                queue_lengths[r, stations] = populations[r] / stations.size

    throughputs = np.zeros(num_chains)
    waiting = np.zeros_like(demands)
    iterations = 0
    residual = float("inf")
    for iterations in range(1, control.max_iterations + 1):
        # Mean-field arrival estimate: the full stationary queue, with no
        # own-chain decrement (sigma == 0 in the CLT limit).
        total_by_station = queue_lengths.sum(axis=0)
        waiting = np.where(
            delay_row, demands, demands * (1.0 + total_by_station[None, :])
        )
        waiting[invisible] = 0.0

        cycle_times = waiting.sum(axis=1)
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
            return NetworkSolution(
                network=network,
                throughputs=throughputs,
                queue_lengths=queue_lengths,
                waiting_times=waiting,
                method="asymptotic",
                iterations=iterations,
                converged=True,
                extras=solve_extras(residual, accelerator),
            )
        if accelerator is not None:
            accelerated = accelerator.push(queue_lengths)
            if accelerated is not None:
                queue_lengths = accelerated

    control.on_exhausted("asymptotic", iterations, residual)
    return NetworkSolution(
        network=network,
        throughputs=throughputs,
        queue_lengths=queue_lengths,
        waiting_times=waiting,
        method="asymptotic",
        iterations=iterations,
        converged=False,
        extras=solve_extras(residual, accelerator),
    )
