"""The thesis §4.2 multichain MVA heuristic (Reiser–Lavenberg).

Exact multichain MVA recurses over every population vector below the target
— ``O(prod_r (E_r + 1))`` work — which is what makes window dimensioning by
exact analysis intractable.  The heuristic replaces the recursion with a
fixed-point iteration costing ``O(sum_r E_r)`` per sweep:

1. For each chain ``r``, estimate the own-chain queue-length increments
   ``sigma_ir(r-) = N_ir(D) - N_ir(D - u_r)`` from an auxiliary
   *single-chain* problem in which chain ``r`` is isolated with service
   times inflated by the other chains' current mean queue lengths
   (eq. 4.12; APL ``FCT`` lines [40]–[62]).  Cross-chain increments are
   taken as zero (eq. 4.11: the chain losing the customer is affected most).
2. Apply the arrival theorem with the approximation
   ``N_ij(D - u_r) ~= N_ij(D) - sigma_ij(r-)`` (eq. 4.13):
   ``t_ir = G_ir * (1 + sum_j N_ij - sigma_ir)``.
3. Close the loop with Little's law for chains and queues
   (eqs. 4.14, 4.15) and iterate until the class-throughput vector is
   stationary (the APL ``CRIT`` criterion).

The procedure is asymptotically exact as populations and/or the number of
chains grow (thesis p. 89, citing [26]).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.backend import resolve_backend
from repro.errors import ModelError
from repro.mva.accel import AitkenAccelerator, solve_extras
from repro.mva.convergence import IterationControl
from repro.mva.layout import route_sum
from repro.mva.single_chain import solve_single_chain
from repro.mva.soa import fixed_point, pack_networks
from repro.mva.warmstart import validate_warm_start
from repro.queueing.network import ClosedNetwork
from repro.solution import NetworkSolution

__all__ = [
    "solve_mva_heuristic",
    "initial_queue_lengths",
    "batched_increments",
    "plan_increments",
]

#: Supported initialisation strategies for the mean queue lengths (STEP 1).
INITIALIZERS = ("balanced", "bottleneck")


def initial_queue_lengths(network: ClosedNetwork, strategy: str = "balanced") -> np.ndarray:
    """Initial mean queue lengths satisfying eq. (4.18).

    ``balanced``
        Spread each chain's population evenly over its stations
        (eq. 4.17, "totally balanced chain").
    ``bottleneck``
        Put the whole population at the chain's largest-demand station
        (eq. 4.16, "static location of bottleneck queue").
    """
    if strategy not in INITIALIZERS:
        raise ModelError(
            f"unknown initialisation strategy {strategy!r}; expected one of {INITIALIZERS}"
        )
    queue_lengths = np.zeros_like(network.demands)
    for r in range(network.num_chains):
        population = float(network.populations[r])
        stations = network.visited_stations(r)
        if population == 0 or stations.size == 0:
            continue
        if strategy == "balanced":
            queue_lengths[r, stations] = population / stations.size
        else:
            queue_lengths[r, network.bottleneck_station(r)] = population
    return queue_lengths


def plan_increments(
    alive: np.ndarray,
    populations: np.ndarray,
    queueing: np.ndarray,
) -> tuple:
    """Precompute the loop-invariant state of :func:`batched_increments`.

    ``alive`` marks columns (chains) with any positive demand; since
    scaling by ``1 + others >= 1`` never changes positivity, callers
    derive it once from the raw demands and reuse the plan across every
    fixed-point iteration of a solve.  ``queueing`` is the ``(K, N)``
    slot mask of :func:`batched_increments`.  ``plan[3]`` is the
    recursion depth (the largest population).  One plan serves a serial
    solve's ``(K, R)`` columns and a pack's ``(K, B·R)`` alike.
    """
    populations = np.asarray(populations)
    # Zero-demand chains have zero total wait at every step; offsetting
    # their denominator by one keeps the division well-defined while
    # leaving alive chains' denominators bit-for-bit untouched (x + 0.0).
    dead_offset = np.where(alive, 0.0, 1.0)
    finish_at = {
        d: alive & (populations == d)
        for d in {int(p) for p in populations}
        if d >= 1
    }
    max_population = int(populations.max()) if populations.size else 0
    return queueing, dead_offset, finish_at, max_population


def batched_increments(
    scaled: np.ndarray,
    populations: np.ndarray,
    queueing: np.ndarray,
    plan: Optional[tuple] = None,
) -> np.ndarray:
    """Own-chain queue-length increments for *all* chains in one recursion.

    Vectorized equivalent of running :func:`~repro.mva.single_chain.
    solve_single_chain` once per chain and taking ``trace.increment()``:
    the single-chain population recursion is advanced for every chain
    simultaneously on route-compacted, slot-major ``(K, N)`` state (see
    :mod:`repro.mva.layout`) — column ``c`` is one chain's route, so a
    step costs ``O(sum_r E_r)``, not ``O(R·L)``.

    Columns are independent: each column's sum runs over its slots in
    station order (:func:`~repro.mva.layout.route_sum`), and a chain's
    increment is captured on the step matching its own population while
    its column keeps recursing (unread) until the longest chain
    finishes.  A column's result therefore does not depend on which
    other columns share the array — a serial solve's ``(K, R)`` and a
    pack's ``(K, B·R)`` give it bit for bit.  Against the dense scalar
    reference (pairwise sums over all ``L`` stations) it agrees to
    rounding.

    Parameters
    ----------
    scaled:
        ``(K, N)`` inflated service demands, one column per chain, zero
        on padded slots.
    populations:
        ``(N,)`` integer chain populations.
    queueing:
        ``(K, N)`` bool mask of visited queueing (non-delay) slots.
    plan:
        Optional loop-invariant state from :func:`plan_increments`;
        callers iterating on the same columns should build it once.

    Returns
    -------
    numpy.ndarray
        ``(K, N)`` increments ``sigma = N(D_r) - N(D_r - 1)`` per slot.
    """
    if plan is None:
        plan = plan_increments(route_sum(scaled) > 0, populations, queueing)
    queueing, dead_offset, finish_at, max_population = plan
    queue = np.zeros_like(scaled)
    sigma = np.zeros_like(scaled)
    for d in range(1, max_population + 1):
        wait = np.where(queueing, scaled * (1.0 + queue), scaled)
        rate = d / (route_sum(wait) + dead_offset)
        stepped = rate * wait
        finishing = finish_at.get(d)
        if finishing is not None:
            sigma = np.where(finishing, stepped - queue, sigma)
        queue = stepped
    return sigma


def solve_mva_heuristic(
    network: ClosedNetwork,
    control: Optional[IterationControl] = None,
    initializer: str = "balanced",
    backend: Optional[str] = None,
    warm_start: Optional[np.ndarray] = None,
) -> NetworkSolution:
    """Solve a closed multichain network with the thesis §4.2 heuristic.

    Parameters
    ----------
    network:
        The closed network; any chain may have population zero (it then
        simply contributes nothing).
    control:
        Iteration policy; defaults to ``IterationControl()`` which matches
        the thesis (undamped, throughput-norm stopping criterion).
    initializer:
        Queue-length initialisation strategy (``"balanced"`` default, or
        ``"bottleneck"``; thesis §4.2 rules 1 and 2).
    backend:
        Kernel implementation: ``"vectorized"`` (the default: the
        route-compacted fixed point of :func:`repro.mva.soa.fixed_point`,
        solving the network as a pack of one) or ``"scalar"`` (the dense
        per-chain reference loops); see :mod:`repro.backend`.  The two
        agree to rounding.
    warm_start:
        Optional ``(R, L)`` queue-length seed replacing the
        ``initializer`` start — typically the converged ``queue_lengths``
        of a nearby window vector (see :mod:`repro.mva.warmstart`).  A
        good seed cuts iterations-to-converge; the stopping criterion is
        unchanged, so the converged values are the same fixed point.

    Returns
    -------
    NetworkSolution
        With ``method="mva-heuristic"``.  ``converged`` is False if the
        iteration budget ran out (unless the control is set to raise).
    """
    if control is None:
        control = IterationControl()
    if resolve_backend(backend) == "scalar":
        solution = _solve_dense_reference(network, control, initializer, warm_start)
    else:
        layout = network.route_layout
        accelerator = None
        start = None
        if warm_start is not None:
            start = layout.gather(validate_warm_start(network, warm_start))
            # A seed from a converged neighbour usually starts the
            # iteration near its asymptotic linear regime, where Aitken
            # extrapolation pays; the accelerator switches itself off when
            # an extrapolation does not shorten the plain step.  Cold
            # solves stay the plain thesis iteration (see repro.mva.accel).
            # Damping changes the error dynamics the ratio estimate
            # assumes, so it disables this.
            if control.damping >= 1.0:
                accelerator = AitkenAccelerator()
        elif initializer != "balanced":
            start = layout.gather(initial_queue_lengths(network, initializer))
        (solution,) = fixed_point(
            pack_networks([network]), "mva-heuristic", control, start, accelerator
        )
    if not solution.converged:
        # Warned from here, so the warning points at the caller.
        control.on_exhausted(
            "mva-heuristic", solution.iterations, solution.extras["residual"]
        )
    return solution


def _solve_dense_reference(
    network: ClosedNetwork,
    control: IterationControl,
    initializer: str,
    warm_start: Optional[np.ndarray],
) -> NetworkSolution:
    """The scalar reference: dense ``(R, L)`` state, per-chain recursions.

    Each sweep isolates every chain in turn and runs the exact
    single-chain recursion (:func:`~repro.mva.single_chain.
    solve_single_chain`) over all ``L`` stations — the thesis recurrences
    line by line, kept as the executable specification the vectorized
    tier is diffed against.
    """
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
    return NetworkSolution(
        network=network,
        throughputs=throughputs,
        queue_lengths=queue_lengths,
        waiting_times=waiting,
        method="mva-heuristic",
        iterations=iterations,
        converged=residual < control.tolerance,
        extras=solve_extras(residual, accelerator),
    )
