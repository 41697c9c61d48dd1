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

from repro.errors import ModelError
from repro.mva.accel import AitkenAccelerator
from repro.mva.convergence import IterationControl
from repro.mva.layout import route_sum
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

#: Largest ``K x width`` slot count :func:`batched_increments` hands to
#: its scalar tail: once a segment's columns, padded slots included, fit
#: in it, each recurses to its own window in Python floats instead of one
#: vectorized step per population (EXPERIMENTS.md A24).
TAIL_SLOTS = 32


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
    slot mask of :func:`batched_increments`.  One plan serves a serial
    solve's ``(K, R)`` columns and a pack's ``(K, B·R)`` alike.

    A column's recursion depth is its population, or 0 if it is not
    alive.  The plan is ``(order, inverse, segments, depth)``:

    ``order``, ``inverse``
        The column permutation that ranks the columns by depth, deepest
        first (stably), and its inverse; both ``None`` when the columns
        are already ranked.
    ``segments``
        One ``(last, width, rest, mask)`` per distinct positive depth,
        shallowest first: steps up to ``last`` advance the leading
        ``width`` ranked columns, whose queueing slots are ``mask``;
        columns ``rest:width`` finish at step ``last``.
    ``depth``
        ``plan[3]``, the recursion depth: the largest column depth, an
        int.
    """
    steps = np.where(alive, populations, 0)
    # The distinct depths from one ``np.bincount`` (populations are
    # >= 0) and a stable ranking from one ``np.flatnonzero`` per depth,
    # with no sort: ``np.unique`` would sort, and its first call imports
    # ``numpy.ma`` (about 1.6 MB of peak RSS for every solving process);
    # ``np.argsort`` would sort all N columns to rank a handful of depths.
    sizes = np.bincount(steps)
    depths = np.flatnonzero(sizes).tolist()[::-1]
    if (steps[1:] <= steps[:-1]).all():
        order = inverse = None
    else:
        order = np.concatenate([np.flatnonzero(steps == d) for d in depths])
        inverse = np.empty_like(order)
        inverse[order] = np.arange(order.size)
        queueing = queueing.take(order, axis=1)
    counts = np.cumsum(sizes[depths])
    segments = []
    rest = 0
    for d, width in zip(depths, counts.tolist()):
        if d >= 1:
            segments.append((d, width, rest, queueing[:, :width]))
            rest = width
    return order, inverse, segments[::-1], depths[0] if depths else 0


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
    :mod:`repro.mva.layout`) — column ``c`` is one chain's route.

    Each column recurses only to its own depth, its population (0 for
    a chain with no demand, whose increments are zero): the columns are
    ranked deepest first (:func:`plan_increments`), and step ``d``
    advances the leading columns of depth ``>= d``, so a call costs
    ``O(sum_r E_r)`` column-steps, not ``O(R·max_r E_r)``.  The loop
    runs one segment per distinct depth, with a fixed width inside it;
    a segment's finishing columns yield their increments on its last
    step, and one ``take`` puts them back in column order.

    The work runs in two regimes.  While a segment is wide, a step is
    six numpy calls over all its columns.  Once a segment's ``K x
    width`` slots fit in :data:`TAIL_SLOTS`, numpy's per-call cost would
    dominate (a thesis optimum such as (1, 1, 1, 64) recurses one
    column 63 steps past the others), so each remaining column recurses
    to its own depth in Python floats (the scalar tail), walking only
    its own route.

    Columns are independent: each column's sum runs over its slots in
    station order (:func:`~repro.mva.layout.route_sum`), and a column
    goes through the same floating-point operations whichever columns
    share the array and whichever regime runs it — a serial solve's
    ``(K, R)`` and a pack's ``(K, B·R)`` give it bit for bit.  Against
    the dense scalar reference (pairwise sums over all ``L`` stations)
    it agrees to rounding.

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
    order, inverse, segments, _depth = plan
    if not segments:
        return np.zeros_like(scaled)
    if order is not None:
        scaled = scaled.take(order, axis=1)
    depth = scaled.shape[0]
    pieces = []
    queue = None
    d = 0
    for index, (last, width, rest, mask) in enumerate(segments):
        part = scaled[:, :width]
        if queue is not None:
            queue = queue[:, :width]
        if depth * width <= TAIL_SLOTS:
            pieces.append(_scalar_tail(part, queue, mask, d, segments[index:]))
            break
        while d < last:
            d += 1
            # At step 1 the queue is empty: part * (1.0 + 0.0) == part.
            wait = part if d == 1 else np.where(mask, part * (1.0 + queue), part)
            stepped = d / route_sum(wait) * wait
            if d == last:
                # x - 0.0 == x, so step 1's piece needs no subtraction.
                pieces.append(
                    stepped[:, rest:] if d == 1 else stepped[:, rest:] - queue[:, rest:]
                )
            queue = stepped
    # Deepest columns first, then the dead columns' zeros.
    pieces.reverse()
    alive = segments[0][1]
    if alive < scaled.shape[1]:
        pieces.append(np.zeros((scaled.shape[0], scaled.shape[1] - alive)))
    sigma = pieces[0] if len(pieces) == 1 else np.concatenate(pieces, axis=1)
    if inverse is not None:
        return sigma.take(inverse, axis=1)
    # A lone scalar-tail piece is a transposed view.
    return np.ascontiguousarray(sigma)


def _scalar_tail(
    part: np.ndarray,
    queue: Optional[np.ndarray],
    mask: np.ndarray,
    done: int,
    segments: list,
) -> np.ndarray:
    """The increments of ``part``'s columns, each recursed in Python floats.

    ``part``, ``queue`` and ``mask`` are the leading ranked columns after
    ``done`` vectorized steps (``queue`` is ``None`` before the first);
    ``segments`` are the plan's segments from the one that covers all of
    them, and say where each column stops.  Returns the ``(K, width)``
    increments.
    """
    demands = part.T.tolist()
    gates = mask.T.tolist()
    queues = [None] * len(demands) if queue is None else queue.T.tolist()
    columns = [None] * len(demands)
    for last, width, rest, _mask in segments:
        for c in range(rest, width):
            columns[c] = _recurse(demands[c], gates[c], queues[c], done, last)
    return np.array(columns).T


def _recurse(
    demand: list, gate: list, queue: Optional[list], done: int, last: int
) -> list:
    """One column's increments: steps ``done + 1`` to ``last`` in floats.

    Each step performs the vectorized step's IEEE operations in its
    order: ``p * (1.0 + q)`` on queueing slots, a left-to-right sum over
    the slots, ``d / s``, then ``q = c * w``; the next step's waits are
    built straight from ``c * w``, the same product.  The sum starts at
    ``0.0``, and ``0.0 + w == w`` for the nonnegative waits.  (Never
    ``sum()``: since Python 3.12 it compensates float sums.)  A route's
    slots are positive; the padding below it holds exactly 0.0 and adds
    exactly 0.0, so the walk stops at the column's last nonzero slot and
    the padding's increments are 0.0.
    """
    size = len(demand)
    while size and demand[size - 1] == 0.0:
        size -= 1
    padding = [0.0] * (len(demand) - size)
    demand, gate = demand[:size], gate[:size]
    if queue is None:
        previous = [0.0] * size
        wait = demand
    else:
        previous = queue[:size]
        wait = [p * (1.0 + q) if g else p for p, q, g in zip(demand, previous, gate)]
    for d in range(done + 1, last):
        total = 0.0
        for w in wait:
            total += w
        c = d / total
        before = wait
        wait = [p * (1.0 + c * w) if g else p for p, w, g in zip(demand, wait, gate)]
    if last > done + 1:
        previous = [c * w for w in before]
    total = 0.0
    for w in wait:
        total += w
    c = last / total
    return [c * w - q for w, q in zip(wait, previous)] + padding


def solve_mva_heuristic(
    network: ClosedNetwork,
    control: Optional[IterationControl] = None,
    initializer: str = "balanced",
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
    layout = network.route_layout
    accelerator = None
    start = None
    if warm_start is not None:
        start = layout.gather(validate_warm_start(network, warm_start))
        # A seed from a converged neighbour usually starts the iteration
        # near its asymptotic linear regime, where Aitken extrapolation
        # pays; the accelerator switches itself off when an extrapolation
        # does not shorten the plain step.  Cold solves stay the plain
        # thesis iteration (see repro.mva.accel).  Damping changes the
        # error dynamics the ratio estimate assumes, so it disables this.
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
