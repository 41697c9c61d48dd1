"""Cross-network SoA batching: solve B networks in one tensor pass.

A window sweep (or a multistart campaign's batch of candidate windows)
evaluates the *same topology* under B different population vectors, and
each evaluation is otherwise a separate fixed-point solve — B Python
loops, B × iterations NumPy dispatches.  Every solve carries its state in
the route-compacted, slot-major layout of :mod:`repro.mva.layout`: one
column per chain, one row per route slot.  Columns never interact except
through the per-station totals, so B networks pack side by side into one
``(K, N)`` array (``N`` = their chains together, ``K`` = their longest
route) and the heuristic/Schweitzer iteration advances all of them at
once: one dispatch per step instead of B, with per-network convergence
masking (every network's residual of a sweep comes from one segmented
reduction; a network's solution is snapshotted the moment *its* residual
crosses the tolerance and its columns are compacted out of the live
arrays, so the batch only ever pays for unfinished work).

:func:`fixed_point` is the one vectorized fixed point: the serial
solvers (:func:`repro.mva.heuristic.solve_mva_heuristic`,
:func:`repro.mva.schweitzer.solve_schweitzer`) run it on a pack of one
network, with their warm start and Aitken accelerator.

Parity contract
---------------
Every pack (:func:`pack_networks`) is **bit-identical** to solving its
networks one by one with the serial vectorized solver: throughputs,
queue lengths, waiting times, iteration counts, convergence flags and
residual extras.  Per network, the packed iteration performs the same
floating-point operations in the same order:

* elementwise steps act on a network's own columns;
* sums over a chain's route run slot by slot in station order
  (:func:`~repro.mva.layout.route_sum`), so the slots a longer route in
  the pack adds at the bottom of a column add exactly nothing;
* per-station totals are one ``np.bincount`` whose bins are offset per
  network, so a station's bin receives its own network's slots in the
  same order as the serial solve;
* the increments recursion is column-independent
  (:func:`repro.mva.heuristic.batched_increments`);
* every network's stopping decision of a sweep comes from one
  :meth:`~repro.mva.convergence.IterationControl.residuals` call over
  the pack's throughput vector, segmented at the networks' first
  columns; ``np.add.reduceat`` sums each network's own contiguous
  ``(R,)`` segment in an order fixed by ``R`` alone, and a serial solve
  (a pack of one) makes the same call on its one segment.

A pack concatenates each network's own columns and pads neither chains
nor stations.  (Asserted by ``tests/mva/test_soa.py`` and
``tests/mva/test_summation_order.py``.)

:func:`solve_networks_batched` batches any mix of topologies and is the
entry point every caller packs through —
:meth:`repro.core.objective.WindowObjective.batch_solve` and
:meth:`~repro.core.objective.WindowObjective.batch_solve_networks` (and
through it :func:`repro.analysis.sweeps.power_curve`);
:func:`solve_windows_batched` is its one-topology, many-windows form.
Whether a batch is packed automatically is decided by
:mod:`repro.mva.autobatch`; calling these functions directly is always
honoured.  A network that runs out of iterations warns at the caller of
whichever of them was called.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.backend import resolve_backend
from repro.errors import ModelError
from repro.mva.accel import AitkenAccelerator, solve_extras
from repro.mva.convergence import IterationControl
from repro.mva.layout import route_sum
from repro.queueing.network import ClosedNetwork
from repro.solution import NetworkSolution

__all__ = [
    "WindowPack",
    "pack_networks",
    "fixed_point",
    "solve_packed",
    "solve_windows_batched",
    "solve_networks_batched",
    "BATCHABLE_SOLVERS",
]

#: Named solvers with a batched SoA fixed point.  (Linearizer's nested
#: per-chain subproblems and the exact solvers do not batch this way.)
BATCHABLE_SOLVERS = ("mva-heuristic", "schweitzer")

#: Soft cap on the ``K x N`` slot elements of one packed solve.  The
#: iteration carries ~6 arrays of that shape, so 4M doubles keeps peak
#: batch memory around 200 MB; larger batches are solved in chunks
#: (chunking is invisible: networks in a pack never interact, so a
#: chunked solve is the same floating-point program).  On a tiny sweep
#: network this still allows hundreds of thousands of windows per chunk.
SOA_ELEMENT_BUDGET = 4_000_000


@dataclass(frozen=True)
class WindowPack:
    """B networks' route columns side by side, ``(K, N)`` slot-major.

    Network ``b`` owns columns ``chain_offsets[b]:chain_offsets[b+1]``,
    one per chain, each holding the chain's route layout
    (:class:`~repro.mva.layout.RouteLayout`) padded at the bottom to the
    pack's longest route ``K``.  ``bins`` are the layouts' station bins,
    offset so every network has its own ``L_b + 1`` bins (its stations
    and its spare bin for padded slots).
    """

    networks: Tuple[ClosedNetwork, ...]
    demands: np.ndarray
    queueing: np.ndarray
    valid: np.ndarray
    bins: np.ndarray
    populations: np.ndarray
    chain_offsets: np.ndarray

    @property
    def batch(self) -> int:
        return len(self.networks)

    @property
    def depth(self) -> int:
        """``K``, the longest route in the pack."""
        return int(self.demands.shape[0])

    @property
    def columns(self) -> int:
        """``N``, the chains of every network together."""
        return int(self.demands.shape[1])


def pack_networks(networks: Sequence[ClosedNetwork]) -> WindowPack:
    """Pack B arbitrary networks by concatenating their route columns.

    Each network keeps its own columns and its own station bins; only
    routes shorter than the pack's longest get zero slots at the bottom,
    which add exactly nothing, so the pack is bit-identical to serial
    solves.  Each distinct layout is padded once, so packing B
    :meth:`~repro.queueing.network.ClosedNetwork.with_populations`
    copies of one topology costs one concatenation, not B copies.
    """
    if not networks:
        raise ModelError("pack_networks needs at least one network")
    networks = tuple(networks)
    layouts = [n.route_layout for n in networks]
    depth = max(layout.depth for layout in layouts)
    padded = {}
    for layout in layouts:
        if id(layout) not in padded:
            padded[id(layout)] = (
                _pad(layout.demands, depth, 0.0),
                _pad(layout.queueing, depth, False),
                _pad(layout.valid, depth, False),
                _pad(layout.bins, depth, layout.num_stations),
            )
    demands, queueing, valid, bins = (
        np.concatenate(parts, axis=1)
        for parts in zip(*(padded[id(layout)] for layout in layouts))
    )
    chains = [layout.num_chains for layout in layouts]
    # Offset every network's bins past the previous networks' stations
    # and spare bins.
    bases = np.cumsum([0] + [layout.num_stations + 1 for layout in layouts[:-1]])
    bins += np.repeat(bases, chains)
    return WindowPack(
        networks=networks,
        demands=demands,
        queueing=queueing,
        valid=valid,
        bins=bins,
        populations=np.concatenate([n.populations for n in networks]),
        chain_offsets=np.cumsum([0] + chains),
    )


def _pad(slots: np.ndarray, depth: int, fill) -> np.ndarray:
    """``slots`` with ``fill`` rows appended up to ``depth`` rows."""
    if slots.shape[0] == depth:
        return slots
    out = np.full((depth, slots.shape[1]), fill, dtype=slots.dtype)
    out[: slots.shape[0]] = slots
    return out


def solve_windows_batched(
    network: ClosedNetwork,
    windows: Sequence[Sequence[int]],
    solver: str = "mva-heuristic",
    control: Optional[IterationControl] = None,
    backend: Optional[str] = None,
) -> List[NetworkSolution]:
    """Solve one topology under B window vectors in packed tensor passes.

    Returns one :class:`NetworkSolution` per window, in input order,
    bit-identical to calling the named serial solver once per window
    with cold starts (:func:`solve_networks_batched` over
    :meth:`~repro.queueing.network.ClosedNetwork.with_populations`
    copies, which share the topology's layout).
    """
    return solve_networks_batched(
        [network.with_populations(w) for w in windows], solver, control, backend
    )


def solve_networks_batched(
    networks: Sequence[ClosedNetwork],
    solver: str = "mva-heuristic",
    control: Optional[IterationControl] = None,
    backend: Optional[str] = None,
) -> List[NetworkSolution]:
    """Solve B arbitrary (mixed-topology) networks in packs.

    Bit-identical to serial per-network solves (see
    :func:`pack_networks`).  Consecutive networks share a pack while its
    ``K x N`` slot elements stay within :data:`SOA_ELEMENT_BUDGET` —
    networks in a pack never interact, so chunking changes only peak
    memory, never results.
    """
    chunks: List[List[ClosedNetwork]] = []
    depth = columns = 0
    for network in networks:
        layout = network.route_layout
        depth = max(depth, layout.depth)
        columns += layout.num_chains
        if not chunks or depth * columns > SOA_ELEMENT_BUDGET:
            chunks.append([])
            depth, columns = layout.depth, layout.num_chains
        chunks[-1].append(network)
    solutions: List[NetworkSolution] = []
    for chunk in chunks:
        solutions.extend(
            solve_packed(
                pack_networks(chunk), solver=solver, control=control, backend=backend
            )
        )
    return solutions


def solve_packed(
    pack: WindowPack,
    solver: str = "mva-heuristic",
    control: Optional[IterationControl] = None,
    backend: Optional[str] = None,
) -> List[NetworkSolution]:
    """Run the batched fixed point, cold, over every network in ``pack``."""
    if solver not in BATCHABLE_SOLVERS:
        raise ModelError(
            f"solver {solver!r} has no batched SoA kernel; "
            f"expected one of {BATCHABLE_SOLVERS}"
        )
    resolved = resolve_backend(backend)
    if resolved != "vectorized":
        raise ModelError(
            "SoA batching requires the dense kernel backend "
            f"'vectorized', not {resolved!r}"
        )
    control = control or IterationControl()
    solutions = fixed_point(pack, solver, control)
    for solution in solutions:
        if not solution.converged:
            control.on_exhausted(
                solver, solution.iterations, solution.extras["residual"]
            )
    return solutions


# ----------------------------------------------------------------------
# the fixed point
# ----------------------------------------------------------------------

def _check_demands(pack: WindowPack, active: np.ndarray) -> None:
    """Reject active chains with zero visited demand (per network)."""
    bad = np.flatnonzero(active & (route_sum(pack.demands) <= 0))
    if bad.size:
        column = int(bad[0])
        b = int(np.searchsorted(pack.chain_offsets, column, side="right")) - 1
        chain = pack.networks[b].chains[column - int(pack.chain_offsets[b])]
        raise ModelError(f"chain {chain.name!r} has zero total demand")


def _balanced_start(pack: WindowPack, active: np.ndarray) -> np.ndarray:
    """Eq. (4.17): each active chain's population spread over its route.

    ``population / route length`` is one IEEE double division, the same
    as :func:`repro.mva.heuristic.initial_queue_lengths` performs.
    """
    lengths = pack.valid.sum(axis=0)
    value = pack.populations / np.where(lengths > 0, lengths, 1)
    return np.where(pack.valid & active, value, 0.0)


def fixed_point(
    pack: WindowPack,
    solver: str,
    control: IterationControl,
    start: Optional[np.ndarray] = None,
    accelerator: Optional[AitkenAccelerator] = None,
) -> List[NetworkSolution]:
    """The thesis heuristic or Schweitzer–Bard, on every network in ``pack``.

    ``start`` is the ``(K, N)`` initial queue lengths (default: the
    balanced start).  ``accelerator`` extrapolates the whole iterate, so
    it is for a pack of one network — the serial solvers' warm starts.
    Networks that run out of iterations come back with
    ``converged=False``; warning about them (or raising) is left to the
    caller, once every network of the pack is done.

    STEP 6 is one vectorized pass per sweep: a single
    :meth:`~repro.mva.convergence.IterationControl.residuals` call gives
    every live network's residual, and ``residuals < tolerance`` marks
    the networks that finish on this sweep.  Only those networks cost
    Python work (their :class:`NetworkSolution` is built), and the pack
    makes no per-network residual call.

    Converged networks are *compacted out* of the live columns: every
    operation is column- or network-local (see the module's parity
    contract), so dropping finished columns — and rebuilding the
    increments plan for the survivors — leaves the remaining networks'
    floating-point trajectories bit-for-bit unchanged, while the batch
    pays only for unfinished work (serial total work is
    ``sum(iters_b)``; a non-compacting batch would pay
    ``B * max(iters_b)``).
    """
    from repro.mva.heuristic import batched_increments, plan_increments

    if accelerator is not None and pack.batch != 1:
        raise ModelError(
            f"an accelerator needs a pack of one network, not {pack.batch}"
        )
    heuristic = solver == "mva-heuristic"
    demands, queueing, bins = pack.demands, pack.queueing, pack.bins
    int_pops = pack.populations
    populations = int_pops.astype(float)
    active = populations > 0
    _check_demands(pack, active)
    queue_lengths = _balanced_start(pack, active) if start is None else start
    # Inactive chains get a unit denominator offset (their numerator is
    # zero), active ones an exact + 0.0.
    inactive_offset = np.where(active, 0.0, 1.0)
    if heuristic:
        plan = plan_increments(route_sum(demands) > 0, int_pops, queueing)
    else:
        # Schweitzer's own-chain share (1 - (D_r - 1)/D_r) removed from
        # the arrival-instant queue; inactive chains remove nothing.
        removed = 1.0 - np.where(
            active, (populations - 1.0) / np.where(active, populations, 1.0), 1.0
        )

    throughputs = np.zeros(populations.size)
    widths = np.diff(pack.chain_offsets)  # live network -> its chains
    starts = pack.chain_offsets[:-1]  # live network -> its first column
    indices = np.arange(pack.batch)  # live network -> pack index
    solutions: List[Optional[NetworkSolution]] = [None] * pack.batch

    def snapshot(j: int, converged: bool) -> None:
        columns = slice(starts[j], starts[j] + widths[j])
        network = pack.networks[indices[j]]
        layout = network.route_layout
        solutions[indices[j]] = NetworkSolution(
            network=network,
            throughputs=throughputs[columns].copy(),
            queue_lengths=layout.scatter(queue_lengths[:, columns]),
            waiting_times=layout.scatter(waiting[:, columns]),
            method=solver,
            iterations=iterations,
            converged=converged,
            extras=solve_extras(float(residuals[j]), accelerator),
        )

    iterations = 0
    for iterations in range(1, control.max_iterations + 1):
        # Per-station totals: scatter every slot onto its station's bin,
        # gather the totals back per slot.
        at_station = np.bincount(bins.ravel(), weights=queue_lengths.ravel())[bins]
        if heuristic:
            # STEP 2 — own-chain increments from the isolated single-chain
            # problems with inflated service times; STEP 3 — arrival
            # theorem with N(D - u_r) ~= N(D) - sigma(r-).
            others = at_station - queue_lengths
            scaled = np.where(queueing, demands * (1.0 + others), demands)
            sigma = batched_increments(scaled, int_pops, queueing, plan)
            seen = np.maximum(at_station - sigma, 0.0)
        else:
            seen = at_station - queue_lengths * removed
        waiting = np.where(queueing, demands * (1.0 + seen), demands)

        # STEP 4 — Little's law for chains.
        new_throughputs = populations / (route_sum(waiting) + inactive_offset)
        new_throughputs = control.apply_damping(new_throughputs, throughputs)
        # STEP 5 — Little's law for queues.
        queue_lengths = new_throughputs * waiting

        # STEP 6 — every live network's stopping decision in one pass.
        residuals = control.residuals(new_throughputs, throughputs, starts)
        finished = residuals < control.tolerance
        throughputs = new_throughputs
        done = finished.nonzero()[0].tolist()
        if not done:
            if accelerator is not None:
                accelerated = accelerator.push(queue_lengths)
                if accelerated is not None:
                    queue_lengths = accelerated
            continue
        for j in done:
            snapshot(j, True)
        if len(done) == indices.size:
            return solutions  # type: ignore[return-value]

        keep = ~finished
        live = np.repeat(keep, widths)
        indices, widths, residuals = indices[keep], widths[keep], residuals[keep]
        starts = np.cumsum(widths) - widths
        demands, queueing, bins = demands[:, live], queueing[:, live], bins[:, live]
        queue_lengths, waiting = queue_lengths[:, live], waiting[:, live]
        int_pops, populations = int_pops[live], populations[live]
        throughputs, inactive_offset = throughputs[live], inactive_offset[live]
        if heuristic:
            plan = plan_increments(route_sum(demands) > 0, int_pops, queueing)
        else:
            removed = removed[live]

    for j in range(indices.size):
        snapshot(j, False)
    return solutions  # type: ignore[return-value]
