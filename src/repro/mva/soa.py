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
reduction; the columns of the networks that finish on a sweep are copied
into the result arrays and compacted out of the live arrays, so the
batch only ever pays for unfinished work).

A window grid is columnar from the pack down: :func:`pack_networks`
takes the populations as a column (one topology's layout, a ``(B, R)``
window matrix and no network copies), and :func:`fixed_point` answers
with one :class:`PackResult` of arrays.  A :class:`NetworkSolution` is
built only for the networks a caller indexes;
:func:`repro.core.power.pack_power` scores the whole pack from the
arrays.

:func:`fixed_point` is the one vectorized fixed point: the serial
solvers (:func:`repro.mva.heuristic.solve_mva_heuristic`,
:func:`repro.mva.schweitzer.solve_schweitzer`) run it on a pack of one
network, with their warm start and Aitken accelerator, and take its one
element.

Parity contract
---------------
Every pack (:func:`pack_networks`) is **bit-identical** to solving its
networks one by one with the serial vectorized solver: throughputs,
queue lengths, waiting times, iteration counts, convergence flags and
residual extras.  Per network, the packed iteration performs the same
floating-point operations in the same order:

* elementwise steps act on a network's own columns;
* sums over a chain's route run slot by slot in station order
  (:func:`~repro.mva.layout.route_sum`, one ``np.add.reduce`` over the
  rows of a pack, ``np.add.accumulate`` down a lone column), so the
  slots a longer route in the pack adds at the bottom of a column add
  exactly nothing;
* per-station totals are one ``np.bincount`` whose bins are offset per
  network, so a station's bin receives its own network's slots in the
  same order as the serial solve;
* the increments recursion is column-independent
  (:func:`repro.mva.heuristic.batched_increments`): each column
  recurses to its own window, through the same operations whichever
  columns share the array and in whatever order the pack ranks them,
  and whether its last steps run vectorized or in the scalar tail's
  Python floats (a pack hands a column to the tail later than a
  serial solve does, so this is what keeps the two equal);
* every network's stopping decision of a sweep comes from one
  :meth:`~repro.mva.convergence.IterationControl.residuals` call over
  the pack's throughput vector, segmented at the networks' first
  columns; ``np.add.reduceat`` sums each network's own contiguous
  ``(R,)`` segment in an order fixed by ``R`` alone, and a serial solve
  (a pack of one) makes the same call on its one segment.

A pack concatenates each network's own columns and pads neither chains
nor stations.  Element ``b`` of a :class:`PackResult` is the
:class:`NetworkSolution` the serial solve returns, bit for bit: its
arrays are copies of the network's columns, scattered to dense
``(R, L)`` when the element is built.

The pack's power (:func:`repro.core.power.pack_power`) equals
:func:`~repro.core.power.network_power` of every element bit for bit.
It gathers each network's delay slots into one row of a C-contiguous
``(B, M)`` array, in the dense delay mask's chain-major order, and sums
the rows with ``sum(axis=1)``: numpy sums each row as it sums the
``(M,)`` vector ``queue_lengths[mask]`` (pairwise from 8 elements on).
``np.add.reduceat`` over the same slots is *not* equal: on the eight
Table 4.12 [1,6]^4 grids it differs in 5,806 of 10,368 powers, whose
12 delay slots it does not add in ``ndarray.sum``'s order.  Throughputs
are summed the same way, as rows of ``(B, R)``.  (Asserted by
``tests/mva/test_soa.py`` and ``tests/mva/test_summation_order.py``.)

:func:`solve_windows_batched` solves one topology under a window matrix
and is what :meth:`repro.core.objective.WindowObjective.batch_solve`
packs through; :func:`solve_networks_batched` batches any mix of
topologies (:meth:`~repro.core.objective.WindowObjective.
batch_solve_networks`, and through it
:func:`repro.analysis.sweeps.power_curve`).  Whether a batch is packed
automatically is decided by :func:`assess`, with declines counted and
logged by :mod:`repro.mva.autobatch`; calling these functions directly
is always honoured.  A network that runs out of
iterations warns, once, at the caller of whichever of them was called.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ModelError
from repro.mva.accel import AitkenAccelerator, solve_extras
from repro.mva.convergence import IterationControl
from repro.mva.layout import route_sum
from repro.queueing.network import ClosedNetwork
from repro.solution import NetworkSolution

__all__ = [
    "WindowPack",
    "PackResult",
    "PackedSolution",
    "pack_networks",
    "fixed_point",
    "solve_packed",
    "solve_windows_batched",
    "solve_networks_batched",
    "BATCHABLE_SOLVERS",
    "assess",
]

#: Named solvers with a batched SoA fixed point.  (Linearizer's nested
#: per-chain subproblems and the exact solvers do not batch this way.)
BATCHABLE_SOLVERS = ("mva-heuristic", "schweitzer")


def assess(
    solver_name: Optional[str],
    has_reuse: bool = False,
    batch_size: int = 2,
) -> Tuple[bool, str]:
    """The single SoA engagement decision: ``(engage, reason)``.

    A named solver in :data:`BATCHABLE_SOLVERS`, no reuse engine and at
    least two networks.  ``reason`` explains the decision either way;
    callers pass declines to
    :func:`repro.mva.autobatch.record_declined` so every batch that
    stays serial is logged.
    """
    if solver_name not in BATCHABLE_SOLVERS:
        return False, (
            f"solver {solver_name!r} has no batched SoA kernel "
            f"(batchable: {list(BATCHABLE_SOLVERS)})"
        )
    if has_reuse:
        return False, (
            "reuse engine active: warm starts are per-key (a solve may "
            "seed from a neighbour in the same batch), so batches stay "
            "serial"
        )
    if batch_size < 2:
        return False, "batch of one network: nothing to batch"
    return True, f"{batch_size} networks packed on the vectorized kernel"

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
    and its spare bin for padded slots).  ``populations`` is the
    ``(N,)`` population column; ``networks[b]`` supplies only network
    ``b``'s topology, so one network may stand for a whole window grid.
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


def pack_networks(
    networks: Sequence[ClosedNetwork],
    populations: Optional[Sequence[Sequence[int]]] = None,
) -> WindowPack:
    """Pack B arbitrary networks by concatenating their route columns.

    Each network keeps its own columns and its own station bins; only
    routes shorter than the pack's longest get zero slots at the bottom,
    which add exactly nothing, so the pack is bit-identical to serial
    solves.  Each distinct layout is padded once.

    ``populations`` (one window vector per network, e.g. a ``(B, R)``
    matrix) replaces the networks' own populations, so a window grid
    packs as ``pack_networks([network] * B, populations=W)``: one
    layout repeated B times and no
    :meth:`~repro.queueing.network.ClosedNetwork.with_populations`
    copies.  Windows must be integers ``>= 0``, ``R_b`` of them for
    network ``b``.
    """
    if not networks:
        raise ModelError("pack_networks needs at least one network")
    networks = tuple(networks)
    layouts = [n.route_layout for n in networks]
    chains = [layout.num_chains for layout in layouts]
    if populations is None:
        column = np.concatenate([n.populations for n in networks])
    else:
        column = _population_column(populations, chains)
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
        populations=column,
        chain_offsets=np.cumsum([0] + chains),
    )


def _population_column(
    populations: Sequence[Sequence[int]], chains: List[int]
) -> np.ndarray:
    """The ``(N,)`` int64 column of per-network window vectors, checked."""
    try:
        if min(chains) == max(chains):
            rows = np.asarray(populations)
            valid = rows.shape == (len(chains), chains[0])
            column = rows.reshape(-1)
        else:
            parts = [np.ravel(p) for p in populations]
            valid = [part.size for part in parts] == chains
            column = np.concatenate(parts)
    except ValueError:
        valid = False
    if not valid:
        raise ModelError(
            f"expected {len(chains)} window vectors, one window per chain"
        )
    if column.dtype.kind not in "iu" and not (
        column.dtype.kind == "f" and np.array_equal(column, np.trunc(column))
    ):
        raise ModelError("window sizes must be integers")
    column = column.astype(np.int64)
    if column.min() < 0:
        raise ModelError("window sizes must be >= 0")
    return column


def _pad(slots: np.ndarray, depth: int, fill) -> np.ndarray:
    """``slots`` with ``fill`` rows appended up to ``depth`` rows."""
    if slots.shape[0] == depth:
        return slots
    out = np.full((depth, slots.shape[1]), fill, dtype=slots.dtype)
    out[: slots.shape[0]] = slots
    return out


@dataclass(frozen=True, eq=False)
class PackResult(Sequence[NetworkSolution]):
    """One fixed point's answer for every network of a pack, as arrays.

    Network ``b`` owns columns ``chain_offsets[b]:chain_offsets[b+1]``
    of ``throughputs`` ``(N,)`` and of the slot-major ``queue_lengths``
    and ``waiting_times`` ``(K, N)``; ``iterations``, ``converged`` and
    ``residuals`` are ``(B,)``.  The result is also a
    ``Sequence[NetworkSolution]``: indexing builds element ``b`` (network
    copy, dense scatter) there and then, bit-identical to the serial
    solve, and nothing is built until a caller indexes.
    """

    networks: Tuple[ClosedNetwork, ...]
    populations: np.ndarray
    chain_offsets: np.ndarray
    solver: str
    throughputs: np.ndarray
    queue_lengths: np.ndarray
    waiting_times: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    residuals: np.ndarray
    #: The serial solvers' accelerator (a pack of one), for the extras.
    accelerator: Optional[AitkenAccelerator] = None

    def __len__(self) -> int:
        return len(self.networks)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[b] for b in range(*index.indices(len(self)))]
        b = operator.index(index)
        if b < 0:
            b += len(self)
        if not 0 <= b < len(self):
            raise IndexError(f"pack result index {index} out of range")
        return self._build(np.array([b]))[0]

    def __iter__(self) -> Iterator[NetworkSolution]:
        """Every element, built in one pass per topology."""
        built: List[NetworkSolution] = [None] * len(self)  # type: ignore[list-item]
        for _topology, rows in self.groups():
            for b, solution in zip(rows.tolist(), self._build(rows)):
                built[b] = solution
        return iter(built)

    def _build(self, rows: np.ndarray) -> List[NetworkSolution]:
        """Elements ``rows``, networks that share one route layout.

        Their columns are gathered and scattered to dense ``(R, L)`` in
        one indexed assignment per array, the values copied exactly as
        the serial solver's :meth:`~repro.mva.layout.RouteLayout.scatter`
        copies them.  A network whose packed windows differ from its own
        populations is copied; networks that share a layout are copies of
        one topology, so one
        :meth:`~repro.queueing.network.ClosedNetwork.with_population_rows`
        call copies them all.
        """
        networks = [self.networks[b] for b in rows.tolist()]
        layout = networks[0].route_layout
        columns = self.chain_offsets[rows][:, None] + np.arange(layout.num_chains)
        windows = self.populations[columns]
        own = np.array([network.populations for network in networks])
        differ = np.flatnonzero((own != windows).any(axis=1))
        if differ.size:
            copies = networks[differ[0]].with_population_rows(windows[differ])
            for g, copy in zip(differ.tolist(), copies):
                networks[g] = copy
        slots = (layout.slot_index, columns[:, layout.chain_index])
        dense = np.zeros((2, rows.size, layout.num_chains, layout.num_stations))
        dense[0][:, layout.chain_index, layout.station_index] = self.queue_lengths[slots]
        dense[1][:, layout.chain_index, layout.station_index] = self.waiting_times[slots]
        throughputs = self.throughputs[columns]
        return [
            NetworkSolution(
                network=network,
                throughputs=throughputs[g],
                queue_lengths=dense[0, g],
                waiting_times=dense[1, g],
                method=self.solver,
                iterations=iterations,
                converged=converged,
                extras=solve_extras(residual, self.accelerator),
            )
            for g, (network, iterations, converged, residual) in enumerate(
                zip(
                    networks,
                    self.iterations[rows].tolist(),
                    self.converged[rows].tolist(),
                    self.residuals[rows].tolist(),
                )
            )
        ]

    def groups(self) -> List[Tuple[ClosedNetwork, np.ndarray]]:
        """``(network, indices)`` per route layout, indices ascending.

        The networks of a group share one topology, so whole-pack
        measures (:func:`repro.core.power.pack_power`) gather each
        group's rows with one index array.
        """
        members: Dict[int, List[int]] = {}
        for b, network in enumerate(self.networks):
            members.setdefault(id(network.route_layout), []).append(b)
        return [
            (self.networks[indices[0]], np.asarray(indices))
            for indices in members.values()
        ]

    @classmethod
    def concatenate(cls, parts: Sequence["PackResult"]) -> "PackResult":
        """The results of consecutive packs (chunks) as one result."""
        if len(parts) == 1:
            return parts[0]
        depth = max(part.queue_lengths.shape[0] for part in parts)
        widths = np.concatenate([np.diff(part.chain_offsets) for part in parts])
        return cls(
            networks=sum((part.networks for part in parts), ()),
            populations=np.concatenate([part.populations for part in parts]),
            chain_offsets=np.concatenate(([0], np.cumsum(widths))),
            solver=parts[0].solver,
            throughputs=np.concatenate([part.throughputs for part in parts]),
            queue_lengths=np.concatenate(
                [_pad(part.queue_lengths, depth, 0.0) for part in parts], axis=1
            ),
            waiting_times=np.concatenate(
                [_pad(part.waiting_times, depth, 0.0) for part in parts], axis=1
            ),
            iterations=np.concatenate([part.iterations for part in parts]),
            converged=np.concatenate([part.converged for part in parts]),
            residuals=np.concatenate([part.residuals for part in parts]),
        )


class PackedSolution:
    """Element ``index`` of a :class:`PackResult`, built on first :meth:`get`.

    What a window-keyed cache keeps for a packed evaluation: the
    :class:`NetworkSolution` is built once, the first time anyone asks,
    and then the handle lets go of the pack.
    """

    __slots__ = ("_result", "_index", "_solution")

    def __init__(self, result: PackResult, index: int):
        self._result: Optional[PackResult] = result
        self._index = index
        self._solution: Optional[NetworkSolution] = None

    def get(self) -> NetworkSolution:
        if self._solution is None:
            self._solution = self._result[self._index]
            self._result = None
        return self._solution

    @property
    def converged(self) -> bool:
        """The element's convergence flag, read without building it."""
        if self._solution is not None:
            return self._solution.converged
        return bool(self._result.converged[self._index])


def solve_windows_batched(
    network: ClosedNetwork,
    windows: Sequence[Sequence[int]],
    solver: str = "mva-heuristic",
    control: Optional[IterationControl] = None,
) -> Sequence[NetworkSolution]:
    """Solve one topology under B window vectors in packed tensor passes.

    ``windows`` is a ``(B, R)`` window matrix (or B window vectors).
    Returns a :class:`PackResult` in input order (an empty list for no
    windows), bit-identical to calling the named serial solver once per
    window with cold starts.  The packs tile ``network``'s layout and
    copy no network.
    """
    count = len(windows)
    if not count:
        return []
    layout = network.route_layout
    per_pack = max(1, SOA_ELEMENT_BUDGET // (layout.depth * layout.num_chains))
    return PackResult.concatenate([
        solve_packed(
            pack_networks((network,) * len(chunk), populations=chunk),
            solver=solver,
            control=control,
        )
        for chunk in (windows[i : i + per_pack] for i in range(0, count, per_pack))
    ])


def solve_networks_batched(
    networks: Sequence[ClosedNetwork],
    solver: str = "mva-heuristic",
    control: Optional[IterationControl] = None,
) -> Sequence[NetworkSolution]:
    """Solve B arbitrary (mixed-topology) networks in packs.

    Returns a :class:`PackResult` in input order (an empty list for no
    networks), bit-identical to serial per-network solves (see
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
    if not chunks:
        return []
    return PackResult.concatenate([
        solve_packed(pack_networks(chunk), solver=solver, control=control)
        for chunk in chunks
    ])


def solve_packed(
    pack: WindowPack,
    solver: str = "mva-heuristic",
    control: Optional[IterationControl] = None,
) -> PackResult:
    """Run the batched fixed point, cold, over every network in ``pack``."""
    engage, reason = assess(solver)
    if not engage:
        raise ModelError(f"SoA packs need a batchable solver: {reason}")
    control = control or IterationControl()
    result = fixed_point(pack, solver, control)
    for b in np.flatnonzero(~result.converged):
        control.on_exhausted(
            solver, int(result.iterations[b]), float(result.residuals[b])
        )
    return result


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
) -> PackResult:
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
    the networks that finish on this sweep.  Their columns are copied
    into the :class:`PackResult` arrays in one indexed assignment per
    array; no per-network Python runs.

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
    columns = np.arange(populations.size)  # live column -> pack column
    # The result arrays, allocated when the first networks finish ahead
    # of the rest; a pack whose networks all finish on one sweep hands
    # its live arrays over instead.
    out: Dict[str, np.ndarray] = {}

    def result(converged: bool) -> PackResult:
        if not out:
            out.update(
                throughputs=throughputs,
                queue_lengths=queue_lengths,
                waiting_times=waiting,
                iterations=np.full(pack.batch, iterations),
                converged=np.full(pack.batch, converged),
                residuals=residuals,
            )
        return PackResult(
            networks=pack.networks,
            populations=pack.populations,
            chain_offsets=pack.chain_offsets,
            solver=solver,
            accelerator=accelerator,
            **out,
        )

    def finish(which: np.ndarray, converged: bool) -> None:
        """Copy the live networks ``which`` (a mask) into ``out``."""
        if not out:
            out.update(
                throughputs=np.empty_like(throughputs),
                queue_lengths=np.empty_like(queue_lengths),
                waiting_times=np.empty_like(queue_lengths),
                iterations=np.empty(pack.batch, dtype=np.int64),
                converged=np.empty(pack.batch, dtype=bool),
                residuals=np.empty(pack.batch),
            )
        done = indices[which]
        out["iterations"][done] = iterations
        out["converged"][done] = converged
        out["residuals"][done] = residuals[which]
        live = np.flatnonzero(np.repeat(which, widths))
        target = columns[live]
        out["throughputs"][target] = throughputs[live]
        out["queue_lengths"][:, target] = queue_lengths.take(live, axis=1)
        out["waiting_times"][:, target] = waiting.take(live, axis=1)

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
        done = np.count_nonzero(finished)
        throughputs = new_throughputs
        if not done:
            if accelerator is not None:
                accelerated = accelerator.push(queue_lengths)
                if accelerated is not None:
                    queue_lengths = accelerated
            continue
        if done == indices.size:
            if out:
                finish(finished, True)
            return result(True)
        finish(finished, True)

        # Column selection by index: ``take`` is several times faster
        # than a boolean mask over the columns of a 2-d array.
        keep = ~finished
        live = np.flatnonzero(np.repeat(keep, widths))
        indices, widths, residuals = indices[keep], widths[keep], residuals[keep]
        starts = np.cumsum(widths) - widths
        columns = columns[live]
        demands, queueing, bins, queue_lengths, waiting = (
            slots.take(live, axis=1)
            for slots in (demands, queueing, bins, queue_lengths, waiting)
        )
        int_pops, populations = int_pops[live], populations[live]
        throughputs, inactive_offset = throughputs[live], inactive_offset[live]
        if heuristic:
            plan = plan_increments(route_sum(demands) > 0, int_pops, queueing)
        else:
            removed = removed[live]

    if out:
        finish(np.ones(indices.size, dtype=bool), False)
    return result(False)
