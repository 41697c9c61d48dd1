"""Exact Mean Value Analysis for closed multichain networks.

The exact multichain recursion (thesis eqs. 4.5–4.7):

    t_ir(D) = G_ir * (1 + sum_j N_ij(D - u_r))     (queueing stations)
    t_ir(D) = G_ir                                  (delay stations)
    lambda_r(D) = D_r / sum_i t_ir(D)
    N_ir(D) = lambda_r(D) * t_ir(D)

evaluated over *every* population vector ``0 <= d <= D`` in order of
increasing total population.  The operation count is
``O(R L prod_r (D_r + 1))`` — the intractability that motivates the
heuristic of §4.2 — but for the small windows of the thesis examples it is
perfectly feasible and serves as the reproduction's exact reference.

The walk is level-batched: all vectors of one total population are
gathered into dense ``(V, R, L)`` arrays and processed with a handful of
batched NumPy operations (chunked so memory stays bounded).  Per (vector,
chain) the floating-point operations match the one-vector-at-a-time walk
of :func:`repro.mva.reference.solve_mva_exact` exactly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ModelError, SolverError
from repro.exact.states import lattice_size, population_vectors
from repro.queueing.network import ClosedNetwork
from repro.solution import NetworkSolution

__all__ = ["solve_mva_exact", "check_lattice"]

#: Refuse lattices beyond this many population vectors — the caller almost
#: certainly wanted the heuristic instead.
MAX_LATTICE_SIZE = 5_000_000

#: Vectors per batch in the level-batched kernel; bounds peak memory at
#: roughly ``CHUNK * R * L`` floats per intermediate array.
_LEVEL_CHUNK = 8192


def solve_mva_exact(
    network: ClosedNetwork,
    lattice_cache: Optional["LatticeCache"] = None,
) -> NetworkSolution:
    """Solve a closed multichain network by exact MVA.

    Only fixed-rate single-server and infinite-server stations are
    supported (``network.is_fixed_rate()``), which covers the entire model
    class used in the thesis.

    Parameters
    ----------
    network:
        The closed network to solve.
    lattice_cache:
        Optional :class:`~repro.exact.lattice_cache.LatticeCache`.  The
        walk loads previously computed per-vector station totals from it
        and only recomputes missing lattice rows, making repeated solves
        on overlapping lattices (``E`` then ``E + e_r``) incremental;
        reuse is bit-exact.

    Returns
    -------
    NetworkSolution
        With ``method="mva-exact"``.

    Raises
    ------
    SolverError
        If the population lattice exceeds ``MAX_LATTICE_SIZE`` vectors or
        the network has unsupported station types.
    """
    limits, size = check_lattice(network)
    return _solve_vectorized(network, limits, size, lattice_cache)


def check_lattice(network: ClosedNetwork) -> Tuple[List[int], int]:
    """The population limits and lattice size of a network exact MVA takes.

    Raises :class:`~repro.errors.SolverError` as :func:`solve_mva_exact`
    documents.
    """
    if not network.is_fixed_rate():
        raise SolverError(
            "exact MVA supports fixed-rate single-server and IS stations only"
        )
    limits = [int(p) for p in network.populations]
    size = lattice_size(limits)
    if size > MAX_LATTICE_SIZE:
        raise SolverError(
            f"population lattice has {size} vectors (> {MAX_LATTICE_SIZE}); "
            "use the MVA heuristic for problems of this size"
        )
    return limits, size


def _levels(limits: List[int]) -> List[List[Tuple[int, ...]]]:
    """Population vectors bucketed by total population (ascending)."""
    buckets: List[List[Tuple[int, ...]]] = [[] for _ in range(sum(limits) + 1)]
    for vector in population_vectors(limits):
        buckets[sum(vector)].append(vector)
    return buckets


def _solve_vectorized(
    network: ClosedNetwork,
    limits: List[int],
    size: int,
    lattice_cache=None,
) -> NetworkSolution:
    """Level-batched walk on dense ``(V, R, L)`` arrays.

    With a ``lattice_cache``, previously computed per-vector totals are
    loaded verbatim and only the missing rows of each level go through
    the batched recursion.  The per-(vector, chain) floating-point
    operations are elementwise, so computing a subset of a level in
    smaller batches produces bit-identical rows — reuse never changes
    the solution.  The target vector is always computed fresh (its
    waits/rates *are* the solution).
    """
    demands = network.demands
    num_chains, num_stations = demands.shape
    delay_mask = np.asarray([s.is_delay for s in network.stations], dtype=bool)
    visit_mask = network.visit_counts > 0
    if lattice_cache is not None:
        lattice_cache.bind(network)

    target = tuple(limits)
    final_wait = np.zeros((num_chains, num_stations))
    final_throughput = np.zeros(num_chains)
    final_queue = np.zeros((num_chains, num_stations))

    # Totals of the previous level as one dense array plus a vector->row
    # index; only two adjacent levels are ever alive.
    prev_rows: Dict[Tuple[int, ...], int] = {tuple([0] * num_chains): 0}
    prev_totals = np.zeros((1, num_stations))

    for level in _levels(limits)[1:]:
        num_vectors = len(level)
        level_rows = {vector: v for v, vector in enumerate(level)}
        totals = np.empty((num_vectors, num_stations))

        # Split the level into cache hits (loaded verbatim) and rows that
        # must be computed.  A fully cached level skips the predecessor
        # indexing and the batched math entirely.
        if lattice_cache is None:
            compute = list(range(num_vectors))
        else:
            compute = []
            for v, vector in enumerate(level):
                cached = None if vector == target else lattice_cache.get(vector)
                if cached is None:
                    compute.append(v)
                else:
                    totals[v] = cached

        if compute:
            vectors = np.asarray([level[v] for v in compute], dtype=np.int64)
            compute_arr = np.asarray(compute, dtype=np.int64)
            # Row of each predecessor d - u_r in the previous level's array.
            pred_rows = np.zeros((len(compute), num_chains), dtype=np.int64)
            for m, v in enumerate(compute):
                vector = level[v]
                row = pred_rows[m]
                for r in range(num_chains):
                    if vector[r] > 0:
                        predecessor = list(vector)
                        predecessor[r] -= 1
                        row[r] = prev_rows[tuple(predecessor)]
            valid = vectors > 0  # (M, R)
            target_pos = compute_arr.searchsorted(level_rows[target]) if target in level_rows else -1
            if target_pos >= 0 and not (
                target_pos < len(compute) and compute[target_pos] == level_rows[target]
            ):
                target_pos = -1

            for start in range(0, len(compute), _LEVEL_CHUNK):
                stop = min(start + _LEVEL_CHUNK, len(compute))
                seen = prev_totals[pred_rows[start:stop]]  # (C, R, L)
                wait = np.where(
                    delay_mask[None, None, :],
                    demands[None, :, :],
                    demands[None, :, :] * (1.0 + seen),
                )
                wait = np.where(visit_mask[None, :, :], wait, 0.0)
                chunk_valid = valid[start:stop]
                cycle = wait.sum(axis=2)  # (C, R)
                if np.any(chunk_valid & (cycle <= 0)):
                    bad = int(np.argwhere(chunk_valid & (cycle <= 0))[0][1])
                    raise ModelError(
                        f"chain {network.chains[bad].name!r} has zero total demand"
                    )
                rate = np.where(
                    chunk_valid,
                    vectors[start:stop] / np.where(cycle > 0, cycle, 1.0),
                    0.0,
                )
                queue = rate[:, :, None] * wait  # (C, R, L)
                totals[compute_arr[start:stop]] = queue.sum(axis=1)
                if start <= target_pos < stop:
                    t = target_pos - start
                    final_wait = np.where(valid[target_pos][:, None], wait[t], 0.0)
                    final_throughput = rate[t]
                    final_queue = queue[t]

            if lattice_cache is not None:
                for v in compute:
                    lattice_cache.put(level[v], totals[v].copy())
        prev_rows = level_rows
        prev_totals = totals

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
