"""Route-compacted, slot-major state layout for the MVA fixed points.

The thesis heuristic (§4.2, APL ``FCT``) costs ``O(sum_r E_r)`` per sweep
over each chain's *own route*: chain ``r`` only ever holds customers at
the stations it visits.  Dense ``(R, L)`` state pays for every (chain,
station) cell instead — on a 120-chain, 408-station network whose chains
visit 3–10 stations each, 98% of those cells are structural zeros.

:class:`RouteLayout` stores each chain's route as one *column* of a
``(K, R)`` slot-major array, ``K`` being the longest route: slot ``k`` of
column ``r`` is chain ``r``'s ``k``-th visited station, in ascending
station order.  Routes shorter than ``K`` are padded at the bottom with
slots of zero demand that are never valid, so they carry zero queue
length, zero waiting time and add exactly nothing to any sum.

Two reductions recur in every sweep:

* **per chain, over its route** — :func:`route_sum` adds the slots one
  after the other in station order.  A bare ``ndarray.sum(axis=0)`` would
  not do: numpy sums a ``(K, 1)`` column pairwise once ``K >= 9`` but a
  C-ordered ``(K, N >= 2)`` array row by row, so a one-chain solve would
  round differently from the same chain inside a pack.
* **per station, over the chains visiting it** — ``np.bincount`` over
  :attr:`RouteLayout.bins` scatters the slots onto their stations (again
  strictly in slot order); indexing the totals with ``bins`` gathers
  them back.  Padded slots scatter onto a spare bin past the last
  station.

One layout is built per topology (it depends on the demands, the visit
counts and the station kinds, never on the populations);
:meth:`repro.queueing.network.ClosedNetwork.with_populations` hands it to
every copy.  Solutions are scattered back to dense ``(R, L)`` once, when
they are built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RouteLayout", "route_sum"]


def route_sum(slots: np.ndarray) -> np.ndarray:
    """Column sums of a ``(K, N)`` slot array, strictly in slot order.

    Every column is summed ``((s_0 + s_1) + s_2) + ...`` whatever ``N``
    is, so a column's sum does not depend on the array it sits in.
    ``np.add.reduce(axis=0)`` adds whole rows in this order, one dispatch
    for any width, while the rows are the outer loop: two or more
    columns, and a column stride smaller than the row stride.  Otherwise
    numpy would make each column the inner loop and add it pairwise (a
    ``(K, 1)`` column from ``K >= 9`` on, or a Fortran-ordered array),
    so those go through ``np.add.accumulate``, which adds in slot order
    whatever the layout.
    """
    if slots.shape[1] >= 2 and abs(slots.strides[1]) < abs(slots.strides[0]):
        return np.add.reduce(slots, axis=0)
    return np.add.accumulate(slots, axis=0)[-1]


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class RouteLayout:
    """One topology's routes, compacted into slot-major columns.

    Attributes
    ----------
    num_stations:
        ``L``, the number of stations of the dense layout.
    slots:
        ``(K, R)`` station index of each chain's ``k``-th visited station
        (``0`` on padded slots; see :attr:`valid`).
    valid:
        ``(K, R)`` bool, True on the slots a chain actually visits.
    demands:
        ``(K, R)`` service demands per slot, zero on padded slots.
    queueing:
        ``(K, R)`` bool, True on visited non-delay (queueing) slots.
    bins:
        ``(K, R)`` ``np.bincount`` bin of each slot: its station, or the
        spare bin ``L`` for padded slots.
    delay_mask:
        ``(L,)`` bool mask of infinite-server stations.
    visit_mask:
        ``(R, L)`` bool, ``visit_counts > 0``.
    slot_index, chain_index, station_index:
        One entry per visited (chain, station) pair: slot ``k`` of
        column ``r`` holds station ``slots[k, r]``.  :meth:`scatter`
        reads them instead of searching :attr:`valid` on every call.
    """

    num_stations: int
    slots: np.ndarray
    valid: np.ndarray
    demands: np.ndarray
    queueing: np.ndarray
    bins: np.ndarray
    delay_mask: np.ndarray
    visit_mask: np.ndarray
    slot_index: np.ndarray
    chain_index: np.ndarray
    station_index: np.ndarray

    @classmethod
    def build(cls, network) -> "RouteLayout":
        """The layout of ``network``'s topology (one vectorized pass)."""
        visit_mask = np.asarray(network.visit_counts) > 0
        delay_mask = np.fromiter(
            (s.is_delay for s in network.stations),
            dtype=bool,
            count=len(network.stations),
        )
        num_chains, num_stations = visit_mask.shape
        lengths = visit_mask.sum(axis=1)
        depth = max(int(lengths.max()), 1)
        # np.nonzero walks row-major: chain by chain, stations ascending.
        chains, stations = np.nonzero(visit_mask)
        position = np.arange(chains.size) - np.repeat(
            np.cumsum(lengths) - lengths, lengths
        )
        slots = np.zeros((depth, num_chains), dtype=np.intp)
        valid = np.zeros((depth, num_chains), dtype=bool)
        demands = np.zeros((depth, num_chains))
        slots[position, chains] = stations
        valid[position, chains] = True
        demands[position, chains] = network.demands[chains, stations]
        return cls(
            num_stations=num_stations,
            slots=_frozen(slots),
            valid=_frozen(valid),
            demands=_frozen(demands),
            queueing=_frozen(valid & ~delay_mask[slots]),
            bins=_frozen(np.where(valid, slots, num_stations)),
            delay_mask=_frozen(delay_mask),
            visit_mask=_frozen(visit_mask),
            slot_index=_frozen(position),
            chain_index=_frozen(chains),
            station_index=_frozen(stations),
        )

    @property
    def depth(self) -> int:
        """``K``, the longest route (at least one slot)."""
        return int(self.slots.shape[0])

    @property
    def num_chains(self) -> int:
        return int(self.slots.shape[1])

    def gather(self, dense: np.ndarray) -> np.ndarray:
        """Compact a ``(R, L)`` array to ``(K, R)`` slots (zero padding)."""
        return np.where(
            self.valid, dense[np.arange(self.num_chains), self.slots], 0.0
        )

    def scatter(self, compact: np.ndarray) -> np.ndarray:
        """Expand ``(K', R)`` slots (``K' >= K``) to a dense ``(R, L)`` array."""
        dense = np.zeros((self.num_chains, self.num_stations))
        dense[self.chain_index, self.station_index] = compact[
            self.slot_index, self.chain_index
        ]
        return dense
