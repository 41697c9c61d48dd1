"""Closed multichain queueing-network model.

:class:`ClosedNetwork` is the central model object consumed by every solver
in :mod:`repro.exact` and :mod:`repro.mva`.  It corresponds to the thesis
Chapter 4 model class: ``N`` switching nodes, ``L`` half-duplex links modelled
as FCFS single-server queues, ``R`` classes of messages, each class closed by
an end-to-end window (§4.2 assumptions (a)–(d)).

The model is stored both in object form (stations, chains) and as dense
numpy arrays (per-chain demand matrix, population vector) so numerical code
never needs to touch Python-level structure in inner loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ModelError
from repro.queueing.chain import ClosedChain
from repro.queueing.station import Discipline, Station, validate_unique_names

if TYPE_CHECKING:  # pragma: no cover
    from repro.mva.layout import RouteLayout

__all__ = ["ClosedNetwork"]

_FCFS_SERVICE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class ClosedNetwork:
    """A closed multichain queueing network.

    Construct with :meth:`build` (which validates) rather than directly.

    Attributes
    ----------
    stations:
        All service stations, in index order.
    chains:
        All closed routing chains, in index order.
    demands:
        ``(R, L)`` array; ``demands[r, i]`` is the total mean service demand
        (seconds per chain cycle) of chain ``r`` at station ``i``.  Zero
        where the chain does not visit.
    visit_counts:
        ``(R, L)`` array of visits per cycle.
    populations:
        ``(R,)`` integer array of chain populations (window sizes).
    source_index:
        ``(R,)`` integer array; ``source_index[r]`` is the station index of
        chain ``r``'s source queue, or ``-1`` if the chain declares none.
    """

    stations: Tuple[Station, ...]
    chains: Tuple[ClosedChain, ...]
    demands: np.ndarray
    visit_counts: np.ndarray
    populations: np.ndarray
    source_index: np.ndarray
    # The topology's route layout, built on first use (see route_layout).
    _layout: Optional["RouteLayout"] = field(
        default=None, compare=False, repr=False
    )
    # The topology's power-delay mask, built on first use (see delay_mask).
    _delay_mask: Optional[np.ndarray] = field(
        default=None, compare=False, repr=False
    )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        stations: Sequence[Station],
        chains: Sequence[ClosedChain],
        strict_fcfs: bool = True,
    ) -> "ClosedNetwork":
        """Validate and assemble a closed network.

        Parameters
        ----------
        stations:
            The stations; names must be unique.
        chains:
            The closed chains; names must be unique and every visited
            station must exist.
        strict_fcfs:
            When True (default), enforce the product-form requirement that
            all chains visiting an FCFS station use the same per-visit mean
            service time (thesis §3.2.4).  Disable only for deliberately
            non-product-form models solved by approximation or simulation.
        """
        validate_unique_names(stations)
        station_list = tuple(stations)
        index = {s.name: i for i, s in enumerate(station_list)}

        chain_names = set()
        for chain in chains:
            if chain.name in chain_names:
                raise ModelError(f"duplicate chain name {chain.name!r}")
            chain_names.add(chain.name)
            for visited in chain.visits:
                if visited not in index:
                    raise ModelError(
                        f"chain {chain.name!r} visits unknown station {visited!r}"
                    )

        num_chains = len(chains)
        num_stations = len(station_list)
        if num_chains == 0:
            raise ModelError("a closed network needs at least one chain")
        if num_stations == 0:
            raise ModelError("a closed network needs at least one station")

        demands = np.zeros((num_chains, num_stations))
        visit_counts = np.zeros((num_chains, num_stations))
        populations = np.zeros(num_chains, dtype=np.int64)
        source_index = np.full(num_chains, -1, dtype=np.int64)

        for r, chain in enumerate(chains):
            populations[r] = chain.population
            if chain.source_station is not None:
                source_index[r] = index[chain.source_station]
            for station_name, service in zip(chain.visits, chain.service_times):
                i = index[station_name]
                demands[r, i] += service
                visit_counts[r, i] += 1.0

        network = cls(
            stations=station_list,
            chains=tuple(chains),
            demands=demands,
            visit_counts=visit_counts,
            populations=populations,
            source_index=source_index,
        )
        if strict_fcfs:
            network._validate_fcfs_service_times()
        return network

    def _validate_fcfs_service_times(self) -> None:
        """Check the FCFS equal-service-time product-form requirement.

        One pass over the chains' visits: each FCFS station's first visit
        sets its service time, and the first station (in station order)
        that a later visit disagrees with is reported.
        """
        fcfs = {
            station.name: i
            for i, station in enumerate(self.stations)
            if station.discipline is Discipline.FCFS
        }
        first: Dict[str, Tuple[str, float]] = {}
        clashes: Dict[int, Tuple[str, float, str, float]] = {}
        for chain in self.chains:
            for visited, service in zip(chain.visits, chain.service_times):
                if visited not in fcfs:
                    continue
                base_chain, base = first.setdefault(visited, (chain.name, service))
                if fcfs[visited] not in clashes and abs(
                    service - base
                ) > _FCFS_SERVICE_TOLERANCE * max(base, service):
                    clashes[fcfs[visited]] = (base_chain, base, chain.name, service)
        if clashes:
            i = min(clashes)
            base_chain, base, chain_name, service = clashes[i]
            raise ModelError(
                f"FCFS station {self.stations[i].name!r}: chains "
                f"{base_chain!r} and {chain_name!r} have different "
                f"mean service times ({base} vs {service}); product form "
                "requires them to be equal (pass strict_fcfs=False to "
                "override)"
            )

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def num_stations(self) -> int:
        """Number of service stations ``L``."""
        return len(self.stations)

    @property
    def num_chains(self) -> int:
        """Number of closed chains ``R``."""
        return len(self.chains)

    @property
    def station_names(self) -> Tuple[str, ...]:
        """Station names in index order."""
        return tuple(s.name for s in self.stations)

    @property
    def chain_names(self) -> Tuple[str, ...]:
        """Chain names in index order."""
        return tuple(c.name for c in self.chains)

    def station_id(self, name: str) -> int:
        """Index of the station called ``name`` (raises ``KeyError``)."""
        for i, station in enumerate(self.stations):
            if station.name == name:
                return i
        raise KeyError(name)

    def chain_id(self, name: str) -> int:
        """Index of the chain called ``name`` (raises ``KeyError``)."""
        for r, chain in enumerate(self.chains):
            if chain.name == name:
                return r
        raise KeyError(name)

    def visited_stations(self, chain: int) -> np.ndarray:
        """Indices of stations visited by ``chain`` (thesis ``Q(r)``)."""
        return np.flatnonzero(self.visit_counts[chain] > 0)

    def visiting_chains(self, station: int) -> np.ndarray:
        """Indices of chains visiting ``station`` (thesis ``R(i)``)."""
        return np.flatnonzero(self.visit_counts[:, station] > 0)

    @property
    def route_layout(self) -> "RouteLayout":
        """The route-compacted solver layout of this topology.

        Built once, on first use, and shared by every
        :meth:`with_populations` copy: it depends on the demands, visit
        counts and stations, which those copies share.
        """
        if self._layout is None:
            from repro.mva.layout import RouteLayout

            object.__setattr__(self, "_layout", RouteLayout.build(self))
        return self._layout

    def delay_mask(self) -> np.ndarray:
        """``(R, L)`` bool mask of visits counted in the power-metric delay.

        ``True`` where chain ``r`` visits station ``i`` *and* station ``i``
        is not chain ``r``'s source queue — the thesis set ``V(r)``.
        Built once, on first use, read-only, and shared by every
        :meth:`with_populations` copy, like :attr:`route_layout`.
        """
        if self._delay_mask is None:
            mask = self.visit_counts > 0
            sourced = np.flatnonzero(self.source_index >= 0)
            mask[sourced, self.source_index[sourced]] = False
            mask.flags.writeable = False
            object.__setattr__(self, "_delay_mask", mask)
        return self._delay_mask

    def is_fixed_rate(self) -> bool:
        """True when every station is single-server fixed-rate or IS.

        The exact convolution and MVA implementations currently support this
        (large) model subclass, which includes every network in the thesis.
        """
        for station in self.stations:
            if station.is_delay:
                continue
            if station.servers != 1 or station.rate_multipliers is not None:
                return False
        return True

    # ------------------------------------------------------------------
    # derived models
    # ------------------------------------------------------------------
    def with_populations(self, populations: Sequence[int]) -> "ClosedNetwork":
        """Return a copy with new chain populations (window sizes)."""
        return self.with_population_rows([populations])[0]

    def with_population_rows(
        self, rows: Sequence[Sequence[int]]
    ) -> List["ClosedNetwork"]:
        """One :meth:`with_populations` copy per window vector of ``rows``.

        A copy shares everything with this network but its chains and
        its populations (its row of one int64 matrix).  The copies share
        chain copies as well, one per (chain, window), so a window grid
        makes ``R x`` (distinct windows) of them, not one per chain per
        row.
        """
        for populations in rows:
            if len(populations) != self.num_chains:
                raise ModelError(
                    f"expected {self.num_chains} populations, "
                    f"got {len(populations)}"
                )
        matrix = np.array(rows, dtype=np.int64).reshape(len(rows), self.num_chains)
        # Build the shared lazy state once, so every copy carries it.
        self.route_layout
        self.delay_mask()
        state = self.__dict__
        copies: Dict[Tuple[int, int], ClosedChain] = {}
        networks = []
        for windows, populations in zip(matrix.tolist(), matrix):
            chains = []
            for r, window in enumerate(windows):
                chain = copies.get((r, window))
                if chain is None:
                    chain = copies[r, window] = self.chains[r].with_population(window)
                chains.append(chain)
            # This network's (validated) state with two fields replaced,
            # without the dataclass __init__.
            network = object.__new__(ClosedNetwork)
            network.__dict__.update(
                state, chains=tuple(chains), populations=populations
            )
            networks.append(network)
        return networks

    def subnetwork(self, chain: int) -> "ClosedNetwork":
        """Single-chain network consisting of ``chain`` and its stations.

        Used by the thesis heuristic, which repeatedly isolates one chain
        (with inflated service times) into a single-chain problem (§4.2).
        """
        kept = self.chains[chain]
        visited_names = {v for v in kept.visits}
        stations = tuple(s for s in self.stations if s.name in visited_names)
        return ClosedNetwork.build(stations, [kept])

    def describe(self) -> str:
        """Multi-line human-readable summary of the network."""
        lines = [
            f"ClosedNetwork: {self.num_stations} stations, {self.num_chains} chains"
        ]
        for station in self.stations:
            lines.append(
                f"  station {station.name!r}: {station.discipline.value}, "
                f"servers={station.servers}"
            )
        for chain in self.chains:
            route = " -> ".join(chain.visits)
            lines.append(
                f"  chain {chain.name!r}: window={chain.population}, route {route}"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # stability-style sanity checks
    # ------------------------------------------------------------------
    def bottleneck_station(self, chain: int) -> int:
        """Station index with the largest demand for ``chain``.

        As the chain population grows without bound the bottleneck queue
        length diverges while the others stay finite (thesis §4.2,
        initialisation rule 1).
        """
        row = self.demands[chain]
        return int(np.argmax(row))

    def total_population(self) -> int:
        """Total number of customers across all chains."""
        return int(self.populations.sum())
